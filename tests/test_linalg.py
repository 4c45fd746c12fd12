from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyinv.linalg import (
    Constraint,
    Generator,
    Rel,
    canonicalize_constraint,
    format_constraint,
)


def test_canonicalize_scales_to_integers():
    # (2/4)x - 1/2 >= 0  ->  x >= 1
    c = canonicalize_constraint([Fraction(2, 4)], ">=", Fraction(1, 2))
    assert c == Constraint((1,), 1, Rel.GE)


def test_canonicalize_tautology_marker():
    c = canonicalize_constraint([0], ">=", -1)
    assert c.is_tautology() and not c.is_contradiction()
    assert c == Constraint((0,), -1, Rel.GE)
    assert canonicalize_constraint([0], ">=", -7).rhs == -1


def test_canonicalize_strict_orientation():
    # x < 3  ->  -x > -3
    c = canonicalize_constraint([1], "<", 3)
    assert c == Constraint((-1,), -3, Rel.GT)


def test_canonicalize_equality_sign():
    c = canonicalize_constraint([-2, 0], "=", -4)
    assert c == Constraint((1, 0), 2, Rel.EQ)


def test_canonicalize_idempotent():
    c = canonicalize_constraint([6, -9], ">=", 3)
    again = canonicalize_constraint(c.coeffs, c.rel, c.rhs)
    assert c == again


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.integers(-9, 9),
    st.sampled_from(["<", "<=", "=", ">=", ">"]),
    st.integers(1, 5),
    st.integers(1, 5),
)
def test_canonicalize_positive_scaling_invariant(coeffs, rhs, rel, num, den):
    lam = Fraction(num, den)
    base = canonicalize_constraint(coeffs, rel, rhs)
    scaled = canonicalize_constraint([lam * c for c in coeffs], rel, lam * rhs)
    assert base == scaled


def test_generator_normalization():
    g = Generator.point([2, 4], 2)
    assert g.coeffs == (1, 2) and g.divisor == 1
    r = Generator.ray([4, -6])
    assert r.coeffs == (2, -3) and r.divisor == 0
    with pytest.raises(ValueError):
        Generator.ray([0, 0])


def test_generator_point_fraction_coords():
    g = Generator.point([Fraction(1, 2), Fraction(3, 2)])
    assert g.coeffs == (1, 3) and g.divisor == 2
    assert g.coordinates() == (Fraction(1, 2), Fraction(3, 2))


def test_format_constraint():
    names = ["x0", "x1"]
    assert format_constraint(canonicalize_constraint([2, 3], ">=", 5), names) == "2*x0+3*x1>=5"
    assert format_constraint(canonicalize_constraint([-1, 0], ">=", 0), names) == "x0<=0"
    assert format_constraint(canonicalize_constraint([1, -1], "=", 10), names) == "x0-x1=10"
    assert format_constraint(canonicalize_constraint([-1, 0], ">", -10), names) == "x0<10"
