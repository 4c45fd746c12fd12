"""Integer emission checked against the Fraction reference.

``minimized_constraints`` builds each constraint from its integer minimal
row (slack dropped, divided by the gcd of what is left, equalities
oriented), and ``scale_to_integers``/``canonicalize_constraint`` read an
int or Fraction through its numerator and denominator.  The references in
``tests/oracles.py`` do the same through ``Fraction``.  Values live in
dimensions 1..6, closed and NNC, and include eps-redundant twins,
equalities whose minimal row starts negative, NNC rows whose coefficients
share a factor once the slack is dropped, empty values and the universe.
Rendering a converted value and canonicalizing integers build no
``Fraction`` at all.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyinv.linalg import Generator, Rel, canonicalize_constraint, scale_to_integers
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import (
    fraction_canonicalize_constraint,
    fraction_constraints,
    fraction_scale_to_integers,
)
from .test_nnc_inclusion import FUZZ, constraints, generators

CLOSED, NNC = Topology.CLOSED, Topology.NNC
NAMES = {"x0": 0, "x1": 1, "x2": 2}


@st.composite
def values(draw, topology):
    d = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["rows", "rows", "gens", "gens", "empty", "universe"]))
    if kind == "rows":
        p = Polyhedron.from_constraints(d, topology, draw(constraints(d, topology)))
    elif kind == "gens":
        p = Polyhedron.from_generators(d, topology, draw(generators(d, topology)))
    elif kind == "empty":
        p = Polyhedron.empty(d, topology)
    else:
        p = Polyhedron.universe(d, topology)
    op = draw(st.sampled_from(["as is", "as is", "hull", "meet"]))
    if op == "hull":
        return p.poly_hull(Polyhedron.from_generators(d, topology, draw(generators(d, topology))))
    if op == "meet":
        return p.intersection(Polyhedron.from_constraints(d, topology, draw(constraints(d, topology))))
    return p


@FUZZ
@given(values(CLOSED))
def test_closed_emission_equals_the_fraction_reference(p):
    assert p.minimized_constraints() == fraction_constraints(p)


@FUZZ
@given(values(NNC))
def test_nnc_emission_equals_the_fraction_reference(p):
    assert p.minimized_constraints() == fraction_constraints(p)


def _text(text, topology):
    return Polyhedron.from_constraints(3, topology, parse_constraints(text, NAMES, 3))


def twins():
    return _text("x0>0, x0>=0, x1>=x2, x1>x2", NNC)  # eps-redundant twins in the input


def negative_equality():
    return _text("x0+x1+x2=3, x0-x1=1", CLOSED)


def factor():
    return Polyhedron.from_generators(
        1, NNC, [Generator.point([1], 2), Generator.closure_point([-3])]
    )


@pytest.mark.parametrize(
    "build, expected",
    [
        (twins, "{x1-x2>0, x0>0}"),
        (negative_equality, "{x0-x1=1, 2*x0+x2=4}"),
        (factor, "{2*x0<=1, x0>-3}"),
        (lambda: Polyhedron.empty(2, NNC), "{0>=1}"),
        (lambda: Polyhedron.universe(2, NNC), "{}"),
        (lambda: Polyhedron.universe(2, CLOSED), "{}"),
    ],
    ids=["eps-twins", "negative-equality", "factor-after-slack", "empty", "universe nnc",
         "universe closed"],
)
def test_pinned_values(build, expected):
    p = build()
    names = [f"x{i}" for i in range(p.dim)]
    assert p.minimized_constraints() == fraction_constraints(p)
    assert p.constraints_pretty(names) == expected


def test_pinned_values_have_their_features():
    # a minimal equality row whose first variable coefficient is negative
    rows = negative_equality()._minimal_rows()
    assert any(eq and next(x for x in v[1:] if x) < 0 for v, eq in rows)
    # a 1-D minimal row (-b, a, eps) whose b and a share a factor once eps is dropped
    assert any(v[1] and gcd(v[0], v[1]) > 1 for v, _ in factor()._minimal_rows())


# ---------------------------------------------------------------------------
# linalg helpers against their Fraction bodies
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)
RELATIONS = st.sampled_from(["<", "<=", "=", ">=", ">", Rel.EQ, Rel.GE, Rel.GT])


@FUZZ
@given(st.lists(NUMBERS, max_size=7))
def test_scale_to_integers_equals_the_fraction_body(numbers):
    ints, mult = scale_to_integers(numbers)
    assert (ints, mult) == fraction_scale_to_integers(numbers)
    assert all(type(x) is int for x in ints) and type(mult) is int


@FUZZ
@given(st.lists(NUMBERS, min_size=1, max_size=6), RELATIONS, NUMBERS)
def test_canonicalize_equals_the_fraction_body(coeffs, rel, rhs):
    c = canonicalize_constraint(coeffs, rel, rhs)
    assert c == fraction_canonicalize_constraint(coeffs, rel, rhs)
    assert all(type(x) is int for x in c.coeffs) and type(c.rhs) is int


def test_other_numbers_are_still_read_as_fractions():
    assert canonicalize_constraint(["1/2", 0.25], "<=", "3/4") == fraction_canonicalize_constraint(
        [Fraction(1, 2), Fraction(1, 4)], "<=", Fraction(3, 4)
    )
    mixed = [0.5, Fraction(-1, 3), -2]
    assert scale_to_integers(mixed) == fraction_scale_to_integers(mixed) == ((3, -2, -12), 6)


# ---------------------------------------------------------------------------
# No Fraction, no conversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build",
    [
        lambda: _text("x0+x1+x2=3, x0-x1=1, x2>=-4", CLOSED),
        lambda: _text("x0>0, x0>=0, 2*x1<=x2, x1+x2<7", NNC),
        factor,
        lambda: Polyhedron.from_generators(
            2, CLOSED, [Generator.point([1, 2], 3), Generator.ray([1, -1])]
        ),
    ],
    ids=["closed rows", "nnc rows", "nnc gens", "closed gens"],
)
def test_rendering_a_converted_value_builds_no_fraction(build, fractions_built, conversions):
    p = build()
    p._minimal_rows()  # stored and already converted
    conversions.clear()
    fractions_built.clear()
    names = [f"x{i}" for i in range(p.dim)]
    p.constraints_pretty(names)
    assert fractions_built == []
    assert conversions == []


def test_canonicalizing_integers_builds_no_fraction(fractions_built):
    for rel in ["<", "<=", "=", ">=", ">"]:
        canonicalize_constraint([4, -6, 0], rel, 10)
        canonicalize_constraint([-3, 0], rel, 0)
        canonicalize_constraint([0, 0], rel, -5)
    scale_to_integers([3, -7, 0])
    assert fractions_built == []
