"""Interval arithmetic: examples plus soundness by exhaustion."""

from itertools import product

import pytest

from polyinv.domains import Interval, int_arith

CONCRETE_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}


def test_addition_formula():
    assert int_arith("+", Interval(1, 2), Interval(3, 4)) == Interval(4, 6)


def test_multiplication_brute_forced():
    a, b = Interval(-1, 2), Interval(3, 4)
    products = {x * y for x in range(-1, 3) for y in range(3, 5)}
    got = int_arith("*", a, b)
    assert got == Interval(min(products), max(products)) == Interval(-4, 8)


def test_subtraction_loses_correlation():
    a = Interval(0, 1)
    assert int_arith("-", a, a) == Interval(-1, 1)


def test_bottom_absorbs():
    for op in "+-*":
        assert int_arith(op, Interval.bottom(), Interval(0, 1)).is_bottom()
        assert int_arith(op, Interval(0, 1), Interval.bottom()).is_bottom()


def test_infinite_endpoint_products():
    assert int_arith("*", Interval(0, None), Interval(2, 3)) == Interval(0, None)
    assert int_arith("*", Interval(0, None), Interval(-3, -2)) == Interval(None, 0)
    assert int_arith("*", Interval(None, None), Interval(0, 0)) == Interval(0, 0)
    assert int_arith("*", Interval(None, -1), Interval(None, -1)) == Interval(1, None)


def _small_intervals():
    bounds = [None, -3, -2, -1, 0, 1, 2, 3]
    out = [Interval.bottom()]
    for lo in bounds:
        for hi in bounds:
            if lo is not None and hi is not None and lo > hi:
                continue
            out.append(Interval(lo, hi))
    return out


def _gamma_sample(iv, lo=-3, hi=3):
    return [m for m in range(lo, hi + 1) if iv.contains(m)]


def test_soundness_by_exhaustion():
    small = [iv for iv in _small_intervals() if iv.lo is not None and iv.hi is not None]
    for a, b in product(small, repeat=2):
        xs, ys = _gamma_sample(a), _gamma_sample(b)
        for op, f in CONCRETE_OPS.items():
            res = int_arith(op, a, b)
            for x in xs:
                for y in ys:
                    assert res.contains(f(x, y)), (op, a, b, x, y)


def test_monotonicity():
    small = _small_intervals()
    pairs = [(a, b) for a in small for b in small if a.leq(b)]
    probe = Interval(-1, 2)
    for a, b in pairs:
        for op in "+-*":
            assert int_arith(op, a, probe).leq(int_arith(op, b, probe))


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        Interval(2, 1)
