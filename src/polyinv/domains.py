"""Integer intervals for non-affine assignments.

The analyzer evaluates an assignment whose right-hand side has no
affine form on intervals and assigns the result as a bounded affine
image.  Intervals have integer endpoints with None standing for an
infinite bound.  The arithmetic is sound and optimal; no widening lives
here because the analyzer only iterates on the polyhedral store.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """[lo, hi] with None = unbounded; the empty interval is bottom."""

    lo: int | None
    hi: int | None
    empty: bool = False

    def __post_init__(self):
        if not self.empty and self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @staticmethod
    def bottom() -> Interval:
        return Interval(None, None, empty=True)

    @staticmethod
    def singleton(m: int) -> Interval:
        return Interval(m, m)

    def is_bottom(self) -> bool:
        return self.empty

    def contains(self, m: int) -> bool:
        if self.empty:
            return False
        if self.lo is not None and m < self.lo:
            return False
        if self.hi is not None and m > self.hi:
            return False
        return True

    def leq(self, other: Interval) -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        if other.lo is not None and (self.lo is None or self.lo < other.lo):
            return False
        if other.hi is not None and (self.hi is None or self.hi > other.hi):
            return False
        return True


def _add(a: int | None, b: int | None) -> int | None:
    return None if a is None or b is None else a + b


def _neg(a: int | None) -> int | None:
    return None if a is None else -a


def int_add(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return Interval.bottom()
    return Interval(_add(a.lo, b.lo), _add(a.hi, b.hi))


def int_sub(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return Interval.bottom()
    return Interval(_add(a.lo, _neg(b.hi)), _add(a.hi, _neg(b.lo)))


def _mul_bound(a: int | None, a_sign: int, b: int | None, b_sign: int):
    """Product of two endpoint values, None meaning an infinity.

    a_sign/b_sign give the sign of the infinity (-1 for lo, +1 for hi);
    0 * infinity is 0 because the underlying sets are real subsets.
    """
    if a is None and b is None:
        return None, a_sign * b_sign
    if a is None:
        if b == 0:
            return 0, 0
        return None, a_sign * (1 if b > 0 else -1)
    if b is None:
        if a == 0:
            return 0, 0
        return None, b_sign * (1 if a > 0 else -1)
    return a * b, 0


def int_mul(a: Interval, b: Interval) -> Interval:
    if a.empty or b.empty:
        return Interval.bottom()
    candidates = []
    for av, asign in ((a.lo, -1), (a.hi, 1)):
        for bv, bsign in ((b.lo, -1), (b.hi, 1)):
            candidates.append(_mul_bound(av, asign, bv, bsign))
    finite = [v for v, _ in candidates if v is not None]
    has_neg_inf = any(v is None and s < 0 for v, s in candidates)
    has_pos_inf = any(v is None and s > 0 for v, s in candidates)
    lo = None if has_neg_inf else min(finite)
    hi = None if has_pos_inf else max(finite)
    return Interval(lo, hi)


def int_arith(op: str, a: Interval, b: Interval) -> Interval:
    if op == "+":
        return int_add(a, b)
    if op == "-":
        return int_sub(a, b)
    if op == "*":
        return int_mul(a, b)
    raise ValueError(f"unknown arithmetic operator {op!r}")
