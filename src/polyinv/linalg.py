"""Exact rational linear algebra: expressions, constraints, generators.

Everything downstream (the polyhedra kernel, the analyzers, the parsers)
speaks the vocabulary defined here.  Coefficients are unbounded Python
integers; user-facing scalars are :class:`fractions.Fraction`, and they
enter only at the user boundary (parsed numbers, :class:`LinExpr`, points
and bounds).  Constraints and generators are stored in a canonical
cleared-denominator integer form, so syntactically equal values describe
equal objects and output ordering is deterministic.  Canonicalization is
integer arithmetic: an ``int`` or ``Fraction`` input is read through its
numerator and denominator, and no ``Fraction`` is built for it.

* a constraint is ``<coeffs, x> rel rhs`` with ``rel`` one of ``=``,
  ``>=``, ``>``; the gcd of all numbers is 1 and equalities orient their
  first nonzero coefficient positive;
* a generator is a point, closure point (with positive divisor) or ray,
  again gcd-reduced.

Strict relations (``>``) and closure points only make sense for
not-necessarily-closed polyhedra; this module stores them without
judgement and the kernel enforces topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class DimensionError(ValueError):
    """Operands live in different (or out-of-range) space dimensions."""


def scale_to_integers(values: Sequence) -> tuple[tuple[int, ...], int]:
    """Return (integers, multiplier) with integers = values * multiplier.

    Ints and Fractions are read through their numerator and denominator;
    any other number is converted with ``Fraction`` once.
    """
    values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    mult = lcm(1, *[v.denominator for v in values])
    return tuple([v.numerator * (mult // v.denominator) for v in values]), mult


@dataclass(frozen=True)
class LinExpr:
    """An affine expression ``<coeffs, x> + const`` over a fixed dimension."""

    coeffs: tuple[Fraction, ...]
    const: Fraction = Fraction(0)

    @staticmethod
    def constant(value, n: int) -> LinExpr:
        return LinExpr((Fraction(0),) * n, Fraction(value))

    @staticmethod
    def variable(i: int, n: int) -> LinExpr:
        if not 0 <= i < n:
            raise DimensionError(f"variable index {i} out of range for dimension {n}")
        coeffs = tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        return LinExpr(coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def _check(self, other: LinExpr) -> None:
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: LinExpr) -> LinExpr:
        self._check(other)
        return LinExpr(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
            self.const + other.const,
        )

    def __sub__(self, other: LinExpr) -> LinExpr:
        self._check(other)
        return LinExpr(
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
            self.const - other.const,
        )

    def __neg__(self) -> LinExpr:
        return LinExpr(tuple(-a for a in self.coeffs), -self.const)

    def scale(self, k) -> LinExpr:
        k = Fraction(k)
        return LinExpr(tuple(k * a for a in self.coeffs), k * self.const)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.dim:
            raise DimensionError(f"point has {len(point)} coordinates, expected {self.dim}")
        total = self.const
        for a, v in zip(self.coeffs, point):
            total += a * Fraction(v)
        return total


class Rel(Enum):
    EQ = "="
    GE = ">="
    GT = ">"


class SatResult(Enum):
    SATISFIES = "satisfies"
    SATURATES = "saturates"
    VIOLATES = "violates"


@dataclass(frozen=True)
class Constraint:
    """Canonical integer form of ``<coeffs, x> rel rhs``.

    All-zero coefficient vectors are the canonical markers for
    tautologies (e.g. ``0 >= -1``) and contradictions (``0 >= 1``);
    their rhs is normalised to -1, 0 or 1.
    """

    coeffs: tuple[int, ...]
    rhs: int
    rel: Rel

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_tautology(self) -> bool:
        if not self.is_trivial():
            return False
        if self.rel is Rel.EQ:
            return self.rhs == 0
        if self.rel is Rel.GE:
            return self.rhs <= 0
        return self.rhs < 0

    def is_contradiction(self) -> bool:
        return self.is_trivial() and not self.is_tautology()

    def sort_key(self):
        return (self.rel is not Rel.EQ, self.coeffs, self.rhs, self.rel.value)


def canonicalize_constraint(coeffs: Sequence, rel, rhs=0) -> Constraint:
    """Build the unique canonical constraint ``<coeffs, x> rel rhs``.

    `rel` accepts '<', '<=', '=', '>=', '>' (or a Rel member for the
    three stored relations); '<' and '<=' inputs are negated into GT/GE.
    """
    ints, _ = scale_to_integers([*coeffs, rhs])
    if isinstance(rel, Rel):
        rel = rel.value
    if rel in ("<", "<="):
        ints = [-v for v in ints]
        rel = ">" if rel == "<" else ">="
    try:
        stored = Rel(rel)
    except ValueError:
        raise ValueError(f"unknown relation {rel!r}") from None

    *acoeffs, arhs = ints
    g = gcd(*ints)
    if g > 1:
        acoeffs = [c // g for c in acoeffs]
        arhs //= g
    if all(c == 0 for c in acoeffs):
        # trivial marker: clamp rhs to a sign
        arhs = 0 if arhs == 0 else (1 if arhs > 0 else -1)
        return Constraint(tuple(acoeffs), arhs, stored)
    if stored is Rel.EQ:
        first = next(c for c in acoeffs if c != 0)
        if first < 0:
            acoeffs = [-c for c in acoeffs]
            arhs = -arhs
    return Constraint(tuple(acoeffs), arhs, stored)


def constraint_from_exprs(lhs: LinExpr, rel: str, rhs: LinExpr) -> Constraint:
    diff = lhs - rhs
    return canonicalize_constraint(diff.coeffs, rel, -diff.const)


class GenKind(Enum):
    POINT = "point"
    CLOSURE_POINT = "closure_point"
    RAY = "ray"


_KIND_ORDER = {GenKind.POINT: 0, GenKind.CLOSURE_POINT: 1, GenKind.RAY: 2}


@dataclass(frozen=True)
class Generator:
    """A point, closure point or ray with integer coordinates.

    Points and closure points carry a positive divisor (the denominator
    shared by all coordinates); rays store divisor 0 so that
    ``(divisor, *coeffs)`` is a homogeneous vector for every kind.
    """

    kind: GenKind
    coeffs: tuple[int, ...]
    divisor: int = 1

    @staticmethod
    def point(coords: Sequence, divisor=1, *, kind: GenKind = GenKind.POINT) -> Generator:
        values = [Fraction(c, divisor) for c in coords]
        ints, mult = scale_to_integers(values)
        g = gcd(*ints, mult)
        if g > 1:
            ints = tuple(c // g for c in ints)
            mult //= g
        return Generator(kind, ints, mult)

    @staticmethod
    def closure_point(coords: Sequence, divisor=1) -> Generator:
        return Generator.point(coords, divisor, kind=GenKind.CLOSURE_POINT)

    @staticmethod
    def ray(direction: Sequence) -> Generator:
        ints, _ = scale_to_integers([Fraction(c) for c in direction])
        g = gcd(*ints)
        if g == 0:
            raise ValueError("a ray needs a nonzero direction")
        if g > 1:
            ints = tuple(c // g for c in ints)
        return Generator(GenKind.RAY, tuple(ints), 0)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def is_ray(self) -> bool:
        return self.kind is GenKind.RAY

    def coordinates(self) -> tuple[Fraction, ...]:
        if self.is_ray():
            raise ValueError("rays have directions, not coordinates")
        return tuple(Fraction(c, self.divisor) for c in self.coeffs)

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.coeffs, self.divisor)


def evaluate(expr: LinExpr, point: Sequence) -> Fraction:
    return expr.evaluate(point)


def satisfies(c: Constraint, g: Generator) -> SatResult:
    """Classify a generator against a constraint.

    Points and closure points evaluate ``<a, v> rel b``; rays evaluate
    the homogeneous form ``<a, r> rel 0``.  SATURATES means the equality
    holds exactly; strictness interpretation is left to the caller.
    """
    if c.dim != g.dim:
        raise DimensionError(f"constraint dimension {c.dim} vs generator dimension {g.dim}")
    value = sum(a * x for a, x in zip(c.coeffs, g.coeffs)) - c.rhs * g.divisor
    if value == 0:
        return SatResult.SATURATES
    if c.rel is Rel.EQ:
        return SatResult.VIOLATES
    return SatResult.SATISFIES if value > 0 else SatResult.VIOLATES


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def format_linexpr_terms(coeffs: Sequence[int], names: Sequence[str]) -> str:
    parts: list[str] = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        mag = abs(c)
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+" if c > 0 else "-") + term)
    return "".join(parts) if parts else "0"


def format_constraint(c: Constraint, names: Sequence[str]) -> str:
    if len(names) != c.dim:
        raise DimensionError(f"{len(names)} names for dimension {c.dim}")
    coeffs, rhs, rel = c.coeffs, c.rhs, c.rel
    if rel is not Rel.EQ and any(v != 0 for v in coeffs) and all(v <= 0 for v in coeffs):
        # display-negate so "-x >= 0" reads "x <= 0"
        coeffs = tuple(-v for v in coeffs)
        rhs = -rhs
        op = "<=" if rel is Rel.GE else "<"
    else:
        op = rel.value
    return f"{format_linexpr_terms(coeffs, names)}{op}{rhs}"


def format_generator(g: Generator) -> str:
    if g.is_ray():
        return "ray(" + ", ".join(str(c) for c in g.coeffs) + ")"
    coords = ", ".join(str(Fraction(c, g.divisor)) for c in g.coeffs)
    return f"{g.kind.value}({coords})"
