"""Exact rational linear algebra: constraints and generators.

Everything downstream (the polyhedra kernel, the analyzers, the parsers)
speaks the vocabulary defined here.  Coefficients are unbounded Python
integers, and an affine expression is the integer row ``(const, c_1..c_n)``
that the parsers build and the kernel's images take.  User-facing scalars
are :class:`fractions.Fraction`, and they enter only at the user boundary
(points, bounds and the numbers a caller passes to the builders below).
Constraints and generators are stored in a canonical
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


class Rel(Enum):
    EQ = "="
    GE = ">="
    GT = ">"


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

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.coeffs, self.divisor)


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
