"""The double-description polyhedra kernel.

A polyhedron in ``Q^n`` is carried as a pair of dual descriptions of the
homogenization cone in ``Q^(n+1)``:

* *rows*: integer vectors ``(-b, a1..an)`` meaning ``<a, x> >= b`` (or
  ``= b``), plus the implicit positivity row ``xi0 >= 0``;
* *generators*: integer rays of the cone; a ray with ``xi0 > 0`` is a
  point with divisor ``xi0``, a ray with ``xi0 = 0`` is a ray of the
  polyhedron.  Lines (bidirectional rays) are kept explicit internally
  and rendered as pairs of opposite rays.

Conversion between the two descriptions is the incremental
Chernikova-style algorithm: constraints are added one at a time to the
universe cone; generators violating the new half-space are combined
with satisfying ones across adjacent pairs only, where adjacency is the
combinatorial saturation test (two rays are adjacent iff no third ray
saturates a superset of their common saturated rows).  Keeping the
lineality space explicit is what makes that test sound: the ray cone is
pointed modulo the lines, so rays are genuine extreme rays and the
conversion output is minimal.  A forward conversion keeps the
saturation matrix it ends with.  A meet built when one operand holds its
minimal generators, or raw ones whose dual conversion kept its matrix,
starts its conversion from them and that matrix instead of the universe,
and adds only the rows that operand does not hold: the test needs
extreme rays and rows that define their cone, raw or minimal.  The meet
holds those tuples, not the operand, and drops them once converted.

A value holds one copy of each description.  The one it was built from
stays as given, unminimized, until emission or widening asks for it
minimal; the minimal copy then replaces it.  Conversion is lazy and runs
at most once per description, the other read off the one matrix a value
holds, of which rows saturate which generator: built from rows, a value
converts them to its minimal generators, the bits indexing its held rows;
built from generators, it converts them dually to its minimal rows, the
bits indexing those generators until read.  Every other operation reads
whichever copy is there, so a description nobody reads is never computed,
and operations that only rewrite rows never convert to test for emptiness.
A row system holds each row once, the first copy kept, and an intersection
that adds no row to an operand returns that operand, generators and all.
An intersection also returns an operand held only by generators when the
other operand's held rows all hold on them: that is inclusion of the
embeddings, read without a conversion, so the meet is that operand's cone.
The closure of an NNC value whose held rows have no slack coefficient but
the two side rows is the value itself: those rows encode the set times
``0 <= eps <= 1``; less the slack, its closed twin.

Not-necessarily-closed (NNC) polyhedra are embedded as closed polyhedra
with one extra slack dimension ``eps``: a strict ``<a, x> > b`` becomes
``<a, x> - eps >= b`` under the side constraints ``0 <= eps <= 1``, and
the encoded set is the projection of the region with ``eps > 0``.
Every vector, row or generator, is laid out as ``(xi0, x_1..x_n, *tail)``,
the tail ``()`` for closed values and ``(eps,)`` for NNC ones, so a change
of dimensions rewrites ``v[:1 + n]`` and carries ``v[1 + n:]`` along
whatever the topology.  Adding dimensions is concatenation with a
universe, which pads rows; permuting them permutes the columns of the held
(or minimal) rows.  Every image and projection (affine images, compiled
affine maps, bounded images, removing dimensions) of a value held by
generators is one generator map, ``_mapped``: each held line and ray goes
through the operation's vector function, is normalized, and the zero
vectors are dropped.  Affine and bounded images
take each expression as an integer row ``(const, c_1..c_n)``; a rational
update ``x_k := row / den`` is ``affine_map`` of an ``AffineMap`` with a
universe guard, whose generator map gives the same vectors.
Points of the embedding with positive slack project to points, points
with zero slack project to closure points.  All public comparisons of
NNC values are semantic (mutual inclusion of the encoded sets), never
comparisons of the internal embedding.  Inclusion reads the rows one
value holds and the generators the other holds, minimal or not, in one
loop for both topologies: every row with a nonzero variable part, its
slack coefficient dropped, must hold on every generator of the other
value, and a strict row (negative slack coefficient) must hold strictly
on its points (positive slack).  This is exact for any description: a
generator of the embedding with positive slack projects to a point of
the set and one with zero slack to a point of its closure, and every
row, minimal or not, has a slack coefficient of 0 or below (the side
row ``eps >= 0`` aside), so it reads as one constraint on the set,
strict when that coefficient is negative.
A value that holds generators also gives the box of its closure, the
interval hull per dimension with each bound an integer pair
``(num, den)``, read off those generators once and kept; it never
converts.  Other inside self puts other's box inside self's, so a box
that leaves the other's answers an inclusion no without reading a row
(``box_excludes``); the powerset asks it before every full test.
``dim_bounds`` and the analyzer's interval bounds read the same box.
Emission reads the integer minimal rows directly: each constraint is a
row with its slack dropped, divided by the gcd of what is left, and no
``Fraction`` is built between the conversion and the printed system.
Emission depends only on the encoded cone, not on how a value was built:
the minimal rows are in a normal form (each equality's last nonzero
column is zero in every other minimal row), and the minimal rays are
emitted reduced by the unique reduced row echelon form of the lines
(``_eliminate``).  So the closure maps the minimal generators as they
are, and membership is the inclusion of a one-point value.

Everything here is exact integer/rational arithmetic; values are
immutable after construction (the lazily converted descriptions are
idempotent internal caches, safe to recompute concurrently).
"""

from __future__ import annotations

import os
from enum import Enum
from fractions import Fraction
from functools import cache, reduce
from math import gcd, lcm
from operator import and_, mul, sub
from typing import Callable, Iterable, NamedTuple, Sequence

from .linalg import (
    Constraint,
    DimensionError,
    GenKind,
    Generator,
    Rel,
    format_constraint,
    scale_to_integers,
)

Vec = tuple[int, ...]
Row = tuple[Vec, bool]  # (vector, is_equality)
Bound = tuple[int, int]  # (num, den), den > 0: the rational num / den
Box = tuple[tuple[Bound | None, Bound | None], ...]  # (lo, hi) per dimension, None unbounded
Cone = tuple[list[Vec], list[Vec], list[int], int]  # (lines, rays, sat, nbits): see _dd_cone
# a value's one saturation matrix (Polyhedron._cone): a Cone and, last, what its bits index
HeldCone = tuple[Sequence[Vec], Sequence[Vec], Sequence[int], int, tuple]


class TopologyError(ValueError):
    """Strict constraints / closure points require an NNC polyhedron."""


class GeneratorSystemError(ValueError):
    """A nonempty generator system must contain at least one point."""


class WideningPreconditionError(ValueError):
    """standard_widening(P, Q) requires P to be included in Q."""


class Topology(Enum):
    CLOSED = "closed"
    NNC = "nnc"


# which of two emitted constraints with equal coefficients and rhs is kept
_TWIN_ORDER = {Rel.EQ: 0, Rel.GT: 1, Rel.GE: 2}


# ---------------------------------------------------------------------------
# Integer vector helpers
# ---------------------------------------------------------------------------

def _dot(a: Vec, b: Vec) -> int:
    return sum(map(mul, a, b))


# POLYINV_MAX_BITS (fuzz harnesses only): abort instead of letting
# coefficient magnitudes run away on adversarial inputs
_MAX_BITS = int(os.environ.get("POLYINV_MAX_BITS", "0"))


def _norm(v: Sequence[int]) -> Vec | None:
    """gcd-normalize keeping orientation; None for the zero vector."""
    g = gcd(*v)
    if g == 0:
        return None
    v = tuple([x // g for x in v]) if g > 1 else tuple(v)
    if _MAX_BITS and max(map(abs, v)).bit_length() > _MAX_BITS:
        raise ArithmeticError(f"coefficient exceeds POLYINV_MAX_BITS={_MAX_BITS}")
    return v


def _combine(ta: int, a: Vec, tb: int, b: Vec) -> Vec | None:
    return _norm([ta * x + tb * y for x, y in zip(a, b)])


@cache
def _units(dim: int) -> tuple[Vec, ...]:
    return tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))


def _columns(cols: Sequence[int], cut: int) -> Callable[[Vec], Vec]:
    """The map picking columns ``cols`` of a vector, then its tail from ``cut``."""
    return lambda v: tuple([v[c] for c in cols]) + v[cut:]


@cache
def _side_rows(hom_dim: int) -> tuple[Row, ...]:
    """The NNC side rows ``eps >= 0`` and ``eps <= 1``, eps the last column."""
    units = _units(hom_dim)
    return (units[-1], False), (tuple(map(sub, units[0], units[-1])), False)


# ---------------------------------------------------------------------------
# The conversion engine
# ---------------------------------------------------------------------------

def _dd_cone(dim: int, rows: Iterable[Row], seed: Cone | None = None) -> Cone:
    """DD pair (lines, rays) of ``{x : r.x >= 0 / r.x = 0 for r in rows}``,
    with its saturation matrix: ``(lines, rays, sat, nbits)``, ``sat[i]``
    the bitmask of the ``nbits`` inequality rows processed that ray ``i``
    saturates.

    Seeded from the universe cone, or from ``seed``, a cone in that form
    whose rows define it (any such rows: the adjacency test needs only
    extreme rays and a defining row system), which is then met with
    ``rows``.  Rows are processed incrementally.  The returned rays are
    exactly the extreme rays modulo the returned lineality basis.
    """
    if seed is None:
        lines: list[Vec] = list(_units(dim))
        rays: list[Vec] = []
        sat: list[int] = []  # per-ray bitmask of saturated inequality rows
        nbits = 0
    else:
        lines, rays, sat, nbits = seed
    mask_all = (1 << nbits) - 1  # bits of all inequality rows processed so far

    for vec, is_eq in rows:
        if not any(vec):
            continue  # tautology row carries no information
        cut = None
        for j, line in enumerate(lines):
            t = _dot(vec, line)
            if t != 0:
                cut = (j, line, t)
                break
        if cut is not None:
            j, line, t = cut
            if t < 0:
                line = tuple(-x for x in line)
                t = -t
            new_lines = []
            for k, other in enumerate(lines):
                if k == j:
                    continue
                tk = _dot(vec, other)
                if tk == 0:
                    new_lines.append(other)
                else:
                    adjusted = _combine(t, other, -tk, line)
                    assert adjusted is not None
                    new_lines.append(adjusted)
            lines = new_lines
            for i, ray in enumerate(rays):
                s = _dot(vec, ray)
                if s != 0:
                    adjusted = _combine(t, ray, -s, line)
                    assert adjusted is not None
                    rays[i] = adjusted
            if is_eq:
                continue  # the cut direction disappears entirely
            bit = 1 << nbits
            nbits += 1
            sat = [m | bit for m in sat]  # every surviving ray saturates
            rays.append(line)
            sat.append(mask_all)
            mask_all |= bit
            continue

        # all lines saturate the row: classic partition step on rays
        vals = [_dot(vec, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if is_eq:
            bit = 0
        else:
            bit = 1 << nbits
            nbits += 1
        combos: list[tuple[Vec, int]] = []
        for ip in pos:
            sp = sat[ip]
            for im in neg:
                common = sp & sat[im]
                adjacent = True
                for k in range(len(rays)):
                    if k != ip and k != im and (sat[k] & common) == common:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                new = _combine(vals[ip], rays[im], -vals[im], rays[ip])
                if new is not None:
                    combos.append((new, common | bit))
        keep = zero if is_eq else pos + zero
        new_rays = []
        new_sat = []
        for i in keep:
            new_rays.append(rays[i])
            new_sat.append(sat[i] | (bit if vals[i] == 0 else 0))
        for v, m in combos:
            new_rays.append(v)
            new_sat.append(m)
        rays = new_rays
        sat = new_sat
        if not is_eq:
            mask_all |= bit

    return lines, rays, sat, nbits


def _dual_rows(hom_dim: int, lines: Sequence[Vec], rays: Sequence[Vec]) -> Cone:
    """The dual conversion of the cone generated by (lines, rays).

    Runs the same conversion in the polar space: lines become equality
    rows, rays inequality rows; the output lines/rays are the equality
    and inequality rows of the minimal constraint description, the
    positivity row among the rays when it is a facet, and bit ``k`` of
    ``sat[i]`` says that row ``i`` saturates ``rays[k]`` (rays nonzero).
    """
    return _dd_cone(hom_dim, [(l, True) for l in lines] + [(r, False) for r in rays])


# ---------------------------------------------------------------------------
# Integer elimination (deterministic emission, compiled affine maps)
# ---------------------------------------------------------------------------

def _reduce(v: Sequence[int], pivots: dict[int, Vec]) -> Vec | None:
    """``v`` with each pivot column zeroed by its pivot row, normalized; None if zero."""
    for c, p in pivots.items():
        if q := v[c]:
            v = [p[c] * a - q * b for a, b in zip(v, p)]
    return _norm(v)


def _eliminate(vectors: Iterable[Vec], cols: Sequence[int]) -> tuple[dict[int, Vec], list[Vec]]:
    """Gauss-Jordan elimination of ``vectors``, one at a time, over ``cols``.

    Returns the pivot rows by column and the rest, the nonzero reduced
    vectors that are zero on ``cols``.  A vector reduced by the pivots
    before it becomes a pivot at its first nonzero column in ``cols``,
    made positive there and cleared from the other pivots: a reduced row
    echelon form, unique for the span, whatever the order, when no rest.
    """
    pivots: dict[int, Vec] = {}
    rest: list[Vec] = []
    for v in vectors:
        v = _reduce(v, pivots)
        if v is None:
            continue
        col = next((c for c in cols if v[c]), None)
        if col is None:
            rest.append(v)
            continue
        if v[col] < 0:
            v = tuple([-x for x in v])
        for c, p in pivots.items():
            if p[col]:
                pivots[c] = _combine(v[col], p, -p[col], v)
        pivots[col] = v
    return pivots, rest


def _maximal(masks: Sequence[int], vecs: Sequence[Vec]) -> tuple[list[Vec], dict[int, Vec]]:
    """A 0/1 matrix, a bit mask per row over the columns ``vecs``, read by column: the vectors
    set in every row, and of the others the first per maximal set of rows setting it, by set."""
    flat = reduce(and_, masks, (1 << len(vecs)) - 1)
    rows_of = [0] * len(vecs)
    for k, m in enumerate(masks):
        m &= ~flat
        while m:  # each set bit of m, lowest first
            low = m & -m
            rows_of[low.bit_length() - 1] |= 1 << k
            m ^= low
    first: dict[int, Vec] = {}
    for j, m in enumerate(rows_of):
        if not flat >> j & 1 and m not in first:
            first[m] = vecs[j]
    kept = {}
    for m, v in first.items():
        for o in first:
            if o & m == m and o != m:
                break
        else:
            kept[m] = v
    return [v for j, v in enumerate(vecs) if flat >> j & 1], kept


# ---------------------------------------------------------------------------
# Polyhedron
# ---------------------------------------------------------------------------

class AffineMap(NamedTuple):
    """``x' = (A x + b) / den`` on the points of ``guard``.

    Row ``j`` of ``matrix`` is ``(b_j, A_j1..A_jn)``; ``den`` is positive.
    """

    guard: Polyhedron
    matrix: tuple[Vec, ...]
    den: int


class Polyhedron:
    """An immutable convex polyhedron (closed or NNC) of fixed dimension."""

    __slots__ = (
        "_dim",
        "_topology",
        "_rows",
        "_gens",
        "_raw",
        "_empty",
        "_box",
        "_cone",
        "_seed",
        "_out_cons",
        "_out_text",
    )

    def __init__(self, dim: int, topology: Topology, *, _internal=False):
        if not _internal:
            raise TypeError("use the from_constraints/from_generators/universe/empty builders")
        self._dim = dim
        self._topology = topology
        self._rows: tuple[Row, ...] | None = None
        self._gens: tuple[tuple[Vec, ...], tuple[Vec, ...]] | None = None
        self._raw: str | None = None  # "rows" or "gens" while that one is unminimized
        self._empty: bool | None = None
        self._box: Box | None = None
        # last in it, the row sequences a forward conversion met or the raw generators a dual
        # one converted; one store keeps the matrix with its rays, even concurrently
        self._cone: HeldCone | None = None
        # (rows, *_cone) of an operand, until the conversion
        self._seed: tuple | None = None
        self._out_cons: tuple[Constraint, ...] | None = None
        self._out_text: tuple | None = None  # (names, rendering)

    # -- geometry of the internal representation --------------------------

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def _rep_dim(self) -> int:
        # NNC values carry the eps slack as a trailing closed dimension
        return self._dim + (1 if self._topology is Topology.NNC else 0)

    @property
    def _hom_dim(self) -> int:
        return self._rep_dim + 1

    def _pi(self) -> Vec:
        return _units(self._hom_dim)[0]

    def _eps_col(self) -> int:
        return self._hom_dim - 1

    # -- builders ----------------------------------------------------------

    @classmethod
    def _make(cls, dim: int, topology: Topology) -> Polyhedron:
        return cls(dim, topology, _internal=True)

    @classmethod
    def _from_rep_rows(cls, dim: int, topology: Topology, rows: Iterable[Row]) -> Polyhedron:
        p = cls._make(dim, topology)
        side = _side_rows(p._hom_dim) if topology is Topology.NNC else ()
        p._rows = tuple(dict.fromkeys((*rows, *side)))  # each row once, first copy kept
        p._raw = "rows"
        return p

    @classmethod
    def _from_rep_gens(
        cls,
        dim: int,
        topology: Topology,
        lines: Iterable[Vec],
        rays: Iterable[Vec],
    ) -> Polyhedron:
        p = cls._make(dim, topology)
        p._gens = (tuple(lines), tuple(rays))
        p._raw = "gens"
        p._empty = p._is_empty_gens(p._gens)
        return p

    @classmethod
    def universe(cls, dim: int, topology: Topology = Topology.CLOSED) -> Polyhedron:
        return cls._from_rep_rows(dim, topology, [])

    @classmethod
    def empty(cls, dim: int, topology: Topology = Topology.CLOSED) -> Polyhedron:
        p = cls._make(dim, topology)
        p._empty = True
        return p

    @classmethod
    def from_constraints(
        cls,
        dim: int,
        topology: Topology,
        constraints: Iterable[Constraint],
    ) -> Polyhedron:
        rows: list[Row] = []
        for c in constraints:
            if c.dim != dim:
                raise DimensionError(
                    f"constraint of dimension {c.dim} in a polyhedron of dimension {dim}"
                )
            if c.rel is Rel.GT and topology is Topology.CLOSED:
                raise TopologyError("strict constraints need the NNC topology")
            if c.is_tautology():
                continue
            if c.is_contradiction():
                return cls.empty(dim, topology)
            rows.append(cls._encode_constraint(c, dim, topology))
        return cls._from_rep_rows(dim, topology, rows)

    @staticmethod
    def _encode_constraint(c: Constraint, dim: int, topology: Topology) -> Row:
        """The held row of ``c``: ``(-rhs, *coeffs)`` divided by their gcd, then
        the slack's coefficient; a minimal row read off the forward matrix
        keeps this scale."""
        head = (-c.rhs, *c.coeffs)
        g = gcd(*head)
        if g > 1:
            head = tuple([x // g for x in head])
        tail = () if topology is Topology.CLOSED else (-1 if c.rel is Rel.GT else 0,)
        return ((*head, *tail), c.rel is Rel.EQ)

    @classmethod
    def from_generators(
        cls,
        dim: int,
        topology: Topology,
        generators: Iterable[Generator],
    ) -> Polyhedron:
        gens = list(generators)
        for g in gens:
            if g.dim != dim:
                raise DimensionError(
                    f"generator of dimension {g.dim} in a polyhedron of dimension {dim}"
                )
            if g.kind is GenKind.CLOSURE_POINT and topology is Topology.CLOSED:
                raise TopologyError("closure points need the NNC topology")
        if not gens:
            return cls.empty(dim, topology)
        if not any(g.kind is GenKind.POINT for g in gens):
            raise GeneratorSystemError("a nonempty generator system needs at least one point")
        nnc = topology is Topology.NNC
        rays: list[Vec] = []
        for g in gens:  # (divisor, coeffs): a ray's divisor is 0
            if nnc and g.kind is GenKind.POINT:
                rays.append((g.divisor, *g.coeffs, g.divisor))
            # with eps = 0: closure points, rays, and each point's twin, which
            # keeps the embedding eps-downward closed
            rays.append((g.divisor, *g.coeffs, *(0,) * nnc))
        normed = [v for v in map(_norm, rays) if v is not None]
        return cls._from_rep_gens(dim, topology, [], normed)

    # -- lazy descriptions -------------------------------------------------

    def _rows_any(self) -> tuple[Row, ...]:
        return self._rows if self._rows is not None else self._minimal_rows()

    def _gens_any(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        return self._gens if self._gens is not None else self._minimal_gens()

    def _forward(self, rows: Sequence[Row]) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """The generators of ``rows``, equalities added first, kept with
        their saturation matrix in ``_cone``.

        From the universe and the positivity row, or from self's seed,
        which is then cleared: an operand's ``_cone`` takes only the rows
        that operand does not hold.  Its bits index the nonzero inequalities in ``_cone[4]``.
        """
        seed, self._seed = self._seed, None
        start = [(self._pi(), False)]
        index = (start,)
        if seed is not None:
            held, lines, rays, sat, nbits, index = seed
            known = set(held)
            rows = [r for r in rows if r not in known]
            seed, start = (list(lines), list(rays), list(sat), nbits), []
        ordered = [r for r in rows if r[1]] + start + [r for r in rows if not r[1]]
        lines, rays, sat, nbits = _dd_cone(self._hom_dim, ordered, seed)
        self._cone = (tuple(lines), tuple(rays), tuple(sat), nbits, (*index, rows))
        return self._cone[:2]

    def _is_empty_gens(self, gens: tuple[tuple[Vec, ...], tuple[Vec, ...]]) -> bool:
        _, rays = gens
        if self._topology is Topology.CLOSED:
            return not any(r[0] > 0 for r in rays)
        e = self._eps_col()
        return not any(r[0] > 0 and r[e] > 0 for r in rays)

    def _extreme(self, dual: HeldCone) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """The minimal generators read off ``dual``, a dual conversion's cone with the raw
        generators its bits index, kept in ``_cone`` transposed: rays saturating every row
        span the lineality space with the lines, the others are extreme if maximal."""
        _, drays, dsat, _, (lines, rays) = dual
        lineal, kept = _maximal(dsat, rays)
        pivots, _ = _eliminate([*lines, *lineal], range(self._hom_dim))
        self._cone = (tuple(pivots.values()), tuple(kept.values()), tuple(kept), len(dsat),
                      ([(r, False) for r in drays],))
        return self._cone[:2]

    def _minimal_gens(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        if self._gens is None or self._raw == "gens":
            if self._empty:
                gens = ((), ())
            else:
                rows = self._rows_any()  # raw generators convert once, here, dually
                gens = self._extreme(c) if (c := self._cone) and c[4] is self._gens else self._forward(rows)
            self._empty = self._is_empty_gens(gens)
            self._gens = ((), ()) if self._empty else gens
            if self._raw == "gens":
                self._raw = None
        return self._gens

    def _read_rows(self) -> tuple[Row, ...]:
        """Self's minimal rows read off ``_cone``, which its held equalities and indexed
        rows define: a row saturated by every ray is an equality, the facets are maximal."""
        _, _, sat, _, index = self._cone
        flat, kept = _maximal(sat, [v for rows in index for v, is_eq in rows if not is_eq and any(v)])
        eqs = [v for v, is_eq in self._rows if is_eq] + flat
        ineqs, pi = list(kept.values()), self._pi()
        if eqs:  # normal form: pivots at their last nonzero column, the facets reduced by them
            pivots, _ = _eliminate(eqs, range(self._hom_dim - 1, -1, -1))
            eqs = list(pivots.values())
            ineqs = [_reduce(v, pivots) if any([v[c] for c in pivots]) else v for v in ineqs]
        return tuple([(v, True) for v in eqs] + [(v, False) for v in ineqs if v != pi])

    def _minimal_rows(self) -> tuple[Row, ...]:
        if self._rows is None or self._raw == "rows":
            if self.is_empty():
                self._rows = ((tuple([-1] + [0] * self._rep_dim), False),)  # 0 >= 1
            elif self._raw == "rows":
                self._rows = self._read_rows()
            else:  # held by raw generators: the dual's matrix indexes them
                lines, rays, sat, nbits = _dual_rows(self._hom_dim, *self._gens)
                self._cone = (lines, rays, sat, nbits, self._gens)
                pi = self._pi()  # the positivity row "1 >= 0" is no constraint
                self._rows = tuple([(l, True) for l in lines] + [(r, False) for r in rays if r != pi])
            if self._raw == "rows":
                self._raw = None
        return self._rows

    # -- predicates ----------------------------------------------------------

    def is_empty(self) -> bool:
        if self._empty is None:
            self._minimal_gens()
        return bool(self._empty)

    def is_universe(self) -> bool:
        return not self.is_empty() and len(self.minimized_constraints()) == 0

    def contains_point(self, point: Sequence) -> bool:
        if len(point) != self._dim:
            raise DimensionError(f"point of dimension {len(point)}, expected {self._dim}")
        coords, den = scale_to_integers(point)  # a vector in lowest terms
        tail = (den,) * (self._rep_dim - self._dim)  # slack 1: a point, not a closure point
        vec = (den, *coords, *tail)
        return self.contains(Polyhedron._from_rep_gens(self._dim, self._topology, [], [vec]))

    def _check_compatible(self, other: Polyhedron) -> None:
        if self._dim != other._dim:
            raise DimensionError(f"dimension mismatch: {self._dim} vs {other._dim}")
        if self._topology is not other._topology:
            raise TopologyError(
                f"topology mismatch: {self._topology.value} vs {other._topology.value}"
            )

    def _holds_on(self, other: Polyhedron, eps: int | None) -> bool:
        """Every row of self holds on every generator of other.

        Given the slack column ``eps``, a row with no variable part is
        skipped, the slack coefficient is dropped, and a strict row must
        hold strictly on each point; skipping the pure-slack rows (an
        empty value's ``0 >= 1`` among them) is why that path tests self
        for emptiness.  Without ``eps`` every row is read, so rows that
        all hold on a nonempty other make self nonempty.
        """
        if other.is_empty():
            return True
        if eps is not None and self.is_empty():
            return False
        lines, rays = other._gens_any()
        for vec, is_eq in self._rows_any():
            strict = False
            if eps is not None:
                if not any(vec[1:eps]):
                    continue  # side rows and other pure-slack rows
                strict = vec[eps] < 0
                vec = vec[:eps]
            for l in lines:
                if _dot(vec, l):
                    return False
            for r in rays:
                v = _dot(vec, r)
                if v < 0 or (v != 0 and is_eq) or (strict and v == 0 and r[0] > 0 and r[eps] > 0):
                    return False
        return True

    def _rep_contains(self, other: Polyhedron) -> bool:
        """Inclusion of the internal closed representations."""
        return self._holds_on(other, None)

    def contains(self, other: Polyhedron) -> bool:
        """Set inclusion: other is a subset of self."""
        self._check_compatible(other)
        return self._holds_on(other, self._eps_col() if self._topology is Topology.NNC else None)

    def equals(self, other: Polyhedron) -> bool:
        return self.contains(other) and other.contains(self)

    # -- emission ------------------------------------------------------------

    def minimized_constraints(self) -> tuple[Constraint, ...]:
        if self._out_cons is not None:
            return self._out_cons
        if self.is_empty():
            out = (Constraint((0,) * self._dim, 1, Rel.GE),)
            self._out_cons = out
            return out
        n = self._dim
        nnc = self._topology is Topology.NNC
        e = self._eps_col()
        seen: dict[tuple, Constraint] = {}
        for vec, is_eq in self._minimal_rows():
            coeffs = vec[1 : 1 + n]
            if not any(coeffs):
                continue  # side rows and other pure-slack facets
            rhs = -vec[0]
            if is_eq:
                assert not nnc or vec[e] == 0
                rel = Rel.EQ
            else:
                rel = Rel.GT if nnc and vec[e] < 0 else Rel.GE
            g = gcd(rhs, *coeffs)  # can exceed 1 once the slack is dropped
            if g > 1:
                coeffs, rhs = tuple([x // g for x in coeffs]), rhs // g
            if is_eq and next(x for x in coeffs if x) < 0:
                coeffs, rhs = tuple([-x for x in coeffs]), -rhs
            prev = seen.get((coeffs, rhs))
            # eps-redundant twin: the strict (or equality) form wins
            if prev is None or _TWIN_ORDER[rel] < _TWIN_ORDER[prev.rel]:
                seen[coeffs, rhs] = Constraint(coeffs, rhs, rel)
        out = tuple(sorted(seen.values(), key=Constraint.sort_key))
        self._out_cons = out
        return out

    def minimized_generators(self) -> tuple[Generator, ...]:
        """The minimal generators, lines split into opposite rays, sorted.

        Built in integers: a point's vector is divided by the gcd of its
        divisor and coordinates, which gives the lowest-terms form
        ``Generator.point`` would, and a closure point at a point's place
        is dropped.
        """
        if self.is_empty():
            return ()
        lines, rays = self._minimal_gens()
        n = self._dim
        pivots, _ = _eliminate(lines, range(1, self._hom_dim))
        out: set[Generator] = set()
        for l in pivots.values():
            direction = l[1 : 1 + n]
            if any(direction):
                out.add(Generator(GenKind.RAY, direction, 0))
                out.add(Generator(GenKind.RAY, tuple(-x for x in direction), 0))
        nnc = self._topology is Topology.NNC
        e = self._eps_col()
        for r in rays:
            r = _reduce(r, pivots)
            xi0, coeffs = r[0], r[1 : 1 + n]
            if xi0 == 0:
                if any(coeffs):
                    out.add(Generator(GenKind.RAY, coeffs, 0))
                continue
            g = gcd(xi0, *coeffs)
            kind = GenKind.CLOSURE_POINT if nnc and r[e] == 0 else GenKind.POINT
            out.add(Generator(kind, tuple(c // g for c in coeffs), xi0 // g))
        points = {(g.coeffs, g.divisor) for g in out if g.kind is GenKind.POINT}
        kept = (
            g for g in out
            if g.kind is not GenKind.CLOSURE_POINT or (g.coeffs, g.divisor) not in points
        )
        return tuple(sorted(kept, key=Generator.sort_key))

    def constraints_pretty(self, names: Sequence[str]) -> str:
        if self._out_text is None or self._out_text[0] != tuple(names):  # the last rendering
            cs = self.minimized_constraints()  # already in Constraint.sort_key order
            self._out_text = (tuple(names), "{" + ", ".join([format_constraint(c, names) for c in cs]) + "}")
        return self._out_text[1]

    def __repr__(self) -> str:
        names = [f"x{i}" for i in range(self._dim)]
        flavour = "nnc " if self._topology is Topology.NNC else ""
        if self._empty is True:
            return f"<{flavour}polyhedron dim={self._dim} empty>"
        return f"<{flavour}polyhedron dim={self._dim} {self.constraints_pretty(names)}>"

    # -- lattice operations ----------------------------------------------------

    def intersection(self, other: Polyhedron) -> Polyhedron:
        self._check_compatible(other)
        if self._empty or other._empty:
            return Polyhedron.empty(self._dim, self._topology)
        # a generator operand inside the other's rows is the meet, unconverted
        if self._rows is None and other._rows is not None and other._rep_contains(self):
            return self
        if other._rows is None and self._rows is not None and self._rep_contains(other):
            return other
        mine, theirs = self._rows_any(), other._rows_any()
        if set(mine).issuperset(theirs):  # adds no row: the same set, its generators kept
            return self
        if set(theirs).issuperset(mine):
            return other
        meet = Polyhedron._from_rep_rows(self._dim, self._topology, mine + theirs)
        for p in (self, other):
            if p._cone is not None:  # its minimal generators seed it
                p._minimal_gens()  # read off the dual's matrix if held by raw generators
                meet._seed = (p._rows, *p._cone)
                break
        return meet

    def add_constraints(self, constraints: Iterable[Constraint]) -> Polyhedron:
        extra = Polyhedron.from_constraints(self._dim, self._topology, constraints)
        return self.intersection(extra)

    def poly_hull(self, other: Polyhedron) -> Polyhedron:
        self._check_compatible(other)
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        l1, r1 = self._gens_any()
        l2, r2 = other._gens_any()
        return Polyhedron._from_rep_gens(self._dim, self._topology, l1 + l2, r1 + r2)

    # -- the lattice verbs shared with PolySet -----------------------------------

    def is_bottom(self) -> bool:
        return self.is_empty()

    def join(self, other: Polyhedron) -> Polyhedron:
        return self.poly_hull(other)

    def entails(self, other: Polyhedron) -> bool:
        return other.contains(self)

    def widen(self, newer: Polyhedron, cap: int) -> Polyhedron:
        """The standard widening; ``cap`` bounds only powerset disjuncts."""
        return standard_widening(self, newer)

    def lift_image(self, op: Callable[[Polyhedron], Polyhedron]) -> Polyhedron:
        return op(self)

    # -- images ------------------------------------------------------------------

    def _mapped(self, dim: int, image: Callable[[Vec], Sequence[int]]) -> Polyhedron:
        """The value of dimension ``dim`` generated by the images of self's generators.

        ``image`` maps a vector ``(xi0, x_1..x_n, *tail)`` of self to one
        of the result, ``(xi0', x'_1..x'_dim, *tail')`` with a tail as
        long; its results are normalized and the zero vectors dropped.
        """
        lines, rays = self._gens_any()
        new_lines = [w for w in map(_norm, map(image, lines)) if w is not None]
        new_rays = [w for w in map(_norm, map(image, rays)) if w is not None]
        return Polyhedron._from_rep_gens(dim, self._topology, new_lines, new_rays)

    def _check_image(self, k: int, *rows: Sequence[int] | None) -> None:
        """Reject a dimension ``k`` out of range, or a row ``(const, c_1..c_n)``
        of another length."""
        if not 0 <= k < self._dim:
            raise DimensionError(f"dimension {k} out of range")
        for row in rows:
            if row is not None and len(row) != 1 + self._dim:
                n = len(row) - 1
                raise DimensionError(f"expression of dimension {n}, expected {self._dim}")

    def affine_image(self, k: int, row: Sequence[int]) -> Polyhedron:
        """Exact image of ``x_k := c_0 + c_1 x_1 + .. + c_n x_n``, ``row`` the integers ``c``."""
        self._check_image(k, row)

        def image(vec: Vec) -> list[int]:
            out = list(vec)
            out[1 + k] = _dot(row, vec)
            return out

        return self._mapped(self._dim, image)

    def affine_preimage(self, k: int, row: Sequence[int]) -> Polyhedron:
        """Exact preimage of the single-update map ``x_k := row(x)``."""
        self._check_image(k, row)
        if self._empty:
            return self
        col = 1 + k
        rows = []
        for vec, is_eq in self._rows_any():  # vec with x_k replaced by row
            out = list(vec)
            out[col] = 0
            for i, a in enumerate(row):
                out[i] += vec[col] * a
            v = _norm(out)
            if v is not None:
                rows.append((v, is_eq))
        return Polyhedron._from_rep_rows(self._dim, self._topology, rows)

    def bounded_affine_image(
        self, k: int, lo: Sequence[int] | None, hi: Sequence[int] | None
    ) -> Polyhedron:
        """Exact image of ``lo(x) <= x_k' <= hi(x)`` (identity elsewhere), bounds as rows.

        A fresh last dimension w is bounded by ``lo`` and ``hi``; one
        projection then drops x_k and moves w into slot k.
        """
        self._check_image(k, lo, hi)
        if self.is_empty():
            return self
        n = self._dim
        tail = (0,) * (self._rep_dim - n)
        # s * (w - row(x)) >= 0: w >= lo(x) for s = 1, w <= hi(x) for s = -1
        rows = [(_norm((*(-s * a for a in row), s, *tail)), False)
                for s, row in ((1, lo), (-1, hi)) if row is not None]
        bounded = Polyhedron._from_rep_rows(n + 1, self._topology, rows)
        q = self.add_dimensions(1).intersection(bounded)
        return q._mapped(n, _columns([*range(1 + k), 1 + n, *range(2 + k, 1 + n)], 2 + n))

    def relation_image(self, rel: Polyhedron) -> Polyhedron:
        """psi_rel: embed into 2n dims, meet the relation, keep primed dims."""
        if rel.dim != 2 * self._dim:
            raise DimensionError(
                f"relation of dimension {rel.dim}, expected {2 * self._dim}"
            )
        if rel.topology is not self._topology:
            raise TopologyError("relation topology differs")
        n = self._dim
        if self.is_empty():
            return self
        embedded = self.add_dimensions(n)
        meet = embedded.intersection(rel)
        return meet.remove_dimensions(range(n))

    def as_affine_map(self) -> AffineMap | None:
        """This relation over (x, x') as a guard on x plus ``x' = (A x + b) / den``.

        Gauss-Jordan elimination of the equality rows over the primed
        columns: when every primed column gets a pivot, the pivot rows
        give the map, the other equalities and every inequality reduced by
        the pivot rows give the guard.  Otherwise (an update that is not a
        function, such as ``x' >= 0``) it is None.
        """
        if self._dim % 2:
            return None
        n = self._dim // 2
        rows = self._rows_any()
        tail = slice(2 * n + 1, None)  # the slack column of an NNC relation
        eqs = [vec for vec, is_eq in rows if is_eq]
        if any(x for vec in eqs for x in vec[tail]):
            return None
        primed = range(n + 1, 2 * n + 1)
        pivots, rest = _eliminate(eqs, primed)  # a primed column -> the row that solves it
        if len(pivots) != n:
            return None
        # row j solves p_j x'_j + <c, x> + k = 0
        solving = [pivots[c] for c in primed]
        den = lcm(*(v[c] for c, v in zip(primed, solving)))
        matrix = tuple(
            tuple(-x * (den // v[c]) for x in v[: n + 1]) for c, v in zip(primed, solving)
        )
        # reducing an inequality by the pivots substitutes the map for x'; an
        # NNC side row maps to the same side row of the guard, kept once
        ineqs = [_reduce(vec, pivots) for vec, is_eq in rows if not is_eq]
        guard = [(v[: n + 1] + v[tail], True) for v in rest]
        guard += [(v[: n + 1] + v[tail], False) for v in ineqs if v is not None]
        return AffineMap(Polyhedron._from_rep_rows(n, self._topology, guard), matrix, den)

    def affine_map(self, m: AffineMap) -> Polyhedron:
        """The image of ``self`` under a compiled relation, in n dimensions.

        Equals ``relation_image`` of the relation ``m`` was compiled from:
        the meet with the guard is converted here instead of in 2n
        dimensions, and its generators are mapped, the slack scaled with
        ``xi0`` so that points stay points and closure points stay
        closure points.
        """
        cut = self._dim + 1

        def image(v: Vec) -> list[int]:
            mapped = [_dot(row, v) for row in m.matrix]
            return [m.den * v[0], *mapped, *(m.den * x for x in v[cut:])]

        return self.intersection(m.guard)._mapped(self._dim, image)

    def time_elapse(self, rates: Polyhedron) -> Polyhedron:
        """``{v + t*w : v in self, w in rates, t >= 0}`` via generators."""
        self._check_compatible(rates)
        if self.is_empty() or rates.is_empty():
            return Polyhedron.empty(self._dim, self._topology)
        lines, rays = self._gens_any()
        dlines, drays = rates._gens_any()
        cut, tail = self._dim + 1, (0,) * (self._rep_dim - self._dim)
        new_rays = list(rays)
        for r in drays:  # a point of rates is a direction: its xi0 and tail zeroed
            v = _norm((0, *r[1:cut], *tail))
            if v is not None:
                new_rays.append(v)
        return Polyhedron._from_rep_gens(self._dim, self._topology, lines + dlines, new_rays)

    def topological_closure(self) -> Polyhedron:
        if self._topology is Topology.CLOSED or self._is_closed_rows():
            return self
        return self._lifted()

    def _lifted(self) -> Polyhedron:
        """The closure as an NNC value: the generators (an NNC value's minimal ones, a
        closed value's held ones) at slack xi0 and at 0, kept once, generate proj_x(E) x [0, 1]."""
        if self.is_empty():
            return Polyhedron.empty(self._dim, Topology.NNC)
        gens = self._minimal_gens() if self._topology is Topology.NNC else self._gens_any()
        cut = 1 + self._dim
        lifted = [[r[:cut] + (s,) for r in vecs for s in (r[0], 0)] for vecs in gens]
        new_lines, new_rays = [list(dict.fromkeys(map(_norm, vecs))) for vecs in lifted]
        return Polyhedron._from_rep_gens(self._dim, Topology.NNC, new_lines, new_rays)

    def _is_closed_rows(self) -> bool:
        """Whether self holds rows, none with a slack coefficient but the side
        rows: they encode the closure of the set times ``0 <= eps <= 1``."""
        if self._rows is None:
            return False
        e, side = self._eps_col(), _side_rows(self._hom_dim)
        return all(vec[e] == 0 for vec, is_eq in self._rows if (vec, is_eq) not in side)

    def _closed_twin(self) -> Polyhedron | None:
        """Self as a closed value with no conversion: a closed or empty value, or
        held rows passing ``_is_closed_rows``, side rows and slack dropped; else None."""
        if self._empty or self._topology is Topology.CLOSED:
            return Polyhedron.empty(self._dim, Topology.CLOSED) if self._empty else self
        if not self._is_closed_rows():
            return None
        rows = [(v[:-1], q) for v, q in self._rows if (v, q) not in _side_rows(self._hom_dim)]
        return Polyhedron._from_rep_rows(self._dim, Topology.CLOSED, rows)

    # -- dimension surgery --------------------------------------------------------

    def add_dimensions(self, m: int) -> Polyhedron:
        if m < 0:
            raise DimensionError("cannot add a negative number of dimensions")
        return self.concatenate(Polyhedron.universe(m, self._topology)) if m else self

    def remove_dimensions(self, dims: Iterable[int]) -> Polyhedron:
        drop = sorted(set(dims))
        for d in drop:
            if not 0 <= d < self._dim:
                raise DimensionError(f"dimension {d} out of range")
        if not drop:
            return self
        kept = [1 + i for i in range(self._dim) if i not in drop]
        return self._mapped(len(kept), _columns([0, *kept], 1 + self._dim))

    def map_dimensions(self, perm: Sequence[int]) -> Polyhedron:
        if len(perm) != self._dim or sorted(perm) != list(range(self._dim)):
            raise DimensionError("map_dimensions needs a total permutation")
        if self._empty:
            return self
        cols = [0] * (1 + self._dim)
        for old, new in enumerate(perm):
            cols[1 + new] = 1 + old
        remap = _columns(cols, 1 + self._dim)
        rows = [(remap(v), eq) for v, eq in self._rows_any()]
        return Polyhedron._from_rep_rows(self._dim, self._topology, rows)

    def concatenate(self, other: Polyhedron) -> Polyhedron:
        if self._topology is not other._topology:
            raise TopologyError("concatenation needs matching topologies")
        m, n = self._dim, other._dim
        if self._empty or other._empty:
            return Polyhedron.empty(m + n, self._topology)
        # self's variables first, then other's, the tail shared
        rows = [(vec[: 1 + m] + (0,) * n + vec[1 + m :], eq) for vec, eq in self._rows_any()]
        rows += [(vec[:1] + (0,) * m + vec[1:], eq) for vec, eq in other._rows_any()]
        return Polyhedron._from_rep_rows(m + n, self._topology, rows)

    # -- bounds -------------------------------------------------------------------

    def _held_box(self) -> Box | None:
        """The interval hull of the closure, read off the held generators.

        None when self holds no generators or is empty, so it never
        converts.  Kept once computed: the raw and the minimal generators
        generate the same set, so the box outlives their minimization.
        """
        if self._box is None and self._gens is not None and not self._empty:
            lines, rays = self._gens
            points = [r for r in rays if r[0] > 0]  # at least one, as self is nonempty
            dirs = [r for r in rays if r[0] == 0]
            box = []
            for col in range(1, 1 + self._dim):
                lo = hi = (points[0][col], points[0][0])
                for r in points:
                    num, den = r[col], r[0]
                    if num * lo[1] < lo[0] * den:
                        lo = (num, den)
                    elif num * hi[1] > hi[0] * den:
                        hi = (num, den)
                free = any(l[col] for l in lines)
                down = free or any(d[col] < 0 for d in dirs)
                up = free or any(d[col] > 0 for d in dirs)
                box.append((None if down else lo, None if up else hi))
            self._box = tuple(box)
        return self._box

    def box_excludes(self, other: Polyhedron) -> bool:
        """Whether the box of other's closure leaves that of self's, so
        that self cannot contain other.

        Reads only boxes of held generators (``_held_box``) and never
        converts: it answers False unless both values hold generators and
        are nonempty.  Bounds compare by cross-multiplication.  A True is
        exact, as other inside self puts its closure, and so its box,
        inside self's.
        """
        self._check_compatible(other)
        mine, theirs = self._held_box(), other._held_box()
        if mine is None or theirs is None:
            return False
        for (lo, hi), (olo, ohi) in zip(mine, theirs):
            if lo is not None and (olo is None or olo[0] * lo[1] < lo[0] * olo[1]):
                return True
            if hi is not None and (ohi is None or ohi[0] * hi[1] > hi[0] * ohi[1]):
                return True
        return False

    def closure_box(self) -> Box:
        """The interval hull of the closure: per dimension ``(lo, hi)``,
        each an integer pair ``(num, den)`` meaning ``num / den``, with
        ``den > 0``, or None when unbounded.

        Must not be called on an empty polyhedron.
        """
        if self.is_empty():  # converts a value held by rows, so generators are held
            raise ValueError("closure_box on an empty polyhedron")
        return self._held_box()

    def dim_bounds(self, k: int) -> tuple[Fraction | None, Fraction | None]:
        """Bounds of the projection onto dimension k (closure bounds for NNC).

        Returns (lo, hi) with None meaning unbounded; must not be called
        on an empty polyhedron.
        """
        if not 0 <= k < self._dim:
            raise DimensionError(f"dimension {k} out of range")
        if self.is_empty():
            raise ValueError("dim_bounds on an empty polyhedron")
        lo, hi = self._held_box()[k]  # held: is_empty converts a value held by rows
        return (None if lo is None else Fraction(*lo), None if hi is None else Fraction(*hi))


# ---------------------------------------------------------------------------
# The standard widening
# ---------------------------------------------------------------------------

def _split_inequalities(rows: Iterable[Row]) -> list[Vec]:
    out: list[Vec] = []
    for vec, is_eq in rows:
        out.append(vec)
        if is_eq:
            out.append(tuple(-x for x in vec))
    return out


def standard_widening(older: Polyhedron, newer: Polyhedron) -> Polyhedron:
    """The standard (H79) polyhedra widening ``older widen newer``.

    Requires ``older`` to be included in ``newer`` (engines call it as
    ``x widen (x join f(x))``).  The result keeps the constraints of
    ``older`` (equalities split) that hold on ``newer``, then each
    constraint of ``newer`` that saturates the same generators of
    ``older`` as some constraint of ``older`` (Bagnara, Hill, Ricci and
    Zaffanella, 2005).  NNC values run on the slack embedding, its side
    rows pinned; where ``older``'s embedding bounds the slack below 1,
    this keeps rows that an exchange test on the embedding rejects.
    """
    older._check_compatible(newer)
    if not newer.contains(older):
        raise WideningPreconditionError("widening requires the first argument to be smaller")
    if older.is_empty():
        return newer
    if older._rep_contains(newer):
        return newer

    def exchangeable(rows):
        # the pinned slack side rows are re-added by the builder and must
        # not take part in the keep/replace game
        n = older.dim
        return [v for v in _split_inequalities(rows) if any(v[1 : 1 + n])]

    p_rows = exchangeable(older._minimal_rows())
    lines, rays = newer._gens_any()
    kept = [
        v for v in p_rows
        if all(_dot(v, l) == 0 for l in lines) and all(_dot(v, r) >= 0 for r in rays)
    ]
    gens = [g for part in older._gens_any() for g in part]

    def saturation(vec: Vec) -> frozenset[int]:
        return frozenset(i for i, g in enumerate(gens) if _dot(vec, g) == 0)

    p_sats = set(map(saturation, p_rows))
    kept += [v for v in exchangeable(newer._minimal_rows()) if saturation(v) in p_sats]
    return Polyhedron._from_rep_rows(older.dim, older.topology, [(v, False) for v in kept])
