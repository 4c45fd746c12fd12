"""Output checks that do not trust the kernel.

Where a check needs arithmetic (does a point satisfy a constraint, are
points affinely independent) it is done here with integers and
fractions, never with a polyhedron query.  The reach checks re-run the
engine's own post-fixpoint step through the public ``location_update``,
as the engine's certificate is defined that way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from polyinv import hybrid, imp
from polyinv.linalg import Constraint, GenKind, Rel
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet


def holds(c: Constraint, point: Sequence) -> bool:
    value = sum(a * x for a, x in zip(c.coeffs, point))
    if c.rel is Rel.EQ:
        return value == c.rhs
    if c.rel is Rel.GE:
        return value >= c.rhs
    return value > c.rhs


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of `points` (-1 for none)."""
    if not points:
        return -1
    base = points[0]
    rows = [[Fraction(x - b) for x, b in zip(p, base)] for p in points[1:]]
    rank, col, width = 0, 0, len(base)
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# --------------------------------------------------------------------------
# kernel-dd
# --------------------------------------------------------------------------

def check_hull(points: list[list[int]], cons: tuple[Constraint, ...]) -> list[str]:
    d = len(points[0])
    problems = []
    for c in cons:
        if c.rel is not Rel.GE:
            problems.append(f"unexpected {c.rel.value} constraint in a full-dimensional hull")
            continue
        if not all(holds(c, p) for p in points):
            problems.append(f"an input point violates {c}")
            continue
        tight = [p for p in points if sum(a * x for a, x in zip(c.coeffs, p)) == c.rhs]
        if affine_rank(tight) + 1 < d:
            problems.append(f"facet {c} is tight on fewer than {d} independent points")
    if len(cons) < d + 1:
        problems.append(f"{len(cons)} facets cannot bound a {d}-dimensional polytope")
    return problems


def check_vertices(points: list[list[int]], gens) -> list[str]:
    inputs = {tuple(p) for p in points}
    problems = []
    for g in gens:
        if g.kind is not GenKind.POINT or g.divisor != 1 or tuple(g.coeffs) not in inputs:
            problems.append(f"generator {g} is not an input point")
    if affine_rank([g.coeffs for g in gens]) != len(points[0]):
        problems.append("the vertices do not span the space")
    return problems


def check_cube(d: int, nnc: bool, cons, gens) -> list[str]:
    problems = []
    if len(cons) != 2 * d:
        problems.append(f"{len(cons)} facets, expected {2 * d}")
    kind = GenKind.CLOSURE_POINT if nnc else GenKind.POINT
    corners = {tuple(g.coeffs) for g in gens if g.kind is kind and g.divisor == 1}
    if len(corners) != 2**d or any(x not in (0, 1) for c in corners for x in c):
        problems.append(f"{len(corners)} 0/1 vertices, expected {2**d}")
    if any(g.kind is GenKind.RAY for g in gens):
        problems.append("a bounded cube has a ray")
    if nnc and not any(g.kind is GenKind.POINT for g in gens):
        problems.append("a nonempty NNC cube has no point")
    return problems


def check_widening(d: int, cons) -> list[str]:
    want = {(tuple(1 if j == i else 0 for j in range(d)), 0) for i in range(d)}
    want |= {(tuple(-1 if j == i else 0 for j in range(d)), -1) for i in range(1, d)}
    got = {(tuple(c.coeffs), c.rhs) for c in cons if c.rel is Rel.GE}
    if got != want or len(cons) != 2 * d - 1:
        return [f"widening gave {len(cons)} constraints, expected x0>=0 and 0<=xi<=1"]
    return []


# --------------------------------------------------------------------------
# analyze-imp
# --------------------------------------------------------------------------

def _store_holds(cons: tuple[Constraint, ...], point) -> bool:
    return all(holds(c, point) for c in cons)


def _region_holds(value, point) -> bool:
    if isinstance(value, PolySet):
        return any(_store_holds(p.minimized_constraints(), point) for p in value.elements)
    return _store_holds(value.minimized_constraints(), point)


class _ValuesTooLarge(Exception):
    pass


# Concrete runs stop once a value needs more bits than this: programs with
# `x := x * x` in a loop would otherwise build numbers of millions of digits
# within the fuel.  The loop-head stores seen until then are still checked.
MAX_VALUE_BITS = 256


def check_analysis(program: imp.Program, result, stores, fuel: int) -> list[str]:
    """The paper's soundness oracle: concrete runs stay inside the invariants."""
    names = program.variables
    problems = []
    for values in stores:
        traces: list[tuple[int, dict]] = []

        def on_loop_entry(pid, s):
            if any(abs(x).bit_length() > MAX_VALUE_BITS for x in s.values()):
                raise _ValuesTooLarge()
            traces.append((pid, dict(s)))

        try:
            final = imp.exec_program(program, dict(zip(names, values)), fuel, on_loop_entry)
        except _ValuesTooLarge:
            final = imp.DIVERGENCE
        for pid, seen in traces:
            inv = result.loop_invariants.get(pid)
            point = [seen[v] for v in names]
            if inv is None or not _region_holds(inv.value, point):
                problems.append(f"loop head {pid} misses the concrete store {seen}")
                break
        if final is not imp.DIVERGENCE:
            point = [final[v] for v in names]
            if not _region_holds(result.exit_store.value, point):
                problems.append(f"exit store misses the concrete store {final}")
    return problems


# --------------------------------------------------------------------------
# reach-lha
# --------------------------------------------------------------------------

def _leq(a, b) -> bool:
    if isinstance(a, PolySet):
        return a.entails(b)
    return b.contains(a)


def check_reach(h: hybrid.HybridAutomaton, result, domain: str) -> list[str]:
    problems = []
    for loc in h.locations:
        region = result.regions[loc.name]
        init = PolySet.singleton(loc.init) if domain == "powerset" else loc.init
        if not loc.init.is_empty() and not _leq(init, region):
            problems.append(f"Init({loc.name}) is not inside the reached region")
        again = hybrid.location_update(h, loc.name, result.regions, domain)
        if not _leq(again, region):
            problems.append(f"the region of {loc.name} is not a post-fixpoint")
    return problems


def _nnc(text: str, names: Sequence[str]) -> Polyhedron:
    idx = {v: i for i, v in enumerate(names)}
    return Polyhedron.from_constraints(
        len(names), Topology.NNC, parse_constraints(text, idx, len(names))
    )


# The systems the acceptance tests expect from the shipped models.
WATER = {
    "l0": "1<=w, w<10",
    "l1": "w-x=10, 10<=w, w<12",
    "l2": "w+2*x=16, 5<w, w<=12",
    "l3": "w+2*x=5, 1<w, w<=5",
}
FISCHER_L5 = (
    "k=2, 10*a>=9*b, 0<=b, b<=x1, 9*x1<=10*x2, 10*x2<=11*x1, 11*x1+10*a>=10*x2+11*b"
)
SCHEDULER_TASK2 = "x2>=0, x2<=8, 4*k1>=x1, x1>=0, k2=1"


def check_shipped(model: str, h: hybrid.HybridAutomaton, result, domain: str) -> list[str]:
    names = list(h.variables)
    regions = result.regions
    if model == "water":
        ok = all(regions[k].equals(_nnc(v, names)) for k, v in WATER.items())
    elif model == "fischer":
        ok = regions["l5"].equals(_nnc(FISCHER_L5, names)) and result.iterations <= 3
    elif domain == "poly":
        kk = ["k1", "k2"]
        ok = regions["Idle"].remove_dimensions([0, 1, 4, 5]).equals(_nnc("k1=0, k2=0", kk))
        ok = ok and regions["Task2"].remove_dimensions([4, 5]).equals(
            _nnc(SCHEDULER_TASK2, names[:4])
        )
    else:
        collapsed = regions["Task2"].collapse().remove_dimensions([0, 1, 4, 5])
        ok = _nnc("k1<=2, k2=1", ["k1", "k2"]).contains(collapsed)
    return [] if ok else [f"{model} ({domain}) differs from the acceptance system"]
