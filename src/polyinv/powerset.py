"""Finite powerset domain over polyhedra.

An element is a finite, non-redundant set of nonempty maximal polyhedra
of one dimension and topology: no element of the collection is included
in another, and the empty collection is bottom.  Operations are the
liftings of the base-domain operations followed by redundancy removal;
the widening collapses the collection to a bounded number of disjuncts
and then widens element-wise, which keeps the base widening's
termination guarantee.

``PolySet`` and ``Polyhedron`` answer the same lattice verbs
(``is_bottom``, ``join``, ``entails``, ``equals``, ``widen(newer, cap)``
and ``lift_image(op)``), so the analyzer and the reach engine run
unchanged over either domain; ``lift`` is the one place that turns a
domain name into a region, and ``DomainOptions`` the one place that
checks a domain name and the options that go with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .linalg import DimensionError
from .polyhedron import Polyhedron, Topology, TopologyError, standard_widening


class PolySet:
    """A non-redundant finite disjunction of polyhedra."""

    __slots__ = ("dim", "topology", "elements")

    def __init__(self, dim: int, topology: Topology, elements: Sequence[Polyhedron] = ()):
        self.dim = dim
        self.topology = topology
        self.elements: tuple[Polyhedron, ...] = tuple(elements)

    @staticmethod
    def bottom(dim: int, topology: Topology = Topology.CLOSED) -> PolySet:
        return PolySet(dim, topology, ())

    @staticmethod
    def singleton(p: Polyhedron) -> PolySet:
        return PolySet.reduce(p.dim, p.topology, [p])

    @staticmethod
    def reduce(dim: int, topology: Topology, raw: Iterable[Polyhedron]) -> PolySet:
        """Drop empty elements and elements included in another."""
        candidates = []
        for p in raw:
            if p.dim != dim:
                raise DimensionError(f"element of dimension {p.dim}, expected {dim}")
            if p.topology is not topology:
                raise TopologyError("mixed topologies in a powerset element")
            if not p.is_empty():
                candidates.append(p)
        kept: list[Polyhedron] = []
        for p in candidates:
            if any(q.contains(p) for q in kept):
                continue
            kept = [q for q in kept if not p.contains(q)]
            kept.append(p)
        return PolySet(dim, topology, kept)

    def is_bottom(self) -> bool:
        return not self.elements

    def _check(self, other: PolySet) -> None:
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.topology is not other.topology:
            raise TopologyError("topology mismatch")

    def join(self, other: PolySet) -> PolySet:
        self._check(other)
        return PolySet.reduce(self.dim, self.topology, self.elements + other.elements)

    def meet(self, other: PolySet) -> PolySet:
        self._check(other)
        pieces = [a.intersection(b) for a in self.elements for b in other.elements]
        return PolySet.reduce(self.dim, self.topology, pieces)

    def entails(self, other: PolySet) -> bool:
        """Hoare order: every element is included in some element of other."""
        self._check(other)
        return all(any(t.contains(s) for t in other.elements) for s in self.elements)

    def equals(self, other: PolySet) -> bool:
        return self.entails(other) and other.entails(self)

    def widen(self, newer: PolySet, cap: int) -> PolySet:
        return powerset_widening(self, newer, cap)

    def lift_image(self, op: Callable[[Polyhedron], Polyhedron]) -> PolySet:
        return PolySet.reduce(self.dim, self.topology, [op(p) for p in self.elements])

    def collapse(self) -> Polyhedron:
        """Poly-hull of all elements (the empty polyhedron for bottom)."""
        acc = Polyhedron.empty(self.dim, self.topology)
        for p in self.elements:
            acc = acc.poly_hull(p)
        return acc

    def contains_point(self, point) -> bool:
        return any(p.contains_point(point) for p in self.elements)

    def __repr__(self) -> str:
        return f"<polyset dim={self.dim} |{len(self.elements)}|>"


@dataclass(frozen=True)
class DomainOptions:
    """The domain both engines iterate in, its powerset cap and widening delay."""

    domain: str = "poly"  # 'poly' | 'powerset'
    delay: int = 0
    cap: int = 8

    def __post_init__(self):
        if self.domain not in ("poly", "powerset"):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.cap < 1:
            raise ValueError("powerset cap must be at least 1")
        if self.delay < 0:
            raise ValueError("widening delay must not be negative")


def lift(p: Polyhedron, domain: str) -> Polyhedron | PolySet:
    """The region of domain 'poly' or 'powerset' that holds exactly p."""
    return PolySet.singleton(p) if domain == "powerset" else p


def _merge_to_cap(elements: list[Polyhedron], cap: int) -> list[Polyhedron]:
    """Repeatedly hull the cheapest pair until at most cap elements remain.

    Pairs whose hull is subsumed by one of the operands (detectable
    union-convexity) are preferred; ties fall back to the hull with the
    fewest constraints, then to index order.  Heuristic only: any choice
    is sound.
    """
    work = list(elements)
    while len(work) > cap:
        best = None
        for i in range(len(work)):
            for j in range(i + 1, len(work)):
                hull = work[i].poly_hull(work[j])
                exact = work[i].contains(hull) or work[j].contains(hull)
                key = (not exact, len(hull.minimized_constraints()), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j, hull)
        _, i, j, hull = best
        work = [p for k, p in enumerate(work) if k not in (i, j)]
        work.append(hull)
    return work


def powerset_widening(older: PolySet, newer: PolySet, cap: int) -> PolySet:
    """Terminating widening: cap the disjunct count, widen element-wise.

    Requires older to entail newer.  The new collection is collapsed to
    at most ``min(cap, #older)`` disjuncts (growth of the collection
    happens through plain joins, never through the widening, which keeps
    the chain's element count non-increasing); each surviving disjunct
    is then widened against the hull of the older elements it contains,
    with partnerless disjuncts hulled into their cheapest neighbour
    first so that every result element is a base-widening image.  The
    base widening's own termination measure then applies per disjunct.
    """
    if cap <= 0:
        raise ValueError("widening cap must be at least 1")
    older._check(newer)
    if not older.entails(newer):
        raise ValueError("powerset widening requires the first argument to entail the second")
    if older.is_bottom():
        return PolySet.reduce(newer.dim, newer.topology, _merge_to_cap(list(newer.elements), cap))
    k = min(cap, len(older.elements))
    capped = _merge_to_cap(list(newer.elements), k)

    def partners(t: Polyhedron) -> list[Polyhedron]:
        return [s for s in older.elements if t.contains(s)]

    # hull orphans into the neighbour whose hull is cheapest
    while len(capped) > 1:
        orphan = next((i for i, t in enumerate(capped) if not partners(t)), None)
        if orphan is None:
            break
        t = capped.pop(orphan)
        best = None
        for i, other in enumerate(capped):
            hull = other.poly_hull(t)
            key = (len(hull.minimized_constraints()), i)
            if best is None or key < best[0]:
                best = (key, i, hull)
        capped[best[1]] = best[2]
    out = []
    for t in capped:
        inside = partners(t)
        if inside:
            p = inside[0]
            for s in inside[1:]:
                p = p.poly_hull(s)
            out.append(standard_widening(p, t))
        else:
            out.append(t)  # single element containing no older one: pass through
    return PolySet.reduce(newer.dim, newer.topology, out)
