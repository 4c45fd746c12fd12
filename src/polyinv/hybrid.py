"""Linear hybrid automata: model, text format, composition, reachability.

An automaton of dimension n has named locations, each carrying an
initial region, an invariant and a rate region (polyhedra over the n
variables; rate constraints speak about the derivatives), and
transitions whose relations are polyhedra in dimension 2n laid out as
(current values, primed next values): NNC, but run closed when none is strict.

Reachable regions per location solve the fixpoint equations

    R(l) = ((Init(l) join JOIN over incoming (l', P, l) of
             psi_P(closure(R(l')) meet (R(l') elapse Act(l'))) meet Inv(l))
            elapse Act(l)) meet Inv(l)

where the closure/elapse combination on the source region is the
correction that makes strict constraints interact properly with
transition guards.  A transition whose update fixes every primed
variable by equalities (resets, swaps, rational maps such as
`2*x' = x + 1`, omitted variables) is compiled on its first image into
an n-dimensional guard and a map x' = (A x + b) / den, and psi_P meets the
guard and maps generators in n dimensions; any other relation, such as
`x' >= 0`, keeps the general image through 2n dimensions.  Iteration
sweeps the locations in file order using the freshest values (so one
sweep propagates along a whole path).  A location changes exactly when
its right-hand side is not included in its current region; only then is
the join computed, and widened at the configured cut locations.  A
sweep that changes no location is the fixpoint, and every converged
result is re-checked to be a post-fixpoint.  Across sweeps a transition
images each source element once, and a location time-elapses each
incoming element once: a join keeps the elements it does not drop as
the same objects.  The re-check uses no memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Mapping

from .linalg import Constraint, canonicalize_constraint
from .parse import ParseError, Tokens, constraint_list, relation_index
from .polyhedron import AffineMap, Polyhedron, Topology
# re-exported: perfbench/test_perfbench.py reads hybrid.standard_widening
from .polyhedron import standard_widening  # noqa: F401
from .powerset import DomainOptions, PolySet, lift

Region = Polyhedron | PolySet
# location_update's memo: key -> (region, result, id -> (element, element's result))
Memo = dict[int | str, tuple[Region, Region, dict[int, tuple[Polyhedron, Polyhedron]]]]


@dataclass(frozen=True)
class Location:
    name: str
    invariant: Polyhedron  # dimension n; NNC as parsed, closed in ``closed``
    rate: Polyhedron  # the same, in the derivative space
    init: Polyhedron  # the same


@dataclass(frozen=True)
class Transition:
    source: str
    label: str | None
    relation: Polyhedron  # dimension 2n, (x, x'); NNC as parsed, closed in ``closed``
    target: str

    @cached_property
    def compiled(self) -> AffineMap | None:
        """The relation as guard plus affine map; None when the update is not a function."""
        return self.relation.as_affine_map()

    def image(self, p: Polyhedron) -> Polyhedron:
        """psi_relation(p), in n dimensions whenever the relation compiled."""
        if self.compiled is None:
            return p.relation_image(self.relation)
        return p.affine_map(self.compiled)


@dataclass(frozen=True)
class HybridAutomaton:
    variables: tuple[str, ...]
    locations: tuple[Location, ...]
    labels: frozenset[str]
    transitions: tuple[Transition, ...]
    widen_at: frozenset[str]

    def __post_init__(self):
        by_name: dict[str, Location] = {}
        incoming: dict[str, list[int]] = {}
        for loc in self.locations:
            by_name.setdefault(loc.name, loc)
        for i, t in enumerate(self.transitions):
            incoming.setdefault(t.target, []).append(i)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "_incoming", {k: tuple(v) for k, v in incoming.items()})

    @property
    def dim(self) -> int:
        return len(self.variables)

    def location(self, name: str) -> Location:
        return self._by_name[name]

    def incoming(self, name: str) -> tuple[int, ...]:
        """Indices in ``transitions`` of the transitions into location ``name``."""
        return self._incoming.get(name, ())

    @cached_property
    def closed(self) -> HybridAutomaton | None:
        """This automaton in the closed topology, each polyhedron read off its
        held rows without a conversion; None when one of them has a strict row."""
        locs = [Location(l.name, *map(Polyhedron._closed_twin, (l.invariant, l.rate, l.init)))
                for l in self.locations]
        ts = [replace(t, relation=t.relation._closed_twin()) for t in self.transitions]
        strict = any(None in vars(l).values() for l in locs) or any(t.relation is None for t in ts)
        return None if strict else replace(self, locations=tuple(locs), transitions=tuple(ts))

    def validate(self) -> list[str]:
        """Consistency warnings (never fatal): Init outside Inv, W not a cutset."""
        warnings = []
        for loc in self.locations:
            if not loc.invariant.contains(loc.init):
                warnings.append(f"Init({loc.name}) is not inside Inv({loc.name})")
        if self.widen_at and not self._is_cutset(self.widen_at):
            warnings.append("widen set does not cut every cycle; relying on max_iter")
        return warnings

    def _is_cutset(self, cut: frozenset[str]) -> bool:
        """Every cycle passes through ``cut``: the uncut locations have no back edge."""
        return not self._back_edge_targets([l.name for l in self.locations], cut)

    def default_widen_set(self) -> frozenset[str]:
        """Back-edge targets of a depth-first sweep from the initial locations."""
        roots = [l.name for l in self.locations if not l.init.is_empty()]
        # then every location in file order: unreachable cycles still need cutting
        return frozenset(self._back_edge_targets(roots + [l.name for l in self.locations]))

    def _back_edge_targets(self, roots: list[str], cut: frozenset[str] = frozenset()) -> set[str]:
        """Targets of the back edges of one depth-first traversal of the
        locations outside ``cut``: each unvisited root in turn, successors
        in transition order."""
        succ: dict[str, list[str]] = {l.name: [] for l in self.locations if l.name not in cut}
        for t in self.transitions:
            if t.source in succ and t.target in succ:
                succ[t.source].append(t.target)
        on_stack: dict[str, bool] = {}  # every visited location; True while on the stack
        targets: set[str] = set()
        for root in roots:
            if root in on_stack or root not in succ:
                continue
            on_stack[root] = True
            stack = [(root, iter(succ[root]))]
            while stack:
                n, rest = stack[-1]
                for m in rest:
                    if m not in on_stack:
                        on_stack[m] = True
                        stack.append((m, iter(succ[m])))
                        break
                    if on_stack[m]:
                        targets.add(m)
                else:
                    on_stack[n] = False
                    stack.pop()
        return targets


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def parse_automaton(text: str) -> HybridAutomaton:
    """Parse the `.lha` format (the package README has an example):

        automaton   ::= 'vars' names declaration*
        declaration ::= 'label' names
                      | 'location' NAME '{' sections '}'
                      | 'transition' NAME '->' NAME ['sync' NAME] '{' sections '}'
                      | 'widen' ':' names
        sections    ::= [KEY ':' constraints] (';' [KEY ':' constraints])*
        names       ::= NAME (',' NAME)* ';'

    Location sections are `invariant` (default universe), `rate`
    (required; `d<var>` names a derivative) and `init` (default empty);
    transition sections are `guard` and `update` (primed names are
    target values).  Location names are checked after the last
    declaration, so a transition may come before its locations.
    """
    ts = Tokens(text)
    ts.take("vars")
    variables: list[str] = []
    for tok in ts.names():
        if tok[1] in variables:
            raise ParseError(f"duplicate variable {tok[1]!r}", tok[2], tok[3])
        variables.append(tok[1])
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    rate_index = {f"d{v}": i for i, v in enumerate(variables)}
    rel_index = relation_index(variables, n)

    def region(cs: list[Constraint] | None, default: Polyhedron) -> Polyhedron:
        return Polyhedron.from_constraints(n, Topology.NNC, cs) if cs else default

    labels: set[str] = set()
    locations: list[Location] = []
    transitions: list[Transition] = []
    widen_at: set[str] = set()
    references = []  # (location name token, where), checked at the end
    while not ts.at_end():
        tok = ts.peek()
        if tok[1] == "vars":
            raise ParseError("repeated 'vars' declaration", tok[2], tok[3])
        if tok[1] not in ("label", "location", "transition", "widen"):
            ts.error("expected a declaration")
        ts.take()
        if tok[1] == "label":
            labels.update(t[1] for t in ts.names())
        elif tok[1] == "widen":
            ts.take(":")
            for t in ts.names():
                references.append((t, "widen directive"))
                widen_at.add(t[1])
        elif tok[1] == "location":
            name = ts.name()
            if any(l.name == name[1] for l in locations):
                raise ParseError(f"duplicate location {name[1]!r}", name[2], name[3])
            fields = _sections(ts, n, {"invariant": index, "rate": rate_index, "init": index})
            if "rate" not in fields:
                raise ParseError(f"location {name[1]!r} has no rate section", name[2], name[3])
            universe = Polyhedron.universe(n, Topology.NNC)
            locations.append(Location(
                name[1],
                region(fields.get("invariant"), universe),
                region(fields["rate"], universe),
                region(fields.get("init"), Polyhedron.empty(n, Topology.NNC)),
            ))
        else:
            src = ts.name()
            ts.take("->")
            dst = ts.name()
            references += [(src, "transition"), (dst, "transition")]
            label = None
            if ts.accept("sync"):
                label = ts.name()[1]
                labels.add(label)
            fields = _sections(ts, 2 * n, {"guard": index, "update": rel_index})
            cs = fields.get("guard", []) + fields.get("update", [])
            primed_seen = {
                d - n for c in fields.get("update", []) for d in range(n, 2 * n) if c.coeffs[d] != 0
            }
            # omitted primed variables keep their value
            cs += [_unchanged(i, n) for i in range(n) if i not in primed_seen]
            rel = Polyhedron.from_constraints(2 * n, Topology.NNC, cs)
            transitions.append(Transition(src[1], label, rel, dst[1]))
    if not locations:
        raise ParseError("automaton has no locations", *ts.end)
    loc_names = {l.name for l in locations}
    for tok, where in references:
        if tok[1] not in loc_names:
            raise ParseError(f"unknown location {tok[1]!r} in {where}", tok[2], tok[3])
    return HybridAutomaton(
        tuple(variables), tuple(locations), frozenset(labels), tuple(transitions),
        frozenset(widen_at),
    )


def _sections(
    ts: Tokens, dim: int, allowed: Mapping[str, Mapping[str, int]]
) -> dict[str, list[Constraint]]:
    """`'{' section* '}'`, each section's constraints over `allowed[key]`."""
    ts.take("{")
    fields: dict[str, list[Constraint]] = {}
    while not ts.at("}"):
        if ts.accept(";"):
            continue
        key = ts.name()
        if key[1] not in allowed:
            raise ParseError(f"unknown section {key[1]!r}", key[2], key[3])
        if key[1] in fields:
            raise ParseError(f"duplicate section {key[1]!r}", key[2], key[3])
        ts.take(":")
        fields[key[1]] = constraint_list(ts, allowed[key[1]], dim, end=(";", "}"))
        if not ts.at("}"):
            ts.take(";")
    ts.take("}")
    return fields


# ---------------------------------------------------------------------------
# Parallel composition
# ---------------------------------------------------------------------------

def _unchanged(i: int, n: int) -> Constraint:
    """``x_i = x_i'`` in a relation over (x, x') of n variables."""
    coeffs = [0] * (2 * n)
    coeffs[i] = 1
    coeffs[n + i] = -1
    return canonicalize_constraint(coeffs, "=", 0)


def _identity_relation(n: int) -> Polyhedron:
    return Polyhedron.from_constraints(2 * n, Topology.NNC, [_unchanged(i, n) for i in range(n)])


def _interleave_relation(rel: Polyhedron, m: int, n: int) -> Polyhedron:
    """(x, x', y, y') -> (x, y, x', y') for a concatenated relation."""
    # perm[i] is the new place of dimension i: x stays, x' moves past y, y moves up, y' stays
    perm = [*range(m), *range(m + n, 2 * m + n), *range(m, m + n), *range(2 * m + n, 2 * (m + n))]
    return rel.map_dimensions(perm)


def parallel_compose(first: HybridAutomaton, second: HybridAutomaton) -> HybridAutomaton:
    """Synchronized product; shared labels pair up, the rest interleave.

    Product locations are named `A.B` unless one component has a single
    location, in which case the other component's name stands alone.
    """
    clash = set(first.variables) & set(second.variables)
    if clash:
        raise ValueError(f"variable clash in composition: {sorted(clash)}")
    m, n = first.dim, second.dim
    variables = first.variables + second.variables
    shared = first.labels & second.labels

    def prod_name(a: str, b: str) -> str:
        if len(second.locations) == 1:
            return a
        if len(first.locations) == 1:
            return b
        return f"{a}.{b}"

    locations = []
    for a in first.locations:
        for b in second.locations:
            locations.append(
                Location(
                    prod_name(a.name, b.name),
                    a.invariant.concatenate(b.invariant),
                    a.rate.concatenate(b.rate),
                    a.init.concatenate(b.init),
                )
            )

    transitions = []
    for t in first.transitions:
        if t.label is not None and t.label in shared:
            for u in second.transitions:
                if u.label == t.label:
                    rel = _interleave_relation(t.relation.concatenate(u.relation), m, n)
                    transitions.append(
                        Transition(
                            prod_name(t.source, u.source),
                            t.label,
                            rel,
                            prod_name(t.target, u.target),
                        )
                    )
        else:
            rel = _interleave_relation(t.relation.concatenate(_identity_relation(n)), m, n)
            for b in second.locations:
                transitions.append(
                    Transition(prod_name(t.source, b.name), t.label, rel, prod_name(t.target, b.name))
                )
    for u in second.transitions:
        if u.label is not None and u.label in shared:
            continue  # handled above (or blocked)
        rel = _interleave_relation(_identity_relation(m).concatenate(u.relation), m, n)
        for a in first.locations:
            transitions.append(
                Transition(prod_name(a.name, u.source), u.label, rel, prod_name(a.name, u.target))
            )

    widen_at = set()
    for a in first.locations:
        for b in second.locations:
            if a.name in first.widen_at or b.name in second.widen_at:
                widen_at.add(prod_name(a.name, b.name))

    return HybridAutomaton(
        variables,
        tuple(locations),
        first.labels | second.labels,
        tuple(transitions),
        frozenset(widen_at),
    )


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReachOptions(DomainOptions):
    max_iter: int = 64

    def __post_init__(self):
        super().__post_init__()
        if self.max_iter < 1:
            raise ValueError("iteration bound must be at least 1")


@dataclass
class ReachResult:
    regions: dict[str, Region]
    iterations: int
    converged: bool
    warnings: list[str] = field(default_factory=list)


class NonConvergenceError(RuntimeError):
    def __init__(self, message: str, partial: ReachResult):
        super().__init__(message)
        self.partial = partial


def _source_flow(p: Polyhedron, act: Polyhedron) -> Polyhedron:
    """closure(R) meet (R elapse Act): the strict-constraint correction.

    A closed R is the meet when Act is nonempty: R lies inside R elapse
    Act (t = 0).
    """
    closure = p.topological_closure()
    if closure is p and not act.is_empty():
        return p
    return closure.intersection(p.time_elapse(act))


def _images(entries: Memo, key: int | str, region: Region,
            op: Callable[[Polyhedron], Polyhedron]) -> Region:
    """``region.lift_image(op)`` through ``entries[key]``: the region last
    seen there, its image, and op's result on each of its elements, keyed
    by identity and held next to the element so that a reused id cannot
    match another object."""
    memo = entries.get(key)
    if memo is None or memo[0] is not region:
        held, results = memo[2] if memo else {}, {}  # results: region's elements only

        def each(p: Polyhedron) -> Polyhedron:
            kept = results[id(p)] = held.get(id(p)) or (p, op(p))
            return kept[1]

        memo = entries[key] = (region, region.lift_image(each), results)
    return memo[1]


def location_update(
    h: HybridAutomaton,
    name: str,
    current: Mapping[str, Region],
    domain: str = "poly",
    *,
    entries: Memo | None = None,
) -> Region:
    """One evaluation of the fixpoint right-hand side F_l.

    ``entries`` is a memo the caller keeps across calls, keyed by each
    transition's index in ``h.transitions`` (its entry from the source
    region) and by ``name`` (the time elapse of the incoming region
    within the invariant).  Each key holds the region last seen, its
    result, and the result on each of that region's elements: the same
    region object reuses its result, and another one computes only the
    elements not held (a join keeps the elements it does not drop as the
    same objects), so the memo holds only the live regions' elements.
    Without it every result is computed afresh.
    """
    loc = h.location(name)
    inc = lift(loc.init, domain)
    entries = {} if entries is None else entries
    for i in h.incoming(name):
        t = h.transitions[i]
        act = h.location(t.source).rate
        inc = inc.join(_images(entries, i, current[t.source],
                               lambda p: t.image(_source_flow(p, act)).intersection(loc.invariant)))
    return _images(entries, name, inc,
                   lambda p: p.time_elapse(loc.rate).intersection(loc.invariant))


def _nnc(r: Region) -> Region:
    """A closed region as an NNC value: it, or each of its elements, lifted once."""
    if isinstance(r, PolySet):
        return PolySet(r.dim, Topology.NNC, [_nnc(p) for p in r.elements])
    return r if r.topology is Topology.NNC else r._lifted()


def reach(h: HybridAutomaton, opts: ReachOptions = ReachOptions()) -> ReachResult:
    """Iterate the reachability equations to a verified post-fixpoint.

    Sweeps use the freshest values within the sweep (file order), so a
    value propagates along an entire acyclic path in one sweep; the
    widening set defaults to depth-first back-edge targets when the
    automaton does not specify one.  A location changes exactly when
    F(l) is not below its region: the join, and past the delay at a cut
    location its widening, are upper bounds of F(l), so they cannot lie
    below the region then.  Each location is tested once per sweep.
    The sweeps share one ``location_update`` memo, which holds the images
    of the live regions' elements only; the certificate uses none.
    """
    h, topology = (h.closed, Topology.CLOSED) if h.closed else (h, Topology.NNC)
    warnings = h.validate()
    widen_at = h.widen_at if h.widen_at else h.default_widen_set()
    bottom = lift(Polyhedron.empty(h.dim, topology), opts.domain)
    regions: dict[str, Region] = {l.name: bottom for l in h.locations}
    entries: Memo = {}  # shared by all sweeps
    for sweep in range(1, opts.max_iter + 1):
        changed = False
        for loc in h.locations:
            f_value = location_update(h, loc.name, regions, opts.domain, entries=entries)
            old = regions[loc.name]
            if f_value.entails(old):
                continue
            new = old.join(f_value)
            if loc.name in widen_at and sweep > opts.delay:
                new = old.widen(new, opts.cap)
            regions[loc.name] = new
            changed = True
        if not changed:
            break
    else:
        raise NonConvergenceError(
            f"no fixpoint after {opts.max_iter} sweeps",
            ReachResult({k: _nnc(r) for k, r in regions.items()}, opts.max_iter, False, warnings),
        )
    # post-fixpoint certificate: one more independent evaluation per location
    for loc in h.locations:
        check = location_update(h, loc.name, regions, opts.domain)
        if not check.entails(regions[loc.name]):
            raise AssertionError(f"converged result is not a post-fixpoint at {loc.name}")
    return ReachResult({k: _nnc(r) for k, r in regions.items()}, sweep, True, warnings)
