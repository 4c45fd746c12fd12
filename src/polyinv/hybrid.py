"""Linear hybrid automata: model, text format, composition, reachability.

An automaton of dimension n has named locations, each carrying an
initial region, an invariant and a rate region (all NNC polyhedra over
the n variables; rate constraints speak about the derivatives), and
transitions whose relations are NNC polyhedra in dimension 2n laid out
as (current values, primed next values).

Reachable regions per location solve the fixpoint equations

    R(l) = ((Init(l) join JOIN over incoming (l', P, l) of
             psi_P(closure(R(l')) meet (R(l') elapse Act(l'))) meet Inv(l))
            elapse Act(l)) meet Inv(l)

where the closure/elapse combination on the source region is the
correction that makes strict constraints interact properly with
transition guards.  Iteration sweeps the locations in file order using
the freshest values (so one sweep propagates along a whole path), and
widening is applied at the configured cut locations; convergence is
semantic per-location equality against the previous sweep, and every
converged result is re-checked to be a post-fixpoint.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping

from .linalg import Constraint, canonicalize_constraint
from .parse import ParseError, parse_constraints
from .polyhedron import Polyhedron, Topology
# re-exported: perfbench/test_perfbench.py reads hybrid.standard_widening
from .polyhedron import standard_widening  # noqa: F401
from .powerset import PolySet, check_domain_options, lift

Region = Polyhedron | PolySet


@dataclass(frozen=True)
class Location:
    name: str
    invariant: Polyhedron  # NNC, dimension n
    rate: Polyhedron  # NNC, dimension n (derivative space)
    init: Polyhedron  # NNC, dimension n


@dataclass(frozen=True)
class Transition:
    source: str
    label: str | None
    relation: Polyhedron  # NNC, dimension 2n: (x, x')
    target: str


@dataclass(frozen=True)
class HybridAutomaton:
    variables: tuple[str, ...]
    locations: tuple[Location, ...]
    labels: frozenset[str]
    transitions: tuple[Transition, ...]
    widen_at: frozenset[str]

    @property
    def dim(self) -> int:
        return len(self.variables)

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(name)

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
        names = [l.name for l in self.locations if l.name not in cut]
        edges = {n: set() for n in names}
        for t in self.transitions:
            if t.source in edges and t.target in edges:
                if t.source == t.target:
                    return False
                edges[t.source].add(t.target)
        seen: dict[str, int] = {}

        def dfs(n: str) -> bool:
            seen[n] = 1
            for m in edges[n]:
                state = seen.get(m)
                if state == 1:
                    return True
                if state is None and dfs(m):
                    return True
            seen[n] = 2
            return False

        return not any(dfs(n) for n in names if n not in seen)

    def default_widen_set(self) -> frozenset[str]:
        """Back-edge targets of a depth-first sweep from the initial locations."""
        roots = [l.name for l in self.locations if not l.init.is_empty()]
        if not roots:
            roots = [self.locations[0].name] if self.locations else []
        succ: dict[str, list[str]] = {l.name: [] for l in self.locations}
        for t in self.transitions:
            succ[t.source].append(t.target)
        color: dict[str, int] = {}
        cut: set[str] = set()

        def dfs(n: str) -> None:
            color[n] = 1
            for m in succ[n]:
                if color.get(m) == 1:
                    cut.add(m)
                elif m not in color:
                    dfs(m)
            color[n] = 2

        for r in roots:
            if r not in color:
                dfs(r)
        for n in succ:  # unreachable cycles still need cutting
            if n not in color:
                dfs(n)
        return frozenset(cut)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_LOC_RE = re.compile(rf"location\s+({_NAME})\s*\{{(.*?)\}}", re.S)
_TRANS_RE = re.compile(
    rf"transition\s+({_NAME})\s*->\s*({_NAME})(?:\s+sync\s+({_NAME}))?\s*\{{(.*?)\}}", re.S
)


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _line_col(body: str, pos: int) -> tuple[int, int]:
    return body.count("\n", 0, pos) + 1, pos - body.rfind("\n", 0, pos)


def _check_covered(body: str, spans: list[tuple[int, int]]) -> None:
    """Reject the first text that no recognized declaration covers."""
    pos = 0
    for start, end in sorted(spans) + [(len(body), len(body))]:
        stray = re.compile(r"\S+").search(body, pos, start)
        if stray is not None:
            raise ParseError(f"unexpected text {stray.group()!r}", *_line_col(body, stray.start()))
        pos = max(pos, end)


def parse_automaton(text: str) -> HybridAutomaton:
    """Parse the `.lha` format; see the package README for the grammar."""
    body = _strip_comments(text)
    decls = list(re.finditer(rf"vars\s+({_NAME}(?:\s*,\s*{_NAME})*)\s*;", body))
    if not decls:
        raise ParseError("missing 'vars' declaration")
    if len(decls) > 1:
        raise ParseError("repeated 'vars' declaration", *_line_col(body, decls[1].start()))
    spans = [decls[0].span()]
    variables = tuple(v.strip() for v in decls[0].group(1).split(","))
    if len(set(variables)) != len(variables):
        raise ParseError("duplicate variable names")
    n = len(variables)
    index = {v: i for i, v in enumerate(variables)}
    rate_index = {f"d{v}": i for i, v in enumerate(variables)}
    rel_index = dict(index)
    for i, v in enumerate(variables):
        rel_index[f"{v}'"] = n + i

    labels = set()
    for m in re.finditer(rf"label\s+({_NAME}(?:\s*,\s*{_NAME})*)\s*;", body):
        labels.update(x.strip() for x in m.group(1).split(","))
        spans.append(m.span())

    def region(text_part: str, idx: Mapping[str, int], dim: int) -> Polyhedron:
        cs = parse_constraints(text_part, idx, dim)
        return Polyhedron.from_constraints(dim, Topology.NNC, cs)

    locations: list[Location] = []
    for m in _LOC_RE.finditer(body):
        name, inner = m.group(1), m.group(2)
        spans.append(m.span())
        fields = _split_fields(inner, {"invariant", "rate", "init"})
        if "rate" not in fields:
            raise ParseError(f"location {name!r} has no rate section")
        inv = region(fields.get("invariant", ""), index, n) if fields.get("invariant", "").strip() else Polyhedron.universe(n, Topology.NNC)
        rate = region(fields["rate"], rate_index, n) if fields["rate"].strip() else Polyhedron.universe(n, Topology.NNC)
        init = region(fields["init"], index, n) if fields.get("init", "").strip() else Polyhedron.empty(n, Topology.NNC)
        if any(l.name == name for l in locations):
            raise ParseError(f"duplicate location {name!r}")
        locations.append(Location(name, inv, rate, init))
    if not locations:
        raise ParseError("automaton has no locations")
    loc_names = {l.name for l in locations}

    transitions: list[Transition] = []
    for m in _TRANS_RE.finditer(body):
        src, dst, label, inner = m.group(1), m.group(2), m.group(3), m.group(4)
        spans.append(m.span())
        for nm in (src, dst):
            if nm not in loc_names:
                raise ParseError(f"unknown location {nm!r} in transition")
        if label is not None:
            labels.add(label)
        fields = _split_fields(inner, {"guard", "update"})
        cs: list[Constraint] = []
        primed_seen: set[int] = set()
        if fields.get("guard", "").strip():
            cs.extend(parse_constraints(fields["guard"], index, 2 * n))
        if fields.get("update", "").strip():
            update_cs = parse_constraints(fields["update"], rel_index, 2 * n)
            for c in update_cs:
                for d in range(n, 2 * n):
                    if c.coeffs[d] != 0:
                        primed_seen.add(d - n)
            cs.extend(update_cs)
        for i in range(n):
            if i not in primed_seen:  # omitted primed variables keep their value
                coeffs = [0] * (2 * n)
                coeffs[i] = 1
                coeffs[n + i] = -1
                cs.append(canonicalize_constraint(coeffs, "=", 0))
        rel = Polyhedron.from_constraints(2 * n, Topology.NNC, cs)
        transitions.append(Transition(src, label, rel, dst))

    widen_at: set[str] = set()
    for m in re.finditer(rf"widen\s*:\s*({_NAME}(?:\s*,\s*{_NAME})*)\s*;", body):
        for nm in (x.strip() for x in m.group(1).split(",")):
            if nm not in loc_names:
                raise ParseError(f"unknown location {nm!r} in widen directive")
            widen_at.add(nm)
        spans.append(m.span())
    _check_covered(body, spans)

    return HybridAutomaton(
        variables, tuple(locations), frozenset(labels), tuple(transitions), frozenset(widen_at)
    )


def _split_fields(inner: str, allowed: set[str]) -> dict[str, str]:
    fields: dict[str, str] = {}
    for chunk in inner.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ParseError(f"expected 'field: constraints' in {chunk!r}")
        key, _, rest = chunk.partition(":")
        key = key.strip()
        if key not in allowed:
            raise ParseError(f"unknown section {key!r}")
        if key in fields:
            raise ParseError(f"duplicate section {key!r}")
        fields[key] = rest
    return fields


# ---------------------------------------------------------------------------
# Parallel composition
# ---------------------------------------------------------------------------

def _interleave_relation(rel: Polyhedron, m: int, n: int) -> Polyhedron:
    """(x, x', y, y') -> (x, y, x', y') for a concatenated relation."""
    perm = [0] * (2 * m + 2 * n)
    for i in range(m):
        perm[i] = i  # x stays
    for i in range(m):
        perm[m + i] = m + n + i  # x' moves past y
    for i in range(n):
        perm[2 * m + i] = m + i  # y moves up
    for i in range(n):
        perm[2 * m + n + i] = 2 * m + n + i  # y' stays last
    return rel.map_dimensions(perm)


def _embed_relation_left(rel: Polyhedron, m: int, n: int) -> Polyhedron:
    """Embed an m-dim relation into (x, y, x', y') with identity on y."""
    wide = rel.add_dimensions(2 * n)
    wide = _interleave_relation(wide, m, n)
    cs = []
    for i in range(n):
        coeffs = [0] * (2 * m + 2 * n)
        coeffs[m + i] = 1
        coeffs[2 * m + n + i] = -1
        cs.append(canonicalize_constraint(coeffs, "=", 0))
    return wide.add_constraints(cs)


def _embed_relation_right(rel: Polyhedron, m: int, n: int) -> Polyhedron:
    """Embed an n-dim relation over the y block with identity on x."""
    wide = rel.add_dimensions(2 * m)
    # wide is (y, y', x, x'); permute to (x, y, x', y')
    perm = [0] * (2 * m + 2 * n)
    for i in range(n):
        perm[i] = m + i  # y
    for i in range(n):
        perm[n + i] = 2 * m + n + i  # y'
    for i in range(m):
        perm[2 * n + i] = i  # x
    for i in range(m):
        perm[2 * n + m + i] = m + n + i  # x'
    wide = wide.map_dimensions(perm)
    cs = []
    for i in range(m):
        coeffs = [0] * (2 * m + 2 * n)
        coeffs[i] = 1
        coeffs[m + n + i] = -1
        cs.append(canonicalize_constraint(coeffs, "=", 0))
    return wide.add_constraints(cs)


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
            rel = _embed_relation_left(t.relation, m, n)
            for b in second.locations:
                transitions.append(
                    Transition(prod_name(t.source, b.name), t.label, rel, prod_name(t.target, b.name))
                )
    for u in second.transitions:
        if u.label is not None and u.label in shared:
            continue  # handled above (or blocked)
        rel = _embed_relation_right(u.relation, m, n)
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
class ReachOptions:
    domain: str = "poly"  # 'poly' | 'powerset'
    delay: int = 0
    cap: int = 8
    max_iter: int = 64

    def __post_init__(self):
        check_domain_options(self.domain, self.cap)


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
    """closure(R) meet (R elapse Act): the strict-constraint correction."""
    return p.topological_closure().intersection(p.time_elapse(act))


def location_update(
    h: HybridAutomaton,
    name: str,
    current: Mapping[str, Region],
    domain: str = "poly",
    *,
    entries: dict[int, tuple[Region, Region]] | None = None,
) -> Region:
    """One evaluation of the fixpoint right-hand side F_l.

    ``entries`` is a memo the caller keeps across calls: it maps a
    transition's index in ``h.transitions`` to (source region, entry
    region), and an entry is reused while ``current[t.source]`` is that
    same source object.  Without it every entry is computed afresh.
    """
    loc = h.location(name)
    inc = lift(loc.init, domain)
    entries = {} if entries is None else entries
    for i, t in enumerate(h.transitions):
        if t.target != name:
            continue
        source = current[t.source]
        memo = entries.get(i)
        if memo is None or memo[0] is not source:
            act = h.location(t.source).rate
            flowed = source.lift_image(lambda p: _source_flow(p, act))
            entry = flowed.lift_image(
                lambda p: p.relation_image(t.relation).intersection(loc.invariant)
            )
            memo = entries[i] = (source, entry)
        inc = inc.join(memo[1])
    return inc.lift_image(lambda p: p.time_elapse(loc.rate).intersection(loc.invariant))


def reach(h: HybridAutomaton, opts: ReachOptions = ReachOptions()) -> ReachResult:
    """Iterate the reachability equations to a verified post-fixpoint.

    Sweeps use the freshest values within the sweep (file order), so a
    value propagates along an entire acyclic path in one sweep; the
    widening set defaults to depth-first back-edge targets when the
    automaton does not specify one.
    """
    warnings = h.validate()
    widen_at = h.widen_at if h.widen_at else h.default_widen_set()
    bottom = lift(Polyhedron.empty(h.dim, Topology.NNC), opts.domain)
    regions: dict[str, Region] = {l.name: bottom for l in h.locations}
    iterations = 0
    converged = False
    entries: dict[int, tuple[Region, Region]] = {}  # shared by all sweeps
    for sweep in range(1, opts.max_iter + 1):
        iterations = sweep
        changed = False
        for loc in h.locations:
            f_value = location_update(h, loc.name, regions, opts.domain, entries=entries)
            old = regions[loc.name]
            if loc.name in widen_at and sweep > opts.delay:
                if f_value.entails(old):
                    new = old
                else:
                    new = old.widen(old.join(f_value), opts.cap)
            else:
                new = old.join(f_value)
            # new is an upper bound of old, so it differs iff it is not below old
            if not new.entails(old):
                changed = True
                regions[loc.name] = new
        if not changed:
            converged = True
            break
    result = ReachResult(regions, iterations, converged, warnings)
    if not converged:
        raise NonConvergenceError(
            f"no fixpoint after {opts.max_iter} sweeps", result
        )
    # post-fixpoint certificate: one more independent evaluation per location
    for loc in h.locations:
        check = location_update(h, loc.name, regions, opts.domain)
        if not check.entails(regions[loc.name]):
            raise AssertionError(f"converged result is not a post-fixpoint at {loc.name}")
    return result
