"""Reachability in the closed topology for automata with no strict row.

``reach`` runs ``h.closed``, the automaton with every polyhedron read off
its held rows in the closed topology, when none of those rows is strict,
and lifts each result region back to an NNC value.  A strict row
anywhere, in an initial region, an invariant, a rate, a guard, an update
or in one component of a composition, keeps the whole automaton in NNC.
The closed run must give the regions the NNC iteration of the same
automaton gives, in both domains, and every region it returns, converged
or partial, is an NNC value of the automaton's dimension.
"""

import pytest

from polyinv import hybrid
from polyinv.hybrid import (
    HybridAutomaton, NonConvergenceError, ReachOptions, parallel_compose, parse_automaton, reach,
)
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet

from .paths import example_text, scheduler

NNC, CLOSED = Topology.NNC, Topology.CLOSED

# a strict-free model; each key below names one section a strict row replaces
BASE = {
    "init": "x = 0",
    "invariant": "x <= 5",
    "rate": "dx = 1",
    "guard": "x >= 1",
    "update": "x' = 0",
}
STRICT = {
    "init": "x > 0, x <= 1",
    "invariant": "x < 5",
    "rate": "dx > 0, dx <= 1",
    "guard": "x > 1",
    "update": "x' > 0, x' <= 1",
}


def model(**sections):
    s = {**BASE, **sections}
    return parse_automaton(
        "vars x;\n"
        f"location a {{ invariant: {s['invariant']}; rate: {s['rate']}; init: {s['init']}; }}\n"
        "location b { rate: dx = 0; }\n"
        f"transition a -> b {{ guard: {s['guard']}; update: {s['update']}; }}\n"
    )


def polyhedra(h):
    for loc in h.locations:
        yield from (loc.invariant, loc.rate, loc.init)
    for t in h.transitions:
        yield t.relation


def automata_run(monkeypatch):
    """The automaton each ``location_update`` call of the test is given."""
    seen = []
    real = hybrid.location_update

    def recorded(h, *args, **kwargs):
        seen.append(h)
        return real(h, *args, **kwargs)

    monkeypatch.setattr(hybrid, "location_update", recorded)
    return seen


def test_a_strict_free_model_runs_on_its_closed_twin(monkeypatch):
    h = model()
    twin = h.closed
    assert twin is not None and twin is h.closed  # built once
    assert all(p.topology is CLOSED for p in polyhedra(twin))
    for p, q in zip(polyhedra(h), polyhedra(twin)):
        assert p.minimized_constraints() == q.minimized_constraints()
    seen = automata_run(monkeypatch)
    result = reach(h)
    assert seen and all(g is twin for g in seen)
    assert all(r.topology is NNC for r in result.regions.values())


@pytest.mark.parametrize("where", sorted(STRICT))
def test_a_strict_row_anywhere_keeps_the_automaton_in_nnc(monkeypatch, where):
    h = model(**{where: STRICT[where]})
    assert h.closed is None
    seen = automata_run(monkeypatch)
    result = reach(h)
    assert seen and all(g is h for g in seen)
    assert all(p.topology is NNC for p in polyhedra(h))
    assert all(r.topology is NNC and r.dim == h.dim for r in result.regions.values())


@pytest.mark.parametrize("strict_side", ["first", "second"])
def test_a_strict_row_in_one_component_keeps_the_composition_in_nnc(strict_side):
    clock = "vars y; location c { rate: dy = 1; init: y = 0; }"
    strict = "vars y; location c { rate: dy = 1; init: y > 0, y <= 1; }"
    plain = model()
    other = parse_automaton(strict)
    pair = (plain, other) if strict_side == "second" else (other, plain)
    assert parallel_compose(*pair).closed is None
    assert parallel_compose(plain, parse_automaton(clock)).closed is not None


def test_the_twin_of_a_closed_automaton_keeps_its_values():
    h = model().closed
    assert h.closed is not None
    for p, q in zip(polyhedra(h), polyhedra(h.closed)):
        assert q.topology is CLOSED and (p is q or p.is_empty() and q.is_empty())


def rendered(h, region):
    names = list(h.variables)
    if isinstance(region, PolySet):
        return sorted(p.constraints_pretty(names) for p in region.elements)
    return region.constraints_pretty(names)


def is_nnc_region(region, dim):
    parts = region.elements if isinstance(region, PolySet) else (region,)
    return region.topology is NNC and region.dim == dim and all(
        isinstance(p, Polyhedron) and p.topology is NNC and p.dim == dim for p in parts
    )


@pytest.mark.parametrize("domain", ["poly", "powerset"])
@pytest.mark.parametrize("name", ["scheduler.lha", (12, 14), (9, 17)])
def test_the_closed_run_equals_the_nnc_iteration(monkeypatch, name, domain):
    opts = ReachOptions(domain=domain, delay=2) if domain == "powerset" else ReachOptions()
    strict_free = scheduler(name)
    assert strict_free.closed is not None
    closed = reach(strict_free, opts)
    monkeypatch.setattr(HybridAutomaton, "closed", None)  # every automaton stays NNC
    h = scheduler(name)
    nnc = reach(h, opts)
    assert closed.iterations == nnc.iterations
    assert closed.regions.keys() == nnc.regions.keys()
    for k, region in closed.regions.items():
        assert is_nnc_region(region, h.dim), k
        assert region.equals(nnc.regions[k]), k
        assert rendered(h, region) == rendered(h, nnc.regions[k]), k


def test_a_partial_result_holds_nnc_regions():
    h = scheduler("scheduler.lha")
    with pytest.raises(NonConvergenceError) as caught:
        reach(h, ReachOptions(domain="powerset", max_iter=3))
    partial = caught.value.partial
    assert not partial.converged and partial.iterations == 3
    assert any(r.elements for r in partial.regions.values())
    assert all(is_nnc_region(r, h.dim) for r in partial.regions.values())
