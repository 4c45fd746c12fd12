"""The reach sweep that tests each location's change once, and the
transition entry reduced once.

A location changes exactly when its right-hand side F(l) is not below
its region, so the sweep joins, and widens at a cut location, only
then.  ``oracles.former_reach`` sweeps the former way: it joins (and
widens) first and then tests the new region against the old one, and
it computes each entry by ``oracles.two_lift_entry``, which reduces
after the source flow and again after the image.  Both must give the
same regions and sweep counts on every shipped model, and the fused
entry must equal the two-step one on random regions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv import analyzer, hybrid
from polyinv.hybrid import ReachOptions, _source_flow, location_update, parse_automaton, reach
from polyinv.linalg import Constraint, Rel
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import DomainOptions, PolySet, lift

from .oracles import former_reach, two_lift_entry
from .paths import example_text
from .strategies import NNC, constraints

CLOSED = Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=150)
MODELS = ["water.lha", "fischer.lha", "scheduler.lha", "task.lha", "interrupt.lha"]


def options(name, domain):
    # the shipped scheduler needs two plain sweeps to converge in the powerset
    delay = 2 if (name, domain) == ("scheduler.lha", "powerset") else 0
    return ReachOptions(domain=domain, delay=delay)


def rendered(h, regions):
    """Each location's region, element by element in the order held."""
    names = list(h.variables)
    out = {}
    for name, region in regions.items():
        elements = region.elements if isinstance(region, PolySet) else (region,)
        out[name] = [p.constraints_pretty(names) for p in elements]
    return out


@pytest.mark.parametrize("domain", ["poly", "powerset"])
@pytest.mark.parametrize("name", MODELS)
def test_reach_matches_the_former_sweep(name, domain):
    h, opts = parse_automaton(example_text(name)), options(name, domain)
    res = reach(h, opts)
    regions, iterations = former_reach(parse_automaton(example_text(name)), opts)
    assert res.converged and res.iterations == iterations
    assert rendered(h, res.regions) == rendered(h, regions)


def test_the_former_sweep_also_fails_to_converge_where_reach_does():
    # the shipped scheduler in the powerset without a delay grows on every sweep
    h = parse_automaton(example_text("scheduler.lha"))
    opts = ReachOptions(domain="powerset", max_iter=8)
    with pytest.raises(hybrid.NonConvergenceError) as err:
        reach(h, opts)
    assert (err.value.partial.iterations, err.value.partial.converged) == (8, False)
    assert former_reach(parse_automaton(example_text("scheduler.lha")), opts) is None


@pytest.mark.parametrize("name, tests", [("water.lha", 12), ("fischer.lha", 18),
                                         ("scheduler.lha", 15)])
def test_one_inclusion_test_per_location_and_sweep(monkeypatch, name, tests):
    h = parse_automaton(example_text(name))
    calls = []
    real = Polyhedron.entails
    monkeypatch.setattr(Polyhedron, "entails", lambda p, q: calls.append(1) or real(p, q))
    res = reach(h)
    # every sweep, then the post-fixpoint certificate
    assert len(calls) == (res.iterations + 1) * len(h.locations) == tests


# the join tests only cross pairs and calls no reduce
@pytest.mark.parametrize("name, reduces", [("water.lha", 35), ("scheduler.lha", 84)])
def test_reduce_calls_of_a_powerset_reach(monkeypatch, name, reduces):
    h = parse_automaton(example_text(name))
    calls = []
    real = PolySet.reduce
    monkeypatch.setattr(PolySet, "reduce", staticmethod(lambda *a: calls.append(1) or real(*a)))
    reach(h, options(name, "powerset"))
    assert len(calls) == reduces


# ---------------------------------------------------------------------------
# The fused entry against the two-step one, on random regions
# ---------------------------------------------------------------------------

AUTOMATA = {name: parse_automaton(example_text(name)) for name in MODELS}
REACHED = {name: reach(h, options(name, "powerset")).regions for name, h in AUTOMATA.items()}


def face(p: Polyhedron, k: int) -> Polyhedron:
    """The closure of p met with the equality of its k-th strict constraint
    (of its k-th constraint if none is strict): a face that p misses, and
    that p's flow may reach."""
    cs = p.minimized_constraints()
    cs = [c for c in cs if c.rel is Rel.GT] or cs
    if not cs:
        return p
    c = cs[k % len(cs)]
    return p.topological_closure().add_constraints([Constraint(c.coeffs, c.rhs, Rel.EQ)])


@st.composite
def entries(draw):
    """(automaton, transition index, source region): the region's elements
    are reached elements of the source, as they are, as faces of their
    closures, met with or hulled with a random system, or random systems
    alone; a closed region is closed element-wise."""
    name = draw(st.sampled_from(MODELS))
    h = AUTOMATA[name]
    i = draw(st.integers(0, len(h.transitions) - 1))
    source = h.transitions[i].source
    reached = REACHED[name][source].elements or (h.location(source).init,)
    rows = CLOSED if draw(st.booleans()) else NNC
    elements = []
    for _ in range(draw(st.integers(1, 4))):
        base = draw(st.sampled_from(reached))
        other = Polyhedron.from_constraints(h.dim, NNC, draw(constraints(h.dim, rows)))
        op = draw(st.sampled_from(["keep", "face", "meet", "hull", "random"]))
        p = {"keep": base, "face": face(base, draw(st.integers(0, 9))),
             "meet": base.intersection(other), "hull": base.poly_hull(other), "random": other}[op]
        elements.append(p.topological_closure() if rows is CLOSED else p)
    return h, i, PolySet.reduce(h.dim, NNC, elements)


@FUZZ
@given(entries())
def test_the_fused_entry_equals_the_two_step_entry(case):
    h, i, region = case
    t = h.transitions[i]
    current = {l.name: lift(Polyhedron.empty(h.dim, NNC), "powerset") for l in h.locations}
    current[t.source] = region
    memo = {}
    location_update(h, t.target, current, "powerset", entries=memo)
    fused = memo[i][1]
    two_step = two_lift_entry(t, h.location(t.target).invariant, h.location(t.source).rate, region)
    assert fused.equals(two_step)
    assert len(fused.elements) == len(two_step.elements)


def test_an_element_the_flow_swallows_gives_one_entry_element():
    # water's l0 region below w = 10, and the face w = 10 it misses: the
    # flow of the first reaches the second, and both enter l1 at w = 10
    h = parse_automaton(example_text("water.lha"))
    base = REACHED["water.lha"]["l0"].elements[0]
    region = PolySet.reduce(h.dim, NNC, [base, face(base, 0)])
    assert len(region.elements) == 2
    act, t = h.location("l0").rate, h.transitions[0]
    assert len(region.lift_image(lambda p: _source_flow(p, act)).elements) == 1
    memo = {}
    location_update(h, "l1", {**REACHED["water.lha"], "l0": region}, "powerset", entries=memo)
    two_step = two_lift_entry(t, h.location("l1").invariant, act, region)
    assert memo[0][1].equals(two_step) and len(memo[0][1].elements) == 1


# ---------------------------------------------------------------------------
# One options type for both engines
# ---------------------------------------------------------------------------

def test_both_engines_share_one_options_type():
    assert analyzer.AnalysisOptions is DomainOptions
    assert issubclass(ReachOptions, DomainOptions)
    assert ReachOptions() == ReachOptions("poly", 0, 8, 64)


@pytest.mark.parametrize("kind", [analyzer.AnalysisOptions, ReachOptions])
@pytest.mark.parametrize(
    "bad, message",
    [({"domain": "powerst"}, "unknown domain 'powerst'"),
     ({"cap": 0}, "powerset cap must be at least 1"),
     ({"delay": -1}, "widening delay must not be negative")],
    ids=["domain", "cap", "delay"],
)
def test_both_option_types_reject_the_same_values(kind, bad, message):
    with pytest.raises(ValueError, match=message):
        kind(**bad)
