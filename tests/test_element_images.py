"""Each region element imaged once across reach sweeps.

``reach`` shares one ``location_update`` memo across its sweeps.  For
each transition it keeps the entry image of every element of the source
region it last saw, and for each location the time elapse within the
invariant of every element of the incoming region it last saw, so a
region that a join changed images only the elements it did not hold
before: a join keeps the elements it does not drop as the same objects.
A run with the memo must give the regions, the emitted systems and the
sweep count of a run without it; no element is imaged twice for one
transition during the sweeps; a widened element is a new object and is
imaged anew; and the memo holds only the elements of the regions it
last saw.  The post-fixpoint certificate uses no memo.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv import hybrid
from polyinv.hybrid import ReachOptions, Transition, location_update, parse_automaton, reach
from polyinv.linalg import Constraint, Rel
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet, lift

from .paths import example_text, scheduler
from .strategies import constraints

NNC, CLOSED = Topology.NNC, Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=100)
SCHEDULERS = ["scheduler.lha", (12, 14), (9, 17)]
POWERSET = ReachOptions(domain="powerset", delay=2)  # the scheduler family converges so


def rendered(h, regions):
    """Each location's region, element by element in the order held."""
    names = list(h.variables)
    return {name: [p.constraints_pretty(names) for p in held(region)]
            for name, region in regions.items()}


def held(region):
    return region.elements if isinstance(region, PolySet) else (region,)


def without_memo(monkeypatch):
    """Make every ``location_update`` that ``reach`` calls compute afresh."""
    real = hybrid.location_update
    monkeypatch.setattr(hybrid, "location_update",
                        lambda *args, entries=None, **kwargs: real(*args, **kwargs))


def spy(monkeypatch):
    """Record each ``Transition.image`` call as (phase, transition, element),
    the phase "sweep" inside a ``location_update`` given a memo and "check"
    inside one given none, and record each call's regions (a copy of the
    mapping) and memo."""
    calls, updates, phase = [], [], []
    real_update, real_image = hybrid.location_update, Transition.image

    def update(h, name, current, domain="poly", *, entries=None):
        phase.append("check" if entries is None else "sweep")
        updates.append((dict(current), entries))
        return real_update(h, name, current, domain, entries=entries)

    def image(t, p):
        calls.append((phase[-1], t, p))
        return real_image(t, p)

    monkeypatch.setattr(hybrid, "location_update", update)
    monkeypatch.setattr(Transition, "image", image)
    return calls, updates


@pytest.mark.parametrize("name", SCHEDULERS)
def test_the_memo_changes_no_region_and_no_sweep_count(monkeypatch, name):
    h = scheduler(name)
    res = reach(h, POWERSET)
    without_memo(monkeypatch)
    fresh = reach(scheduler(name), POWERSET)
    assert res.converged and fresh.converged
    assert res.iterations == fresh.iterations
    assert all(res.regions[k].equals(fresh.regions[k]) for k in fresh.regions)
    assert rendered(h, res.regions) == rendered(h, fresh.regions)


@pytest.mark.parametrize("domain", ["poly", "powerset"])
@pytest.mark.parametrize("name", SCHEDULERS)
def test_no_element_is_imaged_twice_for_one_transition_in_the_sweeps(monkeypatch, name, domain):
    calls, _ = spy(monkeypatch)
    res = reach(scheduler(name), POWERSET if domain == "powerset" else ReachOptions())
    # the scheduler runs closed, so the source flow of an element is the element itself
    sweeps = [(id(t), id(p)) for phase, t, p in calls if phase == "sweep"]
    checks = [(id(t), id(p)) for phase, t, p in calls if phase == "check"]
    assert res.converged and len(set(sweeps)) == len(sweeps)
    # the certificate images every element of the result again, all seen in the sweeps
    assert checks and set(checks) <= set(sweeps)


# two transitions from a to b: each element is imaged once for each
TWO_WAYS = """vars x, y;
location a { rate: dx = 1, dy = 0; invariant: x <= 10; }
location b { rate: dx = 0, dy = 0; }
transition a -> b { guard: x >= 1; }
transition a -> b { guard: y >= 1; }
"""


def box(x, y):
    """The closed box x0 <= x <= x1, y0 <= y <= y1."""
    (x0, x1), (y0, y1) = x, y
    rows = [((1, 0), x0), ((-1, 0), -x1), ((0, 1), y0), ((0, -1), -y1)]
    return Polyhedron.from_constraints(2, CLOSED, [Constraint(a, b, Rel.GE) for a, b in rows])


def test_a_kept_element_is_imaged_once_and_a_widened_one_anew(monkeypatch):
    h = parse_automaton(TWO_WAYS).closed
    calls, _ = spy(monkeypatch)
    bottom = PolySet.bottom(2, CLOSED)
    p, q, r = box((0, 2), (0, 2)), box((5, 6), (3, 3)), box((8, 8), (8, 8))
    memo, index = {}, {id(t): i for i, t in enumerate(h.transitions)}

    def update(source):
        calls.clear()
        current = {"a": source, "b": bottom}
        out = hybrid.location_update(h, "b", current, "powerset", entries=memo)
        fresh = hybrid.location_update(h, "b", current, "powerset")
        assert rendered(h, {"b": out}) == rendered(h, {"b": fresh})
        images = [(index[id(t)], p) for phase, t, p in calls if phase == "sweep"]
        assert [e for e, _ in memo[0][2].values()] == list(source.elements)  # only live ones
        return images

    first = PolySet.reduce(2, CLOSED, [p, q])
    assert update(first) == [(0, p), (0, q), (1, p), (1, q)]
    joined = first.join(PolySet.singleton(r))
    assert joined.elements == (p, q, r)  # the same objects
    assert update(joined) == [(0, r), (1, r)]
    assert update(joined) == []  # the same source: the entries themselves are reused
    widened = joined.widen(joined.join(PolySet.singleton(box((0, 3), (0, 2)))), 8)
    new = [e for e in widened.elements if not any(e is old for old in joined.elements)]
    assert new and len(new) < len(widened.elements)
    assert [e for _, e in update(widened)] == new + new


@pytest.mark.parametrize("name", SCHEDULERS)
def test_after_a_run_the_memo_holds_only_the_live_elements(monkeypatch, name):
    _, updates = spy(monkeypatch)
    h = scheduler(name)
    reach(h, POWERSET)
    memos = {id(entries): entries for _, entries in updates if entries is not None}
    regions = updates[-1][0]  # the certificate's: the result, before its NNC lift
    assert len(memos) == 1
    memo = memos.popitem()[1]
    assert memo.keys() == {*range(len(h.transitions)), *(l.name for l in h.locations)}
    for key, (region, _, results) in memo.items():
        if isinstance(key, int):
            assert region is regions[h.transitions[key].source]
        assert [e for e, _ in results.values()] == list(region.elements)
        assert all(i == id(e) for i, (e, _) in results.items())


def test_a_run_that_does_not_converge_keeps_the_memo_bounded(monkeypatch):
    _, updates = spy(monkeypatch)
    h = scheduler("scheduler.lha")
    with pytest.raises(hybrid.NonConvergenceError):
        reach(h, ReachOptions(domain="powerset", max_iter=12))
    memo = updates[-1][1]
    # the regions of the last sweep, one location_update per location
    live = {id(r) for current, _ in updates[-len(h.locations):] for r in current.values()}
    assert sum(len(results) for key, (_, _, results) in memo.items() if isinstance(key, int))
    for key, (region, _, results) in memo.items():
        assert [e for e, _ in results.values()] == list(region.elements)
        assert isinstance(key, str) or id(region) in live


# ---------------------------------------------------------------------------
# The memoized update against the fresh one, on sources that share elements
# ---------------------------------------------------------------------------

MODELS = ["water.lha", "fischer.lha", "scheduler.lha"]
AUTOMATA = {name: parse_automaton(example_text(name)) for name in MODELS}
REACHED = {name: reach(h, POWERSET).regions for name, h in AUTOMATA.items()}


@st.composite
def source_sequences(draw):
    """(automaton, target location, domain, a sequence of regions
    mappings): each source of the target draws its regions from one pool of
    element objects (reached elements, random systems, and their meets and
    hulls), and sometimes keeps the previous step's region object."""
    name = draw(st.sampled_from(MODELS))
    h = AUTOMATA[name]
    target = draw(st.sampled_from([l.name for l in h.locations if h.incoming(l.name)]))
    domain = draw(st.sampled_from(["poly", "powerset"]))
    pools = {}
    for i in h.incoming(target):
        source = h.transitions[i].source
        reached = list(REACHED[name][source].elements) or [h.location(source).init]
        others = [Polyhedron.from_constraints(h.dim, NNC, draw(constraints(h.dim)))
                  for _ in range(draw(st.integers(1, 2)))]
        pools[source] = reached + others + [
            draw(st.sampled_from(reached)).poly_hull(others[0]),
            draw(st.sampled_from(reached)).intersection(others[-1]),
        ]
    bottom = lift(Polyhedron.empty(h.dim, NNC), domain)
    steps = []
    for _ in range(draw(st.integers(2, 4))):
        current = {l.name: bottom for l in h.locations}
        for source, pool in pools.items():
            if steps and draw(st.booleans()):
                current[source] = steps[-1][source]
            elif domain == "poly":
                current[source] = draw(st.sampled_from(pool))
            else:
                picked = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
                current[source] = PolySet.reduce(h.dim, NNC, picked)
        steps.append(current)
    return h, target, domain, steps


@FUZZ
@given(source_sequences())
def test_the_memoized_update_equals_the_fresh_one(case):
    h, target, domain, steps = case
    memo = {}
    for current in steps:
        out = location_update(h, target, current, domain, entries=memo)
        fresh = location_update(h, target, current, domain)
        assert out.equals(fresh)
        assert rendered(h, {target: out}) == rendered(h, {target: fresh})
