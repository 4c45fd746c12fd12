"""Composition by one product rule, against the former three loops.

``parallel_compose`` pairs a move on a shared label with each of the
partner's moves on that label, and any other move with a stay of the
partner at each of its locations.  ``oracles.former_parallel_compose``
is the body it replaces: the first component's moves, then the second's
unshared moves, each in a loop of its own.  Both must build the same
automaton: the same variables, labels, widen set, locations (names and
held rows) and transitions in order (source, label, target and the
relation's held rows), with the same relation objects shared by the same
transitions.  Reach sweeps, and the sweep counts the CLI prints, follow
the transition order.

The inputs are the shipped pairs, a three-way fold of shipped models,
and random automata of 1-3 locations and 0-4 transitions over labels
drawn from None and a few names, some shared, some declared but never
offered, with widen sets present or absent.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.hybrid import HybridAutomaton, Location, Transition, parallel_compose, parse_automaton
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import former_parallel_compose
from .paths import example_text
from .strategies import NNC, constraints

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)
LABELS = ("a", "b", "c")


def held(p: Polyhedron):
    return p.topology, p._empty, p._rows


def shape(h: HybridAutomaton):
    """What an automaton is made of, relation objects by the first transition holding each."""
    owner: dict[int, int] = {}
    return (
        h.variables, h.labels, h.widen_at,
        [(l.name, held(l.invariant), held(l.rate), held(l.init)) for l in h.locations],
        [(t.source, t.label, t.target, held(t.relation), owner.setdefault(id(t.relation), i))
         for i, t in enumerate(h.transitions)],
    )


def assert_same_product(*parts):
    """Each left-fold step, and a right fold, as the former body builds them."""
    new, old = parts[0], parts[0]
    for part in parts[1:]:
        new, old = parallel_compose(new, part), former_parallel_compose(old, part)
        assert shape(new) == shape(old)
        assert len({id(t.relation) for t in new.transitions}) == len(
            {id(t.relation) for t in old.transitions})
    if len(parts) == 3:
        a, b, c = parts
        new = parallel_compose(a, parallel_compose(b, c))
        assert shape(new) == shape(former_parallel_compose(a, former_parallel_compose(b, c)))


def shipped(name: str) -> HybridAutomaton:
    return parse_automaton(example_text(name))


@pytest.mark.parametrize(
    "names",
    [
        ("task.lha", "interrupt.lha"),
        ("fischer.lha", "interrupt.lha"),
        ("water.lha", "task.lha"),
        ("water.lha", "task.lha", "interrupt.lha"),
    ],
    ids="x".join,
)
def test_shipped_products_are_those_of_the_former_loops(names):
    assert_same_product(*map(shipped, names))


@st.composite
def automata(draw, prefix: str):
    """An automaton over variables ``prefix0..``: 1-3 locations, 0-4 transitions."""
    n = draw(st.integers(1, 2))
    names = [f"{prefix}{i}" for i in range(draw(st.integers(1, 3)))]

    def region(d):
        if draw(st.integers(0, 7)) == 0:
            return Polyhedron.empty(d, Topology.NNC)
        return Polyhedron.from_constraints(d, NNC, draw(constraints(d)))

    locations = tuple(Location(name, region(n), region(n), region(n)) for name in names)
    offered = st.one_of(st.none(), st.sampled_from(LABELS))
    transitions = tuple(
        Transition(draw(st.sampled_from(names)), draw(offered), region(2 * n), draw(st.sampled_from(names)))
        for _ in range(draw(st.integers(0, 4)))
    )
    # the offered labels, and some declared but never offered
    labels = {t.label for t in transitions if t.label} | draw(st.sets(st.sampled_from(LABELS)))
    widen_at = draw(st.sets(st.sampled_from(names)))
    return HybridAutomaton(tuple(f"{prefix}v{i}" for i in range(n)), locations, frozenset(labels),
                           transitions, frozenset(widen_at))


@FUZZ
@given(st.lists(st.sampled_from("pqr"), min_size=2, max_size=3, unique=True).flatmap(
    lambda prefixes: st.tuples(*map(automata, prefixes))))
def test_random_products_are_those_of_the_former_loops(parts):
    assert_same_product(*parts)


def test_a_clash_of_variables_is_refused_as_before():
    a = shipped("task.lha")
    for compose in (parallel_compose, former_parallel_compose):
        with pytest.raises(ValueError, match="variable clash"):
            compose(a, shipped("fischer.lha"))
