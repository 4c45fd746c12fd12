"""Meets and source flows that the held descriptions already decide.

A meet of a value held only by generators with a value held by rows
returns the generator operand, unconverted, when the rows hold on its
generators (inclusion of the slack embeddings, not of the encoded sets),
and the closure of an NNC value whose held rows are strict nowhere is
the value itself, so the source flow of such a region is the region.
Both are checked against their former bodies: ``oracles.rows_intersection``
meets by the union of the rows and ``oracles.emitted_closure`` closes by
the emitted generators.  Values live in dimensions 1..3.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyinv.hybrid import _source_flow
from polyinv.linalg import Generator
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import emitted_closure, rows_intersection
from .strategies import NNC, constraints, generators, vectors

CLOSED = Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)
NO_FIXTURE_CHECK = [HealthCheck.function_scoped_fixture]


def poly(text, topology=NNC):
    return Polyhedron.from_constraints(2, topology, parse_constraints(text, {"x": 0, "y": 1}, 2))


def build(d, topology, system):
    if system and isinstance(system[0], Generator):
        return Polyhedron.from_generators(d, topology, system)
    return Polyhedron.from_constraints(d, topology, system)


def systems(d, topology):
    return st.one_of(constraints(d, topology), generators(d, topology))


@st.composite
def meets(draw, topology):
    """(g, r): g held by generators (a hull, a time elapse or an affine
    image), r held by rows: random ones, or some that g emits."""
    d = draw(st.integers(1, 3))
    first, second = draw(systems(d, topology)), draw(systems(d, topology))
    op = draw(st.sampled_from(["hull", "elapse", "image"]))
    k, row = draw(st.integers(0, d - 1)), draw(vectors(d + 1))

    def make():
        p = build(d, topology, first)
        if op == "hull":
            return p.poly_hull(build(d, topology, second))
        if op == "elapse":
            return p.time_elapse(build(d, topology, second))
        return p.affine_image(k, row)

    if draw(st.booleans()):
        cs = draw(constraints(d, topology))
    else:  # read off a copy, so that g itself stays unconverted
        own = make().minimized_constraints()
        cs = draw(st.lists(st.sampled_from(own), unique=True)) if own else []
    return make(), Polyhedron.from_constraints(d, topology, cs)


def same_emission(p, q):
    assert p.minimized_constraints() == q.minimized_constraints()
    assert p.minimized_generators() == q.minimized_generators()


@FUZZ
@given(st.sampled_from([NNC, CLOSED]).flatmap(meets), st.booleans())
def test_the_meet_emits_what_the_union_of_rows_does(case, swap):
    g, r = case
    inside = r._rep_contains(g)
    meet = r.intersection(g) if swap else g.intersection(r)
    if g._rows is None and not (g._empty or r._empty):
        assert (meet is g) == inside
    same_emission(meet, rows_intersection(r, g) if swap else rows_intersection(g, r))


@settings(FUZZ, max_examples=100, suppress_health_check=NO_FIXTURE_CHECK)
@given(st.sampled_from([NNC, CLOSED]).flatmap(meets), st.booleans())
def test_a_generator_operand_inside_the_rows_is_returned_unconverted(conversions, case, swap):
    g, r = case
    conversions.clear()
    inside = r._rep_contains(g)
    meet = r.intersection(g) if swap else g.intersection(r)
    if inside and g._rows is None:
        assert meet is g or g._empty or r._empty
        assert conversions == []


def test_a_semantic_inclusion_outside_the_embedding_is_met_by_rows():
    # {1/2 <= x <= 1}: its point at x = 1/2 has slack 1, outside x - eps >= 0
    def g():
        return Polyhedron.from_generators(1, NNC, [Generator.point([1], 2), Generator.point([1])])

    r = Polyhedron.from_constraints(1, NNC, parse_constraints("x > 0", {"x": 0}, 1))
    assert r.contains(g()) and not r._rep_contains(g())
    meet = g().intersection(r)
    assert meet._rows is not None
    same_emission(meet, rows_intersection(g(), r))


def test_a_hull_inside_a_row_value_is_its_meet(conversions):
    for topology in (NNC, CLOSED):
        hull = poly("x=0, y=0", topology).poly_hull(poly("x=2, y=1", topology))
        rows = poly("x>=0, y>=0, x<=3", topology)
        conversions.clear()
        assert rows.intersection(hull) is hull
        assert hull.intersection(rows) is hull
        assert conversions == []


# -- the source flow ----------------------------------------------------------

@st.composite
def flows(draw):
    """(p, act): an NNC region held by rows, strict or not, or by
    generators, and an NNC rate set."""
    d = draw(st.integers(1, 3))
    cs = draw(st.sampled_from([NNC, CLOSED]).flatmap(lambda t: constraints(d, t)))  # closed: no strict row
    p = build(d, NNC, draw(st.one_of(st.just(cs), generators(d))))
    return p, build(d, NNC, draw(systems(d, NNC)))


@FUZZ
@given(flows())
def test_the_source_flow_equals_closure_meet_elapse(case):
    p, act = case
    flow = _source_flow(p, act)
    same_emission(flow, rows_intersection(emitted_closure(p), p.time_elapse(act)))


def test_the_source_flow_of_a_closed_region_is_the_region(conversions):
    act = poly("x=1, y>=0, y<=1")
    assert not act.is_empty()  # converts the rate once, as the engine's first elapse does
    for region in ("x>=0, y<=2", "x=1, y>=0", ""):
        p = poly(region)
        conversions.clear()
        assert p.topological_closure() is p
        assert _source_flow(p, act) is p
        assert conversions == []


def test_no_rate_gives_no_source_flow():
    p, act = poly("x>=0"), poly("x=1, x=2")
    assert p.topological_closure() is p
    assert _source_flow(p, act).is_empty()


def test_a_strict_row_keeps_the_source_flow_a_meet():
    p, act = poly("x>0, y>=0"), poly("x=1, y=0")
    flow = _source_flow(p, act)
    assert flow is not p
    assert flow.constraints_pretty(["x", "y"]) == "{y>=0, x>0}"


# -- why contains keeps its emptiness test --------------------------------------

def test_contains_needs_the_emptiness_test_for_pure_slack_rows():
    # x := 0 turns x - eps >= 0 into -eps >= 0: every row is pure slack
    def empty():
        return Polyhedron.from_constraints(1, NNC, parse_constraints("x > 0", {"x": 0}, 1)) \
            .affine_preimage(0, [0, 0])

    assert all(not vec[1] for vec, _ in empty()._rows)
    point = Polyhedron.from_generators(1, NNC, [Generator.point([1])])
    assert not empty().contains(point)
    assert not empty().contains(Polyhedron.universe(1, NNC))
    assert not point.entails(empty())
    assert not empty()._rep_contains(point)  # the embedding reads the pure-slack row
    assert empty().is_empty()


def test_embedding_inclusion_in_a_row_value_converts_nothing(conversions):
    hull = poly("x=0, y=0").poly_hull(poly("x>=2, y=1"))
    inside, outside = poly("x>=0, y>=0"), poly("x<=2")
    conversions.clear()
    assert inside._rep_contains(hull)
    assert not outside._rep_contains(hull)
    assert conversions == []
