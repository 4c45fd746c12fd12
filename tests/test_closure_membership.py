"""Topological closure and point membership read the held generators.

The closure maps an NNC value's minimal generators, and membership is
the inclusion of a one-point value.  Both are checked against their
former bodies in ``tests/oracles.py``: ``emitted_closure`` encodes the
emitted generators, ``fraction_contains_point`` tests the emitted
constraints in Fractions.  Values live in dimensions 1..4 and are held by
rows, by raw generators (``poly_hull``, ``time_elapse``) or have lines.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from polyinv.linalg import GenKind, canonicalize_constraint
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import emitted_closure, fraction_contains_point
from .strategies import NNC, SMALL, constraints, generators

CLOSED = Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def held(d, topology):
    rows = constraints(d, topology).map(lambda cs: Polyhedron.from_constraints(d, topology, cs))
    gens = generators(d, topology).map(lambda gs: Polyhedron.from_generators(d, topology, gs))
    return st.one_of(rows, gens)


@st.composite
def values(draw, topology=NNC):
    d = draw(st.integers(1, 4))
    p = draw(held(d, topology))
    op = draw(st.sampled_from(["as is", "hull", "elapse"]))
    if op == "hull":
        return p.poly_hull(draw(held(d, topology)))
    if op == "elapse":
        return p.time_elapse(draw(held(d, topology)))
    return p


@FUZZ
@given(values())
def test_closure_equals_the_emission_based_closure(p):
    expected = emitted_closure(p)
    closure = p.topological_closure()
    assert closure.topology is expected.topology
    assert closure.equals(expected)
    assert closure.minimized_constraints() == expected.minimized_constraints()
    assert closure.minimized_generators() == expected.minimized_generators()


@settings(FUZZ, max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values())
def test_closing_minimal_generators_runs_no_conversion(conversions, p):
    p._minimal_gens()
    conversions.clear()
    p.topological_closure()
    assert conversions == []


def _as(x: Fraction, form: str):
    """``x`` as an int when integral, else as a Fraction or an exact float."""
    if x.denominator == 1:
        return x.numerator
    if form == "float" and float(x) == x:
        return float(x)
    return x


@st.composite
def points_of(draw, p):
    """A point on, near or off ``p``: its generators, their midpoints, or any."""
    gens = [g for g in p.minimized_generators() if g.kind is not GenKind.RAY]
    candidates = [[Fraction(c, g.divisor) for c in g.coeffs] for g in gens]
    candidates += [[(a + b) / 2 for a, b in zip(u, v)] for u in candidates for v in candidates]
    candidates.append([Fraction(x, 2) for x in draw(st.lists(SMALL, min_size=p.dim,
                                                                max_size=p.dim))])
    point = draw(st.sampled_from(candidates))
    return [_as(x, draw(st.sampled_from(["fraction", "float"]))) for x in point]


@FUZZ
@given(st.sampled_from([NNC, CLOSED]).flatmap(values), st.data())
def test_contains_point_agrees_with_the_fraction_body(p, data):
    point = data.draw(points_of(p))
    assert p.contains_point(point) == fraction_contains_point(p, point)


def _half_plane(topology=NNC):
    """{2*x > 1, y >= 0}, or {2*x >= 1, y >= 0} closed, held by its rows."""
    rel = ">" if topology is NNC else ">="
    cs = [canonicalize_constraint([2, 0], rel, 1), canonicalize_constraint([0, 1], ">=", 0)]
    return Polyhedron.from_constraints(2, topology, cs)


def test_contains_point_builds_no_fraction_for_int_coordinates(fractions_built):
    p = _half_plane()
    fractions_built.clear()
    assert p.contains_point((1, 0))
    assert not p.contains_point((0, 3))
    assert fractions_built == []


def test_contains_point_reads_fraction_and_float_coordinates():
    p = _half_plane()
    assert not p.contains_point((Fraction(1, 2), 0))
    assert not p.contains_point((0.5, 0.0))
    assert p.contains_point((Fraction(3, 4), 0.0))
    assert p.contains_point((0.75, Fraction(1, 3)))
    assert not p.contains_point((0.75, -0.25))


def test_contains_point_on_a_row_value_converts_at_most_once(conversions):
    for topology in (NNC, CLOSED):
        for point, inside in (((1, 2), True), ((0, 2), False)):
            conversions.clear()
            assert _half_plane(topology).contains_point(point) is inside
            assert len(conversions) <= 1
