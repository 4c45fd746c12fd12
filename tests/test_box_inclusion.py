"""The powerset join that tests only cross pairs, and the closure box
that turns an inclusion down before the full test.

Both operands of a join are reduced, so the join compares only an
element of one with an element of the other; it must give the very
elements, in the same order, that ``oracles.concat_join`` (the reduction
of the concatenation) gives.  The box of a value is the interval hull of
its closure, read off the generators it holds: it must equal the bounds
of the emitted generators (``oracles.emitted_bounds``), never turn down
an inclusion the full test accepts, and be neither built nor converted
for on a value held only by rows.  Values live in dimensions 1..3.
"""

from fractions import Fraction
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.analyzer import abstract_eval_aexp
from polyinv.imp import Var
from polyinv.linalg import Generator
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet, _includes

from .oracles import concat_join, emitted_bounds, semantic_contains
from .strategies import NNC, constraints, generators, vectors

CLOSED = Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def poly(text, topology=NNC):
    return Polyhedron.from_constraints(2, topology, parse_constraints(text, {"x": 0, "y": 1}, 2))


def build(d, topology, system):
    if system and isinstance(system[0], Generator):
        return Polyhedron.from_generators(d, topology, system)
    return Polyhedron.from_constraints(d, topology, system)


def systems(d, topology):
    return st.one_of(constraints(d, topology), generators(d, topology))


@st.composite
def values(draw, d, topology):
    """A value as a system builds it, or its hull, time elapse, affine
    image or meet with another system: raw generators, or raw rows."""
    p = build(d, topology, draw(systems(d, topology)))
    other = build(d, topology, draw(systems(d, topology)))
    op = draw(st.sampled_from(["keep", "hull", "elapse", "image", "meet"]))
    if op == "hull":
        return p.poly_hull(other)
    if op == "elapse":
        return p.time_elapse(other)
    if op == "image":
        return p.affine_image(draw(st.integers(0, d - 1)), draw(vectors(d + 1)))
    return p.intersection(other) if op == "meet" else p


@st.composite
def pairs(draw, topology):
    """(p, q): q often inside p or around it, a meet or hull of p with
    another value, or p itself; both hold generators."""
    d = draw(st.integers(1, 3))
    p, other = draw(values(d, topology)), draw(values(d, topology))
    op = draw(st.sampled_from(["other", "meet", "hull", "elapse", "same"]))
    q = {"other": other, "meet": p.intersection(other), "hull": p.poly_hull(other),
         "elapse": p.time_elapse(other), "same": p}[op]
    p.is_empty(), q.is_empty()  # converts a value held by rows
    return (q, p) if draw(st.booleans()) else (p, q)


def box_inside(inner, outer) -> bool:
    """Whether inner's emitted bounds lie within outer's on every dimension."""
    for k in range(inner.dim):
        (lo, hi), (olo, ohi) = emitted_bounds(inner, k), emitted_bounds(outer, k)
        if olo is not None and (lo is None or lo < olo):
            return False
        if ohi is not None and (hi is None or hi > ohi):
            return False
    return True


# ---------------------------------------------------------------------------
# The box
# ---------------------------------------------------------------------------

@FUZZ
@given(st.sampled_from([NNC, CLOSED]).flatmap(pairs))
def test_the_box_never_turns_down_an_inclusion_the_full_test_accepts(case):
    p, q = case
    excluded, inside = p.box_excludes(q), p.contains(q)
    assert not (excluded and inside)
    assert inside == semantic_contains(p, q) == _includes(p, q)
    if not (p.is_empty() or q.is_empty()):
        assert excluded == (not box_inside(q, p))


@pytest.mark.parametrize("outer, inner, inside", [
    ("x > 0", "x >= 0", False),  # a strict bound: the same closure box
    ("x >= 0", "x > 0", True),
    ("y = 0", "y = 0, x >= 3", True),  # a line of outer
    ("y = 0, x >= 3", "y = 0", False),  # a line of inner leaves a bounded side
    ("x >= 0, x <= y", "x >= 1, x <= y, y <= 5", True),  # rays, an unbounded side
    ("x >= 1, x <= y", "x >= 0, x <= y, y <= 5", False),
    ("2*x > 1, 3*x < 4", "x = 1", True),  # rational bounds
    ("2*x > 1, 3*x < 4", "3*x = 4", False),  # on the box, outside the set
])
def test_the_box_on_lines_rays_and_strict_bounds(outer, inner, inside):
    p, q = poly(outer), poly(inner)
    p.is_empty(), q.is_empty()
    assert p.contains(q) == _includes(p, q) == inside
    assert p.box_excludes(q) == (not box_inside(q, p))


@FUZZ
@given(st.sampled_from([NNC, CLOSED]).flatmap(
    lambda t: st.integers(1, 3).flatmap(lambda d: values(d, t))))
def test_the_box_is_the_emitted_bounds(p):
    if p.is_empty():
        assert p._held_box() is None
        return
    box = p.closure_box()  # read off the held generators, raw ones if held raw
    for k, (lo, hi) in enumerate(box):
        bounds = emitted_bounds(p, k)
        assert tuple(None if b is None else Fraction(*b) for b in (lo, hi)) == bounds
        assert p.dim_bounds(k) == bounds
        lo, hi = [None if b is None else f(b) for b, f in zip(bounds, (ceil, floor))]
        span = abstract_eval_aexp(Var(0, 0, 0, f"x{k}"), p, [f"x{i}" for i in range(p.dim)])
        if None not in (lo, hi) and lo > hi:  # no integer in the closure's range
            assert span is None
        else:
            assert span == (lo, hi)


@pytest.mark.parametrize("topology", [NNC, CLOSED], ids=lambda t: t.value)
def test_a_value_held_by_rows_gets_no_box_and_no_conversion(topology, conversions):
    rows = poly("x >= 3, y <= 2", topology)
    gens = Polyhedron.from_generators(2, topology, [Generator.point([0, 0])])
    assert not rows.box_excludes(gens) and not gens.box_excludes(rows)
    assert rows._box is None and rows._gens is None and conversions == []


def test_the_box_turns_a_pair_down_before_the_full_test_converts(conversions):
    a = Polyhedron.from_generators(2, NNC, [Generator.point([0, 0]), Generator.point([1, 0])])
    b = Polyhedron.from_generators(2, NNC, [Generator.point([5, 5])])
    assert not _includes(a, b) and conversions == []
    assert not a.contains(b) and conversions == [4]  # a's rows, by a dual conversion


def test_an_empty_value_gets_no_box():
    empty = poly("x >= 1, x <= 0")
    assert empty.is_empty() and empty._held_box() is None
    assert not empty.box_excludes(poly("x >= 0")) and _includes(poly("x >= 0"), empty)
    with pytest.raises(ValueError):
        empty.closure_box()


# ---------------------------------------------------------------------------
# The cross-pair join
# ---------------------------------------------------------------------------

@st.composite
def joins(draw, topology):
    """(a, b): two reduced powersets; b's elements are often a's own
    elements, or meets or hulls of them, so pairs across the operands
    include one another either way."""
    d = draw(st.integers(1, 3))
    mine = draw(st.lists(values(d, topology), min_size=0, max_size=4))
    a = PolySet.reduce(d, topology, mine)
    theirs = []
    for _ in range(draw(st.integers(0, 4))):
        other = draw(values(d, topology))
        base = draw(st.sampled_from(a.elements)) if a.elements else other
        op = draw(st.sampled_from(["same", "meet", "hull", "other"]))
        theirs.append({"same": base, "meet": base.intersection(other),
                       "hull": base.poly_hull(other), "other": other}[op])
    return a, PolySet.reduce(d, topology, theirs)


@FUZZ
@given(st.sampled_from([NNC, CLOSED]).flatmap(joins), st.booleans())
def test_the_cross_pair_join_is_the_reduced_concatenation(case, swap):
    a, b = case[::-1] if swap else case
    joined, expected = a.join(b), concat_join(a, b)
    assert len(joined.elements) == len(expected.elements)
    assert all(p is q for p, q in zip(joined.elements, expected.elements))
