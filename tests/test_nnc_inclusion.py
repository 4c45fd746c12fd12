"""Differential test of NNC inclusion: the kernel decides it on the slack
embedding, the oracle on the emitted constraint and generator systems.

Pairs live in dimensions 1..6 and mix strict and non-strict constraints,
equalities, eps-redundant twins such as {x>0, x>=0}, generator-built
values with lines, rays and closure points, empty values, and values made
by time_elapse, topological_closure, relation_image and poly_hull.  One
operand is often built from the other, so that inclusions also hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.polyhedron import Polyhedron

from .oracles import semantic_contains
from .strategies import NNC, constraints, generators

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def base_values(d):
    rows = constraints(d).map(lambda cs: Polyhedron.from_constraints(d, NNC, cs))
    gens = generators(d).map(lambda gs: Polyhedron.from_generators(d, NNC, gs))
    empty = st.just(Polyhedron.empty(d, NNC))
    return st.sampled_from([rows, rows, gens, gens, empty]).flatmap(lambda kind: kind)


@st.composite
def values(draw, d):
    p = draw(base_values(d))
    op = draw(st.sampled_from(["as is", "elapse", "closure", "image", "hull"]))
    if op == "elapse":
        return p.time_elapse(draw(base_values(d)))
    if op == "closure":
        return p.topological_closure()
    if op == "image":
        rel = Polyhedron.from_constraints(2 * d, NNC, draw(constraints(2 * d)))
        return p.relation_image(rel)
    if op == "hull":
        return p.poly_hull(draw(base_values(d)))
    return p


@st.composite
def pairs(draw):
    d = draw(st.integers(1, 6))
    q = draw(values(d))
    relation = draw(st.sampled_from(["independent", "hull", "elapse", "closure", "meet"]))
    if relation == "hull":
        return q.poly_hull(draw(base_values(d))), q
    if relation == "elapse":
        return q.time_elapse(draw(base_values(d))), q
    if relation == "closure":
        return q.topological_closure(), q
    if relation == "meet":
        return q.intersection(draw(base_values(d))), q
    return draw(values(d)), q


@FUZZ
@given(pairs())
def test_contains_agrees_with_the_semantic_test(pair):
    p, q = pair
    assert p.contains(q) == semantic_contains(p, q)
    assert q.contains(p) == semantic_contains(q, p)
