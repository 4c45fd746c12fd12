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

from polyinv.linalg import Constraint, Generator, Rel, canonicalize_constraint
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import semantic_contains

NNC = Topology.NNC
SMALL = st.integers(-3, 3)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def vectors(d):
    return st.lists(SMALL, min_size=d, max_size=d)


@st.composite
def constraints(draw, d, topology=NNC):
    anchor = draw(vectors(d))  # every non-strict row holds there, so few systems are empty
    rels = [">=", ">", ">", "="] if topology is NNC else [">=", "="]
    out = []
    # at most four rows: hulls and closures of larger 6-D systems convert slowly
    for _ in range(draw(st.integers(0, min(d + 1, 4)))):
        a = draw(vectors(d))
        rel = draw(st.sampled_from(rels))
        rhs = sum(x * y for x, y in zip(a, anchor))
        c = canonicalize_constraint(a, rel, rhs if rel == "=" else rhs - draw(st.integers(0, 3)))
        out.append(c)
        if c.rel is Rel.GT and draw(st.booleans()):
            out.append(Constraint(c.coeffs, c.rhs, Rel.GE))  # the eps-redundant twin
    return out


@st.composite
def generators(draw, d, topology=NNC):
    kinds = ["point", "closure point", "ray", "line"]
    if topology is not NNC:
        kinds.remove("closure point")
    gens = [Generator.point(draw(vectors(d)), draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        v = draw(vectors(d))
        if kind == "point":
            gens.append(Generator.point(v, draw(st.integers(1, 3))))
        elif kind == "closure point":
            gens.append(Generator.closure_point(v, draw(st.integers(1, 3))))
        elif any(v):
            gens.append(Generator.ray(v))
            if kind == "line":
                gens.append(Generator.ray([-x for x in v]))
    return gens


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
