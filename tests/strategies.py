"""Hypothesis strategies for small constraint and generator systems,
shared by the property tests of the kernel."""

from hypothesis import strategies as st

from polyinv.linalg import Constraint, Generator, Rel, canonicalize_constraint
from polyinv.polyhedron import Topology

NNC = Topology.NNC
SMALL = st.integers(-3, 3)


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
