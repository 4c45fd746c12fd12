"""Row systems hold each row once, and an intersection that adds no row
converts nothing.

The hypothesis suite runs chains of row-rewriting operations on closed
and NNC values in dimensions 1..4.  Every forward conversion must get a
row system with no repeated row, and every result must equal the same
chain run on constraint lists, decided by the Fourier-Motzkin oracles.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv import polyhedron
from polyinv.linalg import Constraint, Rel, canonicalize_constraint
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import fm_includes

CLOSED, NNC = Topology.CLOSED, Topology.NNC
SMALL = st.integers(-3, 3)
MAX_DIM = 4

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def vectors(d):
    return st.lists(SMALL, min_size=d, max_size=d)


@st.composite
def constraint_lists(draw, d, topology):
    anchor = draw(vectors(d))  # every non-strict row holds there, so few systems are empty
    rels = [">=", ">=", "=", ">"] if topology is NNC else [">=", ">=", "="]
    out = []
    for _ in range(draw(st.integers(0, 3))):
        a = draw(vectors(d))
        rel = draw(st.sampled_from(rels))
        rhs = sum(x * y for x, y in zip(a, anchor))
        c = canonicalize_constraint(a, rel, rhs if rel == "=" else rhs - draw(st.integers(0, 2)))
        out.append(c)
        if draw(st.integers(0, 3)) == 0:
            out.append(c)  # a repeated constraint is a repeated row
    return out


def build(d, topology, cs):
    return Polyhedron.from_constraints(d, topology, cs)


# -- the same operations on constraint lists ---------------------------------

def pad(cs, left, right):
    return [Constraint((0,) * left + c.coeffs + (0,) * right, c.rhs, c.rel) for c in cs]


def preimage(cs, k, row):
    const, *expr = row
    out = []
    for c in cs:
        ak = c.coeffs[k]
        coeffs = [a + ak * e for a, e in zip(c.coeffs, expr)]
        coeffs[k] = ak * expr[k]
        out.append(canonicalize_constraint(coeffs, c.rel, c.rhs - ak * const))
    return out


def permute(cs, perm):
    out = []
    for c in cs:
        coeffs = [0] * len(perm)
        for old, new in enumerate(perm):
            coeffs[new] = c.coeffs[old]
        out.append(Constraint(tuple(coeffs), c.rhs, c.rel))
    return out


@st.composite
def chains(draw):
    """A value made by a chain of operations, with its oracle constraint list."""
    topology = draw(st.sampled_from([CLOSED, NNC]))
    d = draw(st.integers(1, MAX_DIM))
    cs = draw(constraint_lists(d, topology))
    p = build(d, topology, cs)
    for _ in range(draw(st.integers(1, 4))):
        ops = ["meet", "meet self", "meet subset", "preimage", "permute", "convert", "minimize"]
        if d < MAX_DIM:
            ops += ["embed", "concat"]
        op = draw(st.sampled_from(ops))
        if op == "meet":
            more = draw(constraint_lists(d, topology))
            p, cs = p.intersection(build(d, topology, more)), cs + more
        elif op == "meet self":
            p = p.intersection(p)
        elif op == "meet subset":  # shares rows with p when p still holds its built rows
            some = [c for c in cs if draw(st.booleans())]
            q = build(d, topology, some)
            p = p.intersection(q) if draw(st.booleans()) else q.intersection(p)
        elif op == "preimage":
            k = draw(st.integers(0, d - 1))
            coeffs = draw(vectors(d))
            row = (draw(SMALL), *coeffs)
            p, cs = p.affine_preimage(k, row), preimage(cs, k, row)
        elif op == "permute":
            perm = draw(st.permutations(range(d)))
            p, cs = p.map_dimensions(perm), permute(cs, perm)
        elif op == "convert":
            p.is_empty()  # the value now holds generators too
        elif op == "minimize":
            p.minimized_constraints()  # its rows are now the minimal ones
        elif op == "embed":
            m = draw(st.integers(1, MAX_DIM - d))
            p, cs, d = p.add_dimensions(m), pad(cs, 0, m), d + m
        else:
            m = draw(st.integers(1, MAX_DIM - d))
            more = draw(constraint_lists(m, topology))
            p = p.concatenate(build(m, topology, more))
            cs, d = pad(cs, 0, m) + pad(more, d, 0), d + m
    return p, cs


@FUZZ
@given(chains())
def test_chains_convert_no_repeated_row_and_agree_with_fourier_motzkin(chain):
    p, cs = chain
    repeated = []
    forward = Polyhedron._forward

    def checked_forward(self, rows):
        if len(set(rows)) != len(rows):
            repeated.append(rows)
        return forward(self, rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Polyhedron, "_forward", checked_forward)
        got = p.minimized_constraints()
    assert repeated == []
    assert fm_includes(got, cs, p.dim) and fm_includes(cs, got, p.dim)


# -- pinned cases ------------------------------------------------------------

def poly(text, topology=CLOSED):
    return build(2, topology, parse_constraints(text, {"x": 0, "y": 1}, 2))


@pytest.mark.parametrize("topology", [CLOSED, NNC], ids=["closed", "nnc"])
def test_an_intersection_that_adds_no_row_returns_an_operand(topology, conversions):
    p = poly("x>=0, y>=1, x+y<=4", topology)
    universe = Polyhedron.universe(2, topology)
    assert p.intersection(p) is p
    assert p.intersection(universe) is p
    assert universe.intersection(p) is p
    assert p.intersection(poly("y>=1", topology)) is p
    assert conversions == []


def test_the_returned_operand_keeps_its_generators(conversions):
    hull = poly("x=0, y=0").poly_hull(poly("x=2, y=1"))  # built from generators
    conversions.clear()
    assert hull.intersection(Polyhedron.universe(2)) is hull
    assert conversions == []  # the universe's rows hold on hull's generators
    hull.minimized_generators()
    assert len(conversions) == 2  # hull's rows and then its generators, none of any meet


def test_nnc_intersection_keeps_two_side_rows_and_shared_rows_once():
    p, q = poly("x>0, y>=0", NNC), poly("x>0, y<3", NNC)
    meet = p.intersection(q)
    rows = meet._rows_any()
    assert sum(row in polyhedron._side_rows(meet._hom_dim) for row in rows) == 2
    assert len(rows) == len(set(rows)) == 3 + 2  # x>0 once, y>=0, y<3 and the side rows
    assert meet.equals(poly("x>0, y>=0, y<3", NNC))


def test_repeated_constraints_give_one_row():
    p = poly("x>=0, x>=0, y=1, y=1", NNC)
    assert len(p._rows_any()) == 2 + 2
    assert [c.rel for c in p.minimized_constraints()] == [Rel.EQ, Rel.GE]
