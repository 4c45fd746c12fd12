"""Meets whose forward conversion starts from an operand's generators.

A meet of a value that holds its minimal generators (and rows, raw or
minimal), or raw generators whose dual conversion kept its matrix,
converts only the rows that value does not hold, starting from its
lines and rays.  Each seeded meet must emit what the same rows
converted from the universe emit, and agree with the Fourier-Motzkin
oracles.  The seed operands cover values with lines (equalities or free
dimensions), raw rows next to minimal generators, both descriptions
minimal, and meets that end empty, closed and NNC, in dimensions 1..5.
The seed holds tuples, not the operands, and is cleared once used.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.linalg import Constraint, Rel
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import constraints_to_ineqs, fm_generated, fm_same_set
from .strategies import NNC, constraints, generators

CLOSED = Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def negation(c: Constraint) -> Constraint:
    """``<a, x> <= rhs - 1``, which no point of ``c`` satisfies."""
    return Constraint(tuple(-x for x in c.coeffs), 1 - c.rhs, Rel.GE)


@st.composite
def seeded_meets(draw, topology):
    """``(d, a, b, oracle)``: ``a`` holds its minimal generators and rows,
    ``b`` only rows, and ``oracle`` is their meet as Fourier-Motzkin rows."""
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        gens = draw(generators(d, topology))

        def build():
            p = Polyhedron.from_generators(d, topology, gens)
            p.minimized_constraints()  # its minimal rows, from the raw generators
            p.minimized_generators()  # then both descriptions are minimal
            return p

        oracle = fm_generated(gens, d)
    else:
        cs, minimal = draw(constraints(d, topology)), draw(st.booleans())

        def build():
            p = Polyhedron.from_constraints(d, topology, cs)
            p.is_empty()  # raw rows and minimal generators
            if minimal:
                p.minimized_constraints()  # both minimal
            return p

        oracle = constraints_to_ineqs(cs)
    kind = draw(st.sampled_from(["random", "one row", "empty"]))
    own = build().minimized_constraints()  # read off a copy, so that a keeps its rows
    if kind == "empty" and own:
        more = [negation(draw(st.sampled_from(own)))]
    else:
        more = draw(constraints(d, topology))[: 1 if kind == "one row" else None]
    b = Polyhedron.from_constraints(d, topology, more)
    return d, build(), b, oracle + constraints_to_ineqs(more)


def emitted(p: Polyhedron):
    return p.minimized_constraints(), p.minimized_generators()


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(seeded_meets), st.booleans())
def test_a_seeded_meet_emits_what_its_rows_from_scratch_do(case, swap):
    d, a, b, oracle = case
    meet = b.intersection(a) if swap else a.intersection(b)
    if meet is not a and meet is not b and not meet._empty:
        assert meet._seed == (a._rows, *a._cone) and a._cone[:2] == a._gens
        scratch = Polyhedron._from_rep_rows(d, a.topology, meet._rows)
        assert scratch._seed is None
        assert emitted(meet) == emitted(scratch)
        assert meet._seed is None
    got = constraints_to_ineqs(meet.minimized_constraints())
    assert fm_same_set(got, oracle, d)
    if not meet.is_empty():
        assert fm_same_set(fm_generated(meet.minimized_generators(), d), oracle, d)


def poly(text, topology=CLOSED):
    return Polyhedron.from_constraints(2, topology, parse_constraints(text, {"x": 0, "y": 1}, 2))


@pytest.mark.parametrize("topology", [CLOSED, NNC], ids=["closed", "nnc"])
@pytest.mark.parametrize("text, cut", [
    ("x>=0, y>=0, x<=4, y<=4", "x+y<=3"),  # a bounded square, raw rows
    ("x=y", "x>=1"),  # a line: an equality
    ("x>=0", "y<=2"),  # a free dimension
    ("x>=0, y>=0, x+y<=2", "x+y>=3"),  # the meet is empty
])
def test_a_meet_adding_one_row_runs_one_seeded_conversion_of_that_row(
        topology, text, cut, conversions):
    a = poly(text, topology)
    a.is_empty()
    b = poly(cut, topology)
    conversions.clear()
    meet = a.intersection(b)
    meet.minimized_generators()
    (row,) = b._rows[:1]
    assert conversions.given == [([row], "seeded")]
    scratch = Polyhedron._from_rep_rows(2, topology, meet._rows)
    assert emitted(meet) == emitted(scratch)


@pytest.mark.parametrize("topology", [CLOSED, NNC], ids=["closed", "nnc"])
def test_rows_after_a_cut_line_take_bits_past_the_seeds(topology):
    """The seed's line is cut: its ray saturates every row the seed's
    matrix counts, and the two new rows take bits past those rows."""
    meet = poly("x-2*y>=-1", topology)
    meet.is_empty()
    meet = meet.intersection(poly("y-x>=-2, y-x>=-1", topology))
    assert meet._seed is not None
    assert emitted(meet) == emitted(Polyhedron._from_rep_rows(2, topology, meet._rows))


def test_an_operand_held_by_raw_generators_seeds_from_the_extreme_generators_its_dual_found(
        conversions):
    hull = poly("x>=0, y>=0, x<=1, y<=1").poly_hull(poly("x=3, y=3"))
    hull.minimized_constraints()  # rows from the raw generators, the matrix kept
    assert hull._cone is None  # not read until asked for
    meet = hull.intersection(poly("x<=2"))
    # the square's corner (1, 1) lies inside the hull: its other three and (3, 3) are extreme
    assert set(hull._gens[1]) == {(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 3, 3)}
    assert meet._seed == (hull._rows, *hull._cone)
    conversions.clear()
    meet.minimized_generators()
    assert conversions.given == [([poly("x<=2")._rows[0]], "seeded")]
    assert emitted(meet) == emitted(Polyhedron._from_rep_rows(2, CLOSED, meet._rows))


class Tracked(Polyhedron):
    """A polyhedron that can be referred to weakly (``Polyhedron`` has slots)."""


@pytest.mark.parametrize("topology", [CLOSED, NNC], ids=["closed", "nnc"])
def test_a_meet_keeps_no_operand_alive_and_clears_its_seed(topology):
    def tracked(text):
        return Tracked.from_constraints(2, topology, parse_constraints(text, {"x": 0, "y": 1}, 2))

    a, b = tracked("x>=0, y>=0, x+y<=4"), tracked("x<=y")
    a.is_empty()
    refs = weakref.ref(a), weakref.ref(b)
    meet = a.intersection(b)
    assert meet._seed is not None and type(meet) is Polyhedron
    del a, b
    gc.collect()
    assert [r() for r in refs] == [None, None]
    expected = poly("x>=0, x<=y, x+y<=4", topology)
    assert meet.minimized_constraints() == expected.minimized_constraints()
    assert meet._seed is None
