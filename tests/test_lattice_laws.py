"""Lattice laws of the kernel through ``contains`` at d = 5..8, closed and NNC.

The Fourier-Motzkin oracles blow up at these dimensions, so the meet,
the hull and the widening are checked against the inclusion test:

* a meet lies inside each of its operands, whether it was seeded from an
  operand's matrix or converted from the union of their rows, in both
  operand orders;
* each operand lies inside their hull;
* ``newer`` lies inside ``standard_widening(older, newer)`` whenever
  ``older`` lies inside ``newer``.

The operands are the families of ``test_dual_extraction``: a value held
by raw generators or by a raw row system, and rows through or near one
of its points, held as rows or by their generators.  Before the
operation each operand may first be asked for its rows or its
generators, which decides what it holds and whether a meet seeds from
it.  A value of more than 48 rays is skipped, as in that file: its dual
conversion takes seconds at d = 8.
"""

from hypothesis import given
from hypothesis import strategies as st

from polyinv.polyhedron import Polyhedron, standard_widening

from .oracles import rows_intersection
from .strategies import NNC
from .test_dual_extraction import CLOSED, FUZZ, cuts, raw_values, row_values

ASKED = st.sampled_from(["", "rows", "gens"])


def asked(p: Polyhedron, what: str) -> Polyhedron:
    """``p`` after it was asked for its minimal rows or generators, if at all."""
    if what == "rows":
        p.minimized_constraints()
    elif what == "gens":
        p.minimized_generators()
    return p


@st.composite
def operands(draw, topology):
    """``(make_a, make_b)``, each making a fresh value of one space: ``a`` held by
    raw generators or by a raw row system, ``b`` by rows near a point of ``a``,
    or by their generators; None when ``a`` has more than 48 rays."""
    if draw(st.booleans()):
        d, topology, make_a, anchor = draw(raw_values(topology, cut=True))
    else:
        d, topology, rows, anchor = draw(row_values(topology))

        def make_a():
            return Polyhedron.from_constraints(d, topology, rows)

    more, by_generators = draw(cuts(d, topology, anchor)), draw(st.booleans())

    def make_b():
        b = Polyhedron.from_constraints(d, topology, more)
        return Polyhedron.from_generators(d, topology, b.minimized_generators()) if by_generators else b

    if len(make_a()._minimal_gens()[1]) > 48:
        return None
    return make_a, make_b


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(operands), ASKED, ASKED, st.booleans())
def test_a_meet_lies_inside_its_operands_and_they_inside_their_hull(case, ask_a, ask_b, swap):
    if case is None:
        return
    make_a, make_b = case
    a, b = asked(make_a(), ask_a), asked(make_b(), ask_b)
    x, y = (b, a) if swap else (a, b)
    seeded = x.intersection(y)  # seeds from an operand that holds a matrix
    unseeded = rows_intersection(make_a(), make_b())  # fresh operands: the union of their rows
    for meet in (seeded, unseeded):
        assert a.contains(meet) and b.contains(meet)
    hull = x.poly_hull(y)
    assert hull.contains(a) and hull.contains(b)


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(operands), ASKED, ASKED,
       st.sampled_from(["meet a", "a hull", "meet hull"]))
def test_the_newer_value_lies_inside_its_widening_by_an_older_one_inside_it(
        case, ask_older, ask_newer, pair):
    if case is None:
        return
    make_a, make_b = case
    values = {"a": make_a(), "meet": make_a().intersection(make_b()),
              "hull": make_a().poly_hull(make_b())}
    older, newer = (values[name] for name in pair.split())
    older, newer = asked(older, ask_older), asked(newer, ask_newer)
    assert newer.contains(older)
    assert standard_widening(older, newer).contains(newer)
