"""Sharp edges of the slack embedding: operations that must agree with
the set semantics of strict faces."""

from fractions import Fraction

from polyinv.linalg import GenKind
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology, standard_widening


def nnc(text, names):
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    return Polyhedron.from_constraints(n, Topology.NNC, parse_constraints(text, idx, n))


def test_concatenate_keeps_both_strict_faces():
    p = nnc("x>0", ["x"])
    q = nnc("y>0", ["y"])
    c = p.concatenate(q)
    assert c.equals(nnc("x>0, y>0", ["x", "y"]))
    assert not c.contains_point([0, 1]) and not c.contains_point([1, 0])
    assert c.contains_point([Fraction(1, 7), Fraction(1, 9)])


def test_hull_of_open_and_boundary_point_closes():
    open_half = nnc("x>0", ["x"])
    origin = nnc("x=0", ["x"])
    h = open_half.poly_hull(origin)
    assert h.equals(nnc("x>=0", ["x"]))


def test_hull_of_two_open_halves_stays_open():
    a = nnc("x>0", ["x"])
    b = nnc("x>1", ["x"])
    assert a.poly_hull(b).equals(a)


def test_half_open_inclusion_chain():
    open_both = nnc("x>0, x<1", ["x"])
    left_closed = nnc("x>=0, x<1", ["x"])
    closed = nnc("x>=0, x<=1", ["x"])
    assert left_closed.contains(open_both)
    assert closed.contains(left_closed)
    assert not open_both.contains(left_closed)
    assert not left_closed.contains(closed)


def test_strict_relation_image():
    # guard with a strict threshold: only the open part flows through
    wx = {"x": 0, "x'": 1}
    p = nnc("x>=0, x<=10", ["x"])
    rel = Polyhedron.from_constraints(
        2, Topology.NNC, parse_constraints("x>5, x'=0", wx, 2)
    )
    out = p.relation_image(rel)
    assert out.equals(nnc("x=0", ["x"]))
    empty_rel = Polyhedron.from_constraints(
        2, Topology.NNC, parse_constraints("x>10, x'=0", wx, 2)
    )
    assert p.relation_image(empty_rel).is_empty()


def test_elapse_from_open_region():
    p = nnc("x>0, x<1", ["x"])
    rates = nnc("x=1", ["x"])
    flowed = p.time_elapse(rates)
    assert flowed.equals(nnc("x>0", ["x"]))
    assert not flowed.contains_point([0])


def test_widening_of_strictly_shrinking_gap():
    a = nnc("x>0, x<=1", ["x"])
    b = nnc("x>0, x<=2", ["x"])
    w = standard_widening(a, a.poly_hull(b))
    assert w.contains(b)
    assert not w.contains_point([0])  # the stable strict face is kept


def test_universe_and_empty_nnc_forms():
    u = Polyhedron.universe(2, Topology.NNC)
    assert u.is_universe() and u.minimized_constraints() == ()
    e = Polyhedron.empty(2, Topology.NNC)
    assert e.minimized_generators() == ()


def test_generators_of_half_open_segment():
    p = nnc("x>=0, x<1", ["x"])
    gens = p.minimized_generators()
    pts = sorted(Fraction(g.coeffs[0], g.divisor) for g in gens if g.kind is GenKind.POINT)
    cps = sorted(
        Fraction(g.coeffs[0], g.divisor) for g in gens if g.kind is GenKind.CLOSURE_POINT
    )
    assert pts and min(pts) == 0
    assert cps == [1]


def test_zero_dimension_polyhedra():
    u = Polyhedron.universe(0, Topology.CLOSED)
    assert not u.is_empty() and u.contains_point([])
    e = Polyhedron.empty(0, Topology.CLOSED)
    assert e.is_empty()
    assert u.concatenate(u).dim == 0
