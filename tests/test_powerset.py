import pytest

from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology, standard_widening
from polyinv.powerset import PolySet, lift, powerset_widening

X = {"x": 0}
X01 = {"x0": 0, "x1": 1}
DOMAINS = ("poly", "powerset")


def interval(text):
    return Polyhedron.from_constraints(1, Topology.CLOSED, parse_constraints(text, X, 1))


def pset(*polys, dim=1):
    return PolySet.reduce(dim, Topology.CLOSED, list(polys))


def region(domain, *texts):
    """The join of the given intervals, as a region of the domain."""
    acc = lift(Polyhedron.empty(1, Topology.CLOSED), domain)
    for text in texts:
        acc = acc.join(lift(interval(text), domain))
    return acc


def test_reduce_drops_subsumed():
    a = interval("x>=0, x<=1")
    b = interval("x>=0, x<=2")
    s = pset(a, b)
    assert len(s.elements) == 1 and s.elements[0].equals(b)


def test_reduce_drops_empty_to_bottom():
    assert pset(interval("x>=1, x<=0")).is_bottom()


def test_reduce_keeps_incomparable():
    s = pset(interval("x>=0"), interval("x<=0"))
    assert len(s.elements) == 2


def test_join_not_convex():
    s = pset(interval("x>=0, x<=1")).join(pset(interval("x>=2, x<=3")))
    assert len(s.elements) == 2
    assert s.contains_point([0]) and s.contains_point([3]) and not s.contains_point([1.5])


def test_entails():
    assert pset(interval("x>=0, x<=1")).entails(pset(interval("x>=0, x<=3")))
    assert not pset(interval("x>=0, x<=3")).entails(pset(interval("x>=0, x<=1")))


def test_lift_image_filter_keeps_paper_element():
    p0 = Polyhedron.from_constraints(2, Topology.CLOSED, parse_constraints("x0>=1, x1=1", X01, 2))
    s = PolySet.singleton(p0)
    filtered = s.lift_image(
        lambda p: p.add_constraints(parse_constraints("x0>=1", X01, 2))
    )
    assert filtered.equals(s)


def test_lift_image_on_bottom():
    bot = PolySet.bottom(1)
    assert bot.lift_image(lambda p: p).is_bottom()


def test_lift_closure_over_strict():
    p = Polyhedron.from_constraints(
        1, Topology.NNC, parse_constraints("x>0", X, 1)
    )
    s = PolySet.reduce(1, Topology.NNC, [p])
    closed = s.lift_image(lambda q: q.topological_closure())
    expected = Polyhedron.from_constraints(1, Topology.NNC, parse_constraints("x>=0", X, 1))
    assert len(closed.elements) == 1 and closed.elements[0].equals(expected)


def test_collapse():
    s = pset(interval("x>=0, x<=1"), interval("x>=2, x<=3"))
    assert s.collapse().equals(interval("x>=0, x<=3"))
    assert PolySet.bottom(1).collapse().is_empty()
    single = pset(interval("x=1"))
    assert single.collapse().equals(interval("x=1"))


def test_widening_stable_point():
    s = pset(interval("x>=0, x<=1"))
    assert powerset_widening(s, s, cap=4).equals(s)


def test_widening_bottom_base():
    t = pset(interval("x>=0, x<=1"))
    assert powerset_widening(PolySet.bottom(1), t, cap=4).equals(t)


def test_widening_cap_one_degenerates_to_base_widening():
    p0 = Polyhedron.from_constraints(2, Topology.CLOSED, parse_constraints("x0>=1, x1=1", X01, 2))
    p1 = Polyhedron.from_constraints(2, Topology.CLOSED, parse_constraints("x0>=-2, x1=3", X01, 2))
    s = PolySet.reduce(2, Topology.CLOSED, [p0])
    t = s.join(PolySet.reduce(2, Topology.CLOSED, [p0.poly_hull(p1)]))
    w = powerset_widening(s, t, cap=1)
    expected = standard_widening(s.collapse(), t.collapse())
    assert len(w.elements) == 1 and w.elements[0].equals(expected)


def test_widening_rejects_zero_cap():
    s = pset(interval("x=0"))
    with pytest.raises(ValueError):
        powerset_widening(s, s, cap=0)


def test_widening_chain_terminates():
    import random

    rng = random.Random(11)
    for _ in range(20):
        cur = pset(interval("x=0"))
        steps = 0
        while steps < 50:
            lo = rng.randint(-6, 0)
            hi = rng.randint(0, 6)
            nxt = cur.join(pset(interval(f"x>={lo}, x<={hi}")))
            if nxt.entails(cur):
                break
            cur = powerset_widening(cur, nxt, cap=2)
            steps += 1
        assert steps < 50


def test_soundness_of_join_on_points():
    a = pset(interval("x>=0, x<=2"))
    b = pset(interval("x>=1, x<=3"))
    j = a.join(b)
    for point in ([0], [1], [2], [3]):
        if a.contains_point(point) or b.contains_point(point):
            assert j.contains_point(point)


def test_reduce_idempotent_and_lattice_laws():
    a = pset(interval("x>=0, x<=1"))
    b = pset(interval("x>=2, x<=3"))
    again = PolySet.reduce(1, Topology.CLOSED, a.join(b).elements)
    assert again.equals(a.join(b))
    # the verbs Polyhedron and PolySet share obey the same laws
    for domain in DOMAINS:
        a = region(domain, "x>=0, x<=1")
        b = region(domain, "x>=2, x<=3")
        c = region(domain, "x>=1, x<=2")
        assert a.join(b).equals(b.join(a)), domain
        assert a.join(b).join(c).equals(a.join(b.join(c))), domain
        assert a.entails(a.join(b)) and b.entails(a.join(b)), domain
        ab = a.join(b)
        assert ab.join(c).entails(ab.widen(ab.join(c), 4)), domain
        assert a.lift_image(lambda p: p).equals(a), domain
        assert region(domain).is_bottom() and not a.is_bottom(), domain


def test_entails_is_a_partial_order_modulo_equality():
    for domain in DOMAINS:
        a = region(domain, "x>=0, x<=1")
        b = region(domain, "x>=0, x<=3")
        c = region(domain, "x>=0, x<=3", "x>=5, x<=6")
        assert a.entails(a), domain
        assert a.entails(b) and b.entails(c), domain
        assert a.entails(c), domain  # transitivity
        assert not (b.entails(a) or c.entails(b)), domain
        assert region(domain).entails(a), domain
        d = region(domain, "x>=0, x<=1", "x>=1, x<=3")
        e = region(domain, "x>=0, x<=3")
        # antisymmetry holds modulo semantic equality of reduced sets
        if d.entails(e) and e.entails(d):
            assert d.equals(e), domain
