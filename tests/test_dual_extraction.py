"""Minimal generators read off the dual conversion's matrix, at d = 5..8.

A value held by raw generators converts them once, dually, to its
minimal rows, keeps that conversion's saturation matrix with the
generators it indexes, and reads its minimal generators off it only when
they are asked for or a meet seeds from them.  The Fourier-Motzkin
oracles blow up at these dimensions, so the kernel is checked against
itself through independent paths:

* a value built from generators and its twin built from the emitted
  rows emit the same constraints and generators, whichever is asked
  first;
* a meet seeded from a cone read off the dual's matrix emits what the
  same rows converted from the universe emit;
* the generators read off the matrix are those a fresh conversion of the
  minimal rows returns: the same lineality space, independent lines, and
  the same extreme rays modulo it, each once; and the matrix stays unread
  until they are asked for.

The values are cross-polytopes, cyclic polytopes C(n, 4) on the moment
curve (the other dimensions fixed, free or spread), and random integer
hulls, closed and NNC (closure points at some vertices).  Their raw
systems repeat generators, add non-extreme points, rays and lines as
pairs of opposite rays, or are hulls of values that hold lines, whose
held lines are then dependent.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.linalg import Generator, canonicalize_constraint
from polyinv.polyhedron import Polyhedron, Topology, _dot, _eliminate, _reduce

from .strategies import NNC, SMALL, vectors

CLOSED = Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=100)


def unit(d, i, s=1):
    return [s if j == i else 0 for j in range(d)]


@st.composite
def points(draw, d, family):
    """The points of a cross-polytope, a cyclic polytope or a random hull."""
    if family == "cross":
        radius, center = draw(st.integers(1, 3)), draw(vectors(d))
        return [[c + r for c, r in zip(center, unit(d, i, s * radius))]
                for i in range(d) for s in (1, -1)]
    if family == "cyclic":
        ts = draw(st.lists(st.integers(-3, 5), min_size=5, max_size=8, unique=True))
        tails = draw(st.lists(st.sampled_from(["fixed", "spread"]), min_size=d - 4,
                              max_size=d - 4))
        return [[t, t**2, t**3, t**4] + [draw(SMALL) if k == "spread" else 0 for k in tails]
                for t in ts]
    return draw(st.lists(vectors(d), min_size=d + 1, max_size=d + 3))


@st.composite
def raw_values(draw, topology, cut=False):
    """``(d, topology, build, anchor)``: ``build()`` makes a fresh value held by
    raw generators, ``anchor`` one of its points; ``cut`` if it is to be met."""
    d = draw(st.integers(5, 8))
    # past d = 6 a ray, a strict facet or a cut multiplies the facets past what
    # converts fast: a cross-polytope there is closed, uncut and takes no ray,
    # the others take one ray and one closure point at most
    wide = d > 6
    crosses = not wide or (topology is CLOSED and not cut)
    family = draw(st.sampled_from(["cyclic", "hull"] + ["cross"] * crosses))
    extras = 2 if not wide else int(family != "cross")
    pts = draw(points(d, family))
    # non-extreme points: the midpoints of some pairs
    for i, j in draw(st.lists(st.tuples(st.integers(0, len(pts) - 1),
                                        st.integers(0, len(pts) - 1)), max_size=2)):
        pts.append([a + b for a, b in zip(pts[i], pts[j])] + [2])
    gens = [Generator.point(p[:d], p[d] if len(p) > d else 1) for p in pts]
    if topology is NNC:  # closure points at up to two vertices; the first stays a point
        for i in draw(st.sets(st.integers(1, len(gens) - 1), max_size=extras)):
            gens[i] = Generator.closure_point(gens[i].coeffs, gens[i].divisor)
    free = draw(st.lists(st.integers(0, d - 1), max_size=2, unique=True))
    lines = [Generator.ray(unit(d, i, s)) for i in free for s in (1, -1)]
    rays = [Generator.ray(v) for v in draw(st.lists(vectors(d), max_size=extras)) if any(v)]
    gens += rays + lines
    gens += [gens[i] for i in draw(st.lists(st.integers(0, len(gens) - 1), max_size=3))]
    split = draw(st.integers(1, len(pts) - 1)) if lines and draw(st.booleans()) else None

    def build():
        if split is None:
            return Polyhedron.from_generators(d, topology, gens)
        # a hull of two values whose minimal generators hold the same lines
        a = Polyhedron.from_generators(d, topology, gens[:split] + lines)
        b = Polyhedron.from_generators(d, topology, gens[:1] + gens[split:])
        a.minimized_generators()
        b.minimized_generators()
        return a.poly_hull(b)

    return d, topology, build, gens[0]


def emitted(p: Polyhedron):
    return p.minimized_constraints(), p.minimized_generators()


def canonical(p: Polyhedron, gens):
    """The lineality basis in reduced row echelon form, and the rays
    reduced by it, sorted with their repeats."""
    lines, rays = gens
    pivots, _ = _eliminate(lines, range(p._hom_dim))
    assert len(pivots) == len(lines)  # the lines are independent
    return sorted(pivots.values()), sorted(_reduce(r, pivots) for r in rays)


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(raw_values), st.booleans())
def test_a_value_built_from_generators_emits_what_its_row_built_twin_does(case, rows_first):
    d, topology, build, _ = case
    p = build()
    if rows_first:
        cons, gens = emitted(p)
    else:
        gens = p.minimized_generators()
        cons = p.minimized_constraints()
    twin = Polyhedron.from_constraints(d, topology, cons)
    if topology is NNC:  # its encoding may bound the slack otherwise, and then keep
        assert twin.equals(p)  # other eps-redundant strict rows: the twin of the encoding
        twin = Polyhedron._from_rep_rows(d, topology, build()._minimal_rows())
    assert emitted(twin) == (cons, gens)
    assert emitted(Polyhedron.from_generators(d, topology, gens)) == (cons, gens)


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(raw_values))
def test_the_generators_read_off_the_matrix_are_those_of_a_fresh_conversion(case):
    d, topology, build, _ = case
    p = build()
    raw = p._gens
    rows = p._minimal_rows()
    assert p._dual[0] is raw and p._cone is None  # the matrix is kept, and not read yet
    gens = p._minimal_gens()
    assert p._dual is None and p._cone[:2] == gens
    # each ray's bits count the facets it saturates, the positivity row among them if one
    _, rays, sat, nbits = p._cone
    facets = [v for v, is_eq in rows if not is_eq]
    assert nbits - len(facets) in (0, 1)
    facets += [p._pi()] * (nbits - len(facets))
    assert [bin(m).count("1") for m in sat] == [
        sum(_dot(v, r) == 0 for v in facets) for r in rays]
    fresh = Polyhedron._from_rep_rows(d, topology, rows)
    assert canonical(p, gens) == canonical(fresh, fresh._minimal_gens())
    assert p.minimized_generators() == fresh.minimized_generators()


def cuts(d, topology, anchor):
    """Rows through or near ``anchor``: ``<a, x> rel floor(<a, anchor>) - k``."""
    rels = [">=", ">=", "=", ">"] if topology is NNC else [">=", ">=", "="]

    def cut(a, rel, k):
        at = sum(x * y for x, y in zip(a, anchor.coeffs)) // anchor.divisor
        return canonicalize_constraint(a, rel, at - (0 if rel == "=" else k))

    one = st.builds(cut, vectors(d).filter(any), st.sampled_from(rels), st.integers(-2, 2))
    return st.lists(one, min_size=1, max_size=3)


@st.composite
def seeded_meets(draw, topology):
    d, topology, build, anchor = draw(raw_values(topology, cut=True))
    return d, topology, build, draw(st.sampled_from(["", "rows", "gens", "rows gens"])), \
        draw(cuts(d, topology, anchor))


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(seeded_meets), st.booleans())
def test_a_meet_seeded_from_the_dual_matrix_emits_what_its_rows_from_scratch_do(case, swap):
    d, topology, build, asked, more = case
    p = build()
    for what in asked.split():  # what was asked of the value before the meet
        p.minimized_constraints() if what == "rows" else p.minimized_generators()
    b = Polyhedron.from_constraints(d, topology, more)
    meet = b.intersection(p) if swap else p.intersection(b)
    if meet is not p and meet is not b and not meet._empty:
        assert meet._seed == (p._rows, *p._cone)  # the generator operand seeds
        scratch = Polyhedron._from_rep_rows(d, topology, meet._rows)
        assert emitted(meet) == emitted(scratch)
    assert p.contains(meet) and b.contains(meet)
