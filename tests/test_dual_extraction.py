"""Minimal generators read off the dual conversion's matrix, and minimal
rows read off the forward conversion's matrix, at d = 5..8.

A value held by raw generators converts them once, dually, to its
minimal rows, keeps that conversion's saturation matrix with the
generators it indexes, and reads its minimal generators off it only when
they are asked for or a meet seeds from them.  The Fourier-Motzkin
oracles blow up at these dimensions, so the kernel is checked against
itself through independent paths:

* a value built from generators and its twin built from the emitted
  rows emit the same constraints and generators, whichever is asked
  first, and every emitted generator satisfies every emitted constraint
  in integers (a point strictly inside a strict one);
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

On the row side, a value built from rows reads its minimal rows off the
matrix of its forward conversion, whose bits index its held rows.  They
are checked against a dual conversion of the minimal generators
(``oracles.dual_minimal_rows``), up to each row's scale and an equality's
sign, and must be in the normal form emission relies on.  The row
systems are the emitted constraints of the values above with redundant
sums, scaled and exact duplicates, equalities split into two
inequalities, opposite rows through a point (an implicit equality) and
dropped facets (unbounded values); they are read directly, after a
chain of seeded meets, or after an affine image and a meet; an invertible
image's preimage must emit the value's bytes again.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.linalg import Constraint, GenKind, Generator, Rel, canonicalize_constraint
from polyinv.polyhedron import Polyhedron, Topology, _dot, _eliminate, _reduce

from .oracles import dual_minimal_rows
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
    raw generators (``build(NNC)`` the same closed set as an NNC value),
    ``anchor`` one of its points; ``cut`` if it is to be met."""
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

    def build(as_topology=topology):
        if split is None:
            return Polyhedron.from_generators(d, as_topology, gens)
        # a hull of two values whose minimal generators hold the same lines
        a = Polyhedron.from_generators(d, as_topology, gens[:split] + lines)
        b = Polyhedron.from_generators(d, as_topology, gens[:1] + gens[split:])
        a.minimized_generators()
        b.minimized_generators()
        return a.poly_hull(b)

    return d, topology, build, gens[0]


def emitted(p: Polyhedron):
    return p.minimized_constraints(), p.minimized_generators()


def satisfies(g: Generator, c: Constraint) -> bool:
    """``g`` satisfies ``c``, in integers; a point lies strictly inside a ``>`` row."""
    v = _dot(c.coeffs, g.coeffs) - c.rhs * g.divisor
    if c.rel is Rel.EQ:
        return v == 0
    return v > 0 if c.rel is Rel.GT and g.kind is GenKind.POINT else v >= 0


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
    assert all(satisfies(g, c) for g in gens for c in cons)
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
    _, rays, sat, nbits, _ = p._cone
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


@st.composite
def row_values(draw, topology):
    """``(d, topology, rows, anchor)``: a raw row system at d = 5..8 from the
    emitted constraints of a value built from generators, ``anchor`` one of its
    points (which the system need not keep)."""
    d, topology, build, anchor = draw(raw_values(topology, cut=True))
    cons = list(build().minimized_constraints())
    rows = []
    for c in cons:
        if c.rel is Rel.EQ and draw(st.booleans()):  # an equality split in two inequalities
            rows += [Constraint(c.coeffs, c.rhs, Rel.GE),
                     Constraint(tuple(-x for x in c.coeffs), -c.rhs, Rel.GE)]
        elif c.rel is Rel.EQ or d > 6 or draw(st.integers(0, 5)):
            rows.append(c)  # else a dropped facet: the value may be unbounded
    ineqs = [c for c in cons if c.rel is not Rel.EQ]
    index = st.integers(0, len(ineqs) - 1) if ineqs else st.nothing()
    for i, j in draw(st.lists(st.tuples(index, index), max_size=3 if ineqs else 0)):
        a, b = ineqs[i], ineqs[j]  # their sum, loosened: a redundant row
        coeffs = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        if any(coeffs):
            rows.append(Constraint(coeffs, a.rhs + b.rhs - draw(st.integers(0, 2)), Rel.GE))
    if rows:
        picks = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
        rows += [Constraint(tuple(2 * x for x in rows[i].coeffs), 2 * rows[i].rhs, rows[i].rel)
                 for i in picks[:1]] + [rows[i] for i in picks[1:]]  # scaled and exact duplicates
    if draw(st.booleans()):  # opposite rows through the anchor: an implicit equality
        a = draw(vectors(d).filter(any))
        at = Fraction(sum(x * y for x, y in zip(a, anchor.coeffs)), anchor.divisor)
        rows += [canonicalize_constraint(a, ">=", at), canonicalize_constraint(a, "<=", at)]
    return d, topology, draw(st.permutations(rows)), anchor


def canonical_rows(rows):
    """The rows as a set, each divided by the gcd of its entries and each
    equality oriented by its last nonzero entry; checks that none repeats."""
    out = set()
    for vec, is_eq in rows:
        g = gcd(*vec)
        vec = tuple([x // g for x in vec])
        if is_eq and next(x for x in reversed(vec) if x) < 0:
            vec = tuple([-x for x in vec])
        out.add((vec, is_eq))
    assert len(out) == len(rows)
    return out


def assert_read_as_dual(p: Polyhedron):
    """``p``'s minimal rows are in normal form, each equality's last nonzero
    column zero in every other row, and equal the oracle's when ``p`` has at
    most 48 rays: a dual conversion of more takes seconds at d = 8."""
    if p.is_empty():
        return
    rows = p._minimal_rows()
    for i, (vec, is_eq) in enumerate(rows):
        if is_eq:
            last = max(c for c, x in enumerate(vec) if x)
            assert all(other[last] == 0 for j, (other, _) in enumerate(rows) if j != i)
    if len(p._minimal_gens()[1]) <= 48:
        assert canonical_rows(rows) == canonical_rows(dual_minimal_rows(p))


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(row_values))
def test_rows_read_off_the_forward_matrix_are_those_of_a_dual_conversion(case):
    d, topology, rows, _ = case
    p = Polyhedron.from_constraints(d, topology, rows)
    assert_read_as_dual(p)
    if not p.is_empty() and topology is CLOSED:  # the same bytes as its generator-built twin
        twin = Polyhedron.from_generators(d, topology, p.minimized_generators())
        assert emitted(twin) == emitted(p)


@st.composite
def meet_chains(draw, topology):
    d, topology, rows, anchor = draw(row_values(topology))
    return d, topology, rows, draw(cuts(d, topology, anchor)), draw(st.lists(st.booleans(), min_size=3, max_size=3))


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(meet_chains))
def test_a_chain_of_seeded_meets_reads_the_rows_of_a_dual_conversion(case):
    d, topology, rows, more, asked = case
    p = Polyhedron.from_constraints(d, topology, rows)
    for cut, ask in zip(more, asked):  # each meet seeds from the one before
        if p.is_empty():
            return
        if ask:  # the seed then holds its minimal rows, not those its matrix indexes
            p.minimized_constraints()
        p = p.intersection(Polyhedron.from_constraints(d, topology, [cut]))
    assert_read_as_dual(p)


@st.composite
def images(draw, topology):
    d, topology, rows, anchor = draw(row_values(topology))
    k = draw(st.integers(0, d - 1))
    row = [draw(SMALL) for _ in range(d + 1)]
    row[1 + k] = draw(st.sampled_from([1, -1, 2, -3, 0]))  # 0: not invertible
    return d, topology, rows, k, row, draw(cuts(d, topology, anchor))


@FUZZ
@given(st.sampled_from([CLOSED, NNC]).flatmap(images))
def test_an_image_and_its_meet_read_the_rows_of_a_dual_conversion_and_a_preimage_undoes_it(case):
    d, topology, rows, k, row, more = case
    p = Polyhedron.from_constraints(d, topology, rows)
    if p.is_empty() or len(p._minimal_gens()[1]) > 48:  # the image's dual conversion takes seconds
        return
    names = [f"x{i}" for i in range(d)]
    q = p.affine_image(k, row)
    meet = q.intersection(Polyhedron.from_constraints(d, topology, more))
    assert_read_as_dual(q)
    assert_read_as_dual(meet)
    if row[1 + k]:  # invertible
        back = q.affine_preimage(k, row)
        assert back.constraints_pretty(names) == p.constraints_pretty(names)


@st.composite
def closed_sets(draw):
    """``make``: ``make(topology)`` builds a fresh value of a closed set at
    d = 5..8 in ``topology``, from raw generators or from a raw row system."""
    if draw(st.booleans()):
        _, _, build, _ = draw(raw_values(CLOSED))
        return build
    d, _, rows, _ = draw(row_values(CLOSED))
    return lambda topology: Polyhedron.from_constraints(d, topology, rows)


@FUZZ
@given(closed_sets(), st.booleans())
def test_a_closed_set_emits_the_same_as_a_closed_and_as_an_nnc_value(make, rows_first):
    closed, nnc = make(CLOSED), make(NNC)
    if not rows_first:
        nnc.minimized_generators()
    assert emitted(nnc) == emitted(closed)
