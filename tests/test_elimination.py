"""The kernel's one integer elimination, and the emission invariant it
relies on.

``_eliminate`` is checked against Gauss-Jordan elimination in Fractions
(``oracles.fraction_eliminate``) on random integer matrices, including
rank-deficient ones, repeated rows and rows that are zero on the
eliminated columns.  Emission must depend only on the encoded cone:
closed values rebuilt from permuted constraints, from their shuffled
emitted generators, or as a hull with one of their own points print the
same constraints and generators, and so do NNC values rebuilt from
permuted constraints.  The minimal rows are in a normal form: each
equality's last nonzero column is zero in every other minimal row.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.linalg import GenKind
from polyinv.polyhedron import Polyhedron, Topology, _eliminate

from .oracles import fraction_eliminate
from .strategies import NNC, SMALL, constraints, generators

CLOSED = Topology.CLOSED
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@st.composite
def matrices(draw):
    """``(rows, cols)``: integer rows of one width and the columns to eliminate."""
    width = draw(st.integers(1, 6))
    cols = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1)))
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["random", "random", "combination", "repeat", "off cols"]))
        v = draw(st.lists(SMALL, min_size=width, max_size=width))
        if kind == "combination" and len(rows) >= 2:  # rank-deficient
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(SMALL), draw(SMALL)
            v = [s * x + t * y for x, y in zip(a, b)]
        elif kind == "repeat" and rows:
            v = [draw(st.sampled_from([1, -1, 2])) * x for x in draw(st.sampled_from(rows))]
        elif kind == "off cols":
            v = [0 if i in cols else x for i, x in enumerate(v)]
        rows.append(tuple(v))
    return rows, cols


@FUZZ
@given(matrices(), st.randoms(use_true_random=False))
def test_eliminate_equals_fraction_gauss_jordan(matrix, rnd):
    rows, cols = matrix
    pivots, rest = _eliminate(rows, cols)
    assert (pivots, rest) == fraction_eliminate(rows, cols)
    for c, p in pivots.items():
        assert p[c] > 0 and next(x for i, x in enumerate(p) if i in cols and x) == p[c]
        assert all(q[c] == 0 for d, q in pivots.items() if d != c)
    assert all(v[c] == 0 for v in rest for c in cols)
    if not rest:  # no vector of the span is zero on cols: the echelon form is unique
        assert _eliminate(rnd.sample(rows, len(rows)), cols)[0] == pivots


def emitted(p: Polyhedron):
    return p.minimized_constraints(), p.minimized_generators()


@st.composite
def systems(draw, topology):
    d = draw(st.integers(1, 5 if topology is CLOSED else 4))
    return d, draw(constraints(d, topology))


@FUZZ
@given(systems(CLOSED), st.randoms(use_true_random=False))
def test_closed_emission_depends_only_on_the_set(system, rnd):
    d, cs = system
    p = Polyhedron.from_constraints(d, CLOSED, cs)
    out = emitted(p)
    assert emitted(Polyhedron.from_constraints(d, CLOSED, rnd.sample(cs, len(cs)))) == out
    if p.is_empty():
        return
    gens = rnd.sample(out[1], len(out[1]))
    assert emitted(Polyhedron.from_generators(d, CLOSED, gens)) == out
    point = rnd.choice([g for g in gens if g.kind is GenKind.POINT])
    assert emitted(p.poly_hull(Polyhedron.from_generators(d, CLOSED, [point]))) == out


@FUZZ
@given(systems(NNC), st.randoms(use_true_random=False))
def test_nnc_emission_does_not_depend_on_the_row_order(system, rnd):
    d, cs = system
    p = Polyhedron.from_constraints(d, NNC, cs)
    assert emitted(Polyhedron.from_constraints(d, NNC, rnd.sample(cs, len(cs)))) == emitted(p)


@st.composite
def minimized(draw):
    topology = draw(st.sampled_from([CLOSED, NNC]))
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return Polyhedron.from_constraints(d, topology, draw(constraints(d, topology)))
    return Polyhedron.from_generators(d, topology, draw(generators(d, topology)))


@FUZZ
@given(minimized())
def test_minimal_rows_are_in_normal_form(p):
    rows = [vec for vec, _ in p._minimal_rows()]
    for i, (vec, is_eq) in enumerate(p._minimal_rows()):
        if is_eq:
            last = max(c for c, x in enumerate(vec) if x)
            assert all(other[last] == 0 for j, other in enumerate(rows) if j != i)
