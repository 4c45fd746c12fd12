"""The image and dimension operations against Fourier-Motzkin projection.

``affine_image`` (a rational update through ``affine_map`` with a
universe guard), ``bounded_affine_image`` and ``remove_dimensions`` on a
value held by generators map those generators through one loop,
``map_dimensions`` permutes the columns of the rows any value holds or
minimizes to, ``time_elapse`` adds the rates as rays, and
``add_dimensions`` and ``concatenate`` pad rows.  Each result must
describe the same set as the oracle's projection of the operand's
constraints (``tests/oracles.py``).  Operands are closed and NNC values
in dimensions 1..4, built from constraints or from generators; the
constraints of a generator-built operand are the oracle's projection of
the generator weights, so no double-description conversion enters the
oracle side.  A value held by generators must also permute to the bytes
its row-built twin permutes to.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.polyhedron import AffineMap, Polyhedron, Topology

from .oracles import constraints_to_ineqs, fm_feasible, fm_generated, fm_project, fm_same_set
from .test_nnc_inclusion import constraints, generators

CLOSED, NNC = Topology.CLOSED, Topology.NNC
MAX_DIM = 4
SMALL = st.integers(-3, 3)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)


@st.composite
def operands(draw, d, topology):
    """A value and its constraints as oracle rows, built from rows or generators."""
    if draw(st.booleans()):
        cs = draw(constraints(d, topology))
        return Polyhedron.from_constraints(d, topology, cs), constraints_to_ineqs(cs)
    gens = draw(generators(d, topology))
    return Polyhedron.from_generators(d, topology, gens), fm_generated(gens, d)


@st.composite
def int_rows(draw, d):
    """An integer row ``(const, c_1..c_d)``."""
    return tuple(draw(SMALL) for _ in range(d + 1))


def pad(rows, left, right):
    return [((0,) * left + tuple(a) + (0,) * right, b, strict) for a, b, strict in rows]


# Each operation draws its arguments, applies them to the value p of
# dimension d with oracle rows, and returns the result and its oracle rows.

def image(draw, p, cs, d):
    k, (const, *coeffs) = draw(st.integers(0, d - 1)), draw(int_rows(d))
    den = draw(st.integers(1, 3))
    # a fresh last variable y = e(x) / den, then x_k projected away and y moved to slot k
    y = [((*(-a for a in coeffs), den), const, False), ((*coeffs, -den), -const, False)]
    keep = [*range(k), d, *range(k + 1, d)]
    oracle = fm_project(pad(cs, 0, 1) + y, d + 1, keep)
    if den == 1:
        return p.affine_image(k, (const, *coeffs)), oracle
    # x_k := e(x) / den, every other x_j := den * x_j / den
    matrix = [tuple(den * (i == 1 + j) for i in range(d + 1)) for j in range(d)]
    matrix[k] = (const, *coeffs)
    guard = Polyhedron.universe(d, p.topology)
    return p.affine_map(AffineMap(guard, tuple(matrix), den)), oracle


def bounded_image(draw, p, cs, d):
    k = draw(st.integers(0, d - 1))
    lo, hi = draw(st.none() | int_rows(d)), draw(st.none() | int_rows(d))
    bounds = []  # lo(x) <= y <= hi(x) for a fresh last variable y
    if lo is not None:
        bounds.append(((*(-a for a in lo[1:]), 1), lo[0], False))
    if hi is not None:
        bounds.append(((*hi[1:], -1), -hi[0], False))
    keep = [*range(k), d, *range(k + 1, d)]
    oracle = fm_project(pad(cs, 0, 1) + bounds, d + 1, keep)
    return p.bounded_affine_image(k, lo, hi), oracle


def remove(draw, p, rows, d):
    drop = draw(st.sets(st.integers(0, d - 1)))
    keep = [i for i in range(d) if i not in drop]
    return p.remove_dimensions(drop), fm_project(rows, d, keep)


def permute(draw, p, rows, d):
    perm = draw(st.permutations(range(d)))
    keep = [perm.index(new) for new in range(d)]  # the old dimension each new one reads
    return p.map_dimensions(perm), fm_project(rows, d, keep)


def elapse(draw, p, rows, d):
    rates, rate_rows = draw(operands(d, p.topology))
    if not fm_feasible(rate_rows, d):
        return p.time_elapse(rates), [((0,) * d, Fraction(1), False)]  # 0 >= 1
    # y = x + v with x in p and v in the cone of the closure of the rates:
    # over (y, t, v), a row <a, x> >= b of p reads <a, y> - <a, v> >= b and
    # a rate row <c, w> >= r reads <c, v> >= r t, with t >= 0
    moved = [(tuple(a) + (0,) + tuple(-x for x in a), b, strict) for a, b, strict in rows]
    cone = [((0,) * d + (-r, *c), 0, False) for c, r, _ in rate_rows]
    t = ((0,) * d + (1,) + (0,) * d, 0, False)
    oracle = fm_project(moved + cone + [t], 2 * d + 1, range(d))
    return p.time_elapse(rates), oracle


def embed(draw, p, rows, d):
    m = draw(st.integers(1, 2))
    return p.add_dimensions(m), pad(rows, 0, m)


def concat(draw, p, rows, d):
    m = draw(st.integers(1, 2))
    q, q_rows = draw(operands(m, p.topology))
    return p.concatenate(q), pad(rows, 0, m) + pad(q_rows, d, 0)


OPERATIONS = [image, bounded_image, remove, permute, elapse, embed, concat]


@pytest.mark.parametrize("operation", OPERATIONS, ids=lambda f: f.__name__)
@FUZZ
@given(data=st.data())
def test_result_is_the_projection_of_the_operand(operation, data):
    topology = data.draw(st.sampled_from([CLOSED, NNC]))
    # the elapse oracle projects 2d + 1 variables, slow past d = 3
    d = data.draw(st.integers(1, MAX_DIM - (operation is elapse)))
    p, rows = data.draw(operands(d, topology))
    got, oracle = operation(data.draw, p, rows, d)
    assert got.topology is topology
    emitted = constraints_to_ineqs(got.minimized_constraints())
    assert fm_same_set(emitted, oracle, got.dim)


@FUZZ
@given(st.sampled_from([CLOSED, NNC]), st.integers(1, MAX_DIM), st.data())
def test_a_value_held_by_generators_permutes_to_what_its_row_built_twin_does(topology, d, data):
    gens = data.draw(generators(d, topology))
    perm = data.draw(st.permutations(range(d)))
    p = Polyhedron.from_generators(d, topology, gens)
    assert p._rows is None
    got = p.map_dimensions(perm)
    # an NNC twin built from the emitted constraints may bound the slack otherwise and
    # emit other eps-redundant strict rows: the twin of the encoding, as the kernel minimizes it
    twins = [Polyhedron._from_rep_rows(d, topology, p._minimal_rows())]
    if topology is CLOSED:
        twins.append(Polyhedron.from_constraints(d, topology, p.minimized_constraints()))
    names = [f"x{i}" for i in range(d)]
    for twin in twins:
        want = twin.map_dimensions(perm)
        assert got.constraints_pretty(names) == want.constraints_pretty(names)
        assert got.minimized_generators() == want.minimized_generators()
