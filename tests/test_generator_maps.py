"""The image and dimension operations against Fourier-Motzkin projection.

``affine_image``, ``bounded_affine_image``, ``remove_dimensions`` and
``map_dimensions`` on a value held by generators map those generators
through one loop, ``time_elapse`` adds the rates as rays, and
``add_dimensions`` and ``concatenate`` pad rows.  Each result must
describe the same set as the oracle's projection of the operand's
constraints (``tests/oracles.py``).  Operands are closed and NNC values
in dimensions 1..4, built from constraints or from generators; the
constraints of a generator-built operand are the oracle's projection of
the generator weights, so no double-description conversion enters the
oracle side.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.linalg import LinExpr
from polyinv.polyhedron import Polyhedron, Topology

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
def exprs(draw, d):
    def rational():
        return Fraction(draw(SMALL), draw(st.integers(1, 3)))

    return LinExpr(tuple(rational() for _ in range(d)), rational())


def pad(rows, left, right):
    return [((0,) * left + tuple(a) + (0,) * right, b, strict) for a, b, strict in rows]


# Each operation draws its arguments, applies them to the value p of
# dimension d with oracle rows, and returns the result and its oracle rows.

def image(draw, p, rows, d):
    k, e = draw(st.integers(0, d - 1)), draw(exprs(d))
    # a fresh last variable y = e(x), then x_k projected away and y moved to slot k
    y = [((*(-a for a in e.coeffs), 1), e.const, False), ((*e.coeffs, -1), -e.const, False)]
    keep = [*range(k), d, *range(k + 1, d)]
    return p.affine_image(k, e), fm_project(pad(rows, 0, 1) + y, d + 1, keep)


def bounded_image(draw, p, rows, d):
    k = draw(st.integers(0, d - 1))
    lo, hi = draw(st.none() | exprs(d)), draw(st.none() | exprs(d))
    bounds = []  # lo(x) <= y <= hi(x) for a fresh last variable y
    if lo is not None:
        bounds.append(((*(-a for a in lo.coeffs), 1), lo.const, False))
    if hi is not None:
        bounds.append(((*hi.coeffs, -1), -hi.const, False))
    keep = [*range(k), d, *range(k + 1, d)]
    oracle = fm_project(pad(rows, 0, 1) + bounds, d + 1, keep)
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
