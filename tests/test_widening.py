"""Standard widening: the worked example, laws, termination, and the
saturation-set selection checked against the trial-polyhedron reference."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyinv.linalg import Generator, LinExpr
from polyinv.parse import parse_constraints
from polyinv.polyhedron import (
    Polyhedron,
    Topology,
    WideningPreconditionError,
    standard_widening,
)

from .oracles import trial_widening
from .test_nnc_inclusion import FUZZ, constraints, generators

X01 = {"x0": 0, "x1": 1}


def poly(text, topology=Topology.CLOSED):
    return Polyhedron.from_constraints(2, topology, parse_constraints(text, X01, 2))


def test_worked_example():
    p0 = poly("x0>=1, x1=1")
    p1 = poly("x0>=-2, x1=3")
    q0 = standard_widening(p0, p0.poly_hull(p1))
    assert q0.equals(poly("2*x0+3*x1>=5, x1>=1"))


def test_self_widening_is_identity():
    p = poly("x0>=1, x1=1")
    assert standard_widening(p, p).equals(p)


def test_bottom_case():
    q = poly("x0>=-2, x1=3")
    assert standard_widening(Polyhedron.empty(2), q).equals(q)


def test_precondition_checked():
    with pytest.raises(WideningPreconditionError):
        standard_widening(poly("x0>=0"), poly("x0>=1"))


def test_covariance_on_random_pairs():
    rng = random.Random(2024)
    from .oracles import random_constraints

    n = 0
    while n < 60:
        p = Polyhedron.from_constraints(2, Topology.CLOSED, random_constraints(rng, 2, 3))
        q = p.poly_hull(
            Polyhedron.from_constraints(2, Topology.CLOSED, random_constraints(rng, 2, 3))
        )
        if p.is_empty():
            continue
        w = standard_widening(p, q)
        assert w.contains(q)
        n += 1


def test_nnc_widening_keeps_strictness_sound():
    a = poly("x0>0, x1>=0, x1<=1", topology=Topology.NNC)
    b = poly("x0>0, x1>=0, x1<=2", topology=Topology.NNC)
    w = standard_widening(a, a.poly_hull(b))
    assert w.contains(b)
    assert not w.contains_point([0, 0])  # the strict face survives here


def test_chain_stabilizes_with_bounded_steps():
    # iterate x -> x widen (x join f(x)) for a monotone affine f
    rng = random.Random(7)
    for _ in range(40):
        base = poly(f"x0>={rng.randint(-3, 3)}, x1={rng.randint(-3, 3)}")
        shift = LinExpr.variable(0, 2) + LinExpr.constant(rng.randint(1, 3), 2)
        bump = LinExpr.variable(1, 2) + LinExpr.constant(rng.randint(0, 2), 2)

        def f(p):
            return p.affine_image(0, shift).affine_image(1, bump)

        x = base
        steps = 0
        bound = None
        while True:
            fx = f(x)
            if x.contains(fx):
                break
            x = standard_widening(x, x.poly_hull(fx))
            steps += 1
            if bound is None:
                bound = 2 * x.dim + len(x.minimized_constraints())
            assert steps <= bound, "widening chain failed to stabilize in time"


def test_constraint_count_never_grows_after_first_widening():
    p0 = poly("x0>=1, x1=1")
    p1 = poly("x0>=-2, x1=3")
    x = standard_widening(p0, p0.poly_hull(p1))
    count = len(x.minimized_constraints())
    grow = poly("x0>=-5, x1=4")
    x2 = standard_widening(x, x.poly_hull(grow))
    assert len(x2.minimized_constraints()) <= count


# ---------------------------------------------------------------------------
# Saturation-set selection against the trial-polyhedron reference
# ---------------------------------------------------------------------------

@st.composite
def widening_pairs(draw, topology):
    """(older, newer) with older included in newer, as the engines call it."""
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        older = Polyhedron.from_constraints(d, topology, draw(constraints(d, topology)))
    else:
        older = Polyhedron.from_generators(d, topology, draw(generators(d, topology)))
    grow = Polyhedron.from_generators(d, topology, draw(generators(d, topology)))
    return older, older.poly_hull(grow)


@FUZZ
@given(widening_pairs(Topology.CLOSED))
def test_closed_widening_equals_the_trial_reference(pair):
    older, newer = pair
    got = standard_widening(older, newer)
    want = trial_widening(older, newer)
    assert got.minimized_constraints() == want.minimized_constraints()


@FUZZ
@given(widening_pairs(Topology.NNC))
def test_nnc_widening_lies_between_newer_and_the_trial_reference(pair):
    older, newer = pair
    got = standard_widening(older, newer)
    assert got.contains(newer)
    assert trial_widening(older, newer).contains(got)


def test_nnc_widening_where_the_slack_is_bounded_below_one():
    # older is one point; its embedding bounds eps by 9/13, and the trial
    # exchange rejects rows of newer that saturate the same generators
    older = poly("2*x0-2*x1=5, 5*x0+8*x1=3, x0+2*x1<1", topology=Topology.NNC)
    newer = older.poly_hull(
        Polyhedron.from_generators(
            2, Topology.NNC, [Generator.point([1, -8]), Generator.ray([-3, -1])]
        )
    )
    names = ["x0", "x1"]
    want = trial_widening(older, newer)
    got = standard_widening(older, newer)
    assert want.constraints_pretty(names) == "{13*x0<=23, 26*x1<=-19}"
    assert got.constraints_pretty(names) == "{-189*x0+20*x1>=-349, 26*x0-78*x1>=103}"
    assert got.contains(newer) and want.contains(got) and not got.contains(want)


@pytest.mark.parametrize("topology", [Topology.CLOSED, Topology.NNC])
def test_widening_of_converted_operands_converts_nothing(conversions, topology):
    older = poly("x0>=1, x1=1", topology=topology)
    newer = older.poly_hull(poly("x0>=-2, x1=3", topology=topology))
    for p in (older, newer):
        p._minimal_rows(), p._minimal_gens()
    conversions.clear()
    w = standard_widening(older, newer)
    assert conversions == []
    assert w.constraints_pretty(["x0", "x1"]) == "{x1>=1, 2*x0+3*x1>=5}"
