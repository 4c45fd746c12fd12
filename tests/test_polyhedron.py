"""Kernel unit tests: conversion, lattice operations, images, surgery."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polyinv import polyhedron
from polyinv.linalg import (
    DimensionError, GenKind, Generator, Rel, canonicalize_constraint,
)
from polyinv.parse import parse_constraints
from polyinv.polyhedron import (
    GeneratorSystemError,
    Polyhedron,
    Topology,
    TopologyError,
)

from .oracles import enumerate_vertices_1d, semantic_contains

X01 = {"x0": 0, "x1": 1}
WX = {"w": 0, "x": 1}


def poly(text, n=2, index=None, topology=Topology.CLOSED):
    cs = parse_constraints(text, index or X01, n)
    return Polyhedron.from_constraints(n, topology, cs)


def gens_of(p):
    return [(g.kind, g.coeffs, g.divisor) for g in p.minimized_generators()]


class TestConstruction:
    def test_redundant_constraint_dropped(self):
        p = poly("x>=0, x<=1, x<=2", n=1, index={"x": 0})
        assert p.constraints_pretty(["x"]) == "{x<=1, x>=0}"

    def test_contradictory_is_empty(self):
        assert poly("x>=1, x<=0", n=1, index={"x": 0}).is_empty()

    def test_no_constraints_is_universe(self):
        assert Polyhedron.universe(2).is_universe()

    def test_strict_needs_nnc(self):
        c = canonicalize_constraint([1], ">", 0)
        with pytest.raises(TopologyError):
            Polyhedron.from_constraints(1, Topology.CLOSED, [c])

    def test_closure_point_needs_nnc(self):
        with pytest.raises(TopologyError):
            Polyhedron.from_generators(1, Topology.CLOSED, [Generator.closure_point([0])])

    def test_pointless_generators_rejected(self):
        with pytest.raises(GeneratorSystemError):
            Polyhedron.from_generators(1, Topology.CLOSED, [Generator.ray([1])])

    def test_empty_generator_list(self):
        assert Polyhedron.from_generators(2, Topology.CLOSED, []).is_empty()


class TestConversion:
    def test_segment_vertices_match_enumeration_oracle(self):
        cs = parse_constraints("x>=0, x<=1", {"x": 0}, 1)
        p = Polyhedron.from_constraints(1, Topology.CLOSED, cs)
        vertices = enumerate_vertices_1d(cs)
        assert vertices == [0, 1]
        got = sorted(
            Fraction(g.coeffs[0], g.divisor)
            for g in p.minimized_generators() if g.kind is GenKind.POINT
        )
        assert got == vertices

    def test_universe_line_rendered_as_ray_pair(self):
        got = gens_of(Polyhedron.universe(1))
        assert (GenKind.POINT, (0,), 1) in got
        assert (GenKind.RAY, (1,), 0) in got
        assert (GenKind.RAY, (-1,), 0) in got

    def test_hand_converted_wedge(self):
        p = poly("2*x0+3*x1>=5, x1>=1")
        assert gens_of(p) == [
            (GenKind.POINT, (1, 1), 1),
            (GenKind.RAY, (-3, 2), 0),
            (GenKind.RAY, (1, 0), 0),
        ]
        # round-trip through the generator side
        back = Polyhedron.from_generators(2, Topology.CLOSED, p.minimized_generators())
        assert back.equals(p)

    def test_half_plane_needs_lineality(self):
        p = poly("x0+x1>=0")
        back = Polyhedron.from_generators(2, Topology.CLOSED, p.minimized_generators())
        assert back.equals(p)
        assert back.contains_point([5, -5]) and not back.contains_point([0, -1])


class TestLazyConversion:
    """Each description is converted only when asked for, at most once."""

    @staticmethod
    def taken(conversions, kind=None):
        n = len(conversions if kind is None else conversions.of_kind(kind))
        conversions.clear()
        return n

    def test_rows_built_value(self, conversions):
        p = poly("x0>=0, x0<=2, x1>=0, x1<=2, x0+x1<=3")
        assert not p.is_empty()
        assert self.taken(conversions) == 1
        assert len(p.minimized_constraints()) == 5  # read off the forward matrix
        assert self.taken(conversions) == 0
        p.minimized_constraints()
        p.is_empty()
        assert self.taken(conversions) == 0

    def test_gens_built_values(self, conversions):
        a = Polyhedron.from_generators(2, Topology.CLOSED, [Generator.point([0, 0])])
        b = Polyhedron.from_generators(
            2, Topology.CLOSED, [Generator.point([1, 0]), Generator.point([0, 1])]
        )
        hull = a.poly_hull(b)
        assert not hull.is_empty() and not a.is_empty()
        assert self.taken(conversions) == 0
        assert len(hull.minimized_generators()) == 3
        # one dual conversion to its rows; the generators are read off its matrix
        assert self.taken(conversions, "dual") == 1 and conversions == []

    def test_relation_image_skips_the_wide_dual(self, conversions):
        p = poly("w>=1, w<=10", index=WX)
        rel_index = {"w": 0, "x": 1, "w'": 2, "x'": 3}
        rel = Polyhedron.from_constraints(
            4, Topology.CLOSED, parse_constraints("w'=w+1, x'=0", rel_index, 4)
        )
        image = p.relation_image(rel)
        assert not image.is_empty()
        assert 5 in conversions  # the 2n-dimensional meet is converted ...
        assert 5 not in conversions.of_kind("dual")  # ... and never dual-converted
        assert image.equals(poly("w>=2, w<=11, x=0", index=WX))

    def test_minimizing_replaces_the_built_rows(self, conversions):
        p = poly("x0>=0, x0<=2, x0<=3, x1=1")
        assert len(p._rows_any()) == 4  # the rows it was built from
        p.minimized_constraints()
        assert self.taken(conversions, "dual") == 0 and conversions == []  # the matrix read
        rows = p._rows_any()
        assert rows is p._minimal_rows() and len(rows) == 3  # one system, minimal
        assert self.taken(conversions) == 0

    def test_nnc_contains_emits_nothing(self, conversions, monkeypatch):
        def fresh_pairs():  # new values each time, so both runs start unconverted
            def nnc(text):
                return poly(text, topology=Topology.NNC)

            a, b = nnc("x0>0, x1>=0, x0+x1<3"), nnc("x0>=1, x0<=2, x1=0")
            hull = a.poly_hull(nnc("x0=0, x1=0"))
            return [(a, b), (b, a), (hull, a), (a, hull), (hull, b)]

        def run(contains):
            out = []
            for p, q in fresh_pairs():
                conversions.clear()
                answer = contains(p, q)
                kinds = [kind for _, kind in conversions.given]
                out.append((answer, list(zip(kinds, conversions))))
            return out

        reference = run(semantic_contains)
        # the kernel cannot canonicalize a constraint: it no longer imports the helper
        assert not hasattr(polyhedron, "canonicalize_constraint")
        emitted = []
        point = Generator.point

        def counting_point(*args, **kwargs):
            emitted.append("generator")
            return point(*args, **kwargs)

        monkeypatch.setattr(Generator, "point", staticmethod(counting_point))
        got = run(Polyhedron.contains)
        assert [answer for answer, _ in got] == [answer for answer, _ in reference]
        assert [answer for answer, _ in got] == [True, False, True, False, True]
        assert emitted == []
        # it reads the descriptions the values hold, converting no more than emission
        for (_, calls), (_, ref_calls) in zip(got, reference):
            assert len(calls) <= len(ref_calls)
        # a row-built self is never dual-converted ...
        assert all(("dual", 4) not in calls for _, calls in (got[0], got[1], got[3]))
        # ... and the hull, built from generators, is never converted as other;
        # building it already decided that a is not empty, so nothing runs
        assert got[3][1] == []
        assert ("forward", 4) in reference[0][1]  # the conversions are counted at all


class TestPredicates:
    def test_contains_point_strictness(self):
        p = poly("x>0", n=1, index={"x": 0}, topology=Topology.NNC)
        assert not p.is_empty()
        assert not p.contains_point([0])
        assert p.contains_point([Fraction(1, 100)])

    def test_nnc_strict_contradiction(self):
        assert poly("x>0, x<=0", n=1, index={"x": 0}, topology=Topology.NNC).is_empty()

    def test_inclusion(self):
        assert poly("x>=0", n=1, index={"x": 0}).contains(poly("x=0", n=1, index={"x": 0}))
        assert not poly("x>=1", n=1, index={"x": 0}).contains(poly("x>=0", n=1, index={"x": 0}))

    def test_paper_inclusion_p0_in_q0(self):
        q0 = poly("2*x0+3*x1>=5, x1>=1")
        p0 = poly("x0>=1, x1=1")
        assert q0.contains(p0)


class TestLattice:
    def test_meet(self):
        p = poly("x>=0", n=1, index={"x": 0}).intersection(poly("x<=0", n=1, index={"x": 0}))
        assert p.constraints_pretty(["x"]) == "{x=0}"

    def test_nnc_meet_empty(self):
        a = poly("w<10", n=1, index={"w": 0}, topology=Topology.NNC)
        b = poly("w=10", n=1, index={"w": 0}, topology=Topology.NNC)
        assert a.intersection(b).is_empty()

    def test_add_constraint_makes_redundant(self):
        q0 = poly("2*x0+3*x1>=5, x1>=1")
        q0f = q0.add_constraints(parse_constraints("x0<=0", X01, 2))
        assert q0f.equals(poly("2*x0+3*x1>=5, x0<=0"))

    def test_hull_bottom_identity(self):
        q = poly("x0>=1, x1=1")
        assert Polyhedron.empty(2).poly_hull(q).equals(q)
        assert q.poly_hull(Polyhedron.empty(2)).equals(q)

    def test_hull_derived_example(self):
        h = poly("x0>=1, x1=1").poly_hull(poly("x0>=-2, x1=3"))
        assert h.equals(poly("2*x0+3*x1>=5, x1>=1, x1<=3"))

    def test_hull_idempotent(self):
        p = poly("2*x0+3*x1>=5, x1>=1")
        assert p.poly_hull(p).equals(p)


class TestImages:
    def test_affine_image_paper_steps(self):
        p0 = poly("x0>=1, x1=1")
        p0p = p0.affine_image(1, [2, 0, 1])  # x1 := x1 + 2
        assert p0p.equals(poly("x0>=1, x1=3"))
        p1 = p0p.affine_image(0, [0, 1, -1])  # x0 := x0 - x1
        assert p1.equals(poly("x0>=-2, x1=3"))

    def test_affine_image_identity(self):
        p = poly("2*x0+3*x1>=5, x1>=1")
        assert p.affine_image(0, [0, 1, 0]).equals(p)

    def test_affine_preimage_inverts_image(self):
        p = poly("x0>=1, x1=3")
        e = [0, 1, -1]  # x0 - x1
        img = p.affine_image(0, e)
        assert img.affine_preimage(0, e).equals(p)

    def test_affine_preimage_of_constant_assignment(self):
        p = poly("x0=5, x1>=0")
        pre = p.affine_preimage(0, [5, 0, 0])
        assert pre.equals(poly("x1>=0"))

    def test_bounded_affine_image_constant_bounds(self):
        p = poly("x0=0, x1=0")
        q = p.bounded_affine_image(1, [0, 0, 0], [1, 0, 0])
        assert q.equals(poly("x0=0, x1>=0, x1<=1"))

    def test_bounded_affine_image_degenerate_equals_affine(self):
        p = poly("x0>=1, x1=1")
        e = [2, 0, 1]  # x1 + 2
        assert p.bounded_affine_image(1, e, e).equals(p.affine_image(1, e))

    def test_bounded_affine_image_interval_shift(self):
        p = poly("x0=0, x1=0")
        q = p.bounded_affine_image(0, [0, 1, 0], [1, 1, 0])  # x0 <= x0' <= x0 + 1
        assert q.equals(poly("x0>=0, x0<=1, x1=0"))

    def test_bounded_affine_image_unbounded_side(self):
        p = poly("x0=0, x1=0")
        q = p.bounded_affine_image(0, [0, 1, 0], None)
        assert q.equals(poly("x0>=0, x1=0"))

    @pytest.mark.parametrize("side", ["lo", "hi"])
    @pytest.mark.parametrize("value", [Polyhedron.empty(2), Polyhedron.universe(2)])
    def test_bounded_affine_image_checks_bound_dimensions(self, value, side):
        # an empty value too: the check comes before the emptiness shortcut
        wrong = [0] * 6  # a row over 5 variables
        bounds = (wrong, None) if side == "lo" else (None, wrong)
        with pytest.raises(DimensionError, match="expression of dimension 5, expected 2"):
            value.bounded_affine_image(0, *bounds)


class TestRelationAndElapse:
    def test_relation_image_definition(self):
        p = poly("w>=1, w<=10", index=WX)
        rel_index = {"w": 0, "x": 1, "w'": 2, "x'": 3}
        rel = Polyhedron.from_constraints(
            4, Topology.CLOSED, parse_constraints("w=10, w'=10, x'=0", rel_index, 4)
        )
        assert p.relation_image(rel).equals(poly("w=10, x=0", index=WX))

    def test_relation_image_identity(self):
        p = poly("w>=1, w<=10, x>=2", index=WX)
        rel_index = {"w": 0, "x": 1, "w'": 2, "x'": 3}
        rel = Polyhedron.from_constraints(
            4, Topology.CLOSED, parse_constraints("w'=w, x'=x", rel_index, 4)
        )
        assert p.relation_image(rel).equals(p)

    def test_relation_image_of_empty(self):
        rel = Polyhedron.universe(4)
        assert Polyhedron.empty(2).relation_image(rel).is_empty()

    def test_time_elapse_single_ray(self):
        p = poly("w=10, x=0", index=WX)
        rates = poly("w=1, x=1", index=WX)
        assert p.time_elapse(rates).equals(poly("w-x=10, x>=0", index=WX))

    def test_time_elapse_zero_rates(self):
        p = poly("w=10, x=0", index=WX)
        rates = poly("w=0, x=0", index=WX)
        assert p.time_elapse(rates).equals(p)

    def test_time_elapse_empty_cases(self):
        p = poly("w=10, x=0", index=WX)
        assert Polyhedron.empty(2).time_elapse(p).is_empty()
        assert p.time_elapse(Polyhedron.empty(2)).is_empty()

    def test_elapse_idempotent(self):
        p = poly("w=10, x=0", index=WX)
        rates = poly("w=1, x=1", index=WX)
        once = p.time_elapse(rates)
        assert once.time_elapse(rates).equals(once)


class TestClosure:
    def test_closure_weakens_strict(self):
        p = poly("w>=1, w<10", n=1, index={"w": 0}, topology=Topology.NNC)
        assert p.topological_closure().equals(
            poly("w>=1, w<=10", n=1, index={"w": 0}, topology=Topology.NNC)
        )

    def test_closure_of_closed_is_identity(self):
        p = poly("x0>=1, x1=1")
        assert p.topological_closure() is p

    def test_closure_of_empty(self):
        assert Polyhedron.empty(2, Topology.NNC).topological_closure().is_empty()


class TestSurgery:
    def test_concatenate(self):
        a = poly("x=1", n=1, index={"x": 0})
        b = poly("y>=0", n=1, index={"y": 0})
        c = a.concatenate(b)
        assert c.equals(poly("x0=1, x1>=0"))

    def test_projection_fourier_motzkin_case(self):
        # eliminating y from {x+y >= 1, y >= 3} leaves x unconstrained
        p = poly("x0+x1>=1, x1>=3")
        q = p.remove_dimensions([1])
        assert q.dim == 1 and q.is_universe()

    def test_add_dimensions_free(self):
        p = poly("x=0", n=1, index={"x": 0})
        q = p.add_dimensions(1)
        assert q.equals(poly("x0=0"))
        lo, hi = q.dim_bounds(1)
        assert lo is None and hi is None

    def test_map_dimensions(self):
        p = poly("x0=1, x1>=2")
        q = p.map_dimensions([1, 0])
        assert q.equals(poly("x1=1, x0>=2"))

    def test_nnc_surgery_keeps_strictness(self):
        p = poly("x0>0", topology=Topology.NNC)
        q = p.remove_dimensions([1])
        assert q.contains_point([1]) and not q.contains_point([0])


class TestNNCConsistency:
    def test_equality_independent_of_construction_order(self):
        a = poly("x0>0, x0<5, x1>=1", topology=Topology.NNC)
        b = poly("x1>=1, x0<5, x0>0", topology=Topology.NNC)
        assert a.equals(b)

    def test_nnc_generators_of_open_interval(self):
        p = poly("x>0, x<1", n=1, index={"x": 0}, topology=Topology.NNC)
        gens = p.minimized_generators()
        assert any(g.kind is GenKind.POINT for g in gens)
        cps = sorted(
            Fraction(g.coeffs[0], g.divisor) for g in gens if g.kind is GenKind.CLOSURE_POINT
        )
        assert cps == [0, 1]

    def test_nnc_roundtrip_through_generators(self):
        p = poly("x0>0, x0+x1<=3", topology=Topology.NNC)
        back = Polyhedron.from_generators(2, Topology.NNC, p.minimized_generators())
        assert back.equals(p)


class TestDimBounds:
    def test_bounds_of_wedge(self):
        p = poly("2*x0+3*x1>=5, x1>=1")
        assert p.dim_bounds(0) == (None, None)
        assert p.dim_bounds(1) == (1, None)

    def test_bounds_of_point(self):
        p = poly("x0=1, x1=1")
        assert p.dim_bounds(0) == (1, 1)

    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
    def test_bounds_of_hull_with_interior_points(self, topology, conversions):
        corner = Generator.closure_point if topology is Topology.NNC else Generator.point
        inner = Generator.point([Fraction(1, 2), Fraction(1, 2)])
        a = Polyhedron.from_generators(2, topology, [Generator.point([0, 0]), inner])
        b = Polyhedron.from_generators(
            2, topology, [Generator.point([2, 0]), corner([0, 3]), Generator.point([1, 1])]
        )
        hull = a.poly_hull(b)  # the interior points stay among its generators
        assert hull.dim_bounds(0) == (0, 2)
        assert hull.dim_bounds(1) == (0, 3)  # the closure bound when the corner is open
        assert conversions == []  # read off the generators it was built from


def test_coefficient_bit_limit_fails_loudly():
    # POLYINV_MAX_BITS is read when the kernel is imported, so it runs in a child
    script = """
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology
for bound in (255, 256):  # the vertex x = bound needs 8 and 9 bits
    cs = parse_constraints(f"x<={bound}", {"x": 0}, 1)
    p = Polyhedron.from_constraints(1, Topology.CLOSED, cs)
    try:
        print(bound, [g.coeffs for g in p.minimized_generators()])
    except ArithmeticError as e:
        print(bound, e)
"""
    src = str(Path(polyhedron.__file__).resolve().parents[1])
    env = {**os.environ, "POLYINV_MAX_BITS": "8", "PYTHONPATH": src}
    child = [sys.executable, "-c", script]
    out = subprocess.run(child, env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.splitlines() == [
        "255 [(255,), (-1,)]",
        "256 coefficient exceeds POLYINV_MAX_BITS=8",
    ]
