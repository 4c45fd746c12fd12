"""The repository tools: the paired-run summary and the digest replay."""

import importlib.util
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from polyinv import polyhedron
from polyinv.hybrid import Transition, location_update, parse_automaton
from polyinv.linalg import Constraint, Generator, Rel
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet

from .counting import SITES, counted, sites

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(out_dir, workload, seed, trace, metrics, src_lines=100, failed=0):
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "environment": {"python": "3.x", "nproc": 2, "src_lines": src_lines},
        "workload": workload,
        "seed": seed,
        "seconds": 50,
        "trace": trace,
        "attempted": 14,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }
    (out_dir / f"run-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))


def test_bench_pairs_summarizes_each_gated_metric(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    walls = {1: (2.0, 1.0), 2: (2.2, 1.1), 3: (2.1, 2.5), 4: (1.9, 1.0)}
    for seed, (before, after) in walls.items():
        other = {"item_p50_s": 0.1, "peak_rss_mb": 26.0, "setup_s": 0.2}
        write_run(parent, "reach-lha", seed, 0, {"wall_s": before, **other}, src_lines=100)
        write_run(change, "reach-lha", seed, 0, {"wall_s": after, **other}, src_lines=90,
                  failed=int(seed == 3))
    write_run(parent, "reach-lha", 9, 0, {"wall_s": 5.0})  # no partner: ignored
    write_run(parent, "reach-lha", 1, 1, {"polyhedron.relation_image.calls": 967})
    write_run(change, "reach-lha", 1, 1, {"polyhedron.relation_image.calls": 0})

    summary = tool("bench_pairs").summarize(parent, change)

    assert summary["src_lines"] == {"parent": 100, "change": 90}
    entry = summary["workloads"]["reach-lha"]
    assert entry["seeds"] == [1, 2, 3, 4]
    assert entry["failed"] == {"parent": 0, "change": 1, "attempted_per_run": 14}
    wall = entry["metrics"]["wall_s"]
    assert wall["pairs_won"] == 3 and not wall["claim_rule_met"]  # 3/4 < 9/10
    assert wall["parent"]["median"] == 2.05 and wall["change"]["median"] == 1.05
    assert wall["bound"] == 0.2
    assert entry["metrics"]["setup_s"]["pairs_won"] == 0  # ties count for neither side
    calls = entry["traced"]["1"]["polyhedron.relation_image.calls"]
    assert calls == {"parent": 967, "change": 0, "delta": -967}


def test_bench_pairs_claim_rule_needs_nine_tenths_and_a_gap_beyond_the_iqr(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        write_run(parent, "reach-lha", seed, 0, {"wall_s": 2.0 + seed / 100, "item_p50_s": 1.0,
                                                 "peak_rss_mb": 1.0, "setup_s": 1.0})
        write_run(change, "reach-lha", seed, 0, {"wall_s": 1.5 + seed / 100, "item_p50_s": 1.0,
                                                 "peak_rss_mb": 1.0, "setup_s": 1.0})
    summary = tool("bench_pairs").summarize(parent, change)
    wall = summary["workloads"]["reach-lha"]["metrics"]["wall_s"]
    assert wall["pairs_won"] == 10 and wall["claim_rule_met"]


def test_check_digests_rejects_an_unknown_workload(capsys):
    assert tool("check_digests").main(["reach-lah"]) == 2
    assert "unknown workload 'reach-lah'" in capsys.readouterr().out


def by_kind(runs):
    """``[calls, rows, rays]`` of each kind of conversion counted in ``runs``."""
    return {k: [runs[k], runs[k + " rows"], runs[k + " rays"]] for k in ("forward", "seeded", "dual")}


def test_check_digests_counts_the_conversions_of_runs_not_of_checks():
    real = polyhedron._dd_cone
    cs = [Constraint((1, 0), 0, Rel.GE), Constraint((0, 1), 0, Rel.GE)]
    with counted(Counter()) as runs:
        p = Polyhedron.from_constraints(2, Topology.CLOSED, cs)
        p.minimized_generators()  # one conversion, of three rows: x >= 0, y >= 0, 1 >= 0
    p.minimized_constraints()  # the check's dual conversion, not counted
    assert (runs["polyhedron._dd_cone"], sum(n for _, n, _ in by_kind(runs).values())) == (1, 3)
    assert polyhedron._dd_cone is real


def test_check_digests_splits_the_conversions_into_forward_seeded_and_dual():
    real = polyhedron._dd_cone, polyhedron._dual_rows
    x, y = Constraint((1, 0), 0, Rel.GE), Constraint((0, 1), 0, Rel.GE)
    cut = Constraint((-1, -1), -1, Rel.GE)  # x + y <= 1
    corners = [[0, 0], [1, 0], [0, 1]]
    with counted(Counter()) as runs:
        p = Polyhedron.from_constraints(2, Topology.CLOSED, [x, y])
        p.is_empty()  # from scratch, three rows: x >= 0, y >= 0, 1 >= 0
        q = p.intersection(Polyhedron.from_constraints(2, Topology.CLOSED, [cut]))
        q.is_empty()  # seeded from p's generators, one row: x + y <= 1
        q.minimized_constraints()  # read off q's matrix, no conversion
        t = Polyhedron.from_generators(2, Topology.CLOSED, map(Generator.point, corners))
        t.minimized_constraints()  # dual, three rows: the triangle's three vertices
    Polyhedron.from_constraints(2, Topology.CLOSED, [cut]).minimized_constraints()  # two, not counted
    # [calls, rows, rays]: p's vertex and two rays, q's three vertices, t's three facets
    assert by_kind(runs) == {"forward": [1, 3, 3], "seeded": [1, 1, 3], "dual": [1, 3, 3]}
    assert (runs["polyhedron._dd_cone"], sum(n for _, n, _ in by_kind(runs).values())) == (3, 7)
    assert polyhedron._dd_cone is real[0] and polyhedron._dual_rows is real[1]


def test_check_digests_counts_one_dual_conversion_and_a_seeded_meet_for_a_hull_met_with_a_guard():
    real = polyhedron._dual_rows
    square = [[0, 0], [2, 0], [1, 1]], [[0, 2], [2, 2]]  # (1, 1) is not extreme
    guard = Polyhedron.from_constraints(2, Topology.CLOSED, [Constraint((-1, -1), -3, Rel.GE)])
    with counted(Counter()) as runs:
        a, b = (Polyhedron.from_generators(2, Topology.CLOSED, map(Generator.point, half))
                for half in square)
        hull = a.poly_hull(b)
        meet = hull.intersection(guard)  # dual: the hull's five raw points
        meet.is_empty()  # seeded from the hull's four vertices, one row: x + y <= 3
        hull.minimized_generators()  # read off the dual's matrix, no conversion
    meet.minimized_constraints()  # the meet's dual conversion, not counted
    # [calls, rows, rays]: the square's four facets, then the meet's five vertices
    assert by_kind(runs) == {"forward": [0, 0, 0], "seeded": [1, 1, 5], "dual": [1, 5, 4]}
    assert polyhedron._dual_rows is real


def test_check_digests_counts_one_read_and_no_dual_conversion_for_a_meet_of_two_row_values():
    real = vars(Polyhedron)["_read_rows"]
    x, y = Constraint((1, 0), 0, Rel.GE), Constraint((0, 1), 0, Rel.GE)
    cut = Constraint((-1, -1), -2, Rel.GE)  # x + y <= 2
    with counted(Counter()) as runs:
        p = Polyhedron.from_constraints(2, Topology.CLOSED, [x, y])
        q = Polyhedron.from_constraints(2, Topology.CLOSED, [cut])
        meet = p.intersection(q)
        meet.minimized_constraints()  # one forward conversion, its rows read off its matrix
    Polyhedron.from_constraints(2, Topology.CLOSED, [cut]).minimized_constraints()  # not counted
    assert runs["Polyhedron._read_rows"] == 1
    assert by_kind(runs) == {"forward": [1, 4, 3], "seeded": [0, 0, 0], "dual": [0, 0, 0]}
    assert vars(Polyhedron)["_read_rows"] is real


def test_check_digests_counts_the_fractions_of_set_up_and_runs_not_of_checks():
    original = Fraction.__dict__["__new__"]
    with counted(Counter(), sites("__new__")) as setup:
        prepared = [Fraction(1, 2), Fraction(3)]
    with counted(Counter()) as runs:
        result = Fraction(5, 7)
    Fraction(2, 3)  # not counted
    assert prepared == [Fraction(1, 2), 3]
    assert (setup["Fraction.__new__"], runs["Fraction.__new__"]) == (2, 1)
    assert Fraction.__dict__["__new__"] is original and result == Fraction(5, 7)


def test_check_digests_counts_the_inclusion_tests_and_reduces_of_runs_not_of_checks():
    real = [vars(Polyhedron)["box_excludes"], vars(Polyhedron)["contains"], vars(PolySet)["reduce"]]
    x = [Constraint((1,), 0, Rel.GE)]
    small = Polyhedron.from_constraints(1, Topology.CLOSED, x + [Constraint((-1,), -1, Rel.GE)])
    big = Polyhedron.from_constraints(1, Topology.CLOSED, x)
    far = Polyhedron.from_generators(1, Topology.CLOSED, [Generator.point([-5])])
    with counted(Counter()) as runs:
        # three candidate pairs: the full test finds small inside big, and the
        # boxes (read once each value holds generators) turn down far inside
        # big and big inside far
        result = PolySet.reduce(1, Topology.CLOSED, [big, small, far])
    assert PolySet.singleton(big).entails(result)  # not counted
    assert len(result.elements) == 2
    rejected, tests = runs["box rejections"], runs["Polyhedron.contains"]
    assert (rejected + tests, rejected, tests) == (3, 2, 1)
    assert (runs["contains yes"], runs["PolySet.reduce"]) == (1, 1)
    assert [vars(Polyhedron)["box_excludes"], vars(Polyhedron)["contains"],
            vars(PolySet)["reduce"]] == real


def test_check_digests_counts_the_fresh_and_cached_minimizations_of_runs_not_of_checks():
    real = vars(Polyhedron)["minimized_constraints"]
    with counted(Counter()) as runs:
        p = Polyhedron.from_constraints(1, Topology.CLOSED, [Constraint((1,), 0, Rel.GE)])
        p.minimized_constraints()  # fresh: the first emission
        text = p.constraints_pretty(["x"])  # cached: rendering reads the same rows
    p.minimized_constraints()  # not counted
    Polyhedron.universe(1, Topology.CLOSED).minimized_constraints()  # not counted
    fresh = runs["fresh minimizations"]
    assert text == "{x>=0}"
    assert (fresh, runs["Polyhedron.minimized_constraints"] - fresh) == (1, 1)
    assert vars(Polyhedron)["minimized_constraints"] is real


def test_check_digests_counts_the_engine_steps_of_runs_not_of_checks():
    real = [vars(Transition)["image"], vars(Polyhedron)["time_elapse"]]
    h = parse_automaton("vars x;\nlocation a { rate: dx = 1; init: x = 0; }\n"
                        "transition a -> a { guard: x >= 1; update: x' = 0; }")
    t, rate = h.transitions[0], h.location("a").rate
    with counted(Counter()) as runs:
        p = h.location("a").init
        result = t.image(p.time_elapse(rate)).time_elapse(rate)  # one image, two elapses
    location_update(h, "a", {"a": result})  # an image and elapses, not counted
    assert (runs["Transition.image"], runs["Polyhedron.time_elapse"]) == (1, 2)
    assert [vars(Transition)["image"], vars(Polyhedron)["time_elapse"]] == real


def test_counted_puts_back_every_original_when_the_run_raises():
    originals = [vars(owner)[attribute] for owner, attribute, _ in SITES]
    with pytest.raises(ZeroDivisionError):
        with counted(Counter()) as runs:
            assert Fraction(numerator=6, denominator=4) == Fraction(3, 2)
            PolySet.reduce(1, Topology.CLOSED, [])
            Fraction(1, 0)
    assert all(vars(owner)[attribute] is original
               for (owner, attribute, _), original in zip(SITES, originals))
    assert isinstance(vars(PolySet)["reduce"], staticmethod)
    assert isinstance(vars(Fraction)["__new__"], staticmethod)
    assert (runs["Fraction.__new__"], runs["PolySet.reduce"]) == (3, 1)
    assert Fraction(numerator=6, denominator=4) == Fraction(3, 2)


def test_check_digests_prints_the_engine_steps_of_a_pool(monkeypatch, capsys):
    check_digests = tool("check_digests")
    pool = check_digests.inputs.pool
    monkeypatch.setattr(check_digests.inputs, "pool", lambda workload: [
        spec for spec in pool(workload) if spec["key"] == "reach/scheduler/powerset"])
    assert check_digests.check("reach-lha") == 0
    out = capsys.readouterr().out
    assert "reach-lha: 1 items, 0 failed" in out
    # five sweeps and the certificate; each element is imaged once per transition in the sweeps
    assert "reach-lha: 100 Transition.image calls, 24 Polyhedron.time_elapse calls" in out
    # its printed regions are built from generators, so their rows come from dual conversions
    assert ("reach-lha: 43 fresh minimal-row computations, 0 read off a forward matrix "
            "and 43 by dual conversion") in out
