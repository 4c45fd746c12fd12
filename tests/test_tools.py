"""The repository tools: the paired-run summary and the digest replay."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

from polyinv import polyhedron
from polyinv.hybrid import Transition, location_update, parse_automaton
from polyinv.linalg import Constraint, Generator, Rel
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet

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


def test_check_digests_counts_the_conversions_of_runs_not_of_checks():
    check_digests = tool("check_digests")

    class Kind:
        @staticmethod
        def run(spec, prepared):
            p = Polyhedron.from_constraints(2, Topology.CLOSED, prepared)
            p.minimized_generators()  # one conversion, of three rows: x >= 0, y >= 0, 1 >= 0
            return p, ""

        @staticmethod
        def check(spec, prepared, result):
            result.minimized_constraints()  # the dual conversion, not counted
            return []

    conversions = check_digests.Conversions()
    counted = check_digests.counting(Kind, conversions, check_digests.Fractions(),
                                     check_digests.Inclusions(), check_digests.Minimizations())
    cs = [Constraint((1, 0), 0, Rel.GE), Constraint((0, 1), 0, Rel.GE)]
    result, _ = counted.run({}, cs)
    assert counted.check({}, cs, result) == []
    assert (conversions.calls, conversions.rows) == (1, 3)
    assert polyhedron._dd_cone is conversions.real


def test_check_digests_splits_the_conversions_into_forward_seeded_and_dual():
    check_digests = tool("check_digests")
    x, y = Constraint((1, 0), 0, Rel.GE), Constraint((0, 1), 0, Rel.GE)
    cut = Constraint((-1, -1), -1, Rel.GE)  # x + y <= 1

    class Kind:
        @staticmethod
        def run(spec, prepared):
            p = Polyhedron.from_constraints(2, Topology.CLOSED, [x, y])
            p.is_empty()  # from scratch, three rows: x >= 0, y >= 0, 1 >= 0
            q = p.intersection(Polyhedron.from_constraints(2, Topology.CLOSED, [cut]))
            q.is_empty()  # seeded from p's generators, one row: x + y <= 1
            q.minimized_constraints()  # dual, three rows: q's three vertices
            return q, ""

        @staticmethod
        def check(spec, prepared, result):
            Polyhedron.from_constraints(2, Topology.CLOSED, [cut]).minimized_constraints()
            return []  # two conversions, not counted

    conversions = check_digests.Conversions()
    counted = check_digests.counting(Kind, conversions, check_digests.Fractions(),
                                     check_digests.Inclusions(), check_digests.Minimizations())
    result, _ = counted.run({}, None)
    assert counted.check({}, None, result) == []
    # [calls, rows, rays]: p's vertex and two rays, q's three vertices, q's three facets
    assert conversions.by_kind == {"forward": [1, 3, 3], "seeded": [1, 1, 3], "dual": [1, 3, 3]}
    assert (conversions.calls, conversions.rows) == (3, 7)
    assert polyhedron._dd_cone is conversions.real
    assert polyhedron._dual_rows is conversions.real_dual_rows


def test_check_digests_counts_one_dual_conversion_and_a_seeded_meet_for_a_hull_met_with_a_guard():
    check_digests = tool("check_digests")
    square = [[0, 0], [2, 0], [1, 1]], [[0, 2], [2, 2]]  # (1, 1) is not extreme
    guard = Polyhedron.from_constraints(2, Topology.CLOSED, [Constraint((-1, -1), -3, Rel.GE)])

    class Kind:
        @staticmethod
        def run(spec, prepared):
            a, b = (Polyhedron.from_generators(2, Topology.CLOSED, map(Generator.point, half))
                    for half in square)
            hull = a.poly_hull(b)
            meet = hull.intersection(guard)  # dual: the hull's five raw points
            meet.is_empty()  # seeded from the hull's four vertices, one row: x + y <= 3
            hull.minimized_generators()  # read off the dual's matrix, no conversion
            return meet, ""

        @staticmethod
        def check(spec, prepared, result):
            result.minimized_constraints()  # the meet's dual conversion, not counted
            return []

    conversions = check_digests.Conversions()
    counted = check_digests.counting(Kind, conversions, check_digests.Fractions())
    result, _ = counted.run({}, None)
    assert counted.check({}, None, result) == []
    # [calls, rows, rays]: the square's four facets, then the meet's five vertices
    assert conversions.by_kind == {"forward": [0, 0, 0], "seeded": [1, 1, 5], "dual": [1, 5, 4]}
    assert polyhedron._dual_rows is conversions.real_dual_rows


def test_check_digests_counts_the_fractions_of_set_up_and_runs_not_of_checks():
    check_digests = tool("check_digests")
    original = Fraction.__dict__["__new__"]

    class Kind:
        @staticmethod
        def prepare(spec):
            return [Fraction(1, 2), Fraction(3)]

        @staticmethod
        def run(spec, prepared):
            return Fraction(5, 7), ""

        @staticmethod
        def check(spec, prepared, result):
            Fraction(2, 3)  # not counted
            return []

    fractions = check_digests.Fractions()
    counted = check_digests.counting(Kind, check_digests.Conversions(), fractions,
                                     check_digests.Inclusions(), check_digests.Minimizations())
    with fractions.counting("prepare"):
        prepared = counted.prepare({})
    result, _ = counted.run({}, prepared)
    assert counted.check({}, prepared, result) == []
    assert fractions.built == {"prepare": 2, "run": 1}
    assert Fraction.__dict__["__new__"] is original and result == Fraction(5, 7)


def test_check_digests_counts_the_inclusion_tests_and_reduces_of_runs_not_of_checks():
    check_digests = tool("check_digests")
    real = [vars(Polyhedron)["box_excludes"], vars(Polyhedron)["contains"], vars(PolySet)["reduce"]]
    x = [Constraint((1,), 0, Rel.GE)]
    small = Polyhedron.from_constraints(1, Topology.CLOSED, x + [Constraint((-1,), -1, Rel.GE)])
    big = Polyhedron.from_constraints(1, Topology.CLOSED, x)
    far = Polyhedron.from_generators(1, Topology.CLOSED, [Generator.point([-5])])

    class Kind:
        @staticmethod
        def run(spec, prepared):
            # three candidate pairs: the full test finds small inside big,
            # and the boxes (read once each value holds generators) turn
            # down far inside big and big inside far
            return PolySet.reduce(1, Topology.CLOSED, [big, small, far]), ""

        @staticmethod
        def check(spec, prepared, result):
            assert PolySet.singleton(big).entails(result)  # not counted
            return []

    inclusions = check_digests.Inclusions()
    counted = check_digests.counting(Kind, check_digests.Conversions(),
                                     check_digests.Fractions(), inclusions,
                                     check_digests.Minimizations())
    result, _ = counted.run({}, None)
    assert counted.check({}, None, result) == []
    assert len(result.elements) == 2
    assert (inclusions.pairs, inclusions.rejected, inclusions.tests) == (3, 2, 1)
    assert (inclusions.yes, inclusions.reduces) == (1, 1)
    assert [vars(Polyhedron)["box_excludes"], vars(Polyhedron)["contains"],
            vars(PolySet)["reduce"]] == real


def test_check_digests_counts_the_fresh_and_cached_minimizations_of_runs_not_of_checks():
    check_digests = tool("check_digests")
    real = vars(Polyhedron)["minimized_constraints"]
    x = [Constraint((1,), 0, Rel.GE)]

    class Kind:
        @staticmethod
        def run(spec, prepared):
            p = Polyhedron.from_constraints(1, Topology.CLOSED, x)
            p.minimized_constraints()  # fresh: the first emission
            return p, p.constraints_pretty(["x"])  # cached: rendering reads the same rows

        @staticmethod
        def check(spec, prepared, result):
            result.minimized_constraints()  # not counted
            Polyhedron.universe(1, Topology.CLOSED).minimized_constraints()  # not counted
            return []

    minimizations = check_digests.Minimizations()
    counted = check_digests.counting(Kind, check_digests.Conversions(), check_digests.Fractions(),
                                     check_digests.Inclusions(), minimizations)
    result, text = counted.run({}, None)
    assert counted.check({}, None, result) == [] and text == "{x>=0}"
    assert (minimizations.fresh, minimizations.cached) == (1, 1)
    assert vars(Polyhedron)["minimized_constraints"] is real


def test_check_digests_counts_the_engine_steps_of_runs_not_of_checks():
    check_digests = tool("check_digests")
    real = [vars(Transition)["image"], vars(Polyhedron)["time_elapse"]]
    h = parse_automaton("vars x;\nlocation a { rate: dx = 1; init: x = 0; }\n"
                        "transition a -> a { guard: x >= 1; update: x' = 0; }")
    t, rate = h.transitions[0], h.location("a").rate

    class Kind:
        @staticmethod
        def run(spec, prepared):
            p = h.location("a").init
            return t.image(p.time_elapse(rate)).time_elapse(rate), ""  # one image, two elapses

        @staticmethod
        def check(spec, prepared, result):
            location_update(h, "a", {"a": result})  # an image and elapses, not counted
            return []

    steps = check_digests.EngineSteps()
    counted = check_digests.counting(Kind, check_digests.Conversions(),
                                     check_digests.Fractions(), steps)
    result, _ = counted.run({}, None)
    assert counted.check({}, None, result) == []
    assert (steps.images, steps.elapses) == (1, 2)
    assert [vars(Transition)["image"], vars(Polyhedron)["time_elapse"]] == real


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
