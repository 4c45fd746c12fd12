"""Tests of the benchmark harness itself (inputs, checks, metrics)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench import harness, inputs, oracles, run, speed
from polyinv.linalg import Constraint, Rel

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _bytes(workload: str, seed: int) -> bytes:
    return json.dumps(inputs.generate(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert _bytes(workload, 7) == _bytes(workload, 7)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert _bytes(workload, 7) != _bytes(workload, 8)


def test_benchmark_json_lists_implemented_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(inputs.WORKLOADS[:2])


def test_every_drawable_item_has_a_recorded_digest():
    recorded = harness.load_digests()
    for workload in inputs.WORKLOADS:
        missing = [s["key"] for s in inputs.pool(workload) if s["key"] not in recorded]
        assert not missing, missing[:5]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert harness.tail(list(range(10))) is None
    pct, value = harness.tail([float(i) for i in range(1240)])
    assert value == 1229.0 and pct == pytest.approx(100 * 1230 / 1240)


def test_oracles_reject_wrong_outputs():
    square = [[0, 0], [2, 0], [0, 2], [2, 2], [1, 1]]
    facets = (
        Constraint((1, 0), 0, Rel.GE), Constraint((0, 1), 0, Rel.GE),
        Constraint((-1, 0), -2, Rel.GE), Constraint((0, -1), -2, Rel.GE),
    )
    assert oracles.check_hull(square, facets) == []
    too_tight = facets[:3] + (Constraint((0, -1), -1, Rel.GE),)
    assert oracles.check_hull(square, too_tight)
    not_facet = facets + (Constraint((-1, -1), -4, Rel.GE),)
    assert oracles.check_hull(square, not_facet)
    assert oracles.check_widening(2, facets[:3])  # x0<=2 should have gone
    assert oracles.check_widening(2, (facets[0], facets[1], Constraint((0, -1), -1, Rel.GE))) == []


def _tiny(monkeypatch):
    """Cut each workload to a few items that still reach every layer."""
    real = inputs.generate

    def small(workload, seed):
        specs = real(workload, seed)
        if workload == "kernel-dd":  # one hull/verts pair, one cube, widenings
            return specs[:2] + [s for s in specs if s["kind"] in ("cube", "widen")][-4:]
        return specs[: {"reach-lha": 4, "analyze-imp": 30}.get(workload, 1)]

    monkeypatch.setattr(inputs, "generate", small)


def test_smoke_run_emits_every_metric(monkeypatch):
    _tiny(monkeypatch)
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    layer = {m["name"] for m in BENCH["per_layer"]}
    seen_layers: set[str] = set()
    for workload in inputs.WORKLOADS:
        report = harness.measure(workload, 3, 0.0, True, spawned_at=0.0, readings=[])
        assert report["failed"] == 0, report["failures"]
        assert report["correct"]
        assert set(run.end_to_end(report, [1.0])) == e2e
        seen_layers |= set(report["layers"]) | {"failed_frac"}
        assert report["layers"]["polyhedron.is_empty.calls"] > 0
    assert layer <= seen_layers


def test_tracing_leaves_the_engine_as_it_was(monkeypatch):
    from polyinv import hybrid, polyhedron, powerset

    before = (polyhedron.Polyhedron.is_empty, hybrid.standard_widening,
              powerset.PolySet.__dict__["reduce"], hybrid.location_update)
    _tiny(monkeypatch)
    harness.measure("reach-lha", 1, 0.0, True, spawned_at=0.0, readings=[])
    after = (polyhedron.Polyhedron.is_empty, hybrid.standard_widening,
             powerset.PolySet.__dict__["reduce"], hybrid.location_update)
    assert before == after


def test_known_failure_is_recorded_as_a_timeout():
    specs = inputs.generate(inputs.KNOWN_FAILURES, 0)
    assert [s["key"] for s in specs] == ["reach/sched-8-16/powerset"]
    kind = harness.KINDS[inputs.KNOWN_FAILURES]
    p = harness.run_pass(kind, specs, [kind.prepare(s) for s in specs], 0.5,
                         check=True, expected=harness.load_digests())
    assert p.failures == {0: "timeout after 0.5 s"}
    assert p.timeouts == {0} and p.times == [0.5]


def test_times_are_scaled_by_the_readings_of_their_pass():
    p = harness.Pass(2)
    p.times = [0.3, 0.1]
    p.readings = [speed.NOMINAL_S, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S]
    assert p.scaled() == pytest.approx([0.15, 0.05])
    assert speed.reference() == speed.reference() > 0
