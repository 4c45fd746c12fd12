"""The measuring process: set up one workload, time passes over its items.

``run.py`` starts this file as a child process once per run, plus a few
set-up-only children for the set-up time.  The child is single-threaded.
It prints one JSON object on its last stdout line.

A pass runs every item once, in order, in a closed loop.  Pass 1 also
runs the oracle checks, outside the timed region.  Passes repeat until
the measured time would exceed the budget.  Between items, every 0.1 s
of item time, the pass reads the host's speed (see speed.py); each
item's time is scaled by its pass's speed, and the item's reported time
is the median of its scaled times over the passes.  Set-up time is
scaled the same way, by readings taken in the same process.  A traced
run then adds one pass with the tracer installed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from perfbench import inputs, items, speed  # noqa: E402  (needs the paths above)
from perfbench.tracing import SETUP_ITEM, Tracer  # noqa: E402

KINDS = {
    "reach-lha": items.ReachItems,
    "analyze-imp": items.ImpItems,
    "kernel-dd": items.KernelItems,
    inputs.KNOWN_FAILURES: items.ReachItems,
}
# Per-item timeout in seconds; a timed-out item is charged all of it.
TIMEOUTS = {"reach-lha": 20.0, "analyze-imp": 5.0, "kernel-dd": 30.0, inputs.KNOWN_FAILURES: 20.0}
DIGESTS = Path(__file__).resolve().parent / "digests.json"
OUT_DIR = Path(__file__).resolve().parent / "out"
# Item time between two readings of the host's speed within a pass.
READ_EVERY_S = 0.1
# Readings of the host's speed before and again after a child's set-up.
SETUP_READINGS = 10


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


class Pass:
    """The outcome of one pass: per-item seconds, failures (with the items
    among them that timed out), rendered-output digests, and the readings
    of the host's speed taken between its items."""

    def __init__(self, n: int):
        self.times = [0.0] * n
        self.failures: dict[int, str] = {}
        self.timeouts: set[int] = set()
        self.digests: dict[int, str] = {}
        self.readings: list[float] = []

    def cost(self) -> float:
        """Seconds spent timing items and reading the host's speed."""
        return sum(self.times) + sum(self.readings)

    def scaled(self) -> list[float]:
        """Item times at the nominal host speed."""
        f = speed.scale(self.readings)
        return [t * f for t in self.times]


def run_pass(kind, specs, prepared, timeout, *, check, expected, skip=(), tracer=None) -> Pass:
    """Run every item once.  `expected` maps keys to recorded digests, or is
    None to only collect them; `skip` holds items that already failed."""
    out = Pass(len(specs))
    since_reading = READ_EVERY_S
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for i, (spec, prep) in enumerate(zip(specs, prepared)):
            if i in skip:
                continue
            if since_reading >= READ_EVERY_S:
                out.readings.append(speed.reading())
                since_reading = 0.0
            if tracer is not None:
                tracer.item = i
            signal.setitimer(signal.ITIMER_REAL, timeout)
            t0 = time.perf_counter()
            try:
                result, text = kind.run(spec, prep)
                out.times[i] = time.perf_counter() - t0
            except ItemTimeout:
                out.times[i] = timeout
                out.failures[i] = f"timeout after {timeout:g} s"
                out.timeouts.add(i)
                continue
            except Exception as e:  # any engine failure fails the item
                out.times[i] = time.perf_counter() - t0
                out.failures[i] = f"{type(e).__name__}: {e}"
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                since_reading += out.times[i]
                if tracer is not None:
                    tracer.item = SETUP_ITEM
            out.digests[i] = items.digest(text)
            if expected is not None and expected.get(spec["key"]) != out.digests[i]:
                out.failures[i] = "output digest differs from the recorded one"
                continue
            if check:
                problems = kind.check(spec, prep, result)
                if problems:
                    out.failures[i] = "; ".join(problems[:3])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out.readings.append(speed.reading())
    return out


def _freeze() -> None:
    """Move everything alive now out of the cyclic collector's way, so
    collections during an item do not keep scanning the other items'
    inputs (a single command-line run has no such heap)."""
    gc.unfreeze()
    gc.collect()
    gc.freeze()


def fresh_inputs(kind, specs) -> list:
    """Prepare every item again, so no pass sees polyhedra that an earlier
    pass already converted."""
    gc.unfreeze()
    prepared = [kind.prepare(s) for s in specs]
    _freeze()
    return prepared


def scaled_setup(spawned_at: float, readings: list[float]) -> float:
    """Set-up time so far, at the nominal host speed; `readings` were taken
    before the set-up, more are taken now."""
    raw = time.monotonic() - spawned_at
    readings = readings + [speed.reading() for _ in range(SETUP_READINGS)]
    return raw * speed.scale(readings)


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least 10 items beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Outcome:
    """Failures over all passes.  A failed item is not rerun; later passes
    charge it the time it took when it failed, so every pass sums the same
    item set."""

    def __init__(self):
        self.passes: list[Pass] = []
        self.failures: dict[int, str] = {}
        self.timeouts: set[int] = set()

    def add(self, p: Pass) -> None:
        for i in self.failures:
            p.times[i] = self.passes[0].times[i]
        self.failures.update(p.failures)
        self.timeouts |= p.timeouts


def measure(workload: str, seed: int, seconds: float, trace: bool, spawned_at: float,
            readings: list[float]) -> dict:
    kind = KINDS[workload]
    timeout = TIMEOUTS[workload]
    specs = inputs.generate(workload, seed)
    prepared = [kind.prepare(s) for s in specs]
    setup_s = scaled_setup(spawned_at, readings)

    expected = load_digests()
    out = Outcome()
    measured = 0.0
    while True:
        if out.passes:
            prepared = fresh_inputs(kind, specs)
        else:
            _freeze()
        p = run_pass(kind, specs, prepared, timeout, check=not out.passes, expected=expected,
                     skip=out.failures)
        out.add(p)
        out.passes.append(p)
        measured += p.cost()
        if measured + p.cost() > seconds:
            break

    layers = None
    if trace:
        layers, p = traced_pass(kind, workload, seed, specs, timeout, expected, out.failures)
        out.add(p)
        # pass 1 also ran the checks between items, which leaves it slower
        untraced = [sum(q.scaled()) for q in out.passes]
        layers["trace_overhead_frac"] = sum(p.scaled()) / statistics.median(untraced[1:] or untraced) - 1.0
    scaled = [q.scaled() for q in out.passes]
    item_s = [statistics.median(q[i] for q in scaled) for i in range(len(specs))]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": len(specs),
        "failed": len(out.failures),
        "failures": {specs[i]["key"]: why for i, why in sorted(out.failures.items())},
        "correct": set(out.failures) <= out.timeouts,
        "passes": len(out.passes),
        "pass_s": [sum(p.times) for p in out.passes],
        "pass_scale": [speed.scale(p.readings) for p in out.passes],
        "setup_s": setup_s,
        "wall_s": sum(item_s),
        "item_p50_s": statistics.median(item_s),
        "item_tail": tail(item_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items": {s["key"]: t for s, t in zip(specs, item_s)},
        "layers": layers,
    }


def traced_pass(kind, workload, seed, specs, timeout, expected, failures) -> tuple[dict, Pass]:
    """One more pass with the tracer installed, set-up included."""
    tracer = Tracer()
    tracer.install()
    try:
        prepared = fresh_inputs(kind, specs)
        p = run_pass(kind, specs, prepared, timeout, check=False, expected=expected,
                     skip=failures, tracer=tracer)
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    spans = tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz")
    layers: dict[str, float] = {}
    for name in tracer.names:
        layers[f"{name}.calls"] = tracer.calls.get(name, 0)
        layers[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    counts = tracer.counts
    raw = counts.get("powerset.reduce.raw", 0)
    layers.update(
        {
            "polyhedron.out_constraints": counts.get("polyhedron.out_constraints", 0),
            "polyhedron.out_generators": counts.get("polyhedron.out_generators", 0),
            "powerset.reduce.kept_frac": counts.get("powerset.reduce.kept", 0) / raw if raw else 0.0,
            "powerset.max_disjuncts": counts.get("powerset.max_disjuncts", 0),
            "hybrid.postfix_check_s": counts.get("hybrid.postfix_check_s", 0.0),
            "hybrid.sweeps": counts.get("hybrid.sweeps", 0),
            "analyzer.widenings": counts.get("analyzer.widenings", 0),
            "analyzer.delayed_joins": counts.get("analyzer.delayed_joins", 0),
            "spans": spans,
        }
    )
    return layers, p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at
    # readings at the child's start; their own time is not set-up time
    readings = [speed.reading() for _ in range(SETUP_READINGS)]
    spawned_at += sum(readings)
    if args.setup_only:
        kind = KINDS[args.workload]
        for spec in inputs.generate(args.workload, args.seed):
            kind.prepare(spec)
        report = {"setup_s": scaled_setup(spawned_at, readings)}
    else:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), spawned_at,
                         readings)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
