"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload reach-lha --seed 1 --seconds 50 --trace 0

The run starts three set-up-only child processes, one measuring child
(see harness.py) and three more set-up-only children, each a fresh
interpreter.  It prints one line
per metric and, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  A record of the run, with the environment and
every item's time, goes to perfbench/out/.  The exit code is 0 when the
run completed, whatever its ``correct`` value; it is 2 when the run
could not be made (for example, no ``src/polyinv`` in the checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import inputs  # noqa: E402  (imports no polyinv)

SETUP_PROBES = 3  # before, and again after, the measuring child
CHILD_TIMEOUT_S = 170


def environment() -> dict:
    src = ROOT / "src"
    lines = sum(len(p.read_text().splitlines()) for p in sorted(src.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def child(args, *extra) -> dict:
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, check=False
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(report: dict, setup_samples: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": report["wall_s"],
        "item_p50_s": report["item_p50_s"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="polyinv benchmark")
    ap.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, inputs.KNOWN_FAILURES])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "polyinv" / "__init__.py").is_file():
        print("error: no src/polyinv in this checkout; nothing to measure", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        # set-up probes before and after the measuring child, so that the
        # median spans two moments of the host's drifting speed
        setup_samples = [child(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        report = child(args)
        setup_samples += [child(args, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    setup_samples.append(report["setup_s"])

    if args.trace:
        declared = bench["per_layer"]
        values = dict(report["layers"])
        values["failed_frac"] = report["failed"] / report["attempted"]
    else:
        declared = bench["end_to_end"]
        values = end_to_end(report, setup_samples)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "environment": environment(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": setup_samples,
        "item_tail": report["item_tail"],
        "metrics": metrics,
        **{k: report[k] for k in ("attempted", "failed", "failures", "correct", "passes", "pass_s",
                                  "pass_scale", "items")},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    env = record["environment"]
    print(f"# python {env['python']}, nproc {env['nproc']}, src/ {env['src_lines']} lines")
    print(f"# {args.workload} seed {args.seed}: {report['attempted']} items, "
          f"{report['failed']} failed, {report['passes']} timed passes")
    print(f"# times are scaled to the nominal host speed; the passes ran at "
          f"{min(report['pass_scale']):.2f}-{max(report['pass_scale']):.2f} of it, "
          f"{statistics.median(report['pass_s']):.3f} s per pass unscaled")
    for key, why in report["failures"].items():
        print(f"# failed {key}: {why}")
    if report["item_tail"] is not None:
        pct, value = report["item_tail"]
        print(f"# tail item time (p{pct:.2f} of {report['attempted']} items): {value:.6g} s")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
