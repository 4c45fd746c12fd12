"""Summarize paired benchmark runs of a parent and a change commit.

    python3 tools/bench_pairs.py PARENT_OUT CHANGE_OUT -o BENCH_N.json

PARENT_OUT and CHANGE_OUT are the ``perfbench/out`` directories of two
checkouts that ran the same workloads on the same seeds with
``perfbench/run.py``.  Untraced records (``run-*-trace0.json``) are
paired by workload and seed; for every end-to-end metric that
``BENCHMARK.json`` gates, the summary gives each side's median and
quartiles over its runs, the pairs the change won (ties count for
neither side), the change of the median relative to the parent's, the
parent's interquartile range, and whether the claim rule holds (the
change wins at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range).  Traced records
(``run-*-trace1.json``) found on both sides for the same workload and
seed add each per-layer metric of both sides and its difference.  The
summary also keeps both sides' environments, failures and ``src/`` line
counts.  Quartiles are ``statistics.quantiles(n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(out_dir: Path, trace: int) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(out_dir.glob(f"run-*-trace{trace}.json")):
        record = json.loads(path.read_text())
        runs[(record["workload"], record["seed"])] = record
    return runs


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, pairs: list[tuple[dict, dict]]) -> dict:
    name, lower = metric["name"], metric["better"] == "lower"
    parent = [p["metrics"][name]["value"] for p, _ in pairs]
    change = [c["metrics"][name]["value"] for _, c in pairs]
    won = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    iqr = before["q3"] - before["q1"]
    gain = (before["median"] - after["median"]) * (1 if lower else -1)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": before,
        "change": after,
        "change_of_median": after["median"] / before["median"] - 1.0,
        "parent_iqr": iqr,
        "pairs_won": won,
        "claim_rule_met": won >= 0.9 * len(pairs) and gain > iqr,
    }


def summarize(parent_dir: Path, change_dir: Path) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(parent_dir, 0), load(change_dir, 0)
    keys = sorted(parent.keys() & change.keys())
    if not keys:
        raise SystemExit("no workload and seed was run on both sides")
    first = parent[keys[0]], change[keys[0]]
    out: dict = {
        "environment": {"parent": first[0]["environment"], "change": first[1]["environment"]},
        "src_lines": {
            "parent": first[0]["environment"]["src_lines"],
            "change": first[1]["environment"]["src_lines"],
        },
        "workloads": {},
    }
    traced_parent, traced_change = load(parent_dir, 1), load(change_dir, 1)
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        entry = {
            "seeds": seeds,
            "seconds": pairs[0][0]["seconds"],
            "failed": {
                "parent": sum(p["failed"] for p, _ in pairs),
                "change": sum(c["failed"] for _, c in pairs),
                "attempted_per_run": pairs[0][0]["attempted"],
            },
            "metrics": {m["name"]: compare(m, pairs) for m in bench["end_to_end"]},
        }
        for w, seed in sorted(traced_parent.keys() & traced_change.keys()):
            if w != workload:
                continue
            before = traced_parent[w, seed]["metrics"]
            after = traced_change[w, seed]["metrics"]
            entry.setdefault("traced", {})[str(seed)] = {
                name: {
                    "parent": before[name]["value"],
                    "change": after[name]["value"],
                    "delta": after[name]["value"] - before[name]["value"],
                }
                for name in before
                if name in after
            }
        out["workloads"][workload] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_out", type=Path)
    ap.add_argument("change_out", type=Path)
    ap.add_argument("-o", "--output", type=Path, required=True)
    args = ap.parse_args(argv)
    summary = summarize(args.parent_out, args.change_out)
    args.output.write_text(json.dumps(summary, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"({m['change_of_median']:+.1%}), won {m['pairs_won']}/{len(entry['seeds'])}, "
                  f"claim rule {'met' if m['claim_rule_met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
