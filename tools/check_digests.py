"""Replay the benchmark's item pools once and check every output.

    python3 tools/check_digests.py [WORKLOAD ...]      (default: reach-lha)

Runs one pass over each named workload's whole item pool with the
oracle checks on, and compares every item's rendered output with its
digest in ``perfbench/digests.json``.  Prints each failing item and
exits 1 if any item failed; it measures no benchmark metric.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, inputs  # noqa: E402  (needs the path above)


def check(workload: str) -> int:
    kind = harness.KINDS[workload]
    specs = inputs.pool(workload)
    t0 = time.perf_counter()
    p = harness.run_pass(kind, specs, [kind.prepare(s) for s in specs], harness.TIMEOUTS[workload],
                         check=True, expected=harness.load_digests())
    for i, why in sorted(p.failures.items()):
        print(f"{workload} {specs[i]['key']}: {why}")
    print(f"{workload}: {len(specs)} items, {len(p.failures)} failed "
          f"({time.perf_counter() - t0:.1f} s)")
    return len(p.failures)


def main(argv: list[str]) -> int:
    unknown = [w for w in argv if w not in inputs.WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {', '.join(inputs.WORKLOADS)}")
        return 2
    failed = sum(check(w) for w in argv or ["reach-lha"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
