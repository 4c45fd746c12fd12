"""Replay the benchmark's item pools once and check every output.

    python3 tools/check_digests.py [WORKLOAD ...]      (default: reach-lha)

Runs one pass over each named workload's whole item pool with the
oracle checks on, and compares every item's rendered output with its
digest in ``perfbench/digests.json``.  Prints each failing item and
exits 1 if any item failed; it measures no benchmark metric.  It also
prints how many conversions (``_dd_cone`` calls) the items ran and how
many rows they were given, the oracle checks not counted.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, inputs  # noqa: E402  (needs the path above)
from polyinv import polyhedron  # noqa: E402  (harness puts src/ on the path)


class Conversions:
    """A stand-in for ``polyhedron._dd_cone`` that counts its calls and rows."""

    def __init__(self):
        self.calls = self.rows = 0
        self.real = polyhedron._dd_cone

    def __call__(self, dim, rows):
        rows = list(rows)
        self.calls += 1
        self.rows += len(rows)
        return self.real(dim, rows)


def counting(kind, conversions: Conversions):
    """``kind`` with its items' runs, and not its checks, counted by ``conversions``."""

    class Counted(kind):
        @staticmethod
        def run(spec, prepared):
            polyhedron._dd_cone = conversions
            try:
                return kind.run(spec, prepared)
            finally:
                polyhedron._dd_cone = conversions.real

    return Counted


def check(workload: str) -> int:
    kind, conversions = harness.KINDS[workload], Conversions()
    specs = inputs.pool(workload)
    t0 = time.perf_counter()
    prepared = [kind.prepare(s) for s in specs]
    p = harness.run_pass(counting(kind, conversions), specs, prepared, harness.TIMEOUTS[workload],
                         check=True, expected=harness.load_digests())
    for i, why in sorted(p.failures.items()):
        print(f"{workload} {specs[i]['key']}: {why}")
    print(f"{workload}: {len(specs)} items, {len(p.failures)} failed "
          f"({time.perf_counter() - t0:.1f} s)")
    print(f"{workload}: {conversions.calls} _dd_cone calls on {conversions.rows} rows")
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
