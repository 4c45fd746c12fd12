"""Record the output digest of every item any seed can draw.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each workload's whole item pool once, with the oracle checks, and
stores the digest of every item's rendered output in digests.json.  An
item that fails its check or times out gets no digest.  Run it only on
a commit whose outputs are the reference: the benchmark then fails any
item whose output differs from the recorded digest.
"""

from __future__ import annotations

import json
import sys
import time

from harness import DIGESTS, KINDS, TIMEOUTS, run_pass  # sets up sys.path
from perfbench import inputs, oracles


def record(workload: str) -> dict[str, str]:
    kind = KINDS[workload]
    specs = inputs.pool(workload)
    t0 = time.perf_counter()
    p = run_pass(kind, specs, [kind.prepare(s) for s in specs], TIMEOUTS[workload],
                 check=True, expected=None)
    print(f"{workload}: {len(specs)} items in {time.perf_counter() - t0:.1f} s, "
          f"{len(p.failures)} failed", file=sys.stderr)
    for i, t in enumerate(p.times):
        if t >= 0.1:
            print(f"  {specs[i]['key']}: {t:.3f} s", file=sys.stderr)
    for i, why in sorted(p.failures.items()):
        print(f"  {specs[i]['key']}: {why}", file=sys.stderr)
    return {specs[i]["key"]: d for i, d in p.digests.items() if i not in p.failures}


def record_facets() -> None:
    """The input of the cons->gens items: each base point set's facets."""
    from polyinv.linalg import Generator
    from polyinv.polyhedron import Polyhedron, Topology

    facets = {}
    for d, n in inputs.HULL_SIZES:
        points = inputs.base_points(d, n)
        hull = Polyhedron.from_generators(d, Topology.CLOSED, [Generator.point(p) for p in points])
        cons = hull.minimized_constraints()
        problems = oracles.check_hull(points, cons)
        if problems:
            raise SystemExit(f"hull of {d}x{n}: {problems[0]}")

        def tight_on(c):
            return [i for i, p in enumerate(points) if oracles.holds(c, p) and
                    sum(a * x for a, x in zip(c.coeffs, p)) == c.rhs]

        facets[f"{d}x{n}"] = [list(c.coeffs) + [c.rhs] for c in sorted(cons, key=tight_on)]
    inputs.HULL_FACETS.write_text(json.dumps(facets) + "\n")


def main(argv: list[str]) -> int:
    workloads = argv or list(inputs.WORKLOADS)
    if "kernel-dd" in workloads:
        record_facets()
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for w in workloads:
        prefix = {"reach-lha": "reach/", "analyze-imp": "imp/", "kernel-dd": "dd/"}[w]
        digests = {k: v for k, v in digests.items() if not k.startswith(prefix)}
        digests.update(record(w))
    DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
