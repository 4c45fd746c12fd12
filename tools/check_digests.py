"""Replay the benchmark's item pools once and check every output.

    python3 tools/check_digests.py [WORKLOAD ...]      (default: reach-lha)

Runs one pass over each named workload's whole item pool with the
oracle checks on, and compares every item's rendered output with its
digest in ``perfbench/digests.json``.  Prints each failing item and
exits 1 if any item failed; it measures no benchmark metric.  It also
prints how many conversions (``_dd_cone`` calls) the items ran and how
many rows they were given, in total and split into forward conversions
from scratch, forward conversions seeded from an operand's generators,
and dual conversions, each kind also with the rays it returned (lines
not counted; a dual conversion returns the inequality rows as rays), how
many pairs they asked an inclusion test about (the candidate pairs), how
many of those the closure boxes turned down (``Polyhedron.box_excludes``
answering yes) and how many went to the full test (``Polyhedron.contains``
calls) and answered yes there, how many ``PolySet.reduce`` calls they
made, how many ``Polyhedron.minimized_constraints`` calls they made,
split into fresh ones (the value had not emitted its constraints before) and cached
ones, how many minimal-row computations they made, split into reads off a
forward conversion's matrix (``Polyhedron._read_rows`` calls) and dual
conversions, how many reach engine steps they ran (``Transition.image`` calls, the relation
images, and ``Polyhedron.time_elapse`` calls, made by the source flows and the
location updates), and how many ``Fraction`` objects their set-up (``prepare``) and their runs
constructed, the oracle checks not counted.  The counts come from the
call sites in ``tests/counting.py``.  From Python 3.12 on
``Fraction`` arithmetic makes its results without ``Fraction.__new__``,
so the count covers constructions only; before 3.12 it also counts each
arithmetic result.
"""

import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, inputs  # noqa: E402  (needs the path above)
from tests.counting import counted, sites  # noqa: E402  (harness puts src/ on the path)


def check(workload: str) -> int:
    kind, setup, runs = harness.KINDS[workload], Counter(), Counter()
    specs = inputs.pool(workload)
    t0 = time.perf_counter()
    with counted(setup, sites("__new__")):
        prepared = [kind.prepare(s) for s in specs]

    def run(spec, prep):  # the runs are counted, the checks are not
        with counted(runs):
            return kind.run(spec, prep)

    p = harness.run_pass(SimpleNamespace(run=run, check=kind.check), specs, prepared,
                         harness.TIMEOUTS[workload], check=True, expected=harness.load_digests())
    for i, why in sorted(p.failures.items()):
        print(f"{workload} {specs[i]['key']}: {why}")
    print(f"{workload}: {len(specs)} items, {len(p.failures)} failed "
          f"({time.perf_counter() - t0:.1f} s)")
    (fc, fr, fy), (sc, sr, sy), (dc, dr, dy) = (
        [runs[k], runs[k + " rows"], runs[k + " rays"]] for k in ("forward", "seeded", "dual"))
    print(f"{workload}: {runs['polyhedron._dd_cone']} _dd_cone calls on {fr + sr + dr} rows")
    print(f"{workload}: {fc} forward conversions from scratch on {fr} rows returning {fy} rays, "
          f"{sc} seeded on {sr} rows returning {sy} rays, "
          f"{dc} dual conversions on {dr} rows returning {dy} rays")
    rejected, tests = runs["box rejections"], runs["Polyhedron.contains"]
    print(f"{workload}: {rejected + tests} candidate pairs for inclusion tests, "
          f"{rejected} rejected by the closure boxes, {tests} full tests "
          f"({runs['contains yes']} answered yes), {runs['PolySet.reduce']} PolySet.reduce calls")
    minimizations, fresh = runs["Polyhedron.minimized_constraints"], runs["fresh minimizations"]
    print(f"{workload}: {minimizations} Polyhedron.minimized_constraints calls, {fresh} fresh and "
          f"{minimizations - fresh} cached")
    reads = runs["Polyhedron._read_rows"]
    print(f"{workload}: {reads + dc} fresh minimal-row computations, "
          f"{reads} read off a forward matrix and {dc} by dual conversion")
    print(f"{workload}: {runs['Transition.image']} Transition.image calls, "
          f"{runs['Polyhedron.time_elapse']} Polyhedron.time_elapse calls")
    print(f"{workload}: {setup['Fraction.__new__']} Fraction constructions in set-up, "
          f"{runs['Fraction.__new__']} in runs")
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
