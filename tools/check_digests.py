"""Replay the benchmark's item pools once and check every output.

    python3 tools/check_digests.py [WORKLOAD ...]      (default: reach-lha)

Runs one pass over each named workload's whole item pool with the
oracle checks on, and compares every item's rendered output with its
digest in ``perfbench/digests.json``.  Prints each failing item and
exits 1 if any item failed; it measures no benchmark metric.  It also
prints how many conversions (``_dd_cone`` calls) the items ran and how
many rows they were given, how many inclusion tests
(``Polyhedron.contains`` calls) they made and how many of those answered
yes, how many ``PolySet.reduce`` calls they made, and how many
``Fraction`` objects their set-up (``prepare``) and their runs
constructed, the oracle checks not counted.  From Python 3.12 on
``Fraction`` arithmetic makes its results without ``Fraction.__new__``,
so the count covers constructions only; before 3.12 it also counts each
arithmetic result.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, inputs  # noqa: E402  (needs the path above)
from polyinv import polyhedron  # noqa: E402  (harness puts src/ on the path)
from polyinv.polyhedron import Polyhedron  # noqa: E402
from polyinv.powerset import PolySet  # noqa: E402


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


class Fractions:
    """Counts ``Fraction(...)`` constructions by phase, inside ``counting(phase)``."""

    def __init__(self):
        self.built = {"prepare": 0, "run": 0}

    @contextmanager
    def counting(self, phase: str):
        real = Fraction.__dict__["__new__"]

        def counted(cls, *args, **kwargs):
            self.built[phase] += 1
            return real.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counted)
        try:
            yield
        finally:
            Fraction.__new__ = real


class Inclusions:
    """Counts ``Polyhedron.contains`` calls and their yes answers, and
    ``PolySet.reduce`` calls, inside ``counting()``."""

    def __init__(self):
        self.tests = self.yes = self.reduces = 0

    @contextmanager
    def counting(self):
        contains, reduce = vars(Polyhedron)["contains"], vars(PolySet)["reduce"]

        def counted_contains(p, q):
            self.tests += 1
            answer = contains(p, q)
            self.yes += answer
            return answer

        def counted_reduce(*args):
            self.reduces += 1
            return reduce.__func__(*args)

        Polyhedron.contains, PolySet.reduce = counted_contains, staticmethod(counted_reduce)
        try:
            yield
        finally:
            Polyhedron.contains, PolySet.reduce = contains, reduce


def counting(kind, conversions: Conversions, fractions: Fractions, inclusions: Inclusions):
    """``kind`` with its items' runs, and not its checks, counted by
    ``conversions``, ``fractions`` and ``inclusions``."""

    class Counted(kind):
        @staticmethod
        def run(spec, prepared):
            polyhedron._dd_cone = conversions
            try:
                with fractions.counting("run"), inclusions.counting():
                    return kind.run(spec, prepared)
            finally:
                polyhedron._dd_cone = conversions.real

    return Counted


def check(workload: str) -> int:
    kind, conversions, fractions = harness.KINDS[workload], Conversions(), Fractions()
    inclusions = Inclusions()
    specs = inputs.pool(workload)
    t0 = time.perf_counter()
    with fractions.counting("prepare"):
        prepared = [kind.prepare(s) for s in specs]
    p = harness.run_pass(counting(kind, conversions, fractions, inclusions), specs, prepared,
                         harness.TIMEOUTS[workload], check=True, expected=harness.load_digests())
    for i, why in sorted(p.failures.items()):
        print(f"{workload} {specs[i]['key']}: {why}")
    print(f"{workload}: {len(specs)} items, {len(p.failures)} failed "
          f"({time.perf_counter() - t0:.1f} s)")
    print(f"{workload}: {conversions.calls} _dd_cone calls on {conversions.rows} rows")
    print(f"{workload}: {inclusions.tests} inclusion tests ({inclusions.yes} answered yes), "
          f"{inclusions.reduces} PolySet.reduce calls")
    print(f"{workload}: {fractions.built['prepare']} Fraction constructions in set-up, "
          f"{fractions.built['run']} in runs")
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
