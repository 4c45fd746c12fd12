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
ones, how many reach engine steps they ran (``Transition.image`` calls, the relation
images, and ``Polyhedron.time_elapse`` calls, made by the source flows and the
location updates), and how many ``Fraction`` objects their set-up (``prepare``) and their runs
constructed, the oracle checks not counted.  From Python 3.12 on
``Fraction`` arithmetic makes its results without ``Fraction.__new__``,
so the count covers constructions only; before 3.12 it also counts each
arithmetic result.
"""

from __future__ import annotations

import sys
import time
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, inputs  # noqa: E402  (needs the path above)
from polyinv import polyhedron  # noqa: E402  (harness puts src/ on the path)
from polyinv.hybrid import Transition  # noqa: E402
from polyinv.polyhedron import Polyhedron  # noqa: E402
from polyinv.powerset import PolySet  # noqa: E402


class Conversions:
    """A stand-in for ``polyhedron._dd_cone`` that counts its calls and rows,
    in total and by kind: forward from scratch, seeded forward, and dual
    (the calls made inside ``polyhedron._dual_rows``, which ``dual_rows``
    stands in for, passing on the cone and matrix it returns); by kind also
    the rays the calls returned.  Minimal generators read off a dual
    conversion's matrix run no call."""

    def __init__(self):
        # [calls, rows, rays returned]
        self.by_kind = {"forward": [0, 0, 0], "seeded": [0, 0, 0], "dual": [0, 0, 0]}
        self.real, self.real_dual_rows = polyhedron._dd_cone, polyhedron._dual_rows
        self.in_dual = False

    @property
    def calls(self) -> int:
        return sum(calls for calls, _, _ in self.by_kind.values())

    @property
    def rows(self) -> int:
        return sum(rows for _, rows, _ in self.by_kind.values())

    def __call__(self, dim, rows, seed=None):
        rows = list(rows)
        counts = self.by_kind["dual" if self.in_dual else "forward" if seed is None else "seeded"]
        cone = self.real(dim, rows, seed)
        counts[0] += 1
        counts[1] += len(rows)
        counts[2] += len(cone[1])
        return cone

    def dual_rows(self, hom_dim, lines, rays):
        self.in_dual = True
        try:
            return self.real_dual_rows(hom_dim, lines, rays)
        finally:
            self.in_dual = False


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
    """Counts box rejections (``Polyhedron.box_excludes`` answering yes),
    full tests (``Polyhedron.contains`` calls) and their yes answers, and
    ``PolySet.reduce`` calls, inside ``counting()``.  Every candidate pair
    is either rejected by the boxes or tested in full."""

    def __init__(self):
        self.rejected = self.tests = self.yes = self.reduces = 0

    @property
    def pairs(self) -> int:
        return self.rejected + self.tests

    @contextmanager
    def counting(self):
        box_excludes, contains = vars(Polyhedron)["box_excludes"], vars(Polyhedron)["contains"]
        reduce = vars(PolySet)["reduce"]

        def counted_box_excludes(p, q):
            answer = box_excludes(p, q)
            self.rejected += answer
            return answer

        def counted_contains(p, q):
            self.tests += 1
            answer = contains(p, q)
            self.yes += answer
            return answer

        def counted_reduce(*args):
            self.reduces += 1
            return reduce.__func__(*args)

        Polyhedron.box_excludes, Polyhedron.contains = counted_box_excludes, counted_contains
        PolySet.reduce = staticmethod(counted_reduce)
        try:
            yield
        finally:
            Polyhedron.box_excludes, Polyhedron.contains = box_excludes, contains
            PolySet.reduce = reduce


class Minimizations:
    """Counts ``Polyhedron.minimized_constraints`` calls inside ``counting()``:
    fresh ones, on a value that has not emitted its constraints yet, and
    cached ones, which return the constraints emitted before."""

    def __init__(self):
        self.fresh = self.cached = 0

    @contextmanager
    def counting(self):
        real = vars(Polyhedron)["minimized_constraints"]

        def counted(p):
            if p._out_cons is None:
                self.fresh += 1
            else:
                self.cached += 1
            return real(p)

        Polyhedron.minimized_constraints = counted
        try:
            yield
        finally:
            Polyhedron.minimized_constraints = real


class EngineSteps:
    """Counts ``Transition.image`` calls and ``Polyhedron.time_elapse`` calls
    inside ``counting()``."""

    def __init__(self):
        self.images = self.elapses = 0

    @contextmanager
    def counting(self):
        image, elapse = vars(Transition)["image"], vars(Polyhedron)["time_elapse"]

        def counted_image(t, p):
            self.images += 1
            return image(t, p)

        def counted_elapse(p, rate):
            self.elapses += 1
            return elapse(p, rate)

        Transition.image, Polyhedron.time_elapse = counted_image, counted_elapse
        try:
            yield
        finally:
            Transition.image, Polyhedron.time_elapse = image, elapse


def counting(kind, conversions: Conversions, fractions: Fractions, *counters):
    """``kind`` with its items' runs, and not its checks, counted by
    ``conversions``, ``fractions`` and each of ``counters`` (an ``Inclusions``,
    ``Minimizations`` or ``EngineSteps``)."""

    class Counted(kind):
        @staticmethod
        def run(spec, prepared):
            polyhedron._dd_cone, polyhedron._dual_rows = conversions, conversions.dual_rows
            try:
                with ExitStack() as stack:
                    stack.enter_context(fractions.counting("run"))
                    for counter in counters:
                        stack.enter_context(counter.counting())
                    return kind.run(spec, prepared)
            finally:
                polyhedron._dd_cone = conversions.real
                polyhedron._dual_rows = conversions.real_dual_rows

    return Counted


def check(workload: str) -> int:
    kind, conversions, fractions = harness.KINDS[workload], Conversions(), Fractions()
    inclusions, minimizations, steps = Inclusions(), Minimizations(), EngineSteps()
    specs = inputs.pool(workload)
    t0 = time.perf_counter()
    with fractions.counting("prepare"):
        prepared = [kind.prepare(s) for s in specs]
    counted = counting(kind, conversions, fractions, inclusions, minimizations, steps)
    p = harness.run_pass(counted, specs, prepared, harness.TIMEOUTS[workload], check=True,
                         expected=harness.load_digests())
    for i, why in sorted(p.failures.items()):
        print(f"{workload} {specs[i]['key']}: {why}")
    print(f"{workload}: {len(specs)} items, {len(p.failures)} failed "
          f"({time.perf_counter() - t0:.1f} s)")
    print(f"{workload}: {conversions.calls} _dd_cone calls on {conversions.rows} rows")
    (fc, fr, fy), (sc, sr, sy), (dc, dr, dy) = conversions.by_kind.values()
    print(f"{workload}: {fc} forward conversions from scratch on {fr} rows returning {fy} rays, "
          f"{sc} seeded on {sr} rows returning {sy} rays, "
          f"{dc} dual conversions on {dr} rows returning {dy} rays")
    print(f"{workload}: {inclusions.pairs} candidate pairs for inclusion tests, "
          f"{inclusions.rejected} rejected by the closure boxes, {inclusions.tests} full tests "
          f"({inclusions.yes} answered yes), {inclusions.reduces} PolySet.reduce calls")
    print(f"{workload}: {minimizations.fresh + minimizations.cached} "
          f"Polyhedron.minimized_constraints calls, {minimizations.fresh} fresh and "
          f"{minimizations.cached} cached")
    print(f"{workload}: {steps.images} Transition.image calls, "
          f"{steps.elapses} Polyhedron.time_elapse calls")
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
