"""Per-layer spans for the traced run, recorded from outside ``src/``.

``Tracer.install()`` replaces the public functions listed in ``TARGETS``
with wrappers, in the class or module that defines them and in every
``polyinv`` module that imported them by name; ``uninstall()`` puts the
originals back.  A wrapper records one span (name, start, end, parent,
item) in flat arrays and adds its call count and self time (the span's
duration minus that of its child spans) to per-layer totals.

The wrappers read only sizes that are already materialized: the length
of a tuple a method returned, ``PolySet.elements``, the result objects'
counters.  They never call a kernel query, because that would force a
lazy conversion and change the work being measured.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

POLYHEDRON_METHODS = (
    "is_empty",
    "contains",
    "minimized_constraints",
    "minimized_generators",
    "relation_image",
    "time_elapse",
    "topological_closure",
    "intersection",
    "poly_hull",
    "remove_dimensions",
    "affine_image",
    "bounded_affine_image",
    "dim_bounds",
)

# (layer, module, owner class or None, attribute)
TARGETS = (
    [("polyhedron", "polyinv.polyhedron", "Polyhedron", m) for m in POLYHEDRON_METHODS]
    + [
        ("polyhedron", "polyinv.polyhedron", None, "standard_widening"),
        ("powerset", "polyinv.powerset", "PolySet", "reduce"),
        ("powerset", "polyinv.powerset", "PolySet", "entails"),
        ("powerset", "polyinv.powerset", "PolySet", "lift_image"),
        ("powerset", "polyinv.powerset", None, "powerset_widening"),
        ("hybrid", "polyinv.hybrid", None, "location_update"),
        ("hybrid", "polyinv.hybrid", None, "reach"),
        ("hybrid", "polyinv.hybrid", None, "parse_automaton"),
        ("hybrid", "polyinv.hybrid", None, "parallel_compose"),
        ("analyzer", "polyinv.analyzer", None, "analyze"),
        ("analyzer", "polyinv.analyzer", None, "filter_store"),
        ("analyzer", "polyinv.analyzer", None, "abstract_assign"),
        ("imp", "polyinv.imp", None, "parse_program"),
        ("parse", "polyinv.parse", None, "parse_constraints"),
    ]
)

SETUP_ITEM = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.item = SETUP_ITEM
        # one frame per open span: [span index, name, children's time,
        # durations of the location updates of a reach span]
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for layer, modname, owner, attr in TARGETS:
            module = sys.modules[modname]
            holder = getattr(module, owner) if owner else module
            raw = holder.__dict__[attr]
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(f"{layer}.{attr}", fn)
            self._set(holder, attr, staticmethod(wrapper) if is_static else wrapper)
            if owner is None:
                for name, mod in list(sys.modules.items()):
                    if name.startswith("polyinv.") and mod is not module:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._set(mod, key, wrapper)

    def _set(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        after = _AFTER.get(name)
        before = _BEFORE.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            parent = stack[-1][0] if stack else -1
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent)
            self.span_item.append(self.item)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, name, 0.0, [] if name == "hybrid.reach" else None]
            stack.append(frame)
            t0 = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self.span_start[index] = t0
                self.span_end[index] = t1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if stack:
                    parent_frame = stack[-1]
                    parent_frame[2] += duration
                    if name == "hybrid.location_update" and parent_frame[1] == "hybrid.reach":
                        parent_frame[3].append(duration)
                if ok and name == "hybrid.reach":
                    # the post-fixpoint certificate: one update per location
                    n_loc = len(args[0].locations)
                    self.counts["hybrid.postfix_check_s"] += sum(frame[3][-n_loc:])
                if ok and after is not None:
                    after(self, args, out)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- output -------------------------------------------------------------

    def write(self, path) -> int:
        """Write the spans as JSON lines (gzip); returns the span count."""
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"[{self.span_name[i]},{self.span_start[i]!r},{self.span_end[i]!r},"
                    f"{self.span_parent[i]},{self.span_item[i]}]\n"
                )
        return len(self.span_start)


# -- hooks that read materialized sizes -------------------------------------

def _before_reduce(tracer: Tracer, args):
    dim, topology, raw = args
    if not isinstance(raw, (list, tuple)):
        raw = list(raw)
    tracer.counts["powerset.reduce.raw"] += len(raw)
    return dim, topology, raw


def _after_reduce(tracer: Tracer, args, out) -> None:
    kept = len(out.elements)
    tracer.counts["powerset.reduce.kept"] += kept
    tracer.counts["powerset.max_disjuncts"] = max(tracer.counts["powerset.max_disjuncts"], kept)


def _after_reach(tracer: Tracer, args, out) -> None:
    tracer.counts["hybrid.sweeps"] += out.iterations


def _after_analyze(tracer: Tracer, args, out) -> None:
    tracer.counts["analyzer.widenings"] += out.widenings
    tracer.counts["analyzer.delayed_joins"] += out.delayed_joins


def _count_len(key: str):
    def hook(tracer: Tracer, args, out) -> None:
        tracer.counts[key] += len(out)

    return hook


_BEFORE = {"powerset.reduce": _before_reduce}
_AFTER = {
    "powerset.reduce": _after_reduce,
    "hybrid.reach": _after_reach,
    "analyzer.analyze": _after_analyze,
    "polyhedron.minimized_constraints": _count_len("polyhedron.out_constraints"),
    "polyhedron.minimized_generators": _count_len("polyhedron.out_generators"),
}
