"""How each workload item is prepared, run, rendered and checked.

An item has three steps:

* ``prepare(spec)`` builds the engine's inputs from the spec's text
  (parsing and composition).  It is part of set-up, never of an item's
  time, and it is repeated before every pass so that no pass reuses
  the lazily completed polyhedra of another.
* ``run(spec, prepared)`` is the timed part: the engine call plus
  rendering its output to the text a user would see.
* ``check(spec, prepared, result)`` is the oracle, run on the first pass
  only and outside the timed region.

Engine entry points are looked up through their modules at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib

from polyinv import analyzer, hybrid, imp, parse, polyhedron
from polyinv.linalg import Generator, format_generator
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet

from . import oracles


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _index(names) -> dict[str, int]:
    return {v: i for i, v in enumerate(names)}


# --------------------------------------------------------------------------
# reach-lha
# --------------------------------------------------------------------------

class ReachItems:
    @staticmethod
    def prepare(spec: dict):
        automata = [hybrid.parse_automaton(t) for t in spec["texts"]]
        h = automata[0]
        for other in automata[1:]:
            h = hybrid.parallel_compose(h, other)
        opts = hybrid.ReachOptions(
            domain=spec["domain"], delay=spec.get("delay", 0), cap=spec.get("cap", 8)
        )
        return h, opts

    @staticmethod
    def run(spec: dict, prepared):
        h, opts = prepared
        result = hybrid.reach(h, opts)
        names = list(h.variables)
        lines = []
        for loc in h.locations:
            region = result.regions[loc.name]
            if isinstance(region, PolySet):
                pieces = sorted(p.constraints_pretty(names) for p in region.elements)
                lines += [f"{loc.name}[{i}]: {piece}" for i, piece in enumerate(pieces)]
                lines.append(f"{loc.name} hull: {region.collapse().constraints_pretty(names)}")
            else:
                lines.append(f"{loc.name}: {region.constraints_pretty(names)}")
        lines.append(f"# converged in {result.iterations} sweeps")
        return result, "\n".join(lines)

    @staticmethod
    def check(spec: dict, prepared, result) -> list[str]:
        h, opts = prepared
        problems = oracles.check_reach(h, result, opts.domain)
        if spec.get("oracle"):
            problems += oracles.check_shipped(spec["oracle"], h, result, opts.domain)
        return problems


# --------------------------------------------------------------------------
# analyze-imp
# --------------------------------------------------------------------------

IMP_OPTIONS = analyzer.AnalysisOptions(domain="poly", delay=1)


class ImpItems:
    @staticmethod
    def prepare(spec: dict):
        program = imp.parse_program(spec["text"])
        names = list(program.variables)
        cs = parse.parse_constraints(spec["assume"], _index(names), len(names)) if spec["assume"] else []
        return program, analyzer.AbstractStore.from_constraints(names, cs, "poly")

    @staticmethod
    def run(spec: dict, prepared):
        program, initial = prepared
        result = analyzer.analyze(program, initial, IMP_OPTIONS)
        lines = []
        for s in sorted(program.statements(), key=lambda s: s.pid):
            store = result.entries.get(s.pid)
            if store is not None:
                tag = " [loop]" if s.pid in result.loop_invariants else ""
                lines.append(f"point {s.pid} ({s.line}:{s.col}){tag}: {store.pretty()}")
        lines.append(f"exit: {result.exit_store.pretty()}")
        return result, "\n".join(lines)

    @staticmethod
    def check(spec: dict, prepared, result) -> list[str]:
        return oracles.check_analysis(prepared[0], result, spec["stores"], spec["fuel"])


# --------------------------------------------------------------------------
# kernel-dd
# --------------------------------------------------------------------------

def _from_text(d: int, text: str, topology=Topology.CLOSED) -> Polyhedron:
    names = [f"x{i}" for i in range(d)]
    return Polyhedron.from_constraints(d, topology, parse.parse_constraints(text, _index(names), d))


def _render_gens(gens) -> str:
    return "{" + ", ".join(format_generator(g) for g in gens) + "}"


class KernelItems:
    @staticmethod
    def prepare(spec: dict):
        d, kind = spec["d"], spec["kind"]
        if kind == "hull":
            return [Generator.point(p) for p in spec["points"]]
        if kind == "verts":
            return _from_text(d, spec["constraints"])
        if kind == "cube":
            return _from_text(d, spec["constraints"], Topology.NNC if spec["nnc"] else Topology.CLOSED)
        return _from_text(d, spec["older"]), _from_text(d, spec["newer"])

    @staticmethod
    def run(spec: dict, prepared):
        d, kind = spec["d"], spec["kind"]
        names = [f"x{i}" for i in range(d)]
        if kind == "hull":
            p = Polyhedron.from_generators(d, Topology.CLOSED, prepared)
            return p.minimized_constraints(), p.constraints_pretty(names)
        if kind in ("verts", "cube"):
            gens = prepared.minimized_generators()
            return gens, _render_gens(gens)
        w = polyhedron.standard_widening(*prepared)
        return w, w.constraints_pretty(names)

    @staticmethod
    def check(spec: dict, prepared, result) -> list[str]:
        d, kind = spec["d"], spec["kind"]
        if kind == "hull":
            return oracles.check_hull(spec["points"], result)
        if kind == "verts":
            return oracles.check_hull(spec["points"], prepared.minimized_constraints()) + \
                oracles.check_vertices(spec["points"], result)
        if kind == "cube":
            return oracles.check_cube(d, spec["nnc"], prepared.minimized_constraints(), result)
        return oracles.check_widening(d, result.minimized_constraints())
