"""Command-line driver: analyze, reach, poly.

Output is deterministic: constraints print with integer coefficients,
terms in declared variable order, equalities first, and systems sorted
by the canonical coefficient order.  `--format records` emits
tab-separated `kind<TAB>key<TAB>{constraints}` lines for tooling.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Iterator

from . import imp
from .analyzer import AbstractStore, AnalysisError, AnalysisOptions, analyze
from .hybrid import NonConvergenceError, ReachOptions, parse_automaton, reach
from .linalg import LinExpr, format_generator
from .parse import ParseError, parse_constraints, parse_linexpr
from .polyhedron import Polyhedron, Topology, standard_widening
from .powerset import PolySet

EXIT_INPUT_ERROR = 1
EXIT_ENGINE_ERROR = 2
EXIT_NO_CONVERGENCE = 3


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    try:
        text = open(args.file).read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        opts = AnalysisOptions(domain=args.domain, delay=args.delay, cap=args.cap)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        program = imp.parse_program(text)
        names = list(program.variables)
        idx = {v: i for i, v in enumerate(names)}
        cs = parse_constraints(args.assume, idx, len(names)) if args.assume else []
        initial = AbstractStore.from_constraints(names, cs, opts.domain)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        result = analyze(program, initial, opts)
    except (AnalysisError, ArithmeticError) as e:
        print(f"engine error: {e}", file=sys.stderr)
        return EXIT_ENGINE_ERROR

    by_pid = {s.pid: s for s in program.statements()}
    for pid in sorted(by_pid):
        if pid not in result.entries:
            continue
        stmt = by_pid[pid]
        store = result.entries[pid]
        tag = " [loop]" if pid in result.loop_invariants else ""
        rendered = store.pretty()
        if args.format == "records":
            print(f"point\t{pid}\t{rendered}")
        else:
            print(f"point {pid} ({stmt.line}:{stmt.col}){tag}: {rendered}")
    rendered = result.exit_store.pretty()
    if args.format == "records":
        print(f"exit\t-\t{rendered}")
    else:
        print(f"exit: {rendered}")
    return 0


# ---------------------------------------------------------------------------
# reach
# ---------------------------------------------------------------------------

def cmd_reach(args) -> int:
    try:
        text = open(args.file).read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        automaton = parse_automaton(text)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    names = list(automaton.variables)
    project_dims = None
    kept_names = names
    if args.project:
        wanted = [v.strip() for v in args.project.split(",")]
        for v in wanted:
            if v not in names:
                print(f"error: unknown variable {v!r} in --project", file=sys.stderr)
                return EXIT_INPUT_ERROR
        project_dims = [i for i, v in enumerate(names) if v not in wanted]
        kept_names = [v for v in names if v in wanted]
    try:
        opts = ReachOptions(
            domain=args.domain, delay=args.delay, cap=args.cap, max_iter=args.max_iter
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        result = reach(automaton, opts)
    except NonConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)

    def proj(p: Polyhedron) -> Polyhedron:
        return p.remove_dimensions(project_dims) if project_dims else p

    for loc in automaton.locations:
        region = result.regions[loc.name]
        if isinstance(region, PolySet):
            pieces = sorted(proj(p).constraints_pretty(kept_names) for p in region.elements)
            for i, text_piece in enumerate(pieces):
                if args.format == "records":
                    print(f"location\t{loc.name}[{i}]\t{text_piece}")
                else:
                    print(f"{loc.name}[{i}]: {text_piece}")
            hull = proj(region.collapse())
            rendered = hull.constraints_pretty(kept_names)
            if args.format == "records":
                print(f"location\t{loc.name}\t{rendered}")
            else:
                print(f"{loc.name} hull: {rendered}")
        else:
            rendered = proj(region).constraints_pretty(kept_names)
            if args.format == "records":
                print(f"location\t{loc.name}\t{rendered}")
            else:
                print(f"{loc.name}: {rendered}")
    if args.format != "records":
        print(f"# converged in {result.iterations} sweeps")
    return 0


# ---------------------------------------------------------------------------
# poly: a desk calculator for the kernel
# ---------------------------------------------------------------------------

class _PolyScript:
    """Line-oriented calculator over named polyhedra.

    Statements (each ended by ';'):
        vars x, y;
        A = {x>=0, y=0};            closed constraint literal
        B = nnc {x>0};              strict constraints allowed
        print EXPR;                 constraint system of the value
        print gens(EXPR);           generator system
    Expressions:
        hull(a,b) meet(a,b) widen(a,b) elapse(a,b) closure(a)
        image(a, x := e) preimage(a, x := e) bimage(a, x, lo, hi)
        drop(a, x, ...) embed(a, k) concat(a, b) permute(a, i, ...)
        relimage(a, rel) contains(a, b) equals(a, b) empty(a)
        universe(a) contains_point(a, c1, ...)
    """

    def __init__(self):
        self.names: list[str] = []
        self.env: dict[str, Polyhedron] = {}

    def var_index(self, dim: int) -> dict[str, int]:
        idx = {v: i for i, v in enumerate(self.names[:dim])}
        for i, v in enumerate(self.names[:dim]):
            idx.setdefault(f"d{v}", i)
        return idx

    def ensure_vars(self, text: str) -> None:
        import re

        for name in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text):
            if name.startswith("d") and name[1:] in self.names:
                continue
            if name not in self.names:
                self.names.append(name)

    def run(self, script: str) -> Iterator[str]:
        """Run the script, yielding each printed line as its statement runs."""
        body = "\n".join(line.split("#", 1)[0] for line in script.splitlines())
        statements = [s.strip() for s in body.split(";") if s.strip()]
        # first pass: collect variable names from literals in order
        import re

        for stmt in statements:
            if stmt.startswith("vars "):
                for v in stmt[5:].split(","):
                    v = v.strip()
                    if v and v not in self.names:
                        self.names.append(v)
        if not self.names:
            for stmt in statements:
                for lit in re.findall(r"\{([^{}]*)\}", stmt):
                    self.ensure_vars(lit)
        for stmt in statements:
            if stmt.startswith("vars "):
                continue
            if stmt.startswith("print "):
                yield self.show(self.expr(stmt[6:].strip()))
                continue
            m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$", stmt, re.S)
            if m is None:
                raise ParseError(f"cannot parse statement {stmt!r}")
            value = self.expr(m.group(2).strip())
            if not isinstance(value, Polyhedron):
                raise ParseError("only polyhedra can be named")
            self.env[m.group(1)] = value

    def show(self, value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, Polyhedron):
            return value.constraints_pretty(self.names[: value.dim])
        if isinstance(value, tuple):  # generator listing
            return "{" + ", ".join(format_generator(g) for g in value) + "}"
        return str(value)

    def literal(self, text: str, topology: Topology) -> Polyhedron:
        inner = text.strip()[1:-1]
        n = len(self.names)
        cs = parse_constraints(inner, self.var_index(n), n) if inner.strip() else []
        return Polyhedron.from_constraints(n, topology, cs)

    def expr(self, text: str):
        import re

        text = text.strip()
        if text.startswith("nnc"):
            rest = text[3:].strip()
            if rest.startswith("{"):
                return self.literal(rest, Topology.NNC)
        if text.startswith("{"):
            return self.literal(text, Topology.CLOSED)
        m = re.match(r"([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)$", text, re.S)
        if m is None:
            if text in self.env:
                return self.env[text]
            raise ParseError(f"unknown value {text!r}")
        func, inner = m.group(1), m.group(2)
        args = self._split_args(inner)
        return self.apply(func, args)

    @staticmethod
    def _split_args(inner: str) -> list[str]:
        args, depth, current = [], 0, []
        for ch in inner:
            if ch in "({":
                depth += 1
            elif ch in ")}":
                depth -= 1
            if ch == "," and depth == 0:
                args.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
        tail = "".join(current).strip()
        if tail:
            args.append(tail)
        return args

    def _poly(self, text: str) -> Polyhedron:
        v = self.expr(text)
        if not isinstance(v, Polyhedron):
            raise ParseError(f"expected a polyhedron, got {text!r}")
        return v

    def _linexpr(self, text: str, dim: int) -> LinExpr:
        return parse_linexpr(text, self.var_index(dim), dim)

    def apply(self, func: str, args: list[str]):
        if func == "hull":
            return self._poly(args[0]).poly_hull(self._poly(args[1]))
        if func == "meet":
            return self._poly(args[0]).intersection(self._poly(args[1]))
        if func == "widen":
            return standard_widening(self._poly(args[0]), self._poly(args[1]))
        if func == "elapse":
            return self._poly(args[0]).time_elapse(self._poly(args[1]))
        if func == "closure":
            return self._poly(args[0]).topological_closure()
        if func in ("image", "preimage"):
            p = self._poly(args[0])
            m = args[1].split(":=")
            if len(m) != 2:
                raise ParseError("expected 'var := expression'")
            var = m[0].strip()
            if var not in self.names:
                raise ParseError(f"unknown variable {var!r}")
            k = self.names.index(var)
            e = self._linexpr(m[1].strip(), p.dim)
            return p.affine_image(k, e) if func == "image" else p.affine_preimage(k, e)
        if func == "bimage":
            p = self._poly(args[0])
            var = args[1].strip()
            if var not in self.names:
                raise ParseError(f"unknown variable {var!r}")
            k = self.names.index(var)
            lo = None if args[2].strip() == "_" else self._linexpr(args[2], p.dim)
            hi = None if args[3].strip() == "_" else self._linexpr(args[3], p.dim)
            return p.bounded_affine_image(k, lo, hi)
        if func == "drop":
            p = self._poly(args[0])
            dims = [self.names.index(a.strip()) for a in args[1:]]
            return p.remove_dimensions(dims)
        if func == "embed":
            return self._poly(args[0]).add_dimensions(int(args[1]))
        if func == "concat":
            return self._poly(args[0]).concatenate(self._poly(args[1]))
        if func == "permute":
            return self._poly(args[0]).map_dimensions([int(a) for a in args[1:]])
        if func == "relimage":
            p = self._poly(args[0])
            rel_text = args[1].strip()
            if rel_text.startswith("{") or rel_text.startswith("nnc"):
                topology = Topology.NNC if rel_text.startswith("nnc") else Topology.CLOSED
                inner = rel_text[rel_text.index("{") + 1 : rel_text.rindex("}")]
                idx = {v: i for i, v in enumerate(self.names[: p.dim])}
                for i, v in enumerate(self.names[: p.dim]):
                    idx[f"{v}'"] = p.dim + i
                cs = parse_constraints(inner, idx, 2 * p.dim)
                rel = Polyhedron.from_constraints(2 * p.dim, topology, cs)
            else:
                rel = self._poly(args[1])
            return p.relation_image(rel)
        if func == "contains":
            return self._poly(args[0]).contains(self._poly(args[1]))
        if func == "equals":
            return self._poly(args[0]).equals(self._poly(args[1]))
        if func == "empty":
            return self._poly(args[0]).is_empty()
        if func == "universe":
            return self._poly(args[0]).is_universe()
        if func == "contains_point":
            p = self._poly(args[0])
            return p.contains_point([_number(a) for a in args[1:]])
        if func == "gens":
            return self._poly(args[0]).minimized_generators()
        raise ParseError(f"unknown operation {func!r}")


def _number(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {text.strip()!r}") from None


def cmd_poly(args) -> int:
    try:
        script = open(args.script).read() if args.script != "-" else sys.stdin.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        for line in _PolyScript().run(script):
            print(line)
    except (ParseError, ValueError, KeyError, IndexError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyinv",
        description="Polyhedra-based invariant analysis and hybrid-automata reachability",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="infer linear invariants for an .imp program")
    pa.add_argument("file")
    pa.add_argument("--assume", default="", help="initial constraints over the program variables")
    pa.add_argument("--domain", choices=["poly", "powerset"], default="poly")
    pa.add_argument("--delay", type=int, default=0, help="precision-preserving joins before widening")
    pa.add_argument("--cap", type=int, default=8, help="max disjuncts in the powerset domain")
    pa.add_argument("--format", choices=["text", "records"], default="text")
    pa.set_defaults(func=cmd_analyze)

    pr = sub.add_parser("reach", help="compute reachable regions of an .lha automaton")
    pr.add_argument("file")
    pr.add_argument("--domain", choices=["poly", "powerset"], default="poly")
    pr.add_argument("--delay", type=int, default=0)
    pr.add_argument("--cap", type=int, default=8)
    pr.add_argument("--max-iter", type=int, default=64, dest="max_iter")
    pr.add_argument("--project", default="", help="comma-separated variables to keep")
    pr.add_argument("--format", choices=["text", "records"], default="text")
    pr.set_defaults(func=cmd_reach)

    pp = sub.add_parser("poly", help="run a polyhedra calculator script ('-' for stdin)")
    pp.add_argument("script")
    pp.set_defaults(func=cmd_poly)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
