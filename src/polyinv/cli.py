"""Command-line driver: analyze, reach, poly.

Output is deterministic: constraints print with integer coefficients,
terms in declared variable order, equalities first, and systems sorted
by the canonical coefficient order.  `--format records` emits
tab-separated `kind<TAB>key<TAB>{constraints}` lines for tooling.

`poly` scripts use the shared lexer of `parse` and this grammar:

    script ::= (stmt | ';')*
    stmt   ::= 'vars' NAME (',' NAME)* ';' | 'print' expr ';' | NAME '=' expr ';'
    expr   ::= ['nnc'] '{' constraints '}' | NAME | NAME '(' expr (',' arg)* ')'

`_OPERATIONS` gives the kinds of each operation's further arguments.
A literal's dimension is the number of names: those of the `vars`
statements or, with none, those in the literals, in order.  Each
statement runs as soon as it is read, so a `print` writes its line
before a later statement fails.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Iterator

from . import imp
from .analyzer import AbstractStore, AnalysisError, AnalysisOptions, AnalysisResult, analyze
from .hybrid import (
    HybridAutomaton, NonConvergenceError, ReachOptions, ReachResult, parse_automaton, reach,
)
from .linalg import format_generator
from .parse import (
    ParseError, Token, Tokens, constraint_list, linear_expr, parse_constraints, relation_index,
)
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
        text = _read(args.file)
        opts = AnalysisOptions(domain=args.domain, delay=args.delay, cap=args.cap)
        program = imp.parse_program(text)
        names = list(program.variables)
        idx = {v: i for i, v in enumerate(names)}
        cs = parse_constraints(args.assume, idx, len(names)) if args.assume else []
        initial = AbstractStore.from_constraints(names, cs, opts.domain)
    except ValueError as e:
        return _input_error(e)
    try:
        result = analyze(program, initial, opts)
        lines = _store_lines(program, result, args.format == "records")
    except (AnalysisError, ArithmeticError) as e:
        return _engine_error(e)
    for line in lines:
        print(line)
    return 0


def _store_lines(program: imp.Program, result: AnalysisResult, records: bool) -> list[str]:
    """The printed lines of the stores at each program point and at the exit.

    Rendering converts, so it can hit the coefficient limit like the engine.
    """
    lines = []
    for stmt in sorted(program.statements(), key=lambda s: s.pid):
        pid, store = stmt.pid, result.entries.get(stmt.pid)
        if store is None:
            continue
        tag = " [loop]" if pid in result.loop_invariants else ""
        rendered = store.pretty()
        if records:
            lines.append(f"point\t{pid}\t{rendered}")
        else:
            lines.append(f"point {pid} ({stmt.line}:{stmt.col}){tag}: {rendered}")
    rendered = result.exit_store.pretty()
    lines.append(f"exit\t-\t{rendered}" if records else f"exit: {rendered}")
    return lines


def _read(path: str) -> str:
    """The UTF-8 text of the file at `path`; one that cannot be read is a ValueError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise ValueError(e) from None


def _input_error(e: ValueError) -> int:
    print(f"error: {e}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _engine_error(e: Exception) -> int:
    """Report an engine that gave up, such as on the coefficient limit."""
    print(f"engine error: {e}", file=sys.stderr)
    return EXIT_ENGINE_ERROR


# ---------------------------------------------------------------------------
# reach
# ---------------------------------------------------------------------------

def cmd_reach(args) -> int:
    try:
        automaton = parse_automaton(_read(args.file))
        names = list(automaton.variables)
        wanted = [v.strip() for v in args.project.split(",")] if args.project else names
        for v in wanted:
            if v not in names:
                raise ValueError(f"unknown variable {v!r} in --project")
        opts = ReachOptions(
            domain=args.domain, delay=args.delay, cap=args.cap, max_iter=args.max_iter
        )
    except ValueError as e:
        return _input_error(e)
    try:
        result = reach(automaton, opts)
        lines = _region_lines(automaton, result, wanted, args.format == "records")
    except NonConvergenceError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ArithmeticError as e:
        return _engine_error(e)
    for w in result.warnings:
        print(f"warning: {w}", file=sys.stderr)
    for line in lines:
        print(line)
    return 0


def _region_lines(
    automaton: HybridAutomaton, result: ReachResult, wanted: list[str], records: bool
) -> list[str]:
    """The printed lines of the reached regions, projected onto `wanted`.

    Rendering converts, so it can hit the coefficient limit like the engine.
    """
    names = list(automaton.variables)
    kept_names = [v for v in names if v in wanted]
    dropped = [i for i, v in enumerate(names) if v not in wanted]
    lines = []

    def proj(p: Polyhedron) -> str:
        return p.remove_dimensions(dropped).constraints_pretty(kept_names)

    def emit(key: str, label: str, rendered: str) -> None:
        lines.append(f"location\t{key}\t{rendered}" if records else f"{label}: {rendered}")

    for loc in automaton.locations:
        region = result.regions[loc.name]
        if isinstance(region, PolySet):
            for i, piece in enumerate(sorted(proj(p) for p in region.elements)):
                emit(f"{loc.name}[{i}]", f"{loc.name}[{i}]", piece)
            emit(loc.name, f"{loc.name} hull", proj(region.collapse()))
        else:
            emit(loc.name, loc.name, proj(region))
    if not records:
        lines.append(f"# converged in {result.iterations} sweeps")
    return lines


# ---------------------------------------------------------------------------
# poly: a desk calculator for the kernel
# ---------------------------------------------------------------------------

# Each operation's arguments after its first, a polyhedron p, by kind:
# `poly` a polyhedron, `var` one of p's variables, `assign` `var := e`,
# `bound` `_` or e, `int` INT, `relation` a literal over v and v' or a
# polyhedron, `coordinate` a rational; a starred kind takes any number.
_OPERATIONS = {
    "hull": (("poly",), Polyhedron.poly_hull),
    "meet": (("poly",), Polyhedron.intersection),
    "widen": (("poly",), standard_widening),
    "elapse": (("poly",), Polyhedron.time_elapse),
    "concat": (("poly",), Polyhedron.concatenate),
    "contains": (("poly",), Polyhedron.contains),
    "equals": (("poly",), Polyhedron.equals),
    "closure": ((), Polyhedron.topological_closure),
    "empty": ((), Polyhedron.is_empty),
    "universe": ((), Polyhedron.is_universe),
    "gens": ((), Polyhedron.minimized_generators),
    "image": (("assign",), lambda p, a: p.affine_image(*a)),
    "preimage": (("assign",), lambda p, a: p.affine_preimage(*a)),
    "bimage": (("var", "bound", "bound"), Polyhedron.bounded_affine_image),
    "embed": (("int",), Polyhedron.add_dimensions),
    "relimage": (("relation",), Polyhedron.relation_image),
    "drop": (("var*",), Polyhedron.remove_dimensions),
    "permute": (("int*",), Polyhedron.map_dimensions),
    "contains_point": (("coordinate*",), Polyhedron.contains_point),
}


class _PolyScript:
    """The `poly` calculator: named polyhedra, read as the module docstring says."""

    def __init__(self):
        self.names: list[str] = []
        self.env: dict[str, Polyhedron] = {}

    def var_index(self, dim: int) -> dict[str, int]:
        idx = {v: i for i, v in enumerate(self.names[:dim])}
        for i, v in enumerate(self.names[:dim]):
            idx.setdefault(f"d{v}", i)
        return idx

    def run(self, script: str) -> Iterator[str]:
        """Run the script, yielding each printed line as its statement runs."""
        ts = Tokens(script)
        self.names = _first_names(ts.tokens)
        while not ts.at_end():
            if ts.accept(";"):
                continue
            tok = ts.name()
            if tok[1] == "vars":
                ts.names()
            elif tok[1] == "print":
                value = self.expr(ts)
                ts.take(";")
                yield _at(tok, self.show, value)
            else:
                ts.take("=")
                self.env[tok[1]] = self.poly(ts, "only polyhedra can be named")
                ts.take(";")

    def show(self, value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, Polyhedron):
            return value.constraints_pretty(self.names[: value.dim])
        return "{" + ", ".join(format_generator(g) for g in value) + "}"

    def literal(self, ts: Tokens, dim: int, index: dict[str, int]) -> Polyhedron:
        start = ts.peek()
        topology = Topology.NNC if ts.accept("nnc") else Topology.CLOSED
        ts.take("{")
        cs = constraint_list(ts, index, dim, end=("}",))
        ts.take("}")
        return _at(start, Polyhedron.from_constraints, dim, topology, cs)

    def expr(self, ts: Tokens):
        if ts.at("{") or ts.at("nnc"):
            return self.literal(ts, len(self.names), self.var_index(len(self.names)))
        tok = ts.name()
        if not ts.at("("):
            if tok[1] not in self.env:
                raise ParseError(f"unknown value {tok[1]!r}", tok[2], tok[3])
            return self.env[tok[1]]
        if tok[1] not in _OPERATIONS:
            raise ParseError(f"unknown operation {tok[1]!r}", tok[2], tok[3])
        kinds, operation = _OPERATIONS[tok[1]]
        ts.enter()
        ts.take("(")
        args = [self.poly(ts)]
        for kind in kinds:
            if not kind.endswith("*"):
                ts.take(",")
                args.append(self.argument(ts, kind, args[0].dim))
                continue
            items = []
            while ts.accept(","):
                items.append(self.argument(ts, kind[:-1], args[0].dim))
            args.append(items)
        ts.take(")")
        ts.leave()
        return _at(tok, operation, *args)

    def poly(self, ts: Tokens, message: str = "expected a polyhedron") -> Polyhedron:
        start = ts.peek()
        value = self.expr(ts)
        if not isinstance(value, Polyhedron):
            raise ParseError(message, start[2], start[3])
        return value

    def argument(self, ts: Tokens, kind: str, dim: int):
        """An argument of `kind` after a polyhedron of dimension `dim`."""
        if kind == "relation" and (ts.at("{") or ts.at("nnc")):
            return self.literal(ts, 2 * dim, relation_index(self.names[:dim], dim))
        if kind in ("poly", "relation"):
            return self.poly(ts)
        if kind == "coordinate":
            return _coordinate(ts)
        if kind == "int":
            if ts.peek()[0] != "int":
                ts.error("expected an integer")
            return ts.integer(ts.take())
        if kind == "bound" and ts.accept("_"):
            return None
        if kind == "bound":
            return linear_expr(ts, self.var_index(dim), dim)
        tok = ts.name()
        if tok[1] not in self.names[:dim]:
            raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
        k = self.names.index(tok[1])
        if kind == "var":
            return k
        ts.take(":=")
        return k, linear_expr(ts, self.var_index(dim), dim)


def _first_names(tokens: list[Token]) -> list[str]:
    """The names of the `vars` statements or, with none, of the literals, in order.

    In a literal `x'` counts as `x`, and `d<v>` after `v` is no new name.
    """
    declared, seen, prev, where = [], [], ";", None
    for kind, text, _, _ in tokens:
        if text == "vars" and prev == ";" or text in ("{", "}", ";"):
            where = text
        elif kind == "name" and where in ("vars", "{"):
            (declared if where == "vars" else seen).append(text.rstrip("'"))
        prev = text
    if declared:
        return list(dict.fromkeys(declared))
    names: list[str] = []
    for name in seen:
        if name not in names and not (name.startswith("d") and name[1:] in names):
            names.append(name)
    return names


def _coordinate(ts: Tokens) -> Fraction:
    """`['-'] INT ['/' INT]`, quoted whole when it is not a number."""
    start = ts.take()
    num, text = start, start[1]
    if text == "-":
        num = ts.take()
        text += num[1]
    den, valid = None, num[0] == "int"
    if valid and ts.accept("/"):
        den = ts.take()
        text += "/" + den[1]
        valid = den[0] == "int" and ts.integer(den) != 0
    if not valid:
        raise ParseError(f"not a rational number: {text!r}", start[2], start[3])
    value = Fraction(ts.integer(num), ts.integer(den) if den else 1)
    return -value if start[1] == "-" else value


def _at(tok: Token, fn, *args):
    """`fn(*args)`, with a ValueError it raises reported at `tok`."""
    try:
        return fn(*args)
    except ValueError as e:
        raise ParseError(str(e), tok[2], tok[3]) from None


def cmd_poly(args) -> int:
    try:
        script = _read(args.script) if args.script != "-" else sys.stdin.read()
        for line in _PolyScript().run(script):
            print(line)
    except ValueError as e:
        return _input_error(e)
    except ArithmeticError as e:
        return _engine_error(e)
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
