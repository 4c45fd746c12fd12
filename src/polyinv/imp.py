"""A small imperative language: parser, AST, concrete interpreter.

Statements are skip, assignment, sequencing, if-then-else and while;
arithmetic is +, -, * over unbounded integers and tests are = and <.
Concrete syntax::

    # optional declaration; otherwise variables are declared in order
    # of first appearance
    vars x0, x1;
    while 0 < x0 do {
      x1 := x1 + 2;
      x0 := x0 - x1
    }

Every AST node carries a stable pre-order index (`pid`) used by the
analyzer as the program-point id, plus the source line/column.  The
interpreter is big-step with a fuel bound: each statement execution and
loop iteration costs one unit, and exhaustion reports divergence, so
every infinite run is caught by any finite fuel.

A sequence is a right-leaning chain of binary `Seq` nodes, and every
walk loops along that chain, so a program may have any number of
statements.  Every other edge of the tree is one level of nesting:
a tree deeper than `parse.MAX_DEPTH` is a ParseError, which keeps the
walks that recurse on those edges inside Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable, Iterator

from .parse import MAX_DEPTH, TOO_DEEP, ParseError, Token, Tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    pid: int
    line: int
    col: int


@dataclass(frozen=True)
class Aexp(Node):
    pass


@dataclass(frozen=True)
class IntLit(Aexp):
    value: int


@dataclass(frozen=True)
class Var(Aexp):
    name: str


@dataclass(frozen=True)
class BinOp(Aexp):
    op: str  # '+', '-', '*'
    left: Aexp
    right: Aexp


@dataclass(frozen=True)
class Bexp(Node):
    pass


@dataclass(frozen=True)
class BoolLit(Bexp):
    value: bool


@dataclass(frozen=True)
class Compare(Bexp):
    op: str  # '=', '<'
    left: Aexp
    right: Aexp


@dataclass(frozen=True)
class Stmt(Node):
    pass


@dataclass(frozen=True)
class Skip(Stmt):
    pass


@dataclass(frozen=True)
class Assign(Stmt):
    name: str
    expr: Aexp


@dataclass(frozen=True)
class Seq(Stmt):
    first: Stmt
    second: Stmt


@dataclass(frozen=True)
class If(Stmt):
    cond: Bexp
    then: Stmt
    orelse: Stmt


@dataclass(frozen=True)
class While(Stmt):
    cond: Bexp
    body: Stmt


@dataclass(frozen=True)
class Program:
    variables: tuple[str, ...]
    body: Stmt

    def statements(self) -> Iterator[Stmt]:
        yield from walk_statements(self.body)


def _fields(node: Node) -> list:
    """The values of the fields after pid, line and col, in pid order."""
    return [getattr(node, f) for f in node.__match_args__[3:]]


def walk_statements(s: Stmt) -> Iterator[Stmt]:
    """The statements of the tree rooted at s, s first, in pre-order."""
    while isinstance(s, Seq):
        yield s
        yield from walk_statements(s.first)
        s = s.second
    yield s
    if isinstance(s, If):
        yield from walk_statements(s.then)
        yield from walk_statements(s.orelse)
    elif isinstance(s, While):
        yield from walk_statements(s.body)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_KEYWORDS = {"skip", "if", "then", "else", "while", "do", "true", "false", "vars"}


class _Parser(Tokens):
    def __init__(self, text: str):
        super().__init__(text)
        self.tokens = [("kw", *t[1:]) if t[1] in _KEYWORDS else t for t in self.tokens]
        self.declared: list[str] | None = None  # the `vars` header, if any

    def variable(self) -> Token:
        tok = self.name()
        if self.declared is not None and tok[1] not in self.declared:
            raise ParseError(f"undeclared variable {tok[1]!r}", tok[2], tok[3])
        return tok

    # expressions -----------------------------------------------------------
    # Nodes are built with pid 0; `_renumber` assigns the pre-order pids.

    def atom(self) -> Aexp:
        tok = self.peek()
        if tok is None:
            self.error("expected an expression")
        kind, text, line, col = tok
        if kind == "int":
            self.take()
            return IntLit(0, line, col, int(text))
        if text in ("-", "("):
            self.enter()
            self.take()
            if text == "-":
                e = BinOp(0, line, col, "-", IntLit(0, line, col, 0), self.atom())
            else:
                e = self.aexp()
                self.take(")")
            self.leave()
            return e
        if kind == "name":
            return Var(0, line, col, self.variable()[1])
        self.error("expected an expression")

    def mul(self) -> Aexp:
        e = self.atom()
        while self.at("*"):
            _, _, line, col = self.take()
            e = BinOp(0, line, col, "*", e, self.atom())
        return e

    def aexp(self) -> Aexp:
        e = self.mul()
        while self.at("+") or self.at("-"):
            _, op, line, col = self.take()
            e = BinOp(0, line, col, op, e, self.mul())
        return e

    def bexp(self) -> Bexp:
        tok = self.peek()
        if tok is not None and tok[1] in ("true", "false"):
            self.take()
            return BoolLit(0, tok[2], tok[3], tok[1] == "true")
        left = self.aexp()
        if not (self.at("=") or self.at("<")):
            self.error("expected '=' or '<'")
        _, op, line, col = self.take()
        return Compare(0, line, col, op, left, self.aexp())

    # statements --------------------------------------------------------------

    def body(self) -> Stmt:
        """An `if` or `while` body, or a braced block in a sequence: one level deeper."""
        self.enter()
        if self.accept("{"):
            s = self.sequence(until="}")
            self.take("}")
        else:
            s = self.statement()
        self.leave()
        return s

    def element(self) -> Stmt:
        return self.body() if self.at("{") else self.statement()

    def statement(self) -> Stmt:
        tok = self.peek()
        if tok is None:
            self.error("expected a statement")
        kind, text, line, col = tok
        if text == "skip":
            self.take()
            return Skip(0, line, col)
        if text == "if":
            self.take()
            cond = self.bexp()
            self.take("then")
            then = self.body()
            self.take("else")
            return If(0, line, col, cond, then, self.body())
        if text == "while":
            self.take()
            cond = self.bexp()
            self.take("do")
            return While(0, line, col, cond, self.body())
        if kind == "name":
            name = self.variable()[1]
            self.take(":=")
            return Assign(0, line, col, name, self.aexp())
        self.error("expected a statement")

    def sequence(self, until: str | None = None) -> Stmt:
        stmts = [self.element()]
        while self.accept(";"):
            if self.at(until) if until is not None else self.at_end():
                break  # trailing separator
            stmts.append(self.element())
        out = stmts[-1]
        for s in reversed(stmts[:-1]):
            out = Seq(0, s.line, s.col, s, out)
        return out


def _renumber(program_body: Stmt) -> Stmt:
    """Assign stable pre-order pids over the whole tree, and bound its depth."""
    pids = count()

    def visit(node, depth):
        if depth > MAX_DEPTH:
            raise ParseError(TOO_DEEP, node.line, node.col)
        spine = []  # each Seq of the chain, with its pid and its renumbered first
        while isinstance(node, Seq):
            pid = next(pids)
            spine.append((node, pid, visit(node.first, depth + 1)))
            node = node.second
        pid = next(pids)
        values = [visit(v, depth + 1) if isinstance(v, Node) else v for v in _fields(node)]
        out = type(node)(pid, node.line, node.col, *values)
        for seq, pid, first in reversed(spine):
            out = Seq(pid, seq.line, seq.col, first, out)
        return out

    return visit(program_body, 1)


def _collect_vars(s, acc: list[str]) -> None:
    while isinstance(s, Seq):
        _collect_vars(s.first, acc)
        s = s.second
    if isinstance(s, (Var, Assign)) and s.name not in acc:
        acc.append(s.name)
    for v in _fields(s):
        if isinstance(v, Node):
            _collect_vars(v, acc)


def parse_program(text: str) -> Program:
    parser = _Parser(text)
    if parser.accept("vars"):
        parser.declared = []
        for tok in parser.names():
            if tok[1] in parser.declared:
                raise ParseError(f"duplicate variable {tok[1]!r}", tok[2], tok[3])
            parser.declared.append(tok[1])
    body = parser.sequence()
    if not parser.at_end():
        parser.error("expected ';'")
    body = _renumber(body)
    declared = parser.declared
    if declared is None:
        declared = []
        _collect_vars(body, declared)
    return Program(tuple(declared), body)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

def format_aexp(e: Aexp, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    assert isinstance(e, BinOp)
    prec = 2 if e.op == "*" else 1
    left = format_aexp(e.left, prec)
    right = format_aexp(e.right, prec + 1)
    text = f"{left} {e.op} {right}"
    return f"({text})" if prec < parent_prec else text


def format_bexp(b: Bexp) -> str:
    if isinstance(b, BoolLit):
        return "true" if b.value else "false"
    assert isinstance(b, Compare)
    return f"{format_aexp(b.left)} {b.op} {format_aexp(b.right)}"


def format_stmt(s: Stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(s, Skip):
        return f"{pad}skip"
    if isinstance(s, Assign):
        return f"{pad}{s.name} := {format_aexp(s.expr)}"
    if isinstance(s, Seq):
        parts = []
        while isinstance(s, Seq):
            parts.append(format_stmt(s.first, indent))
            s = s.second
        return ";\n".join(parts + [format_stmt(s, indent)])
    if isinstance(s, If):
        return (
            f"{pad}if {format_bexp(s.cond)} then {{\n"
            f"{format_stmt(s.then, indent + 1)}\n{pad}}} else {{\n"
            f"{format_stmt(s.orelse, indent + 1)}\n{pad}}}"
        )
    assert isinstance(s, While)
    return (
        f"{pad}while {format_bexp(s.cond)} do {{\n"
        f"{format_stmt(s.body, indent + 1)}\n{pad}}}"
    )


def format_program(p: Program) -> str:
    header = "vars " + ", ".join(p.variables) + ";\n" if p.variables else ""
    return header + format_stmt(p.body) + "\n"


# ---------------------------------------------------------------------------
# Concrete interpreter
# ---------------------------------------------------------------------------

class Divergence:
    """Sentinel: the computation did not finish within the given fuel."""

    def __repr__(self):
        return "DIVERGENCE"


DIVERGENCE = Divergence()

ConcreteStore = dict[str, int]


class _OutOfFuel(Exception):
    pass


def eval_aexp(e: Aexp, store: ConcreteStore) -> int:
    if isinstance(e, IntLit):
        return e.value
    if isinstance(e, Var):
        return store[e.name]
    assert isinstance(e, BinOp)
    l = eval_aexp(e.left, store)
    r = eval_aexp(e.right, store)
    if e.op == "+":
        return l + r
    if e.op == "-":
        return l - r
    return l * r


def eval_bexp(b: Bexp, store: ConcreteStore) -> bool:
    if isinstance(b, BoolLit):
        return b.value
    assert isinstance(b, Compare)
    l = eval_aexp(b.left, store)
    r = eval_aexp(b.right, store)
    return l == r if b.op == "=" else l < r


def exec_program(
    program: Program,
    store: ConcreteStore,
    fuel: int,
    on_loop_entry: Callable[[int, ConcreteStore], None] | None = None,
):
    """Big-step execution; returns the final store or DIVERGENCE.

    `on_loop_entry(pid, store)` is called each time a while guard is
    about to be evaluated, which lets tests trace loop-head stores.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive at entry")
    if set(store) != set(program.variables):
        raise ValueError("store domain must equal the declared variables")
    budget = [fuel]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise _OutOfFuel()

    def run(s: Stmt, sto: ConcreteStore) -> ConcreteStore:
        while isinstance(s, Seq):
            spend()
            sto = run(s.first, sto)
            s = s.second
        spend()
        if isinstance(s, Skip):
            return sto
        if isinstance(s, Assign):
            value = eval_aexp(s.expr, sto)
            out = dict(sto)
            out[s.name] = value
            return out
        if isinstance(s, If):
            branch = s.then if eval_bexp(s.cond, sto) else s.orelse
            return run(branch, sto)
        assert isinstance(s, While)
        while True:
            if on_loop_entry is not None:
                on_loop_entry(s.pid, sto)
            if not eval_bexp(s.cond, sto):
                return sto
            sto = run(s.body, sto)
            spend()  # one unit per completed iteration

    try:
        return run(program.body, dict(store))
    except _OutOfFuel:
        return DIVERGENCE
