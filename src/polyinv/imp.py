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
parser builds each node once, with its pre-order pid: the descent
returns plain tuples, and one pass over them makes the nodes.  The
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

_KEYWORDS = frozenset({"skip", "if", "then", "else", "while", "do", "true", "false", "vars"})


class _Parser(Tokens):
    """The descent returns each node as a tuple `(cls, line, col, *fields)`,
    a sequence of two or more statements as `(Seq, line, col, [statements])`;
    `_build` makes the nodes."""

    def __init__(self, text: str):
        super().__init__(text, _KEYWORDS)
        self.declared: list[str] | None = None  # the `vars` header, if any

    def variable(self) -> Token:
        tok = self.name()
        if self.declared is not None and tok[1] not in self.declared:
            raise ParseError(f"undeclared variable {tok[1]!r}", tok[2], tok[3])
        return tok

    # expressions -----------------------------------------------------------

    def atom(self) -> tuple:
        tok = self.tokens[self.pos]
        kind, text, line, col = tok
        if kind == "int":
            self.pos += 1
            return IntLit, line, col, self.integer(tok)
        if text == "-" or text == "(":
            self.enter()
            self.pos += 1
            if text == "-":
                e = BinOp, line, col, "-", (IntLit, line, col, 0), self.atom()
            else:
                e = self.aexp()
                self.take(")")
            self.leave()
            return e
        if kind == "name":
            return Var, line, col, self.variable()[1]
        self.error("expected an expression")

    def mul(self) -> tuple:
        e = self.atom()
        while self.tokens[self.pos][1] == "*":
            _, _, line, col = self.tokens[self.pos]
            self.pos += 1
            e = BinOp, line, col, "*", e, self.atom()
        return e

    def aexp(self) -> tuple:
        e = self.mul()
        while self.tokens[self.pos][1] in ("+", "-"):
            _, op, line, col = self.tokens[self.pos]
            self.pos += 1
            e = BinOp, line, col, op, e, self.mul()
        return e

    def bexp(self) -> tuple:
        _, text, line, col = self.tokens[self.pos]
        if text == "true" or text == "false":
            self.pos += 1
            return BoolLit, line, col, text == "true"
        left = self.aexp()
        _, op, line, col = self.tokens[self.pos]
        if op != "=" and op != "<":
            self.error("expected '=' or '<'")
        self.pos += 1
        return Compare, line, col, op, left, self.aexp()

    # statements --------------------------------------------------------------

    def body(self) -> tuple:
        """An `if` or `while` body, or a braced block in a sequence: one level deeper."""
        self.enter()
        if self.accept("{"):
            s = self.sequence(until="}")
            self.take("}")
        else:
            s = self.statement()
        self.leave()
        return s

    def statement(self) -> tuple:
        kind, text, line, col = self.tokens[self.pos]
        if text == "skip":
            self.pos += 1
            return Skip, line, col
        if text == "if":
            self.pos += 1
            cond = self.bexp()
            self.take("then")
            then = self.body()
            self.take("else")
            return If, line, col, cond, then, self.body()
        if text == "while":
            self.pos += 1
            cond = self.bexp()
            self.take("do")
            return While, line, col, cond, self.body()
        if kind == "name":
            name = self.variable()[1]
            self.take(":=")
            return Assign, line, col, name, self.aexp()
        self.error("expected a statement")

    def sequence(self, until: str = "") -> tuple:
        """Statements up to the token with text `until`; "" is the end of input."""
        stmts = [self.body() if self.at("{") else self.statement()]
        while self.accept(";"):
            if self.at(until):
                break  # trailing separator
            stmts.append(self.body() if self.at("{") else self.statement())
        first = stmts[0]
        return first if len(stmts) == 1 else (Seq, first[1], first[2], stmts)


def _build(tree: tuple) -> Stmt:
    """The nodes of the parser's tuples, each built once with its pre-order pid.

    A node deeper than MAX_DEPTH is an error at it.  The statements of a
    sequence but the last are each a `first` one level down, and the last
    is the chain's final `second` at the chain's own depth.
    """
    pids = count()

    def build(t: tuple, depth: int):
        if depth > MAX_DEPTH:
            raise ParseError(TOO_DEEP, t[1], t[2])
        cls = t[0]
        if cls is Seq:
            stmts = t[3]
            spine = [(next(pids), build(s, depth + 1)) for s in stmts[:-1]]
            out = build(stmts[-1], depth)
            for pid, first in reversed(spine):
                out = Seq(pid, first.line, first.col, first, out)
            return out
        pid = next(pids)
        if len(t) < 5:  # Skip, or a literal or variable and its value
            return cls(pid, *t[1:])
        depth += 1
        if cls is Assign:
            return Assign(pid, t[1], t[2], t[3], build(t[4], depth))
        if cls is BinOp or cls is Compare:
            return cls(pid, t[1], t[2], t[3], build(t[4], depth), build(t[5], depth))
        return cls(pid, t[1], t[2], *[build(v, depth) for v in t[3:]])  # If, While

    return build(tree, 1)


def parse_program(text: str) -> Program:
    parser = _Parser(text)
    if parser.accept("vars"):
        parser.declared = []
        for tok in parser.names():
            if tok[1] in parser.declared:
                raise ParseError(f"duplicate variable {tok[1]!r}", tok[2], tok[3])
            parser.declared.append(tok[1])
    tree = parser.sequence()
    if not parser.at_end():
        parser.error("expected ';'")
    body = _build(tree)
    if parser.declared is not None:
        return Program(tuple(parser.declared), body)
    # every name token is a Var or an Assign's target, in pre-order
    return Program(tuple(dict.fromkeys(t[1] for t in parser.tokens if t[0] == "name")), body)


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
