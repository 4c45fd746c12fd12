"""Parser for the shared linear-constraint text grammar.

    term       ::= INT | INT '*' VAR | VAR
    expr       ::= ['-'] term (('+'|'-') term)*
    rel        ::= '<' | '<=' | '=' | '>=' | '>'
    constraint ::= expr rel expr

Variables are identifiers (a trailing apostrophe is allowed so the
hybrid-automata format can write primed variables); whitespace is
insignificant.  Callers provide the identifier-to-dimension mapping.
"""

from __future__ import annotations

import re
from typing import Mapping

from .linalg import Constraint, LinExpr, constraint_from_exprs


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*'?)"
    r"|(?P<op><=|>=|[<>=+\-*(),;:])|(?P<bad>\S))"
)


def tokenize(text: str, *, line: int = 1, col: int = 1) -> list[tuple[str, str, int, int]]:
    """Return (kind, text, line, col) tuples; kind in int/name/op."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        for ch in text[pos : m.start(m.lastgroup)]:
            if ch == "\n":
                line, col = line + 1, 1
            else:
                col += 1
        if m.lastgroup == "bad":
            raise ParseError(f"unexpected character {m.group('bad')!r}", line, col)
        tokens.append((m.lastgroup, m.group(m.lastgroup), line, col))
        for ch in text[m.start(m.lastgroup) : m.end()]:
            if ch == "\n":
                line, col = line + 1, 1
            else:
                col += 1
        pos = m.end()
    return tokens


class _ExprParser:
    def __init__(self, tokens, var_index: Mapping[str, int], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.vars = var_index
        self.dim = dim

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return tok

    def error(self, message: str):
        tok = self.peek()
        if tok is None:
            raise ParseError(message)
        raise ParseError(f"{message} (got {tok[1]!r})", tok[2], tok[3])

    def variable(self, name: str, line: int, col: int) -> LinExpr:
        if name not in self.vars:
            raise ParseError(f"unknown variable {name!r}", line, col)
        return LinExpr.variable(self.vars[name], self.dim)

    def term(self) -> LinExpr:
        tok = self.peek()
        if tok is None:
            self.error("expected a term")
        kind, text, line, col = tok
        if kind == "int":
            self.take()
            nxt = self.peek()
            if nxt is not None and nxt[1] == "*":
                self.take()
                name_tok = self.take()
                if name_tok[0] != "name":
                    raise ParseError("expected a variable after '*'", name_tok[2], name_tok[3])
                return self.variable(name_tok[1], name_tok[2], name_tok[3]).scale(int(text))
            return LinExpr.constant(int(text), self.dim)
        if kind == "name":
            self.take()
            return self.variable(text, line, col)
        self.error("expected a term")

    def expr(self) -> LinExpr:
        tok = self.peek()
        negate = False
        if tok is not None and tok[1] == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            tok = self.peek()
            if tok is None or tok[1] not in ("+", "-"):
                return acc
            op = self.take()[1]
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs

    def relation(self) -> str:
        tok = self.take()
        if tok[1] not in ("<", "<=", "=", ">=", ">"):
            raise ParseError(f"expected a relation, got {tok[1]!r}", tok[2], tok[3])
        return tok[1]

    def constraint(self) -> Constraint:
        lhs = self.expr()
        rel = self.relation()
        rhs = self.expr()
        return constraint_from_exprs(lhs, rel, rhs)

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)


def parse_linexpr(text: str, var_index: Mapping[str, int], dim: int) -> LinExpr:
    p = _ExprParser(tokenize(text), var_index, dim)
    e = p.expr()
    if not p.at_end():
        p.error("trailing input after expression")
    return e


def parse_constraint(text: str, var_index: Mapping[str, int], dim: int) -> Constraint:
    p = _ExprParser(tokenize(text), var_index, dim)
    c = p.constraint()
    if not p.at_end():
        p.error("trailing input after constraint")
    return c


def parse_constraints(text: str, var_index: Mapping[str, int], dim: int) -> list[Constraint]:
    """Parse a comma-separated constraint list; '{...}' braces optional."""
    text = text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    if not text.strip():
        return []
    out = []
    for chunk in text.split(","):
        out.append(parse_constraint(chunk, var_index, dim))
    return out
