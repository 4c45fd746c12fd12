"""The shared lexer and constraint grammar.

One lexical rule covers `.imp` programs, `.lha` automata, `poly` scripts
and constraint text such as `--assume`:

    INT  ::= [0-9]+
    NAME ::= [A-Za-z_][A-Za-z0-9_]* ["'"]
    OP   ::= ':=' | '->' | '<=' | '>=' | one of  < > = + - * / ( ) , ; : { }

Whitespace and `#` comments (to the end of the line) separate tokens;
any other character is a ParseError at its line:col.  Every parser
reads the tokens through a `Tokens` cursor, and `constraint_list` runs
on that cursor in place, so a constraint error reports its position in
the whole text:

    term       ::= INT | INT '*' VAR | VAR
    expr       ::= ['-'] term (('+'|'-') term)*
    rel        ::= '<' | '<=' | '=' | '>=' | '>'
    constraint ::= expr rel expr
    list       ::= [constraint (',' constraint)*]

Callers provide the identifier-to-dimension mapping; a primed name
such as `x'` is a variable only where the mapping has it.

Recursive parsers step into each nested construct with `Tokens.enter`,
and text nested more than MAX_DEPTH levels deep is a ParseError, so no
parser exceeds Python's recursion limit; the `.imp` parser bounds the
depth of the tree it builds by the same constant.
"""

from __future__ import annotations

import re
from typing import Mapping, NoReturn, Sequence

from .linalg import Constraint, LinExpr, constraint_from_exprs


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


MAX_DEPTH = 100  # the deepest nesting any input may have
TOO_DEEP = f"nesting deeper than {MAX_DEPTH} levels"

Token = tuple[str, str, int, int]  # (kind, text, line, col); kind in int/name/op (.imp adds kw)

# Within one line, whitespace and a comment are skipped as the prefix of
# the next token.  After the longest such prefix a token, a bad character
# or the end of the line follows, so the prefix never backtracks.
_TOKEN_RE = re.compile(
    r"(?:\s+|#.*)*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*'?)|(?P<int>[0-9]+)"
    r"|(?P<op>:=|->|<=|>=|[<>=+\-*/(),;:{}])|(?P<bad>\S)|\Z)"
)

_KINDS = (None, "name", "int", "op", "bad")  # by the group numbers of _TOKEN_RE

_RELATIONS = ("<", "<=", "=", ">=", ">")


def tokenize(text: str) -> list[Token]:
    """Split `text` into tokens by the rule above."""
    tokens = []
    for line, chars in enumerate(text.split("\n"), 1):
        for m in _TOKEN_RE.finditer(chars):
            group = m.lastindex
            if group is None:  # only whitespace and a comment were left
                break
            kind = _KINDS[group]
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group(group)!r}", line, m.start(group) + 1)
            tokens.append((kind, m.group(group), line, m.start(group) + 1))
    return tokens


class Tokens:
    """A cursor over the tokens of one text; its errors carry line:col."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0  # nested constructs entered and not yet left
        self.end = (text.count("\n") + 1, len(text) - text.rfind("\n"))

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[1] == text

    def accept(self, text: str) -> bool:
        """Take the next token if it has this text."""
        found = self.at(text)
        self.pos += found
        return found

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def error(self, message: str) -> NoReturn:
        """Raise `message` at the next token, naming what was found there."""
        tok = self.peek()
        if tok is None:
            raise ParseError(f"{message}, got end of input", *self.end)
        raise ParseError(f"{message}, got {tok[1]!r}", tok[2], tok[3])

    def enter(self) -> None:
        """Step into a nested construct that starts at the next token."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            tok = self.peek()
            raise ParseError(TOO_DEEP, *(tok[2:] if tok else self.end))

    def leave(self) -> None:
        self.depth -= 1

    def take(self, expect: str | None = None) -> Token:
        """Take the next token; with `expect`, it must have that text."""
        tok = self.peek()
        if tok is None or expect is not None and tok[1] != expect:
            after = f" after {self.tokens[self.pos - 1][1]!r}" if self.pos else ""
            self.error(f"expected {repr(expect) if expect else 'more input'}{after}")
        self.pos += 1
        return tok

    def name(self) -> Token:
        """Take an unprimed name."""
        tok = self.peek()
        if tok is None or tok[0] != "name":
            self.error("expected a name")
        if tok[1].endswith("'"):
            raise ParseError("unexpected character \"'\"", tok[2], tok[3] + len(tok[1]) - 1)
        self.pos += 1
        return tok

    def names(self) -> list[Token]:
        """Take `NAME (',' NAME)* ';'`."""
        out = [self.name()]
        while self.accept(","):
            out.append(self.name())
        self.take(";")
        return out


def _variable(ts: Tokens, var_index: Mapping[str, int], dim: int, what: str) -> LinExpr:
    tok = ts.peek()
    if tok is None or tok[0] != "name":
        ts.error(f"expected {what}")
    if tok[1] not in var_index:
        raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
    ts.take()
    return LinExpr.variable(var_index[tok[1]], dim)


def _term(ts: Tokens, var_index: Mapping[str, int], dim: int) -> LinExpr:
    tok = ts.peek()
    if tok is None or tok[0] != "int":
        return _variable(ts, var_index, dim, "a term")
    ts.take()
    if not ts.accept("*"):
        return LinExpr.constant(int(tok[1]), dim)
    return _variable(ts, var_index, dim, "a variable after '*'").scale(int(tok[1]))


def linear_expr(ts: Tokens, var_index: Mapping[str, int], dim: int) -> LinExpr:
    """`['-'] term (('+'|'-') term)*` at the cursor."""
    negate = ts.accept("-")
    acc = _term(ts, var_index, dim)
    if negate:
        acc = -acc
    while ts.at("+") or ts.at("-"):
        op = ts.take()[1]
        rhs = _term(ts, var_index, dim)
        acc = acc + rhs if op == "+" else acc - rhs
    return acc


def _constraint(ts: Tokens, var_index: Mapping[str, int], dim: int) -> Constraint:
    lhs = linear_expr(ts, var_index, dim)
    tok = ts.peek()
    if tok is None or tok[1] not in _RELATIONS:
        ts.error("expected a relation")
    ts.take()
    return constraint_from_exprs(lhs, tok[1], linear_expr(ts, var_index, dim))


def constraint_list(
    ts: Tokens, var_index: Mapping[str, int], dim: int, end: tuple[str, ...] = ()
) -> list[Constraint]:
    """Parse `[constraint (',' constraint)*]` up to the end of input or a token in `end`.

    The list is empty when the cursor already stands there; the caller
    takes whatever follows the list.
    """
    tok = ts.peek()
    if tok is None or tok[1] in end:
        return []
    out = [_constraint(ts, var_index, dim)]
    while ts.accept(","):
        out.append(_constraint(ts, var_index, dim))
    return out


def relation_index(names: Sequence[str], n: int) -> dict[str, int]:
    """The mapping of a relation on 2n dimensions: `names[i]` is i, and primed n + i."""
    index = {v: i for i, v in enumerate(names)}
    index.update((f"{v}'", n + i) for i, v in enumerate(names))
    return index


def parse_constraints(text: str, var_index: Mapping[str, int], dim: int) -> list[Constraint]:
    """Parse a comma-separated constraint list; '{...}' braces optional."""
    ts = Tokens(text)
    braced = ts.accept("{")
    out = constraint_list(ts, var_index, dim, end=("}",) if braced else ())
    if braced:
        ts.take("}")
    if not ts.at_end():
        ts.error("expected ','")
    return out
