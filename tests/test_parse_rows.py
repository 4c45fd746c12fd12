"""The constraint grammar reads integer rows.

Random constraint texts (signs, ``INT*VAR`` terms, all five relations,
braces, ``#`` comments, unknown names, truncated and edited input) must
give the same constraints as the grammar in Fractions of
``tests/oracles.py``, or the same ParseError at the same line:col.  And
parsing the shipped models, an ``--assume`` text and a ``poly`` script
of images builds no ``Fraction``.
"""

from unittest.mock import patch

from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv import parse
from polyinv.cli import _PolyScript
from polyinv.hybrid import parallel_compose, parse_automaton
from polyinv.parse import ParseError, Tokens, linear_expr, parse_constraints

from .oracles import fraction_constraint, fraction_linear_expr
from .paths import example_text

INDEX = {"x": 0, "y": 1, "z": 2}
DIM = 3
FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)

NAMES = st.sampled_from(["x", "y", "z"] * 10 + ["w", "x'"])  # w and x' are unknown
NUMBERS = st.integers(0, 30) | st.integers(0, 10**30)
GAPS = st.sampled_from(["", " ", " ", "\n", "  # a comment\n", "\t"])
VOCAB = ["x", "y", "7", "-", "+", "*", "<", "<=", "=", ">=", ">", ",", "{", "}", "#", "'", "?"]


@st.composite
def terms(draw):
    kind = draw(st.sampled_from(["int", "scaled", "var"]))
    if kind == "var":
        return [draw(NAMES)]
    number = str(draw(NUMBERS))
    return [number] if kind == "int" else [number, "*", draw(NAMES)]


@st.composite
def expressions(draw):
    tokens = ["-"] if draw(st.booleans()) else []
    tokens += draw(terms())
    for _ in range(draw(st.integers(0, 4))):
        tokens += [draw(st.sampled_from("+-")), *draw(terms())]
    return tokens


@st.composite
def constraint_tokens(draw):
    tokens = []
    for i in range(draw(st.sampled_from([0, 1, 2, 2, 3, 3]))):
        tokens += [","] if i else []
        tokens += draw(expressions())
        tokens += [draw(st.sampled_from(["<", "<=", "=", ">=", ">"])), *draw(expressions())]
    return ["{", *tokens, "}"] if draw(st.booleans()) else tokens


@st.composite
def texts(draw, tokens):
    """The tokens, a few of them edited, joined by whitespace and comments,
    the text then maybe cut short."""
    tokens = list(draw(tokens))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op == "insert":
            tokens.insert(i, draw(st.sampled_from(VOCAB)))
        elif i < len(tokens):
            tokens[i : i + 1] = [] if op == "delete" else [draw(st.sampled_from(VOCAB))]
    text = "".join(tok + draw(GAPS) for tok in tokens)
    if draw(st.integers(0, 4)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ParseError as e:
        return "error", str(e), e.line, e.col


@FUZZ
@given(texts(constraint_tokens()))
def test_constraints_match_the_fraction_grammar(text):
    got = outcome(lambda t: parse_constraints(t, INDEX, DIM), text)
    with patch.object(parse, "_constraint", fraction_constraint):
        expected = outcome(lambda t: parse_constraints(t, INDEX, DIM), text)
    assert got == expected


def read_expression(read, text):
    """An expression read at the start of ``text``, and the cursor after it."""
    ts = Tokens(text)
    return read(ts, INDEX, DIM), ts.pos


@FUZZ
@given(texts(expressions()))
def test_an_expression_is_the_row_of_its_fraction_form(text):
    got = outcome(lambda t: read_expression(linear_expr, t), text)
    expected = outcome(lambda t: read_expression(fraction_linear_expr, t), text)
    if expected[0] != "error":
        (coeffs, const), pos = expected
        expected = [const, *coeffs], pos
    assert got == expected


POLY_SCRIPT = """
vars x, y;
a = {x >= 0, x <= 2, y = 0};
print image(a, x := 2*x - y + 1);
print preimage(a, x := -x + 2);
print bimage(a, y, -x, x + 4);
print bimage(a, x, _, 3*y - 1);
print relimage(a, {x' = x + y, y' >= 2*y - 1});
"""


def test_parsing_builds_no_fraction(fractions_built):
    names = ["water.lha", "fischer.lha", "task.lha", "interrupt.lha", "scheduler.lha"]
    models = {name: parse_automaton(example_text(name)) for name in names}
    product = parallel_compose(models["task.lha"], models["interrupt.lha"])
    assume = parse_constraints("{x >= 0, -y + 2*x < 3 # a comment\n, x = y}", INDEX, DIM)
    lines = list(_PolyScript().run(POLY_SCRIPT))
    assert fractions_built == []
    assert len(product.locations) == len(models["task.lha"].locations) and len(assume) == 3
    assert lines == [
        "{y=0, x<=5, x>=1}",
        "{y=0, x<=2, x>=0}",
        "{x<=2, x-y>=-4, x>=0, x+y>=0}",
        "{y=0, x<=-1}",
        "{x<=2, y>=-1, x>=0}",
    ]
