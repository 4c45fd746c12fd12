"""Parser fuzzing: any text either parses or raises a ParseError with line:col.

Texts are token soup drawn from each format's vocabulary, plus valid
texts with a few words inserted, deleted or replaced, which reach the
parsers' deeper states.  The runs are derandomized so the suite stays
deterministic.  `poly` scripts also run, and any error they end in must
be a ParseError with line:col too.  Programs nested past the depth
bound, and very long ones, go through the command line.
"""

import io
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.cli import _PolyScript, main
from polyinv.hybrid import parse_automaton
from polyinv.imp import parse_program
from polyinv.parse import MAX_DEPTH, ParseError, parse_constraints

SHARED = [
    "x", "y", "x'", "x''", "0", "23", "-", "+", "*", "<", "<=", "=", ">=", ">", ",", ";",
    ":", ":=", "->", "{", "}", "(", ")", "#c\n", "²", "٣",
]
STRAY = ["é", ".", "'", "?"]  # other characters no format accepts
IMP = SHARED + ["skip", "if", "then", "else", "while", "do", "true", "false", "vars"]
LHA = SHARED + [
    "vars", "label", "location", "transition", "widen", "sync", "a", "b", "dx",
    "invariant", "rate", "init", "guard", "update",
]

IMP_TEXT = (
    "vars x, y ; y := 0 ; while 0 < x do { if y < x then y := y + 2 * x else skip ;"
    " x := x - ( 1 ) } ;"
)
LHA_PREFIX = "vars x, y;\nlocation a { rate: dx = 1, dy = 0; }\n"
LHA_TEXT = (
    "vars x , y ; label go ; location a { invariant: x <= 3 ; rate: dx = 1 , dy = 0 ;"
    " init: x = 0 , y = 0 } location b { rate: dx = 1 , dy = -1 ; }"
    " transition a -> b sync go { guard: x = 3 ; update: x' = 0 , y' = y + 1 ; }"
    " widen: a , b ;"
)
CONSTRAINT_TEXT = "{ x >= 0 , 2 * x - y < 3 , - x + 1 = y }"
POLY = SHARED + [
    "/", "1", "_", "a", "b", "dx", "nnc", "vars", "print", "hull", "meet", "widen", "elapse",
    "closure", "image", "preimage", "bimage", "drop", "embed", "concat", "permute", "relimage",
    "contains", "equals", "empty", "universe", "contains_point", "gens",
]
POLY_TEXT = (
    "vars x , y ; a = { x >= 0 , x <= 2 , y = 0 } ; b = nnc { x > 0 } ; print a ;"
    " print gens ( a ) ; print image ( a , x := x + 1 ) ; print bimage ( a , y , x , _ ) ;"
    " print drop ( a , y ) ; print embed ( drop ( a , y ) , 1 ) ; print permute ( a , 1 , 0 ) ;"
    " print relimage ( drop ( a , y ) , { x = 2 , x' = 0 } ) ; print closure ( b ) ;"
    " print contains_point ( a , 1 , -1/2 ) ; print elapse ( a , { dx = 1 , dy = 0 } ) ;"
    " print widen ( a , hull ( a , meet ( a , a ) ) ) ;"
    " print concat ( drop ( a , y ) , drop ( a , x ) ) ;"
)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)


def soup(vocab):
    pieces = st.tuples(st.sampled_from(vocab), st.sampled_from(["", " ", "\n"]))
    return st.lists(pieces, max_size=30).map(lambda ps: "".join(a + b for a, b in ps))


def mutants(text, vocab):
    words = text.split(" ")
    edit = st.tuples(
        st.integers(0, len(words)), st.sampled_from(["insert", "delete", "replace"]),
        st.sampled_from(vocab + STRAY),
    )

    def apply(edits):
        out = list(words)
        for i, op, word in edits:
            if op == "insert":
                out.insert(i, word)
            elif i < len(out):
                out[i : i + 1] = [] if op == "delete" else [word]
        return " ".join(out)

    return st.lists(edit, min_size=1, max_size=4).map(apply)


def parses_or_raises_parse_error(parse, text):
    try:
        parse(text)
    except ParseError as e:
        assert e.line is not None and e.col is not None, str(e)


@FUZZ
@given(st.one_of(soup(IMP), mutants(IMP_TEXT, IMP)))
def test_imp_text_parses_or_raises_parse_error(text):
    parses_or_raises_parse_error(parse_program, text)


@FUZZ
@given(st.one_of(soup(LHA).map(LHA_PREFIX.__add__), mutants(LHA_TEXT, LHA)))
def test_lha_text_parses_or_raises_parse_error(text):
    parses_or_raises_parse_error(parse_automaton, text)


@FUZZ
@given(st.one_of(soup(SHARED), mutants(CONSTRAINT_TEXT, SHARED)))
def test_constraint_text_parses_or_raises_parse_error(text):
    parses_or_raises_parse_error(lambda t: parse_constraints(t, {"x": 0, "y": 1}, 2), text)


def run_poly(text):
    return list(_PolyScript().run(text))


@FUZZ
@given(st.one_of(soup(POLY), mutants(POLY_TEXT, POLY)))
def test_poly_script_runs_or_raises_parse_error(text):
    try:
        run_poly(text)
    except ValueError as e:
        assert isinstance(e, ParseError) and e.line is not None and e.col is not None, repr(e)


def test_the_valid_texts_parse():
    parse_program(IMP_TEXT)
    parse_automaton(LHA_TEXT)
    assert len(parse_constraints(CONSTRAINT_TEXT, {"x": 0, "y": 1}, 2)) == 3
    assert len(run_poly(POLY_TEXT)) == 13


LONG_AND_DEEP = {
    "1,200 statements": ("analyze", "vars x;\n" + ";\n".join(["x := x + 1"] * 1200), 0),
    "300 braced ifs": (
        "analyze", "vars x;\n" + "if 0 < x then {\n" * 300 + "x := 1" + "\n} else { skip }" * 300,
        1,
    ),
    "400 whiles": ("analyze", "vars x;\n" + "while 0 < x do {\n" * 400 + "skip" + "\n}" * 400, 1),
    "1,200 parentheses": ("analyze", "vars x;\nx := " + "(" * 1200 + "x" + ")" * 1200, 1),
    "1,200-term sum": ("analyze", "vars x;\nx := " + " + ".join(["x"] * 1200), 1),
    "1,200 nested operations": (
        "poly", "vars x;\na = {x>=0};\nprint " + "hull(a, " * 1200 + "a" + ")" * 1200 + ";", 1,
    ),
}


@pytest.mark.parametrize("command, text, code", LONG_AND_DEEP.values(), ids=LONG_AND_DEEP.keys())
def test_long_and_deep_inputs_exit_0_or_1(tmp_path, command, text, code):
    path = tmp_path / "input"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        assert main([command, str(path)]) == code
    assert time.perf_counter() - start < 20
    if code:
        assert re.fullmatch(rf"error: \d+:\d+: nesting deeper than {MAX_DEPTH} levels\n", err.getvalue())
