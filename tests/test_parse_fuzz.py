"""Parser fuzzing: any text either parses or raises a ParseError with line:col.

Texts are token soup drawn from each format's vocabulary, plus valid
texts with a few words inserted, deleted or replaced, which reach the
parsers' deeper states.  The runs are derandomized so the suite stays
deterministic.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.hybrid import parse_automaton
from polyinv.imp import parse_program
from polyinv.parse import ParseError, parse_constraints

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


def test_the_valid_texts_parse():
    parse_program(IMP_TEXT)
    parse_automaton(LHA_TEXT)
    assert len(parse_constraints(CONSTRAINT_TEXT, {"x": 0, "y": 1}, 2)) == 3
