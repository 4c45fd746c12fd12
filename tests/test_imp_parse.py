"""The `.imp` parser builds each node once, and builds what the two-phase
parser built.

``oracles.former_parse_program`` builds every node with pid 0, then
rebuilds the tree with the pre-order pids and walks it for the variables
of a program with no ``vars`` header.  Random programs (nested ``if``,
``while`` and braced blocks, unary minus, parentheses, trailing ``;``,
with a full, partial or repeated ``vars`` header or none), the same
programs with a few tokens inserted, deleted or replaced, programs at the
depth bound, the shipped and golden programs and the analyze-imp programs
of three benchmark seeds must give an equal `Program` (which compares
every pid, line:col and field) or the same ParseError.  And a parse
constructs exactly as many nodes as its tree holds: a rebuild pass would
construct each of them twice.
"""

import random
from collections import Counter
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfbench.inputs import imp_specs
from polyinv import imp
from polyinv.imp import parse_program
from polyinv.parse import MAX_DEPTH, ParseError

from .oracles import former_parse_program

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)

NAMES = ["x", "y", "z", "w"]
GAPS = [" ", " ", "\n", "\t", "  # a comment\n"]
VOCAB = NAMES + [
    "0", "7", "-", "+", "*", "(", ")", "=", "<", ":=", ";", "{", "}", ",",
    "skip", "if", "then", "else", "while", "do", "true", "false", "vars", "x'", "?",
]


def aexp(rng, depth):
    kind = rng.choice(["atom", "atom", "minus", "parens", "op"]) if depth else "atom"
    if kind == "atom":
        return [rng.choice([str(rng.randint(0, 30)), str(rng.randint(0, 10**30)), *NAMES])]
    if kind == "minus":
        return ["-", *aexp(rng, depth - 1)]
    if kind == "parens":
        return ["(", *aexp(rng, depth - 1), ")"]
    return [*aexp(rng, depth - 1), rng.choice("+-*"), *aexp(rng, depth - 1)]


def bexp(rng):
    if rng.random() < 0.2:
        return [rng.choice(["true", "false"])]
    return [*aexp(rng, 2), rng.choice("=<"), *aexp(rng, 2)]


def statement(rng, depth):
    kind = rng.choice(["skip", "assign", "assign", "if", "while"][: 5 if depth else 3])
    if kind == "skip":
        return ["skip"]
    if kind == "assign":
        return [rng.choice(NAMES), ":=", *aexp(rng, 3)]

    def body():
        return block(rng, depth - 1) if rng.random() < 0.4 else statement(rng, depth - 1)

    if kind == "if":
        return ["if", *bexp(rng), "then", *body(), "else", *body()]
    return ["while", *bexp(rng), "do", *body()]


def sequence(rng, depth):
    out = []
    for i in range(rng.randint(1, 4)):
        braced = depth and rng.random() < 0.2
        out += [";"] * bool(i) + (block(rng, depth - 1) if braced else statement(rng, depth))
    return out + [";"] * (rng.random() < 0.3)  # a trailing separator


def block(rng, depth):
    return ["{", *sequence(rng, depth), "}"]


def program(rng):
    """The tokens of a random program, with a full, partial or repeated `vars` header or none."""
    body = sequence(rng, 3)
    header = rng.choice(["none", "none", "all", "some", "repeated"])
    if header == "none":
        return body
    used = list(dict.fromkeys(t for t in body if t in NAMES)) or ["x"]
    declared = {"all": used, "some": used[:-1] or used, "repeated": used + used[:1]}[header]
    return ["vars", *[tok for i, v in enumerate(declared) for tok in [","] * bool(i) + [v]],
            ";", *body]


def mutant(rng):
    """A random program with one to three tokens inserted, deleted or replaced."""
    tokens = program(rng)
    for _ in range(rng.randint(1, 3)):
        i, edit = rng.randint(0, len(tokens)), rng.choice(["insert", "delete", "replace"])
        word = [rng.choice(VOCAB)] if edit != "delete" else []
        tokens = tokens[:i] + word + tokens[i + (edit != "insert"):]
    return tokens


def texts(tokens):
    """The text of ``tokens(rng)``, each token followed by a random gap."""
    def text(rng):
        return "".join(tok + rng.choice(GAPS) for tok in tokens(rng))
    return st.integers(0, 2**32 - 1).map(lambda seed: text(random.Random(seed)))


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return "error", str(e), e.line, e.col


@FUZZ
@given(texts(program))
def test_a_program_parses_as_it_did_in_two_phases(text):
    got = outcome(parse_program, text)
    assert isinstance(got, imp.Program) or "vars" in text  # only a header can make it invalid
    assert got == outcome(former_parse_program, text)


@FUZZ
@given(texts(mutant))
def test_an_edited_program_parses_or_fails_as_it_did_in_two_phases(text):
    assert outcome(parse_program, text) == outcome(former_parse_program, text)


def nested(k):
    """Programs whose deepest node is at tree depth about k."""
    return [
        "while true do " * k + "skip",
        "x := " + "-" * k + "1",
        "x := " + " + ".join(["1"] * k),
        "x := " + "(" * k + "y" + ")" * k,
        "{ " * k + "skip" + " }" * k + "; skip",
        "skip; " + "if true then " * k + "skip" + " else skip" * k,
    ]


@pytest.mark.parametrize("text", [t for k in range(MAX_DEPTH - 3, MAX_DEPTH + 3) for t in nested(k)])
def test_programs_at_the_depth_bound_parse_or_fail_as_they_did_in_two_phases(text):
    assert outcome(parse_program, text) == outcome(former_parse_program, text)


def corpus() -> dict[str, str]:
    """The shipped and golden programs, and the analyze-imp programs of three seeds."""
    shipped = resources.files("polyinv").joinpath("examples")
    out = {p.name: p.read_text() for p in shipped.iterdir() if p.name.endswith(".imp")}
    out.update((p.name, p.read_text()) for p in (Path(__file__).parent / "golden").glob("*.imp"))
    for seed in (1, 2, 3):
        out.update((f"{seed}/{s['key']}", s["text"]) for s in imp_specs(seed))
    return out


CORPUS = corpus()


def test_the_shipped_golden_and_benchmark_programs_parse_as_they_did_in_two_phases():
    assert len(CORPUS) > 1000
    for name, text in CORPUS.items():
        got = parse_program(text)
        assert got == former_parse_program(text), name


def nodes(root: imp.Node) -> Counter:
    """The nodes of the tree rooted at ``root``, counted by class."""
    out, todo = Counter(), [root]
    while todo:
        node = todo.pop()
        out[type(node).__name__] += 1
        todo += [v for v in vars(node).values() if isinstance(v, imp.Node)]
    return out


@contextmanager
def constructions():
    """Counts each node construction by class, for as long as it is entered."""
    made = Counter()
    classes, todo = [], [imp.Node]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo += cls.__subclasses__()
    originals = {cls: cls.__dict__["__init__"] for cls in classes}

    def counting(init):
        def wrapped(self, *args):
            made[type(self).__name__] += 1
            init(self, *args)
        return wrapped

    try:
        for cls, init in originals.items():
            cls.__init__ = counting(init)
        yield made
    finally:
        for cls, init in originals.items():
            cls.__init__ = init


ONCE = ["countdown.imp", "analyze-products.imp", "analyze-split.imp"] + [
    name for name in CORPUS if name.startswith("1/")][:20]


@pytest.mark.parametrize("name", ONCE)
def test_each_node_is_constructed_once(name):
    with constructions() as made:
        program = parse_program(CORPUS[name])
    assert made == nodes(program.body)
    with constructions() as made:  # the count sees a rebuild pass
        former_parse_program(CORPUS[name])
    assert made == nodes(program.body) + nodes(program.body)
