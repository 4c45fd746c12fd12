"""The analyzer's compiled statements and its memo of inner loops.

Each ``.imp`` assignment and test is compiled once per analysis into
integer rows and one-row polyhedra.  The compiled forms are checked
against the concrete semantics of ``imp`` (not against the code they
replace): a row evaluates to what ``eval_aexp`` computes, and a filtered
store holds an integer point exactly when the test has the filtered
truth value there.  Non-affine forms fall back to the interval image
(assignments) and to the identity (tests).  A loop nested in another
loop is memoized by its entry store; a replayed run must print what a
re-run prints, and the nesting of the ``CHANGES.md`` program no longer
costs time exponential in its depth.
"""

import io
import itertools
import time
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv import analyzer, cli
from polyinv.analyzer import (
    AbstractStore,
    AnalysisOptions,
    abstract_assign,
    abstract_eval_aexp,
    affine_row,
    analyze,
    filter_store,
)
from polyinv.imp import Assign, eval_aexp, eval_bexp, parse_program
from polyinv.parse import parse_constraints

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=120)
NAMES = ("x0", "x1", "x2", "x3")
BOX = range(-2, 3)


def aexps(names):
    """Expression text over `names`: literals, variables, + - and *, with
    constant products (``2*3``, ``x*3``, ``3*x``) and non-affine ones (``x*y``)."""
    leaves = st.one_of(st.integers(0, 4).map(str), st.sampled_from(names))

    def extend(inner):
        parts = st.tuples(inner, st.sampled_from("+-*"), inner)
        return parts.map(lambda t: f"({t[0]} {t[1]} {t[2]})")

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def assignments(draw):
    names = NAMES[: draw(st.integers(1, 4))]
    text = f"vars {', '.join(names)};\n{names[0]} := {draw(aexps(names))}"
    return parse_program(text)


@st.composite
def comparisons(draw, op):
    names = NAMES[: draw(st.integers(1, 4))]
    left, right = draw(aexps(names)), draw(aexps(names))
    text = f"vars {', '.join(names)};\nif {left} {op} {right} then skip else skip"
    return parse_program(text)


def box_store(names, domain="poly"):
    idx = {v: i for i, v in enumerate(names)}
    text = ", ".join(f"{v}>={BOX[0]}, {v}<={BOX[-1]}" for v in names)
    return AbstractStore.from_constraints(names, parse_constraints(text, idx, len(names)), domain)


def points(names):
    box = BOX if len(names) < 4 else BOX[1:-1]
    return [dict(zip(names, p)) for p in itertools.product(box, repeat=len(names))]


def row_value(row, point, names):
    return row[0] + sum(c * point[v] for c, v in zip(row[1:], names))


@FUZZ
@given(assignments())
def test_compiled_row_evaluates_like_the_interpreter(program):
    names, e = program.variables, program.body.expr
    row = affine_row(e, names)
    if row is None:
        return
    assert all(isinstance(c, int) for c in row)
    for point in points(names):
        assert row_value(row, point, names) == eval_aexp(e, point)


@FUZZ
@given(assignments())
def test_assignment_is_exact_when_affine_and_an_interval_image_otherwise(program):
    names, s = program.variables, program.body
    store = box_store(names)
    out = AbstractStore(names, abstract_assign(store.value, names, s.name, s.expr))
    for point in points(names):
        image = dict(point, **{s.name: eval_aexp(s.expr, point)})
        assert out.contains_concrete(image)
    row = affine_row(s.expr, names)
    if row is not None:
        assert out.value.equals(store.value.affine_image(0, row))
    else:
        iv = abstract_eval_aexp(s.expr, store.value, names)
        n = len(names)
        bounds = [None if b is None else [b] + [0] * n for b in (iv.lo, iv.hi)]
        assert out.value.equals(store.value.bounded_affine_image(0, *bounds))


@FUZZ
@given(comparisons("<"))
def test_less_than_filters_match_the_interpreter(program):
    names, b = program.variables, program.body.cond
    for domain in ("poly", "powerset"):
        top = AbstractStore.top(names, domain)
        yes, no = [AbstractStore(names, filter_store(top.value, names, b, branch))
                   for branch in (True, False)]
        affine = affine_row(b.left, names) is not None and affine_row(b.right, names) is not None
        if not affine:
            assert yes.value.equals(top.value) and no.value.equals(top.value)
            continue
        for point in points(names):
            truth = eval_bexp(b, point)
            assert yes.contains_concrete(point) == truth
            assert no.contains_concrete(point) == (not truth)


@FUZZ
@given(comparisons("="))
def test_equality_filters_match_the_interpreter(program):
    names, b = program.variables, program.body.cond
    affine = affine_row(b.left, names) is not None and affine_row(b.right, names) is not None
    top = AbstractStore.top(names, "powerset")
    yes, no = [AbstractStore(names, filter_store(top.value, names, b, branch))
               for branch in (True, False)]
    poly_top = AbstractStore.top(names).value
    assert filter_store(poly_top, names, b, False).equals(poly_top)  # no convex complement
    if not affine:
        assert yes.value.equals(top.value) and no.value.equals(top.value)
        return
    for point in points(names):
        truth = eval_bexp(b, point)
        assert yes.contains_concrete(point) == truth
        assert no.contains_concrete(point) == (not truth)


AFFINE_PROGRAM = """
vars i, j, k;
i := 0; j := 10; k := 2 * 3;
while i < j do {
  i := i + 2;
  if i = 3 then k := k + i else k := 2 * k - 1;
  while k < i do k := (k + 1) * 1
}
"""


def test_affine_analysis_builds_no_fraction(fractions_built):
    program = parse_program(AFFINE_PROGRAM)
    initial = AbstractStore.top(program.variables)
    fractions_built.clear()
    result = analyze(program, initial, AnalysisOptions(delay=1))
    assert result.widenings + result.delayed_joins >= 2  # the loop body ran more than once
    assert fractions_built == []


INTERVAL_PROGRAM = """
vars i, j, k;
j := 0;
if 0 < 2 * i + 1 then
  if 2 * i < 7 then {
    k := i * i;
    while j < 3 do { j := j + 1; k := k - i * j }
  } else k := 0
else k := 0
"""


def test_interval_assignments_build_no_fraction(fractions_built):
    # the non-affine assignments read i's bounds off the closure box, in integers
    program = parse_program(INTERVAL_PROGRAM)
    initial = AbstractStore.top(program.variables)
    fractions_built.clear()
    result = analyze(program, initial, AnalysisOptions(delay=3))
    assert result.exit_store.pretty() == "{j<=3, j>=0, 3*j-k>=0}"
    assert fractions_built == []


def test_each_statement_compiles_once(monkeypatch):
    program = parse_program(AFFINE_PROGRAM)
    assigned = {s.expr.pid for s in program.statements() if isinstance(s, Assign)}
    rows, pieces = [], []
    row_of, pieces_of = analyzer.affine_row, analyzer._test_pieces

    def count_row(e, variables):
        rows.append(e.pid)
        return row_of(e, variables)

    def count_pieces(b, branch, variables):
        pieces.append((b.pid, branch))
        return pieces_of(b, branch, variables)

    monkeypatch.setattr(analyzer, "affine_row", count_row)
    monkeypatch.setattr(analyzer, "_test_pieces", count_pieces)
    result = analyze(program, AbstractStore.top(program.variables), AnalysisOptions(delay=1))
    assert result.widenings + result.delayed_joins >= 2
    compiled = [pid for pid in rows if pid in assigned]
    assert sorted(compiled) == sorted(assigned)  # every assignment, once
    assert len(pieces) == len(set(pieces)) == 6  # three tests, each branch once


def test_undeclared_names_raise_on_the_first_visit():
    program = parse_program("y := z + 1")
    names, top = ("y",), AbstractStore.top(("y",)).value
    with pytest.raises(ValueError):
        abstract_assign(top, names, "y", program.body.expr, {})
    test = parse_program("if z < 1 then skip else skip").body.cond
    with pytest.raises(ValueError):
        filter_store(top, names, test, True, {})
    bottom = filter_store(top, names, parse_program("while false do skip").body.cond, True)
    # nothing compiled: a bottom region is returned before the names are read
    assert abstract_assign(bottom, names, "y", program.body.expr, {}).is_bottom()


# ---------------------------------------------------------------------------
# Inner loops
# ---------------------------------------------------------------------------

def nested(n: int) -> str:
    return "vars x, y;\n" + "while x < 10 do {\n" * n + "x := x + 1; y := y + x" + "\n}" * n


def printed(program, result):
    return cli._store_lines(program, result, records=False)


def _without_memo(monkeypatch):
    # a key no other store shares: every inner loop runs again
    monkeypatch.setattr(analyzer, "region_key", lambda value: object())


def test_nested_loops_take_linear_work(monkeypatch):
    for n in (2, 5, 12):
        program = parse_program(nested(n))
        result = analyze(program, AbstractStore.top(program.variables), AnalysisOptions(delay=1))
        assert result.delayed_joins == n - 1  # 2^(n-1) - 1 when every inner loop re-runs
    program = parse_program(nested(5))
    top, opts = AbstractStore.top(program.variables), AnalysisOptions(delay=1)
    memoized = analyze(program, top, opts)
    _without_memo(monkeypatch)
    rerun = analyze(program, top, opts)
    assert rerun.delayed_joins == 2 ** 4 - 1
    assert printed(program, rerun) == printed(program, memoized)


def test_top_level_loops_are_not_memoized(monkeypatch):
    keys = []
    monkeypatch.setattr(analyzer, "region_key", lambda value: keys.append(value) or object())
    program = parse_program("vars x, y;\nwhile x < 10 do x := x + 1; while y < x do y := y + 1")
    analyze(program, AbstractStore.top(program.variables), AnalysisOptions(delay=1))
    assert keys == []
    analyze(parse_program(nested(3)), AbstractStore.top(("x", "y")), AnalysisOptions(delay=1))
    assert keys  # the two inner loops


@pytest.mark.parametrize("n, bound", [(12, 5.0), (95, 20.0)])
def test_nested_loops_through_the_cli(tmp_path, n, bound):
    path = tmp_path / f"nested{n}.imp"
    path.write_text(nested(n))
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(["analyze", str(path), "--delay", "1", "--assume", "x=0, y=0"])
    assert time.perf_counter() - start < bound
    lines = out.getvalue().splitlines()
    assert code == 0 and lines[-1] == "exit: {x>=10}"
    assert len(lines) == n + 4  # n loops, two assignments and their sequence, the exit


@st.composite
def loop_programs(draw, depth=3):
    """A loop around up to `depth` - 1 more levels of loops and ifs, affine in x and y."""

    def stmt(level):
        kinds = ["assign", "if", "while", "while"] if level < depth else ["assign"]
        kind = draw(st.sampled_from(kinds))
        if kind == "assign":
            target = draw(st.sampled_from("xy"))
            expr = draw(st.sampled_from(["x + 1", "y + x", "y - 1", "2 * x", "x + y", "0", "1"]))
            return f"{target} := {expr}"
        cond = draw(st.sampled_from(["x < 10", "0 < y", "x = y", "y < x + 3"]))
        if kind == "if":
            return f"if {cond} then {{ {block(level + 1)} }} else {{ {block(level + 1)} }}"
        return f"while {cond} do {{ {block(level + 1)} }}"

    def block(level):
        return "; ".join(stmt(level) for _ in range(draw(st.integers(1, 3))))

    return f"vars x, y;\nwhile x < 10 do {{ {block(1)} }}"


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(loop_programs(), st.sampled_from(["poly", "powerset"]), st.integers(0, 1))
def test_memoized_inner_loops_print_what_a_rerun_prints(text, domain, delay):
    program = parse_program(text)
    opts = AnalysisOptions(domain=domain, delay=delay)
    initial = AbstractStore.top(program.variables, domain)
    with pytest.MonkeyPatch.context() as mp:
        _without_memo(mp)
        rerun = analyze(program, initial, opts)
        expected = printed(program, rerun)
    memoized = analyze(program, initial, opts)
    assert printed(program, memoized) == expected
    assert set(memoized.loop_invariants) == set(rerun.loop_invariants)
    assert memoized.widenings <= rerun.widenings
    assert memoized.delayed_joins <= rerun.delayed_joins
