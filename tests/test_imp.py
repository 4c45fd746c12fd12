from dataclasses import fields

import pytest

from polyinv.analyzer import AbstractStore, analyze
from polyinv.imp import (
    DIVERGENCE,
    Assign,
    Node,
    Seq,
    Skip,
    While,
    exec_program,
    format_program,
    parse_program,
)
from polyinv.linalg import Constraint, Rel
from polyinv.parse import MAX_DEPTH, ParseError

LOOP = "while 0 < x0 do { x1 := x1 + 2; x0 := x0 - x1 }"


def test_parse_loop_shape():
    p = parse_program(LOOP)
    assert p.variables == ("x0", "x1")
    assert isinstance(p.body, While)
    body = p.body.body
    assert isinstance(body, Seq)
    assert isinstance(body.first, Assign) and isinstance(body.second, Assign)


def test_parse_skip():
    p = parse_program("skip")
    assert isinstance(p.body, Skip)
    assert p.variables == ()


def test_parse_error_on_incomplete_assignment():
    with pytest.raises(ParseError):
        parse_program("x :=")


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_program("x := 1;\ny := ?")
    assert "2:" in str(err.value)


def test_undeclared_variable_rejected():
    with pytest.raises(ParseError):
        parse_program("vars x;\ny := 1")


def test_declared_order_is_dimension_order():
    p = parse_program("vars b, a;\na := b")
    assert p.variables == ("b", "a")


def test_pids_are_preorder_and_stable():
    p = parse_program(LOOP)
    pids = [s.pid for s in p.statements()]
    assert pids == sorted(pids)
    assert pids[0] == p.body.pid == 0


def test_exec_paper_run():
    p = parse_program(LOOP)
    out = exec_program(p, {"x0": 1, "x1": 1}, fuel=100)
    assert out == {"x0": -2, "x1": 3}


def test_exec_skip_identity():
    p = parse_program("vars x;\nskip")
    assert exec_program(p, {"x": 5}, fuel=10) == {"x": 5}


def test_exec_divergence():
    p = parse_program("while 0 < 1 do skip")
    assert exec_program(p, {}, fuel=500) is DIVERGENCE


def test_exec_fuel_must_be_positive():
    p = parse_program("skip")
    with pytest.raises(ValueError):
        exec_program(p, {}, fuel=0)


def test_exec_store_domain_checked():
    p = parse_program(LOOP)
    with pytest.raises(ValueError):
        exec_program(p, {"x0": 1}, fuel=10)


def test_determinism_and_fuel_monotonicity():
    p = parse_program(LOOP)
    small = exec_program(p, {"x0": 9, "x1": 0}, fuel=1000)
    big = exec_program(p, {"x0": 9, "x1": 0}, fuel=100000)
    assert small == big and small is not DIVERGENCE


def test_loop_entry_trace():
    p = parse_program(LOOP)
    seen = []
    exec_program(p, {"x0": 1, "x1": 1}, fuel=100, on_loop_entry=lambda pid, s: seen.append((pid, dict(s))))
    assert [s for _, s in seen] == [{"x0": 1, "x1": 1}, {"x0": -2, "x1": 3}]
    assert all(pid == p.body.pid for pid, _ in seen)


def test_format_parse_roundtrip():
    for source in (
        LOOP,
        "skip",
        "vars x, y;\nif x < y then x := y else { y := x; skip }",
        "x := 0 - 1; y := x * (x + 2)",
        "while x < 10 do if x = 5 then x := x + 2 else x := x + 1",
    ):
        p = parse_program(source)
        again = parse_program(format_program(p))
        assert again.variables == p.variables
        # same shape and pids; positions differ, so compare the rendering
        assert format_program(again) == format_program(p)
        assert [type(s).__name__ for s in again.statements()] == [
            type(s).__name__ for s in p.statements()
        ]
        assert [s.pid for s in again.statements()] == [s.pid for s in p.statements()]


def test_comments_and_negative_literals():
    p = parse_program("# leading comment\nvars x;\nx := -3  # trailing\n")
    assert exec_program(p, {"x": 0}, fuel=10) == {"x": -3}


def _preorder(node):
    """Every node under `node` in field order, the order pids must follow."""
    yield node
    for f in fields(node):
        child = getattr(node, f.name)
        if isinstance(child, Node):
            yield from _preorder(child)


def test_pids_number_every_node_in_preorder():
    p = parse_program(
        "vars x, y;\nx := 1; if x < y then { y := y - 1; x := x * 2 } else skip;"
        " while 0 < x do { x := x - (y + 1); skip }; y := 3"
    )
    nodes = list(_preorder(p.body))
    assert [n.pid for n in nodes] == list(range(len(nodes)))
    assert [s.pid for s in p.statements()] == [n.pid for n in nodes if n in set(p.statements())]


def test_each_seq_node_costs_one_unit_of_fuel():
    p = parse_program("vars x;\nx := 1; x := 2; x := 3")  # two Seq nodes, three assignments
    assert exec_program(p, {"x": 0}, fuel=5) == {"x": 3}
    assert exec_program(p, {"x": 0}, fuel=4) is DIVERGENCE


def test_a_long_straight_line_program():
    n = 1200
    p = parse_program("vars x, y;\n" + ";\n".join(f"x := x + {i}; y := y - x" for i in range(n)))
    assert sum(isinstance(s, Seq) for s in p.statements()) == 2 * n - 1
    assert exec_program(p, {"x": 0, "y": 0}, fuel=10**5)["x"] == n * (n - 1) // 2
    assert format_program(parse_program(format_program(p))) == format_program(p)
    result = analyze(p, AbstractStore.from_constraints(["x", "y"], []))
    assert len(result.entries) == 4 * n - 1


def test_a_long_chain_of_invertible_assignments_is_tested_and_rendered():
    n = 1200  # each x := x + 1 images the store before it; no step may recurse down the chain
    p = parse_program("vars x, y;\n" + "x := x + 1;\n" * n + "if x < 5 then skip else y := x")
    entry = [Constraint((1, 0), 0, Rel.GE), Constraint((-1, 1), 0, Rel.GE)]  # 0 <= x <= y
    result = analyze(p, AbstractStore.from_constraints(["x", "y"], entry))
    assert result.exit_store.pretty() == "{x-y=0, x>=1200}"


DEEP = {
    "braced ifs": "vars x;\n" + "if 0 < x then {\n" * 300 + "x := 1" + "\n} else { skip }" * 300,
    "whiles": "vars x;\n" + "while 0 < x do {\n" * 400 + "x := x - 1" + "\n}" * 400,
    "parentheses": "vars x;\nx := " + "(" * 1200 + "x" + ")" * 1200,
    "braces": "vars x;\n" + "{" * 1200 + "x := 1" + "}" * 1200,
    "unary minus": "vars x;\nx := " + "- " * 1200 + "x",
    "sum": "vars x;\nx := " + " + ".join(["x"] * 1200),
}


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_nesting_past_the_bound_is_a_parse_error(text):
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_DEPTH} levels") as err:
        parse_program(text)
    assert err.value.line is not None and err.value.col is not None


AT_THE_BOUND = {
    "braced ifs": lambda n: (
        "vars x;\n" + "if 0 < x then {\nx := x - 1;\n" * n + "skip" + "\n} else { skip }" * n
    ),
    "unbraced ifs": lambda n: "vars x;\n" + "if 0 < x then " * n + "x := x - 1" + " else skip" * n,
    "whiles": lambda n: "vars x;\nx := 1;\n" + "while x < 1 do {\n" * n + "x := x + 1" + "\n}" * n,
    "sum": lambda n: "vars x;\nx := " + " + ".join(["x"] * n),
    "nested differences": lambda n: "vars x;\nx := " + "x - (" * n + "x" + ")" * n,
    "products under ifs": lambda n: (
        "vars x;\n" + "if 0 < x then " * n + "x := " + " * ".join(["x"] * n) + " else skip" * n
    ),
}


@pytest.mark.parametrize("make", AT_THE_BOUND.values(), ids=AT_THE_BOUND.keys())
def test_the_deepest_accepted_programs_run(make):
    n = 1
    while True:  # the largest n that parses
        try:
            parse_program(make(n + 1))
        except ParseError:
            break
        n += 1
    assert n >= MAX_DEPTH // 3
    p = parse_program(make(n))
    analyze(p, AbstractStore.from_constraints(["x"], []))
    exec_program(p, {"x": 1}, fuel=10**6)
    again = parse_program(format_program(p))
    assert [s.pid for s in again.statements()] == [s.pid for s in p.statements()]
