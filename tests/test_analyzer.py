"""Analyzer tests: the worked loop example, filters, assignments, termination."""

import pytest

from polyinv import analyzer
from polyinv.analyzer import (
    AbstractStore,
    AnalysisError,
    AnalysisOptions,
    abstract_assign,
    abstract_eval_aexp,
    analyze,
    filter_store,
)
from polyinv.imp import exec_program, parse_program
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

LOOP = "while 0 < x0 do { x1 := x1 + 2; x0 := x0 - x1 }"
X01 = {"x0": 0, "x1": 1}


def store(text, domain="poly", variables=("x0", "x1")):
    idx = {v: i for i, v in enumerate(variables)}
    cs = parse_constraints(text, idx, len(variables))
    return AbstractStore.from_constraints(variables, cs, domain)


def poly(text):
    return Polyhedron.from_constraints(2, Topology.CLOSED, parse_constraints(text, X01, 2))


class TestExpressionEvaluation:
    def test_projection_of_unbounded_dim(self):
        s = store("x0>=1, x1=1")
        p = parse_program(LOOP)
        x0 = p.body.cond.right
        assert abstract_eval_aexp(x0, s.value, s.variables) == (1, None)

    def test_affine_subexpression(self):
        s = store("x0>=1, x1=1")
        prog = parse_program("x1 := x1 + 2")
        assert abstract_eval_aexp(prog.body.expr, s.value, s.variables) == (3, 3)

    def test_product_interval_vs_brute_force(self):
        s = store("x0>=0, x0<=2, x1>=0, x1<=3")
        prog = parse_program("x0 := x0 * x1")
        products = {a * b for a in range(0, 3) for b in range(0, 4)}
        got = abstract_eval_aexp(prog.body.expr, s.value, s.variables)
        assert got == (min(products), max(products))


class TestFilters:
    def test_filter_tt_tightens_and_simplifies(self):
        q0 = store("2*x0+3*x1>=5, x1>=1")
        prog = parse_program(LOOP)
        out = filter_store(q0.value, q0.variables, prog.body.cond, True)
        assert out.equals(poly("x0>=1, x1>=1"))

    def test_filter_ff(self):
        q0 = store("2*x0+3*x1>=5, x1>=1")
        prog = parse_program(LOOP)
        out = filter_store(q0.value, q0.variables, prog.body.cond, False)
        assert out.equals(poly("2*x0+3*x1>=5, x0<=0"))

    def test_filter_bool_literal(self):
        s = store("x0>=1, x1=1")
        prog = parse_program("while true do skip")
        assert filter_store(s.value, s.variables, prog.body.cond, True).equals(s.value)
        assert filter_store(s.value, s.variables, prog.body.cond, False).is_bottom()

    def test_filter_ff_equality_poly_is_identity(self):
        s = store("x0>=0, x0<=4, x1=0")
        prog = parse_program("if x0 = 2 then skip else skip")
        assert filter_store(s.value, s.variables, prog.body.cond, False).equals(s.value)

    def test_filter_ff_equality_powerset_splits(self):
        s = store("x0>=0, x0<=4, x1=0", domain="powerset")
        prog = parse_program("if x0 = 2 then skip else skip")
        out = filter_store(s.value, s.variables, prog.body.cond, False)
        assert len(out.elements) == 2
        assert not out.contains_point([2, 0])
        assert out.contains_point([1, 0]) and out.contains_point([3, 0])

    def test_filter_nonaffine_identity(self):
        s = store("x0>=0, x0<=4, x1=0")
        prog = parse_program("if x0 * x0 = 4 then skip else skip")
        assert filter_store(s.value, s.variables, prog.body.cond, True).equals(s.value)


class TestAssignment:
    def test_affine_assignment_exact(self):
        s = store("x0>=1, x1=1")
        prog = parse_program("x1 := x1 + 2")
        out = abstract_assign(s.value, s.variables, "x1", prog.body.expr)
        assert out.equals(poly("x0>=1, x1=3"))

    def test_nonaffine_assignment_interval(self):
        s = store("x0>=1, x0<=2, x1=0")
        prog = parse_program("x0 := x0 * x0")
        out = abstract_assign(s.value, s.variables, "x0", prog.body.expr)
        assert out.equals(poly("x0>=1, x0<=4, x1=0"))

    def test_constant_assignment_on_universe(self):
        s = AbstractStore.top(("x0", "x1"))
        prog = parse_program("x0 := 5")
        out = abstract_assign(s.value, s.variables, "x0", prog.body.expr)
        assert out.equals(poly("x0=5"))


class TestAnalyze:
    def test_worked_example(self):
        prog = parse_program(LOOP)
        res = analyze(prog, store("x0>=1, x1=1"))
        assert res.loop_invariants[prog.body.pid].value.equals(poly("2*x0+3*x1>=5, x1>=1"))
        assert res.exit_store.value.equals(poly("2*x0+3*x1>=5, x0<=0"))
        assert res.widenings == 1
        # the concrete run lands inside the abstract exit store
        final = exec_program(prog, {"x0": 1, "x1": 1}, fuel=100)
        assert final == {"x0": -2, "x1": 3}
        assert res.exit_store.contains_concrete(final)

    def test_skip_identity(self):
        prog = parse_program("vars x0, x1;\nskip")
        init = store("x0>=1, x1=1")
        res = analyze(prog, init)
        assert res.exit_store.value.equals(init.value)

    def test_if_join(self):
        prog = parse_program("if 0 < x then x := 1 else x := 2")
        init = AbstractStore.top(("x",))
        res = analyze(prog, init)
        expected = Polyhedron.from_constraints(
            1, Topology.CLOSED, parse_constraints("x>=1, x<=2", {"x": 0}, 1)
        )
        assert res.exit_store.value.equals(expected)

    def test_entry_stores_recorded(self):
        prog = parse_program(LOOP)
        res = analyze(prog, store("x0>=1, x1=1"))
        pids = {s.pid for s in prog.statements()}
        assert pids <= set(res.entries)
        # body entry is the filtered widened head
        body_entry = res.entries[prog.body.body.pid]
        assert body_entry.value.equals(poly("x0>=1, x1>=1"))

    def test_delay_changes_iterates_not_soundness(self):
        prog = parse_program(LOOP)
        res = analyze(prog, store("x0>=1, x1=1"), AnalysisOptions(delay=2))
        assert res.delayed_joins == 2
        final = exec_program(prog, {"x0": 7, "x1": 1}, fuel=1000)
        assert res.exit_store.contains_concrete(final)

    def test_nested_loops_terminate(self):
        prog = parse_program(
            """
            vars i, j;
            while 0 < i do {
              j := i;
              while 0 < j do j := j - 1;
              i := i - 1
            }
            """
        )
        res = analyze(prog, AbstractStore.top(("i", "j")))
        assert res.exit_store is not None

    def test_a_loop_past_the_sweep_bound_is_an_engine_error(self, monkeypatch):
        prog = parse_program(LOOP)
        assert analyze(prog, store("x0>=1, x1=1")).widenings == 1  # two sweeps
        monkeypatch.setattr(analyzer, "MAX_LOCAL_ITERATIONS", 1)
        with pytest.raises(AnalysisError, match="failed to stabilize"):
            analyze(prog, store("x0>=1, x1=1"))

    def test_powerset_domain_runs_loop(self):
        prog = parse_program(LOOP)
        res = analyze(prog, store("x0>=1, x1=1", domain="powerset"), AnalysisOptions(domain="powerset"))
        final = exec_program(prog, {"x0": 4, "x1": 1}, fuel=1000)
        assert res.exit_store.contains_concrete(final)

    def test_variable_mismatch_rejected(self):
        prog = parse_program(LOOP)
        with pytest.raises(ValueError):
            analyze(prog, AbstractStore.top(("a", "b")))

    def test_initial_store_of_another_domain_rejected(self):
        prog = parse_program(LOOP)
        with pytest.raises(ValueError, match="'powerset' domain"):
            analyze(prog, AbstractStore.top(("x0", "x1")), AnalysisOptions(domain="powerset"))
        with pytest.raises(ValueError, match="'poly' domain"):
            analyze(prog, store("x0>=1, x1=1", domain="powerset"), AnalysisOptions(domain="poly"))

    def test_true_loop_terminates(self):
        prog = parse_program("vars x;\nwhile true do x := x + 1")
        res = analyze(prog, AbstractStore.top(("x",)))
        assert res.exit_store.value.is_bottom()


def test_exit_store_covers_sampled_concrete_paths():
    # widening is non-monotone, so instead of initial-store monotonicity we
    # check the exit store covers every sampled concrete outcome
    prog = parse_program(LOOP)
    init = store("x0>=1, x0<=6, x1>=0, x1<=2")
    res = analyze(prog, init)
    for x0 in range(1, 7):
        for x1 in range(0, 3):
            final = exec_program(prog, {"x0": x0, "x1": x1}, fuel=10000)
            assert res.exit_store.contains_concrete(final), (x0, x1, final)
