"""CLI behavior: golden lines, exit codes, determinism, re-parse property."""

import io
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from polyinv import cli, polyhedron
from polyinv.analyzer import AnalysisError
from polyinv.cli import main
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

from .paths import example_text


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def water_path(tmp_path):
    p = tmp_path / "water.lha"
    p.write_text(example_text("water.lha"))
    return str(p)


@pytest.fixture()
def loop_path(tmp_path):
    p = tmp_path / "countdown.imp"
    p.write_text(example_text("countdown.imp"))
    return str(p)


@pytest.fixture()
def scheduler_path(tmp_path):
    p = tmp_path / "scheduler.lha"
    p.write_text(example_text("scheduler.lha"))
    return str(p)


@pytest.mark.parametrize("command", ["analyze", "reach", "poly"])
def test_input_file_is_closed(command, tmp_path, loop_path, water_path):
    script = tmp_path / "script.poly"
    script.write_text("vars x;\nprint {x>=0};\n")
    path = {"analyze": loop_path, "reach": water_path, "poly": str(script)}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(command, path)
    assert code == 0
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestAnalyze:
    def test_worked_example_loop_head(self, loop_path):
        code, out, _ = run_cli("analyze", loop_path, "--assume", "x0>=1, x1=1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith("[loop]: {x1>=1, 2*x0+3*x1>=5}")
        assert lines[-1] == "exit: {x0<=0, 2*x0+3*x1>=5}"

    def test_empty_program_is_input_error(self, tmp_path):
        p = tmp_path / "empty.imp"
        p.write_text("")
        code, _, err = run_cli("analyze", str(p))
        assert code == 1 and "error" in err

    def test_non_ascii_digit_is_input_error(self, tmp_path):
        p = tmp_path / "square.imp"
        p.write_text("x := ²", encoding="utf-8")
        code, out, err = run_cli("analyze", str(p))
        assert (code, out, err) == (1, "", "error: 1:6: unexpected character '²'\n")

    def test_undecodable_file_is_input_error(self, tmp_path):
        p = tmp_path / "binary.imp"
        p.write_bytes(b"x := 1\xff")
        code, out, err = run_cli("analyze", str(p))
        assert code == 1 and out == "" and err.startswith("error: ")

    def test_undeclared_variable_reports_its_first_use(self, tmp_path):
        p = tmp_path / "undeclared.imp"
        p.write_text("vars x;\nx := 1;\nwhile x < 3 do x := x + y;\ny := 0")
        code, _, err = run_cli("analyze", str(p))
        assert (code, err) == (1, "error: 3:25: undeclared variable 'y'\n")

    def test_undeclared_assume_variable(self, loop_path):
        code, _, err = run_cli("analyze", loop_path, "--assume", "x9>=0")
        assert code == 1 and "x9" in err

    def test_records_format(self, loop_path):
        code, out, _ = run_cli(
            "analyze", loop_path, "--assume", "x0>=1, x1=1", "--format", "records"
        )
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()]
        assert all(len(r) == 3 for r in rows)
        assert rows[0][0] == "point" and rows[-1][0] == "exit"

    def test_determinism(self, loop_path):
        runs = {run_cli("analyze", loop_path, "--assume", "x0>=1, x1=1")[1] for _ in range(3)}
        assert len(runs) == 1

    def test_powerset_domain(self, loop_path):
        code, out, _ = run_cli(
            "analyze", loop_path, "--assume", "x0>=1, x1=1", "--domain", "powerset"
        )
        assert code == 0 and "exit:" in out

    def test_invalid_cap_is_input_error(self, loop_path):
        code, out, err = run_cli("analyze", loop_path, "--cap", "0")
        assert (code, out) == (1, "") and err.startswith("error: ")

    def test_negative_delay_is_input_error(self, loop_path):
        code, out, err = run_cli("analyze", loop_path, "--delay", "-2")
        assert (code, out, err) == (1, "", "error: widening delay must not be negative\n")

    @pytest.mark.parametrize("failure", [AnalysisError, ArithmeticError])
    def test_engine_failure_exit_code(self, loop_path, monkeypatch, failure):
        def fail(*args):
            raise failure("limit exceeded")

        monkeypatch.setattr(cli, "analyze", fail)
        code, _, err = run_cli("analyze", loop_path)
        assert code == 2 and err.startswith("engine error: ")

    def test_coefficient_limit_while_rendering_is_an_engine_error(self, tmp_path, monkeypatch):
        # the analysis stays within 4 bits, the exit store's emission does not
        p = tmp_path / "square.imp"
        p.write_text("vars a, b, c;\na := ((b - -1) * (b + 3))")
        monkeypatch.setattr(polyhedron, "_MAX_BITS", 4)
        code, out, err = run_cli("analyze", str(p), "--assume", "a=-2, b>=-3, b<=0, c>=-4, c<=-3")
        assert (code, out, err) == (2, "", "engine error: coefficient exceeds POLYINV_MAX_BITS=4\n")

    def test_engine_bug_is_not_hidden(self, loop_path, monkeypatch):
        def bug(*args):
            raise KeyError("x9")

        monkeypatch.setattr(cli, "analyze", bug)
        with pytest.raises(KeyError):
            run_cli("analyze", loop_path)


class TestReach:
    def test_water_golden(self, water_path):
        code, out, _ = run_cli("reach", water_path)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "l0: {w<10, w>=1}"
        assert lines[1] == "l1: {w-x=10, w<12, w>=10}"
        assert lines[2] == "l2: {w+2*x=16, w<=12, w>5}"
        assert lines[3] == "l3: {w+2*x=5, w<=5, w>1}"

    def test_output_reparses_to_engine_value(self, water_path):
        code, out, _ = run_cli("reach", water_path)
        assert code == 0
        from polyinv.hybrid import parse_automaton, reach

        h = parse_automaton(example_text("water.lha"))
        res = reach(h)
        idx = {"w": 0, "x": 1}
        for line in out.splitlines():
            if not line.startswith("l"):
                continue
            name, _, system = line.partition(": ")
            cs = parse_constraints(system, idx, 2)
            parsed = Polyhedron.from_constraints(2, Topology.NNC, cs)
            assert parsed.equals(res.regions[name])

    def test_max_iter_exit_code(self, water_path):
        code, _, err = run_cli("reach", water_path, "--max-iter", "1")
        assert code == 3 and "fixpoint" in err

    def test_parse_error_exit_code(self, tmp_path):
        p = tmp_path / "bad.lha"
        p.write_text("vars x\nlocation")
        code, _, err = run_cli("reach", str(p))
        assert code == 1

    def test_misspelled_transition_is_input_error(self, tmp_path):
        p = tmp_path / "water.lha"
        p.write_text(example_text("water.lha").replace("transition", "transtion"))
        code, out, err = run_cli("reach", str(p))
        assert (code, out) == (1, "") and err.startswith("error: 13:1: ")

    def test_invalid_cap_is_input_error(self, scheduler_path):
        code, out, err = run_cli("reach", scheduler_path, "--domain", "powerset", "--cap", "0")
        assert (code, out) == (1, "") and err.startswith("error: ")

    @pytest.mark.parametrize(
        "option, error",
        [
            (("--max-iter", "0"), "iteration bound must be at least 1"),
            (("--max-iter", "-3"), "iteration bound must be at least 1"),
            (("--delay", "-2"), "widening delay must not be negative"),
        ],
        ids=["max-iter-0", "max-iter-negative", "delay-negative"],
    )
    def test_invalid_iteration_option_is_input_error(self, water_path, option, error):
        code, out, err = run_cli("reach", water_path, *option)
        assert (code, out, err) == (1, "", f"error: {error}\n")

    def test_engine_failure_exit_code(self, water_path, monkeypatch):
        def fail(*args):
            raise ArithmeticError("limit exceeded")

        monkeypatch.setattr(cli, "reach", fail)
        assert run_cli("reach", water_path) == (2, "", "engine error: limit exceeded\n")

    def test_engine_bug_is_not_hidden(self, water_path, monkeypatch):
        def bug(*args):
            raise KeyError("l9")

        monkeypatch.setattr(cli, "reach", bug)
        with pytest.raises(KeyError):
            run_cli("reach", water_path)

    @pytest.mark.parametrize(
        "bits, options, after_reach",
        [(3, (), False), (4, ("--domain", "powerset", "--delay", "2"), True)],
        ids=["engine", "rendering"],
    )
    def test_coefficient_limit_is_an_engine_error(
        self, scheduler_path, monkeypatch, bits, options, after_reach
    ):
        # "rendering" lowers the limit once the real reach has converged, so
        # only the printing of the regions (the powerset hulls) can overflow
        if after_reach:
            real = cli.reach

            def reach_then_limit(*args):
                result = real(*args)
                monkeypatch.setattr(polyhedron, "_MAX_BITS", bits)
                return result

            monkeypatch.setattr(cli, "reach", reach_then_limit)
        else:
            monkeypatch.setattr(polyhedron, "_MAX_BITS", bits)
        code, out, err = run_cli("reach", scheduler_path, *options)
        assert (code, out) == (2, "")
        assert err.endswith(f"engine error: coefficient exceeds POLYINV_MAX_BITS={bits}\n")

    def test_scheduler_projection(self, scheduler_path):
        code, out, _ = run_cli("reach", scheduler_path, "--project", "k1,k2")
        assert code == 0
        lines = dict(
            line.split(": ", 1) for line in out.splitlines() if not line.startswith("#")
        )
        assert lines["Idle"] == "{k2=0, k1=0}"
        assert lines["Task2"] == "{k2=1, k1>=0}"

    def test_scheduler_powerset_prints_elements_and_hull(self, scheduler_path):
        code, out, _ = run_cli(
            "reach", scheduler_path, "--domain", "powerset", "--delay", "2",
            "--project", "k1,k2",
        )
        assert code == 0
        assert any(line.startswith("Task2[") for line in out.splitlines())
        hull_lines = [l for l in out.splitlines() if l.startswith("Task2 hull:")]
        assert len(hull_lines) == 1
        idx = {"k1": 0, "k2": 1}
        system = hull_lines[0].split(": ", 1)[1]
        parsed = Polyhedron.from_constraints(
            2, Topology.NNC, parse_constraints(system, idx, 2)
        )
        bound = Polyhedron.from_constraints(
            2, Topology.NNC, parse_constraints("k1<=2, k2=1", idx, 2)
        )
        assert bound.contains(parsed)


class TestPolyCalculator:
    def run_script(self, tmp_path, script):
        p = tmp_path / "script.poly"
        p.write_text(script)
        return run_cli("poly", str(p))

    def test_widen_golden(self, tmp_path):
        code, out, _ = self.run_script(
            tmp_path,
            "A = {x0>=1, x1=1};\nB = {x0>=-2, x1=3};\nprint widen(A, hull(A,B));\n",
        )
        assert code == 0
        assert out.strip() == "{x1>=1, 2*x0+3*x1>=5}"

    def test_meet(self, tmp_path):
        code, out, _ = self.run_script(tmp_path, "vars x;\nprint meet({x>=0},{x<=0});")
        assert code == 0 and out.strip() == "{x=0}"

    def test_elapse(self, tmp_path):
        code, out, _ = self.run_script(
            tmp_path, "vars w, x;\nprint elapse({w=10,x=0},{dw=1,dx=1});"
        )
        assert code == 0
        idx = {"w": 0, "x": 1}
        got = Polyhedron.from_constraints(
            2, Topology.CLOSED, parse_constraints(out.strip(), idx, 2)
        )
        want = Polyhedron.from_constraints(
            2, Topology.CLOSED, parse_constraints("w-x=10, x>=0", idx, 2)
        )
        assert got.equals(want)

    def test_every_kernel_operation_reachable(self, tmp_path):
        script = """
        vars x, y;
        A = {x>=0, x<=2, y=0};
        B = nnc {x>0};
        print A;
        print gens(A);
        print image(A, x := x+1);
        print preimage(A, x := x+1);
        print bimage(A, y, x, x+1);
        print drop(A, y);
        print embed(drop(A, y), 1);
        print concat(drop(A, y), drop(A, x));
        print permute(A, 1, 0);
        print relimage(drop(A,y), {x=2, x'=0});
        print closure(B);
        print contains(A, A);
        print equals(A, A);
        print empty(meet({x>=1},{x<=0}));
        print universe(drop({y>=0}, y));
        print contains_point(A, 1, 0);
        print hull(A, A);
        print widen(A, A);
        print elapse(A, {dx=1, dy=0});
        """
        code, out, err = self.run_script(tmp_path, script)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "{y=0, x<=2, x>=0}",
            "{point(0, 0), point(2, 0)}",
            "{y=0, x<=3, x>=1}",
            "{y=0, x<=1, x>=-1}",
            "{x<=2, -x+y>=0, x-y>=-1, x>=0}",
            "{x<=2, x>=0}",
            "{x<=2, x>=0}",
            "{y=0, x<=2, x>=0}",
            "{x=0, y<=2, y>=0}",
            "{x=0}",
            "{x>=0}",
            "true",
            "true",
            "true",
            "true",
            "true",
            "{y=0, x<=2, x>=0}",
            "{y=0, x<=2, x>=0}",
            "{y=0, x>=0}",
        ]

    def test_script_error_exit(self, tmp_path):
        code, _, err = self.run_script(tmp_path, "print nonsense(A);")
        assert code == 1 and "error" in err

    @pytest.mark.parametrize("coordinate", ["1/0", "abc"])
    def test_bad_point_coordinate_is_an_input_error(self, tmp_path, coordinate):
        script = f"vars x;\na = {{x>=0}};\nprint contains_point(a, {coordinate});\n"
        code, out, err = self.run_script(tmp_path, script)
        assert (code, out) == (1, "")
        assert err == f"error: 3:25: not a rational number: '{coordinate}'\n"

    @pytest.mark.parametrize(
        "script, error",
        [
            ("vars x;\na = {x>=0};\nprint image(a, x := x +);\n",
             "3:24: expected a term, got ')'"),
            ("vars x;\na = {x>=0};\nprint hull(a);\n", "3:13: expected ',' after 'a', got ')'"),
            ("vars x, y;\na = {x>=0};\nprint drop(a, z);\n", "3:15: unknown variable 'z'"),
            ("vars x;\na = {x>=0};\nprint embed(a, q);\n", "3:16: expected an integer, got 'q'"),
            ("vars x;\nprint meet({x>=0},{y<=0});\n", "2:20: unknown variable 'y'"),
        ],
    )
    def test_errors_carry_their_position_in_the_script(self, tmp_path, script, error):
        assert self.run_script(tmp_path, script) == (1, "", f"error: {error}\n")

    def test_without_vars_the_literals_name_the_dimensions(self, tmp_path):
        # x' and dx name no new dimension once x is known
        script = "print elapse({x=0}, {dx=1});\nprint relimage({x>=0}, {x' = x + 1});\nprint {y >= x};\n"
        assert self.run_script(tmp_path, script) == (0, "{x>=0}\n{x>=1}\n{-x+y>=0}\n", "")

    def test_relation_literal_over_unnamed_dimensions(self, tmp_path):
        # x' is dimension 2 of the 4-dimensional relation, though only x has a name
        script = "vars x;\na = embed({x>=0}, 1);\nprint equals(relimage(a, {x' = x}), a);\n"
        assert self.run_script(tmp_path, script) == (0, "true\n", "")

    def test_engine_failure_exit_code(self, tmp_path, monkeypatch):
        def fail(*args):
            raise ArithmeticError("limit exceeded")

        monkeypatch.setitem(cli._OPERATIONS, "hull", (("poly",), fail))
        script = "vars x;\nprint {x>=0};\nprint hull({x>=0}, {x<=0});\n"
        assert self.run_script(tmp_path, script) == (2, "{x>=0}\n", "engine error: limit exceeded\n")

    def test_coefficient_limit_is_an_engine_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(polyhedron, "_MAX_BITS", 3)
        script = "vars x, y;\nprint hull({x>=0, y>=0, 3*x+5*y<=7}, {x>=7, y>=9, 7*x-11*y<=13});\n"
        assert self.run_script(tmp_path, script) == (
            2, "", "engine error: coefficient exceeds POLYINV_MAX_BITS=3\n"
        )

    def test_lines_before_a_failing_statement_are_printed(self, tmp_path):
        script = "vars x;\na = {x>=0};\nprint contains_point(a, 1/2);\nprint nonsense(a);\n"
        code, out, err = self.run_script(tmp_path, script)
        assert (code, out) == (1, "true\n")
        assert err.startswith("error: ")


HUGE = "9" * 5000  # past the interpreter's default limit of 4,300 digits for int(str)


@pytest.fixture()
def int_digit_limit():
    """The interpreter's default limit on the digits that int() converts from a str."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts integer strings of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "command, text, options, where",
    [
        ("analyze", f"x := 1;\ny := {HUGE}", [], "2:6"),
        ("analyze", "x := 1", ["--assume", f"x >= {HUGE}"], "1:6"),
        ("reach", f"vars x;\nlocation a {{ rate: dx = 1; init: x = {HUGE} }}\n", [], "2:38"),
        ("poly", f"vars x;\nprint {{x >= {HUGE}}};\n", [], "2:13"),
        ("poly", f"vars x;\nprint embed({{x >= 0}}, {HUGE});\n", [], "2:23"),
        ("poly", f"vars x;\nprint contains_point({{x >= 0}}, -{HUGE});\n", [], "2:33"),
        ("poly", f"vars x;\nprint contains_point({{x >= 0}}, 1/{HUGE});\n", [], "2:34"),
    ],
    ids=["imp", "assume", "lha", "poly-constraint", "poly-integer", "poly-numerator",
         "poly-denominator"],
)
def test_an_integer_too_long_to_convert_is_an_input_error_at_its_position(
    int_digit_limit, tmp_path, command, text, options, where
):
    path = tmp_path / "input"
    path.write_text(text)
    code, out, err = run_cli(command, str(path), *options)
    assert (code, out, err) == (1, "", f"error: {where}: integer of 5000 digits is too long\n")
