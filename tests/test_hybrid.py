"""Hybrid automata: parsing, composition, location updates, reachability."""

import io
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from polyinv import hybrid
from polyinv.cli import main
from polyinv.hybrid import (
    HybridAutomaton,
    NonConvergenceError,
    ReachOptions,
    location_update,
    parallel_compose,
    parse_automaton,
    reach,
)
from polyinv.parse import ParseError, parse_constraints
from polyinv.polyhedron import Polyhedron, Topology
from polyinv.powerset import PolySet, lift

from .paths import example_text


def nnc(text, names, extra_dims=0):
    idx = {v: i for i, v in enumerate(names)}
    n = len(names) + extra_dims
    return Polyhedron.from_constraints(n, Topology.NNC, parse_constraints(text, idx, n))


def cycle_text(n: int) -> str:
    """A cycle l0 -> l1 -> ... -> l0 of n locations, all of them at x = 0."""
    locations = ["location l0 { rate: dx = 0; init: x = 0; }\n"]
    locations += [f"location l{i} {{ rate: dx = 0; }}\n" for i in range(1, n)]
    transitions = [f"transition l{i} -> l{(i + 1) % n} {{ }}\n" for i in range(n)]
    return "vars x;\n" + "".join(locations + transitions)


class TestParsing:
    def test_water_file_shape(self):
        h = parse_automaton(example_text("water.lha"))
        assert [l.name for l in h.locations] == ["l0", "l1", "l2", "l3"]
        assert len(h.transitions) == 4
        assert h.variables == ("w", "x")
        init = h.location("l0").init
        assert init.equals(nnc("w=1", ["w", "x"]))
        assert h.location("l1").init.is_empty()

    def test_implicit_identity_on_unprimed(self):
        h = parse_automaton(example_text("water.lha"))
        t01 = h.transitions[0]
        rel_idx = {"w": 0, "x": 1, "w'": 2, "x'": 3}
        expected = Polyhedron.from_constraints(
            4, Topology.NNC, parse_constraints("w=10, w'=w, x'=0", rel_idx, 4)
        )
        assert t01.relation.equals(expected)

    def test_empty_automaton_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("vars x;\n")

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("vars x;\nlocation a { invariant: y < 1; rate: dx = 0; }")

    def test_unknown_location_in_transition(self):
        with pytest.raises(ParseError):
            parse_automaton(
                "vars x;\nlocation a { rate: dx = 0; }\ntransition a -> b { }"
            )

    def test_missing_rate_rejected(self):
        with pytest.raises(ParseError):
            parse_automaton("vars x;\nlocation a { invariant: x < 1; }")

    def test_strict_guard_allowed(self):
        h = parse_automaton(example_text("fischer.lha"))
        assert len(h.locations) == 6 and len(h.transitions) == 8

    @pytest.mark.parametrize(
        "text, where, what",
        [
            (example_text("water.lha").replace("transition", "transtion"), (13, 1), "transtion"),
            ("vars x;\nlocation a { rate: dx = 1; init: x = 0; }\nbogus text here\n", (3, 1), "bogus"),
            ("vars x;\nlocation a { rate: dx = 1; }\n  vars y;\n", (3, 3), "repeated 'vars'"),
            ("vars x; location a { rate: dx = 1; } widen a;", (1, 44), "widen"),
        ],
        ids=["misspelled-keyword", "stray-text", "repeated-vars", "malformed-widen"],
    )
    def test_unrecognized_text_rejected_with_position(self, text, where, what):
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert (err.value.line, err.value.col) == where
        assert what in str(err.value)

    @pytest.mark.parametrize(
        "text, where, what",
        [
            ("vars x;\nlocation a { rate: dx = 0; }\ntransition a -> b { }", (3, 17), "unknown location 'b'"),
            ("vars x;\nlocation a { rate: dx = 0; }\nwiden: a, c;", (3, 11), "unknown location 'c'"),
            ("vars x;\nlocation a { rate: dx = 0; }\nlocation a { rate: dx = 1; }", (3, 10), "duplicate location"),
            ("vars x, y, x;\nlocation a { rate: dx = 0; }", (1, 12), "duplicate variable"),
            ("vars x;\nlocation a { rate: dx = 0; flow: dx = 1; }", (2, 28), "unknown section 'flow'"),
            ("vars x;\nlocation a { rate: dx = 0; rate: dx = 1; }", (2, 28), "duplicate section 'rate'"),
            ("vars x;\nlocation a { init x = 0; rate: dx = 0; }", (2, 19), "expected ':'"),
            ("vars x;\nlocation a { invariant: x < 1; }", (2, 10), "no rate section"),
            ("vars x;\nlocation a { rate: dx = 0; }\ntransition a -> a sync { }", (3, 24), "'{'"),
            ("vars x;\nlocation a {\n  invariant: dq < 1; rate: dx = 0; }", (3, 14), "unknown variable 'dq'"),
        ],
        ids=[
            "unknown-transition-target", "unknown-widen-location", "duplicate-location",
            "duplicate-variable", "unknown-section", "duplicate-section", "missing-colon",
            "missing-rate", "sync-without-label", "unknown-variable-line-3",
        ],
    )
    def test_every_parse_error_has_a_file_position(self, text, where, what):
        with pytest.raises(ParseError) as err:
            parse_automaton(text)
        assert (err.value.line, err.value.col) == where
        assert what in str(err.value)

    def test_comments_and_blank_lines_accepted(self):
        h = parse_automaton(
            "# header\n\nvars x;  # the clock\nlocation a { rate: dx = 1; }  # transtion a -> a\n"
        )
        assert [l.name for l in h.locations] == ["a"] and not h.transitions


class TestComposition:
    def test_scheduler_product_shape(self):
        task = parse_automaton(example_text("task.lha"))
        intr = parse_automaton(example_text("interrupt.lha"))
        prod = parallel_compose(task, intr)
        assert len(prod.locations) == 3  # single-location partner keeps Task names
        assert prod.variables == ("x1", "x2", "k1", "k2", "c1", "c2")
        # 5 interleaved task transitions + 3 I1-pairs + 3 I2-pairs
        assert len(prod.transitions) == 11
        assert prod.widen_at == frozenset({"Task2"})

    def test_composition_matches_shipped_product(self):
        task = parse_automaton(example_text("task.lha"))
        intr = parse_automaton(example_text("interrupt.lha"))
        prod = parallel_compose(task, intr)
        shipped = parse_automaton(example_text("scheduler.lha"))
        assert {l.name for l in prod.locations} == {l.name for l in shipped.locations}
        for loc in shipped.locations:
            other = prod.location(loc.name)
            assert loc.invariant.equals(other.invariant)
            assert loc.rate.equals(other.rate)
            assert loc.init.equals(other.init)
        res_a = reach(prod, ReachOptions(max_iter=64))
        res_b = reach(shipped, ReachOptions(max_iter=64))
        for name in res_a.regions:
            assert res_a.regions[name].equals(res_b.regions[name])

    def test_compose_with_universe_single_location(self):
        h = parse_automaton("vars x;\nlocation a { rate: dx = 1; init: x = 0; }")
        other = parse_automaton("vars y;\nlocation only { rate: dy = 0; init: y >= 0; }")
        prod = parallel_compose(h, other)
        assert prod.variables == ("x", "y")
        assert prod.location("a").init.equals(nnc("x=0, y>=0", ["x", "y"]))

    def test_shared_label_without_partner_blocks(self):
        task = parse_automaton(example_text("task.lha"))
        # an interrupt component that declares I2 but never offers it
        intr = parse_automaton(
            "vars c1;\nlabel I1, I2;\n"
            "location Intpt { rate: dc1 = 1; init: c1 >= 0; }\n"
            "transition Intpt -> Intpt sync I1 { guard: c1 >= 10; update: c1' = 0; }\n"
        )
        prod = parallel_compose(task, intr)
        # the three I2-labeled task transitions are dropped
        assert len(prod.transitions) == 8
        assert not any(t.label == "I2" for t in prod.transitions)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("task.lha", "interrupt.lha"),
            ("fischer.lha", "interrupt.lha"),
            ("water.lha", "task.lha"),
        ],
    )
    def test_composition_converts_nothing(self, conversions, first, second):
        a, b = (parse_automaton(example_text(name)) for name in (first, second))
        conversions.clear()
        parallel_compose(a, b)
        assert conversions == []

    def test_variable_clash_rejected(self):
        a = parse_automaton("vars x;\nlocation p { rate: dx = 0; }")
        with pytest.raises(ValueError):
            parallel_compose(a, a)


class TestLocationUpdate:
    def test_water_l1_from_c0(self):
        h = parse_automaton(example_text("water.lha"))
        wx = ["w", "x"]
        current = {
            "l0": nnc("w>=1, w<10", wx),
            "l1": Polyhedron.empty(2, Topology.NNC),
            "l2": Polyhedron.empty(2, Topology.NNC),
            "l3": Polyhedron.empty(2, Topology.NNC),
        }
        out = location_update(h, "l1", current)
        assert out.equals(nnc("w-x=10, w>=10, w<12", wx))

    def test_all_empty_stays_empty(self):
        h = parse_automaton(example_text("water.lha"))
        current = {l.name: Polyhedron.empty(2, Topology.NNC) for l in h.locations}
        assert location_update(h, "l1", current).is_empty()

    def test_point_with_zero_rates(self):
        h = parse_automaton(
            "vars x;\nlocation a { rate: dx = 0; init: x = 3; }"
        )
        out = location_update(h, "a", {"a": Polyhedron.empty(1, Topology.NNC)})
        assert out.equals(nnc("x=3", ["x"]))

    @pytest.mark.parametrize("domain", ["poly", "powerset"])
    def test_memo_entry_goes_stale_with_its_source(self, domain):
        h = parse_automaton(example_text("scheduler.lha"))
        names = list(h.variables)
        idx = {v: i for i, v in enumerate(names)}

        def rendered(region):
            elements = region.elements if isinstance(region, PolySet) else (region,)
            return [p.constraints_pretty(names) for p in elements]

        before = {l.name: lift(l.init, domain) for l in h.locations}
        after = dict(before)
        idle = h.location("Idle").init.add_constraints(parse_constraints("c2>=5", idx, h.dim))
        after["Idle"] = lift(idle, domain)
        fresh = location_update(h, "Task1", after, domain)
        assert rendered(fresh) != rendered(location_update(h, "Task1", before, domain))

        entries = {}
        location_update(h, "Task1", before, domain, entries=entries)
        kept = {i: e for i, e in entries.items() if h.transitions[i].source != "Idle"}
        out = location_update(h, "Task1", after, domain, entries=entries)
        assert rendered(out) == rendered(fresh)
        for i, (source, _) in entries.items():
            assert source is after[h.transitions[i].source]
            if i in kept:
                assert entries[i] is kept[i]  # unchanged source: entry reused


class TestReach:
    def test_water_monitor_regions(self):
        h = parse_automaton(example_text("water.lha"))
        res = reach(h)
        wx = ["w", "x"]
        expected = {
            "l0": nnc("1<=w, w<10", wx),
            "l1": nnc("w-x=10, 10<=w, w<12", wx),
            "l2": nnc("w+2*x=16, 5<w, w<=12", wx),
            "l3": nnc("w+2*x=5, 1<w, w<=5", wx),
        }
        for name, want in expected.items():
            assert res.regions[name].equals(want), name
        assert res.converged

    def test_water_level_always_in_range(self):
        h = parse_automaton(example_text("water.lha"))
        res = reach(h)
        bounds = nnc("w>=1, w<=12", ["w", "x"])
        for region in res.regions.values():
            assert bounds.contains(region)

    def test_fischer_l5(self):
        h = parse_automaton(example_text("fischer.lha"))
        res = reach(h, ReachOptions(max_iter=64))
        assert res.iterations <= 3
        names = list(h.variables)
        idx = {v: i for i, v in enumerate(names)}
        want = Polyhedron.from_constraints(
            5,
            Topology.NNC,
            parse_constraints(
                "k=2, 10*a>=9*b, 0<=b, b<=x1, 9*x1<=10*x2, 10*x2<=11*x1,"
                " 11*x1+10*a>=10*x2+11*b",
                idx,
                5,
            ),
        )
        assert res.regions["l5"].equals(want)
        cut = res.regions["l5"].add_constraints(parse_constraints("10*a<9*b", idx, 5))
        assert cut.is_empty()

    def test_no_transition_automaton(self):
        h = parse_automaton(
            "vars x;\nlocation a { invariant: x <= 5; rate: dx = 1; init: x = 0; }"
        )
        res = reach(h)
        assert res.regions["a"].equals(nnc("0<=x, x<=5", ["x"]))

    @pytest.mark.parametrize("bad", [{"domain": "powerst"}, {"cap": 0}], ids=["domain", "cap"])
    def test_options_reject_unknown_domain_and_zero_cap(self, bad):
        with pytest.raises(ValueError):
            ReachOptions(**bad)

    def test_sweeps_share_a_memo_and_the_certificate_runs_without(self, monkeypatch):
        h = parse_automaton(example_text("water.lha"))
        memos = []

        def spy(*args, entries=None):
            memos.append(entries)
            return location_update(*args, entries=entries)

        monkeypatch.setattr(hybrid, "location_update", spy)
        res = reach(h)
        n = len(h.locations)
        assert len(memos) == (res.iterations + 1) * n
        assert memos[-n:] == [None] * n
        assert memos[0] is not None and all(m is memos[0] for m in memos[:-n])

    def test_max_iter_exceeded_raises(self):
        h = parse_automaton(example_text("water.lha"))
        with pytest.raises(NonConvergenceError):
            reach(h, ReachOptions(max_iter=1))

    def test_default_widen_set_is_cutset(self):
        text = example_text("water.lha").replace("widen: l0;", "")
        h = parse_automaton(text)
        assert not h.widen_at
        w = h.default_widen_set()
        assert w and h._is_cutset(w)
        res = reach(h)
        assert res.converged

    @pytest.mark.parametrize(
        "name, widen_set",
        [
            ("water.lha", {"l0"}),
            ("fischer.lha", {"l0"}),
            ("scheduler.lha", {"Idle", "Task1", "Task2"}),
            ("task.lha", {"Idle", "Task1", "Task2"}),
            ("interrupt.lha", {"Intpt"}),
        ],
    )
    def test_default_widen_set_of_shipped_models(self, name, widen_set):
        assert parse_automaton(example_text(name)).default_widen_set() == widen_set

    @pytest.mark.parametrize("first", ["b", "c"])
    def test_default_widen_set_follows_transition_order(self, first):
        # b and c form a cycle entered from a; the one a reaches first is cut
        second = "c" if first == "b" else "b"
        h = parse_automaton(
            "vars x;\n"
            "location a { rate: dx = 0; init: x = 0; }\n"
            "location b { rate: dx = 0; }\nlocation c { rate: dx = 0; }\n"
            f"transition a -> {first} {{ }}\ntransition a -> {second} {{ }}\n"
            "transition b -> c { }\ntransition c -> b { }\n"
        )
        assert h.default_widen_set() == {first}

    def test_long_cycle_validates_without_recursion(self):
        h = parse_automaton(cycle_text(1500) + "widen: l7;\n")
        assert h.validate() == []
        assert not h._is_cutset(frozenset())
        assert h.default_widen_set() == {"l0"}

    def test_long_cycle_reaches_through_the_command_line(self, tmp_path):
        path = tmp_path / "cycle.lha"
        path.write_text(cycle_text(1500))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["reach", str(path)]) == 0
        assert time.perf_counter() - start < 20
        assert err.getvalue() == ""
        assert out.getvalue().splitlines()[-2:] == ["l1499: {x=0}", "# converged in 2 sweeps"]

    def test_monotone_sweeps_before_widening(self):
        h = parse_automaton(example_text("water.lha"))
        regions = {l.name: Polyhedron.empty(h.dim, Topology.NNC) for l in h.locations}
        previous = dict(regions)
        for _ in range(3):
            for loc in h.locations:
                f = location_update(h, loc.name, regions)
                regions[loc.name] = regions[loc.name].join(f)
            for name in regions:
                assert previous[name].entails(regions[name])
            previous = dict(regions)


# ---------------------------------------------------------------------------
# Run simulation: an independent soundness check of the computed regions
# ---------------------------------------------------------------------------

def _sample_point(poly: Polyhedron, rng: random.Random):
    """A rational point of a nonempty polyhedron: random convex mix of
    its points plus a small ray excursion."""
    from polyinv.linalg import GenKind

    gens = poly.minimized_generators()
    points = [g for g in gens if g.kind is GenKind.POINT]
    rays = [g for g in gens if g.kind is GenKind.RAY]
    assert points
    weights = [Fraction(rng.randint(0, 4)) for _ in points]
    if sum(weights) == 0:
        weights[rng.randrange(len(points))] = Fraction(1)
    total = sum(weights)
    coords = [Fraction(0)] * poly.dim
    for w, g in zip(weights, points):
        for i, c in enumerate(g.coeffs):
            coords[i] += w * Fraction(c, g.divisor) / total
    for r in rays:
        if rng.random() < 0.4:
            t = Fraction(rng.randint(0, 3), rng.randint(1, 3))
            for i, c in enumerate(r.coeffs):
                coords[i] += t * c
    return coords


def simulate_runs(h: HybridAutomaton, regions, rng: random.Random, runs: int, steps: int):
    """Random rational runs; every visited state must lie in its region."""
    starts = [l for l in h.locations if not l.init.is_empty()]
    checked = 0
    for _ in range(runs):
        loc = rng.choice(starts)
        point = _sample_point(loc.init, rng)
        name = loc.name
        for _ in range(steps):
            region = regions[name]
            assert region.contains_point(point), (name, point)
            checked += 1
            here = h.location(name)
            # dwell: flow along a sampled rate vector while the invariant holds
            rate_pt = _sample_point(here.rate, rng)
            dt = Fraction(rng.randint(0, 8), rng.randint(1, 4))
            candidate = [p + dt * r for p, r in zip(point, rate_pt)]
            if here.invariant.contains_point(candidate):
                point = candidate
                assert regions[name].contains_point(point), (name, point)
                checked += 1
            # jump via any enabled transition
            outs = [t for t in h.transitions if t.source == name]
            rng.shuffle(outs)
            for t in outs:
                idx = {v: i for i, v in enumerate(h.variables)}
                fixed = Polyhedron.from_constraints(
                    2 * h.dim,
                    Topology.NNC,
                    [
                        c
                        for v, i in idx.items()
                        for c in parse_constraints(
                            f"{v}={point[i].numerator}"
                            if point[i].denominator == 1
                            else f"{point[i].denominator}*{v}={point[i].numerator}",
                            idx,
                            2 * h.dim,
                        )
                    ],
                )
                slice_ = t.relation.intersection(fixed)
                target_vals = slice_.remove_dimensions(range(h.dim))
                target_vals = target_vals.intersection(h.location(t.target).invariant)
                if not target_vals.is_empty():
                    point = list(_sample_point(target_vals, rng))
                    name = t.target
                    break
    return checked


def test_water_simulation_soundness():
    h = parse_automaton(example_text("water.lha"))
    res = reach(h)
    rng = random.Random(97)
    checked = simulate_runs(h, res.regions, rng, runs=120, steps=6)
    assert checked > 400


def test_fischer_simulation_soundness():
    h = parse_automaton(example_text("fischer.lha"))
    res = reach(h, ReachOptions(max_iter=64))
    rng = random.Random(98)
    checked = simulate_runs(h, res.regions, rng, runs=40, steps=5)
    assert checked > 150
