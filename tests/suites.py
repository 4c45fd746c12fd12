"""Randomized suite engines shared by the property tests and the
acceptance gate.  Each function runs `count` cases and raises on the
first violation; expected values come from the independent oracles
(Fourier-Motzkin, brute-force interpretation), never from the kernel
under test.
"""

from __future__ import annotations

import random

from polyinv.analyzer import AbstractStore, AnalysisOptions, analyze
from polyinv.imp import DIVERGENCE, exec_program, parse_program
from polyinv.linalg import canonicalize_constraint
from polyinv.polyhedron import Polyhedron, Topology, standard_widening

from .oracles import fm_empty, fm_includes, random_constraints, random_rational_point


def random_poly(rng, dim, count, topology=Topology.CLOSED, allow_strict=False):
    cs = random_constraints(
        rng, dim, count, allow_strict=allow_strict and topology is Topology.NNC
    )
    return Polyhedron.from_constraints(dim, topology, cs), cs


def random_generators(rng, dim):
    from polyinv.linalg import Generator

    gens = [
        Generator.point([rng.randint(-8, 8) for _ in range(dim)], rng.randint(1, 3))
        for _ in range(rng.randint(1, 3))
    ]
    for _ in range(rng.randint(0, 2)):
        direction = [rng.randint(-8, 8) for _ in range(dim)]
        if any(direction):
            gens.append(Generator.ray(direction))
    return gens


def dd_round_trip_suite(rng: random.Random, count: int) -> int:
    done = 0
    while done < count:
        dim = rng.randint(1, 4)
        kind = done % 3
        if kind == 0:  # constraints -> generators -> constraints (closed)
            p, _ = random_poly(rng, dim, rng.randint(1, 5))
            gens = p.minimized_generators()
            back = Polyhedron.from_generators(dim, Topology.CLOSED, gens)
            if p.is_empty():
                assert gens == () and back.is_empty()
            else:
                assert back.equals(p), (p, gens)
                again = Polyhedron.from_constraints(
                    dim, Topology.CLOSED, back.minimized_constraints()
                )
                assert again.equals(p)
        elif kind == 1:  # generators -> constraints -> generators (closed)
            p = Polyhedron.from_generators(dim, Topology.CLOSED, random_generators(rng, dim))
            back = Polyhedron.from_constraints(dim, Topology.CLOSED, p.minimized_constraints())
            assert back.equals(p)
        else:  # constraints -> generators -> constraints, strict content
            p, _ = random_poly(rng, dim, rng.randint(1, 5), Topology.NNC, allow_strict=True)
            back = Polyhedron.from_generators(dim, Topology.NNC, p.minimized_generators())
            assert back.equals(p)
        done += 1
    return done


def hull_bounds_suite(rng: random.Random, count: int) -> int:
    done = 0
    while done < count:
        dim = rng.randint(1, 4)
        p, _ = random_poly(rng, dim, rng.randint(1, 4))
        q, _ = random_poly(rng, dim, rng.randint(1, 4))
        h = p.poly_hull(q)
        assert h.contains(p) and h.contains(q)
        if not h.is_empty():
            # a sampled upper bound: the hull with some constraints relaxed
            relaxed = []
            for c in h.minimized_constraints():
                if rng.random() < 0.5:
                    continue
                from polyinv.linalg import Rel

                slack = rng.randint(0, 5)
                relaxed.append(canonicalize_constraint(c.coeffs, c.rel, c.rhs - slack if c.rel is not Rel.EQ else c.rhs))
            r = Polyhedron.from_constraints(dim, Topology.CLOSED, relaxed)
            assert r.contains(p) and r.contains(q)
            assert r.contains(h), "hull is not minimal against a relaxed bound"
        done += 1
    return done


def inclusion_oracle_suite(rng: random.Random, count: int) -> int:
    done = 0
    while done < count:
        dim = rng.randint(1, 4)
        p, cs_p = random_poly(rng, dim, rng.randint(1, 3))
        q, cs_q = random_poly(rng, dim, rng.randint(1, 3))
        got = p.contains(q)
        want = fm_includes(cs_p, cs_q, dim)
        assert got == want, (cs_p, cs_q, got, want)
        done += 1
    return done


def widening_chain_suite(rng: random.Random, count: int) -> int:
    done = 0
    while done < count:
        dim = rng.randint(1, 3)
        base, _ = random_poly(rng, dim, rng.randint(1, 3))
        if base.is_empty():
            continue
        k = rng.randrange(dim)
        shift = [rng.randint(1, 3), *(int(i == k) for i in range(dim))]  # x_k + c

        def f(p):
            return p.affine_image(k, shift)

        x = base
        steps = 0
        bound = None
        while True:
            fx = f(x)
            if x.contains(fx):
                break
            q = x.poly_hull(fx)
            w = standard_widening(x, q)
            assert w.contains(q), "widening is not covariant"
            x = w
            steps += 1
            if bound is None:
                bound = 2 * dim + len(x.minimized_constraints())
            assert steps <= bound, f"chain took {steps} > {bound} steps"
        done += 1
    return done


def elapse_suite(rng: random.Random, count: int) -> int:
    done = 0
    while done < count:
        dim = rng.randint(1, 4)
        p, _ = random_poly(rng, dim, rng.randint(1, 3))
        d, _ = random_poly(rng, dim, rng.randint(1, 3))
        flowed = p.time_elapse(d)
        if p.is_empty() or d.is_empty():
            assert flowed.is_empty()
        else:
            assert flowed.contains(p)
            assert flowed.time_elapse(d).equals(flowed)
        done += 1
    return done


def closure_suite(rng: random.Random, count: int) -> int:
    done = 0
    assert Polyhedron.empty(2, Topology.NNC).topological_closure().is_empty()
    while done < count:
        dim = rng.randint(1, 4)
        p, _ = random_poly(rng, dim, rng.randint(1, 4), Topology.NNC, allow_strict=True)
        c = p.topological_closure()
        assert c.contains(p)
        assert c.topological_closure().equals(c)
        done += 1
    return done


def nnc_emptiness_suite(rng: random.Random, count: int) -> int:
    done = 0
    while done < count:
        dim = rng.randint(1, 4)
        p, cs = random_poly(rng, dim, rng.randint(1, 5), Topology.NNC, allow_strict=True)
        assert p.is_empty() == fm_empty(cs, dim), cs
        done += 1
    return done


def intersection_point_suite(rng: random.Random, count: int) -> int:
    done = 0
    while done < count:
        dim = rng.randint(1, 4)
        p, cs_p = random_poly(rng, dim, rng.randint(1, 3))
        q, cs_q = random_poly(rng, dim, rng.randint(1, 3))
        meet = p.intersection(q)
        for _ in range(4):
            v = random_rational_point(rng, dim, bound=6)
            both = p.contains_point(v) and q.contains_point(v)
            assert meet.contains_point(v) == both
        done += 1
    return done


# ---------------------------------------------------------------------------
# Random-program soundness fuzzing
# ---------------------------------------------------------------------------

_VARS = ["a", "b", "c"]


def _rand_aexp(rng, names, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        return str(rng.randint(-4, 4)) if rng.random() < 0.5 else rng.choice(names)
    op = rng.choice(["+", "-", "*", "+", "-"])
    return f"({_rand_aexp(rng, names, depth - 1)} {op} {_rand_aexp(rng, names, depth - 1)})"


def _rand_bexp(rng, names, depth):
    roll = rng.random()
    if roll < 0.1:
        return rng.choice(["true", "false"])
    op = rng.choice(["<", "="])
    return f"{_rand_aexp(rng, names, depth - 1)} {op} {_rand_aexp(rng, names, depth - 1)}"


def _rand_stmt(rng, names, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.15:
            return "skip"
        return f"{rng.choice(names)} := {_rand_aexp(rng, names, 2)}"
    if roll < 0.55:
        return f"{_rand_stmt(rng, names, depth - 1)}; {_rand_stmt(rng, names, depth - 1)}"
    if roll < 0.8:
        return (
            f"if {_rand_bexp(rng, names, 1)} then {{ {_rand_stmt(rng, names, depth - 1)} }}"
            f" else {{ {_rand_stmt(rng, names, depth - 1)} }}"
        )
    # loops get a usually-decreasing shape so that many runs terminate
    guard_var = rng.choice(names)
    body = f"{guard_var} := {guard_var} - {rng.randint(1, 2)}"
    if rng.random() < 0.5:
        body += f"; {_rand_stmt(rng, names, depth - 1)}"
    return f"while 0 < {guard_var} do {{ {body} }}"


def random_program_text(rng) -> str:
    names = _VARS[: rng.randint(1, 3)]
    return f"vars {', '.join(names)};\n{_rand_stmt(rng, names, rng.randint(1, 3))}"


def soundness_fuzz_suite(
    rng: random.Random, count: int, domain: str = "poly", fuel: int = 300
) -> tuple[int, int]:
    """Returns (terminating runs checked, divergent runs seen).

    Runs until `count` terminating executions have been verified against
    the analysis; divergent draws still get their loop-head traces
    checked but do not count toward the quota.
    """
    checked = 0
    diverged = 0
    attempts = 0
    while checked < count:
        attempts += 1
        program = parse_program(random_program_text(rng))
        names = program.variables
        store = {v: rng.randint(-4, 4) for v in names}
        # an initial abstraction that contains the store
        cs = []
        for i, v in enumerate(names):
            roll = rng.random()
            coeffs = [0] * len(names)
            coeffs[i] = 1
            if roll < 0.4:
                cs.append(canonicalize_constraint(coeffs, "=", store[v]))
            elif roll < 0.8:
                cs.append(canonicalize_constraint(coeffs, ">=", store[v] - rng.randint(0, 3)))
                cs.append(canonicalize_constraint(coeffs, "<=", store[v] + rng.randint(0, 3)))
        initial = AbstractStore.from_constraints(names, cs, domain)
        opts = AnalysisOptions(domain=domain, delay=rng.choice([0, 0, 1]))
        result = analyze(program, initial, opts)
        traces: list[tuple[int, dict]] = []
        final = exec_program(
            program, store, fuel, on_loop_entry=lambda pid, s: traces.append((pid, dict(s)))
        )
        for pid, seen in traces:
            inv = result.loop_invariants.get(pid)
            assert inv is not None, f"missing loop invariant for pid {pid}"
            assert inv.contains_concrete(seen), (
                program,
                store,
                pid,
                seen,
                inv.pretty(),
            )
        if final is DIVERGENCE:
            diverged += 1
            continue
        assert result.exit_store.contains_concrete(final), (
            random_program_text(rng),
            store,
            final,
            result.exit_store.pretty(),
        )
        checked += 1
    return checked, diverged
