"""Seeded inputs for the benchmark workloads.

``generate(workload, seed)`` returns the item specs of one run: plain
JSON-able dicts that hold the full input text of every item, so the
same seed gives byte-identical inputs.  Every item is drawn from a
fixed, finite pool, which is what lets ``digests.json`` hold a recorded
output digest for every item any seed can produce.

The pools are shaped so that each seed does about the same amount of
work (the benchmark compares medians across seeds):

* reach-lha draws one scheduler-family member from each cost stratum
  and a few Fischer drift variants; the shipped models are fixed.
* analyze-imp samples 1,000 of a pool of 2,000 small programs and runs
  all 240 larger programs in a seeded order; the larger ones hold the
  tail, and sampling them would move the tail percentile by about 20%
  from seed to seed.
* kernel-dd applies one of eight seeded signed coordinate permutations
  to a fixed point set per (d, n), and to its hull's facets; a symmetry
  of the input, with the input order kept, leaves the conversion work
  unchanged.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "src" / "polyinv" / "examples"

# BENCHMARK.json lists the first two; kernel-dd runs on request (README.md).
WORKLOADS = ("reach-lha", "analyze-imp", "kernel-dd")
# Not listed in BENCHMARK.json either: its only item is a documented timeout.
KNOWN_FAILURES = "reach-lha-known-failures"

# --------------------------------------------------------------------------
# reach-lha
# --------------------------------------------------------------------------

REACH_POWERSET = {"delay": 2, "cap": 8}

# Scheduler-family members (interrupt periods p1, p2) grouped by their
# powerset reach time at the commit that added the benchmark, relative to
# scheduler.lha in powerset; a seed draws one member from each stratum, so
# every seed does about the same work.  Of the other pairs, 18 do not
# converge within 15 s, and the rest (the converging pairs with p1 in 6..8,
# p1 = 11 with p2 >= 17, and (10, 14)) fit no stratum; see README.md.
SCHED_STRATA: tuple[tuple[tuple[int, int], ...], ...] = (
    tuple((12, p2) for p2 in range(14, 25)),  # 4 sweeps, 0.50-0.58 of scheduler.lha
    tuple((p1, p2) for p1 in (9, 10) for p2 in range(17, 25)),  # 5 sweeps, 0.94-1.14
    tuple(
        (p1, p2) for p1 in (9, 10, 11) for p2 in range(14, 17) if (p1, p2) != (10, 14)
    ),  # 10 sweeps, 2.0-2.3
)

# The documented failing member: in powerset its Task1 region gains
# disjuncts every sweep (92 at sweep 20); reach runs for more than 40 s.
# Task1 has a self-loop outside `widen: Task2`, which validate() warns about.
SCHED_KNOWN_TIMEOUT = (8, 16)

# Fischer drift bounds lo <= 10*dx2 <= hi, lo from 8..9 and hi from 11..12.
FISCHER_DRIFTS = ((8, 11), (8, 12), (9, 11), (9, 12))
FISCHER_FAMILY_SIZE = 4


def example_text(name: str) -> str:
    return (EXAMPLES / name).read_text()


def _replace_exactly(text: str, old: str, new: str, count: int) -> str:
    if text.count(old) != count:
        raise ValueError(f"expected {count} occurrences of {old!r} in the example model")
    return text.replace(old, new)


def interrupt_text(p1: int, p2: int) -> str:
    text = _replace_exactly(example_text("interrupt.lha"), "c1 >= 10;", f"c1 >= {p1};", 1)
    return _replace_exactly(text, "c2 >= 20;", f"c2 >= {p2};", 1)


def fischer_text(lo: int, hi: int) -> str:
    return _replace_exactly(
        example_text("fischer.lha"),
        "9 <= 10*dx2, 10*dx2 <= 11",
        f"{lo} <= 10*dx2, 10*dx2 <= {hi}",
        6,
    )


def _reach_spec(key, texts, domain, oracle=None) -> dict:
    spec = {"key": key, "texts": list(texts), "domain": domain, "oracle": oracle}
    if domain == "powerset":
        spec.update(REACH_POWERSET)
    return spec


def sched_member_specs(p1: int, p2: int, domains=("poly", "powerset")) -> list[dict]:
    texts = [example_text("task.lha"), interrupt_text(p1, p2)]
    return [_reach_spec(f"reach/sched-{p1}-{p2}/{d}", texts, d) for d in domains]


def fischer_member_spec(lo: int, hi: int) -> dict:
    return _reach_spec(f"reach/fischer-{lo}-{hi}/poly", [fischer_text(lo, hi)], "poly")


def reach_specs(seed: int) -> list[dict]:
    rng = random.Random(f"reach-lha/{seed}")
    specs = [
        _reach_spec("reach/water/poly", [example_text("water.lha")], "poly", "water"),
        _reach_spec("reach/fischer/poly", [example_text("fischer.lha")], "poly", "fischer"),
        _reach_spec("reach/scheduler/poly", [example_text("scheduler.lha")], "poly", "scheduler"),
        _reach_spec(
            "reach/scheduler/powerset", [example_text("scheduler.lha")], "powerset", "scheduler"
        ),
    ]
    for stratum in SCHED_STRATA:
        specs.extend(sched_member_specs(*rng.choice(stratum)))
    for _ in range(FISCHER_FAMILY_SIZE):
        specs.append(fischer_member_spec(*rng.choice(FISCHER_DRIFTS)))
    return specs


def reach_pool() -> list[dict]:
    """Every reach item any seed can draw (for recording digests)."""
    pool = reach_specs(0)[:4]
    for stratum in SCHED_STRATA:
        for pair in stratum:
            pool.extend(sched_member_specs(*pair))
    pool.extend(fischer_member_spec(*drift) for drift in FISCHER_DRIFTS)
    return pool


# --------------------------------------------------------------------------
# analyze-imp
# --------------------------------------------------------------------------

SMALL_POOL, SMALL_DRAWN = 2000, 1000
LARGE_POOL, LARGE_DRAWN = 240, 240
SMALL_FUEL, LARGE_FUEL = 400, 4000
ORACLE_STORES = 3


def _affine_text(rng: random.Random, names: list[str], terms: int) -> str:
    """An affine expression with `terms` variable terms and a constant."""
    out = ""
    for v in rng.sample(names, min(terms, len(names))):
        c = rng.choice((-2, -1, -1, 1, 1, 1, 2))
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        if not out:
            out = f"{'-' if c < 0 else ''}{mag}{v}"
        else:
            out += f" {'-' if c < 0 else '+'} {mag}{v}"
    k = rng.randint(-5, 5)
    return out + (f" + {k}" if k > 0 else f" - {-k}" if k < 0 else "")


def _step(rng: random.Random, names: list[str], guards: tuple) -> str:
    """A loop-body assignment: a constant step, or a copy of another variable."""
    target = rng.choice([v for v in names if v not in guards])
    if rng.random() < 0.7:
        return f"{target} := {target} + {rng.choice((-2, -1, 1, 2))}"
    return f"{target} := {rng.choice([v for v in names if v != target])} + {rng.randint(-2, 2)}"


def _loop(rng: random.Random, names: list[str], depth: int, guards: tuple = ()) -> str:
    """A guard-decrementing loop, nested at most `depth` deep."""
    g = rng.choice([v for v in names if v not in guards])
    inner = guards + (g,)
    body = [f"{g} := {g} - {rng.randint(1, 2)}"]
    for _ in range(rng.randint(1, 2)):
        roll = rng.random()
        if depth > 1 and roll < 0.4 and len(names) > len(inner) + 1:
            body.append(_loop(rng, names, depth - 1, inner))
        elif roll < 0.8 or guards:
            body.append(_step(rng, names, inner))
        else:  # only the outer loop branches
            test = f"{rng.choice(names)} < {rng.randint(-3, 3)}"
            then, orelse = _step(rng, names, inner), _step(rng, names, inner)
            body.append(f"if {test} then {{ {then} }} else {{ {orelse} }}")
    return f"while 0 < {g} do {{ {'; '.join(body)} }}"


def _affine_stmt(rng: random.Random, names: list[str]) -> str:
    """Straight-line code after the loops: a several-term affine assignment."""
    return f"{rng.choice(names)} := {_affine_text(rng, names, rng.randint(2, 3))}"


def large_program_text(rng: random.Random) -> str:
    """3-6 variables: one or two loops (nested up to 2 deep) with simple
    bodies, then several-term affine assignments and tests.  Affine code
    before a loop would make the widening's input skewed, and one such
    widening can cost seconds, so the affine code comes after the loops."""
    names = [f"v{i}" for i in range(rng.randint(3, 6))]
    stmts = [_loop(rng, names, 2) for _ in range(rng.randint(1, 2))]
    stmts += [_affine_stmt(rng, names) for _ in range(rng.randint(1, 3))]
    return f"vars {', '.join(names)};\n" + ";\n".join(stmts)


def _imp_spec(key: str, text: str, rng: random.Random, fuel: int, max_boxes: int) -> dict:
    """Attach an initial assumption and concrete stores that satisfy it.

    Each variable is fixed, boxed or free; at most `max_boxes` are boxed,
    since a box in k dimensions has 2^k vertices.
    """
    header = text.split(";", 1)[0]
    names = [v.strip() for v in header[len("vars "):].split(",")]
    center = {v: rng.randint(-4, 4) for v in names}
    bounds, assume = {}, []
    for v in names:
        roll = rng.random()
        if roll < 0.4 or (roll < 0.8 and max_boxes == 0):
            bounds[v] = (center[v], center[v])
            assume.append(f"{v}={center[v]}")
        elif roll < 0.8:
            max_boxes -= 1
            lo, hi = center[v] - rng.randint(0, 3), center[v] + rng.randint(0, 3)
            bounds[v] = (lo, hi)
            assume += [f"{v}>={lo}", f"{v}<={hi}"]
        else:
            bounds[v] = (center[v] - 6, center[v] + 6)
    stores = [center] + [
        {v: rng.randint(*bounds[v]) for v in names} for _ in range(ORACLE_STORES - 1)
    ]
    return {
        "key": key,
        "text": text,
        "assume": ", ".join(assume),
        "stores": [[s[v] for v in names] for s in stores],
        "fuel": fuel,
    }


def small_program_spec(i: int) -> dict:
    from tests.suites import random_program_text

    rng = random.Random(f"imp-small/{i}")
    return _imp_spec(f"imp/small/{i}", random_program_text(rng), rng, SMALL_FUEL, 3)


def large_program_spec(i: int) -> dict:
    rng = random.Random(f"imp-large/{i}")
    return _imp_spec(f"imp/large/{i}", large_program_text(rng), rng, LARGE_FUEL, 1)


def imp_specs(seed: int) -> list[dict]:
    rng = random.Random(f"analyze-imp/{seed}")
    specs = [small_program_spec(i) for i in rng.sample(range(SMALL_POOL), SMALL_DRAWN)]
    specs += [large_program_spec(i) for i in rng.sample(range(LARGE_POOL), LARGE_DRAWN)]
    return specs


def imp_pool() -> list[dict]:
    return [small_program_spec(i) for i in range(SMALL_POOL)] + [
        large_program_spec(i) for i in range(LARGE_POOL)
    ]


# --------------------------------------------------------------------------
# kernel-dd
# --------------------------------------------------------------------------

HULL_SIZES = ((4, 30), (4, 40), (5, 15), (5, 20), (5, 25))
HULL_FACETS = Path(__file__).resolve().parent / "hull_facets.json"
HULL_RANGE = 20
TRANSFORMS = 8
CUBE_CLOSED = range(6, 11)
CUBE_NNC = range(6, 9)
WIDEN_DIMS = range(4, 9)


def base_points(d: int, n: int) -> list[list[int]]:
    """A fixed set of n distinct integer points in [-20, 20]^d."""
    rng = random.Random(f"hull-points/{d}x{n}")
    points: list[list[int]] = []
    while len(points) < n:
        p = [rng.randint(-HULL_RANGE, HULL_RANGE) for _ in range(d)]
        if p not in points:
            points.append(p)
    return points


def signed_permutation(d: int, n: int, t: int) -> tuple[list[int], list[int]]:
    """Transform t of (d, n): coordinate i of the image is sign[i] * x[perm[i]]."""
    if t == 0:
        return list(range(d)), [1] * d
    rng = random.Random(f"hull-transform/{d}x{n}/{t}")
    perm = list(range(d))
    rng.shuffle(perm)
    return perm, [rng.choice((-1, 1)) for _ in range(d)]


def hull_facets() -> dict[str, list[list[int]]]:
    """The facets of each base point set: rows `a + [b]` for `a.x >= b`,
    ordered by the indices of the points they are tight on, so that the
    order does not change under a signed permutation."""
    return json.loads(HULL_FACETS.read_text())


def _linear_text(coeffs: list[int]) -> str:
    terms = [f"{c}*x{i}" for i, c in enumerate(coeffs) if c]
    return " + ".join(terms).replace("+ -", "- ")


def _hull_specs(d: int, n: int, t: int, facets: dict) -> list[dict]:
    """gens->cons of the points, and cons->gens of their hull's facets."""
    tag = f"{d}x{n}/t{t}"
    perm, sign = signed_permutation(d, n, t)
    points = [[s * p[j] for j, s in zip(perm, sign)] for p in base_points(d, n)]
    rows = facets[f"{d}x{n}"]
    text = ", ".join(
        f"{_linear_text([s * row[j] for j, s in zip(perm, sign)])} >= {row[-1]}" for row in rows
    )
    return [
        {"key": f"dd/hull/{tag}", "kind": "hull", "d": d, "points": points},
        {"key": f"dd/verts/{tag}", "kind": "verts", "d": d, "points": points, "constraints": text},
    ]


def cube_text(d: int, strict: bool, x0_upper: int = 1) -> str:
    lt = "<" if strict else "<="
    parts = []
    for i in range(d):
        parts += [f"0{lt}x{i}", f"x{i}{lt}{x0_upper if i == 0 else 1}"]
    return ", ".join(parts)


def fixed_kernel_specs() -> list[dict]:
    specs = [
        {"key": f"dd/cube/{d}/closed", "kind": "cube", "d": d, "nnc": False,
         "constraints": cube_text(d, False)}
        for d in CUBE_CLOSED
    ]
    specs += [
        {"key": f"dd/cube/{d}/nnc", "kind": "cube", "d": d, "nnc": True,
         "constraints": cube_text(d, True)}
        for d in CUBE_NNC
    ]
    specs += [
        {"key": f"dd/widen/{d}", "kind": "widen", "d": d,
         "older": cube_text(d, False), "newer": cube_text(d, False, x0_upper=2)}
        for d in WIDEN_DIMS
    ]
    return specs


def kernel_specs(seed: int) -> list[dict]:
    rng = random.Random(f"kernel-dd/{seed}")
    facets = hull_facets()
    specs = []
    for d, n in HULL_SIZES:
        specs += _hull_specs(d, n, rng.randrange(TRANSFORMS), facets)
    return specs + fixed_kernel_specs()


def kernel_pool() -> list[dict]:
    facets = hull_facets()
    specs = []
    for d, n in HULL_SIZES:
        for t in range(TRANSFORMS):
            specs += _hull_specs(d, n, t, facets)
    return specs + fixed_kernel_specs()


# --------------------------------------------------------------------------

def generate(workload: str, seed: int) -> list[dict]:
    if workload == "reach-lha":
        return reach_specs(seed)
    if workload == "analyze-imp":
        return imp_specs(seed)
    if workload == "kernel-dd":
        return kernel_specs(seed)
    if workload == KNOWN_FAILURES:
        return sched_member_specs(*SCHED_KNOWN_TIMEOUT, domains=("powerset",))
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> list[dict]:
    return {"reach-lha": reach_pool, "analyze-imp": imp_pool, "kernel-dd": kernel_pool}[workload]()
