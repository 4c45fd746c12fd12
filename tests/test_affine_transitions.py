"""Differential test of compiled transitions against the general relation image.

A transition whose update fixes every primed variable by equalities is
compiled, on first use, into an n-dimensional guard and an affine
map; its image must equal ``relation_image`` of its relation, both
semantically and in the emitted constraints.  Transitions are parsed
from `.lha` text in dimensions 1..4, so the parser's compile path is the
one tested: strict and equality guards, contradictory guards, resets
(``x' = 0``), swaps, rational maps (``2*x' = x + 1``), coupled updates
solved by elimination, inequalities over fixed primed variables, omitted
primed variables, and updates that are not functions, which must fall
back to ``relation_image``.  Sources are built from constraints (with
strict rows), from generators (with closure points, rays and lines), or
are empty.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyinv.hybrid import ReachOptions, parallel_compose, parse_automaton, reach
from polyinv.linalg import Generator
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

from .paths import example_text

NNC = Topology.NNC
SMALL = st.integers(-2, 2)

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=300)


def names(d):
    return [f"v{i}" for i in range(d)]


def vectors(d):
    return st.lists(SMALL, min_size=d, max_size=d)


def render(coeffs, variables, const=0):
    """`2*v0 - v1 + 3` (or `0`) in the constraint grammar."""
    terms = []
    for a, v in zip(coeffs, variables):
        if a:
            terms.append(("- " if a < 0 else "+ ") + (v if abs(a) == 1 else f"{abs(a)}*{v}"))
    if const or not terms:
        terms.append(("- " if const < 0 else "+ ") + str(abs(const)))
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col] / rows[r][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


@st.composite
def guards(draw, d):
    x = names(d)
    if draw(st.integers(0, 5)) == 0:
        return [f"{x[0]} > 1", f"{x[0]} < 1"]  # contradictory
    anchor = draw(vectors(d))
    out = []
    for _ in range(draw(st.integers(0, 2))):
        a = draw(vectors(d))
        if not any(a):
            continue  # a constant row could make the whole relation empty
        rel = draw(st.sampled_from([">=", ">", "<", "="]))
        value = sum(p * q for p, q in zip(a, anchor))
        slack = 0 if rel == "=" else draw(st.integers(0, 2))
        rhs = value + slack if rel == "<" else value - slack
        out.append(f"{render(a, x)} {rel} {rhs}")
    return out


@st.composite
def updates(draw, d):
    """(update constraints, whether the update is a function)."""
    x = names(d)
    primed = [v + "'" for v in x]
    out = []  # (text, primed coefficients, is an equality)

    def add(a, rel, rhs):
        out.append((f"{render(a, primed)} {rel} {rhs}", a, rel == "="))

    def unit(i, scale=1):
        return [scale * int(k == i) for k in range(d)]

    free = list(range(d))
    if d >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(d)))[:2]
        add(unit(i), "=", x[j])  # a swap
        add(unit(j), "=", x[i])
        free = [k for k in free if k not in (i, j)]
    for i in free:
        kind = draw(st.sampled_from(
            ["omit", "reset", "affine", "rational", "coupled", "coupled", "ray", "sum"]
        ))
        rhs = render(draw(vectors(d)), x, draw(SMALL))
        if kind == "reset":
            add(unit(i), "=", draw(SMALL))
        elif kind == "affine":
            add(unit(i), "=", rhs)
        elif kind == "rational":  # such as 2*x' = x + 1
            add(unit(i, draw(st.integers(2, 3))), "=", rhs)
        elif kind == "coupled":  # elimination decides whether this fixes primed[i]
            a = draw(vectors(d))
            a[i] = a[i] or 1
            add(a, "=", rhs)
        elif kind == "ray":  # not a function
            add(unit(i), ">=", draw(SMALL))
        elif kind == "sum":  # not a function on its own
            add([u + v for u, v in zip(unit(i), unit(draw(st.integers(0, d - 1))))], "=", 1)
    mentioned = {k for _, a, _ in out for k in range(d) if a[k]}
    a = draw(vectors(d))
    if any(a) and {k for k in range(d) if a[k]} <= mentioned and draw(st.booleans()):
        # an inequality over primed values, leaving omitted variables omitted
        add(a, draw(st.sampled_from([">=", ">", "<="])), render(a[::-1], x, draw(SMALL)))
    # the parser adds x' = x for each primed variable no update mentions
    eq_rows = [a for _, a, is_eq in out if is_eq]
    eq_rows += [unit(k) for k in range(d) if k not in mentioned]
    return [text for text, _, _ in out], rank(eq_rows) == d


@st.composite
def sources(draw, d):
    kind = draw(st.sampled_from(["constraints", "constraints", "generators", "empty"]))
    if kind == "empty":
        return Polyhedron.empty(d, NNC)
    if kind == "generators":
        gens = [Generator.point(draw(vectors(d)), draw(st.integers(1, 2)))]
        for _ in range(draw(st.integers(0, 3))):
            v = draw(vectors(d))
            what = draw(st.sampled_from(["point", "closure", "ray", "line"]))
            if what == "point":
                gens.append(Generator.point(v))
            elif what == "closure":
                gens.append(Generator.closure_point(v))
            elif any(v):
                gens.append(Generator.ray(v))
                if what == "line":
                    gens.append(Generator.ray([-c for c in v]))
        return Polyhedron.from_generators(d, NNC, gens)
    text = ", ".join(draw(guards(d)))
    idx = {v: i for i, v in enumerate(names(d))}
    return Polyhedron.from_constraints(d, NNC, parse_constraints(text, idx, d))


@st.composite
def cases(draw):
    d = draw(st.integers(1, 4))
    guard = draw(guards(d))
    update, functional = draw(updates(d))
    text = (
        f"vars {', '.join(names(d))};\n"
        f"location a {{ rate: {', '.join(f'd{v} = 0' for v in names(d))}; }}\n"
        f"transition a -> a {{ guard: {', '.join(guard)}; update: {', '.join(update)}; }}\n"
    )
    return text, functional, draw(sources(d))


def same_image(p, t):
    got = t.image(p)
    want = p.relation_image(t.relation)
    assert got.equals(want)
    assert got.minimized_constraints() == want.minimized_constraints()


@FUZZ
@given(cases())
def test_compiled_image_equals_the_relation_image(case):
    text, functional, p = case
    t = parse_automaton(text).transitions[0]
    assert (t.compiled is not None) == functional, text
    same_image(p, t)


@pytest.mark.parametrize("update", ["x' = 0", "2*x' = x + 1, y' = x", "x' = y, y' = x", ""])
def test_shipped_kinds_of_update_compile(update):
    t = parse_automaton(
        "vars x, y; location a { rate: dx = 1; }\n"
        f"transition a -> a {{ guard: x > 1, y <= x; update: {update}; }}"
    ).transitions[0]
    assert t.compiled is not None
    cs = parse_constraints("0 < x, x < 3, y >= 0", {"x": 0, "y": 1}, 2)
    p = Polyhedron.from_constraints(2, NNC, cs)
    same_image(p, t)


def test_a_contradictory_relation_falls_back_to_an_empty_image():
    t = parse_automaton(
        "vars x; location a { rate: dx = 1; }\ntransition a -> a { guard: 0 > 1; update: x' = 0; }"
    ).transitions[0]
    assert t.compiled is None
    assert t.image(Polyhedron.universe(1, NNC)).is_empty()


def _counting_relation_images(monkeypatch):
    calls = []
    original = Polyhedron.relation_image

    def counted(self, rel):
        calls.append(rel)
        return original(self, rel)

    monkeypatch.setattr(Polyhedron, "relation_image", counted)
    return calls


def _shipped(name):
    if name == "task||interrupt":
        return parallel_compose(
            parse_automaton(example_text("task.lha")), parse_automaton(example_text("interrupt.lha"))
        )
    return parse_automaton(example_text(name))


@pytest.mark.parametrize("domain", ["poly", "powerset"])
@pytest.mark.parametrize("model", ["water.lha", "fischer.lha", "scheduler.lha", "task||interrupt"])
def test_reach_on_shipped_models_runs_no_relation_image(monkeypatch, model, domain):
    h = _shipped(model)
    calls = _counting_relation_images(monkeypatch)
    opts = ReachOptions(domain=domain, delay=2) if domain == "powerset" else ReachOptions()
    reach(h, opts)
    assert all(t.compiled is not None for t in h.transitions)
    assert calls == []


def test_an_update_that_is_not_a_function_takes_the_relation_image(monkeypatch):
    h = parse_automaton(
        "vars x; location a { rate: dx = 1; init: x = 0; invariant: x <= 2; }\n"
        "location b { rate: dx = 0; }\n"
        "transition a -> b { guard: x >= 1; update: x' >= 0; }"
    )
    calls = _counting_relation_images(monkeypatch)
    result = reach(h)
    used = h.closed.transitions[0]  # no strict row: reach ran the closed twin
    assert used.compiled is None and h.transitions[0].compiled is None
    assert calls and all(rel is used.relation for rel in calls)
    b = result.regions["b"]
    assert b.equals(Polyhedron.from_constraints(1, NNC, parse_constraints("x >= 0", {"x": 0}, 1)))


def test_the_incoming_index_lists_the_transitions_into_each_location():
    h = _shipped("scheduler.lha")
    for loc in h.locations:
        want = tuple(i for i, t in enumerate(h.transitions) if t.target == loc.name)
        assert h.incoming(loc.name) == want
        assert h.location(loc.name) is loc
    with pytest.raises(KeyError):
        h.location("nowhere")
