"""Independent oracles for the kernel test suites.

Everything here decides questions about linear systems *without* the
double-description machinery: Fourier-Motzkin elimination over exact
rationals (tracking strictness) answers feasibility, implication and
inclusion queries and projects systems onto some of their variables
(``fm_project``, which also gives the constraints of a generator system,
``fm_generated``), and a tiny vertex enumerator handles the 1-D cases.
Two references are exceptions: ``semantic_contains`` decides NNC
inclusion on the kernel's emitted constraint and generator systems, the
reference for the kernel's own test on the slack embedding, and
``trial_widening`` selects the standard widening's rows by building one
trial polyhedron per candidate exchange, the reference for the kernel's
selection by saturation sets.  ``fraction_constraints`` emits a
polyhedron's constraints by rebuilding every minimal row through
``Fraction`` canonicalization (``fraction_canonicalize_constraint`` and
``fraction_scale_to_integers``), the reference for the kernel's integer
emission and the linalg helpers.  ``emitted_closure`` closes an NNC value
by encoding its emitted generators, the reference for the kernel's
closure by a map of its minimal generators; ``fraction_contains_point``
tests membership on the emitted constraints in Fractions, the reference
for membership as inclusion; ``fraction_eliminate`` is Gauss-Jordan
elimination in Fractions, the reference for the kernel's integer one.
``rows_intersection`` meets two values by the union of their rows, the
reference for the meet that returns a generator operand lying inside the
other operand's rows.  ``fraction_constraint`` reads one constraint of
the shared grammar with every expression a pair ``(coeffs, const)`` of
Fractions, the reference for the parser's integer rows.
``two_lift_entry`` computes a transition entry by one lift for the
source flow and one for the image met with the invariant, and
``former_reach`` sweeps with ``former_sweep_step``, which joins (and
widens) before it tests for a change; they are the references for the
fused entry and for the sweep that tests each location's change once.
``concat_join`` joins two powersets by reducing the concatenation of
their elements, the reference for the join that tests only cross pairs;
``emitted_bounds`` reads a dimension's bounds off the emitted generators
in Fractions, the reference for the closure box.  ``dual_minimal_rows``
converts a value's minimal generators dually to its minimal rows, the
reference for the rows read off a forward conversion's matrix.
``former_parse_program`` parses a ``.imp`` program in two phases, nodes
with pid 0 and then a rebuild with the pre-order pids and a walk for the
variables, the reference for the parser that builds each node once.
``former_parallel_compose`` builds a product's transitions in three loops,
the reference for the composition by one product rule.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from math import gcd

from polyinv import imp
from polyinv.hybrid import HybridAutomaton, Location, Transition, _source_flow, _unchanged
from polyinv.linalg import Constraint, DimensionError, GenKind, Rel
from polyinv.parse import MAX_DEPTH, TOO_DEEP, ParseError, Tokens
from polyinv.polyhedron import (
    Polyhedron,
    Topology,
    _dot,
    _dual_rows,
    _norm,
    _split_inequalities,
)
from polyinv.powerset import PolySet, lift

# An inequality in oracle form: (coeffs, rhs, strict) meaning <a,x> >= rhs
# (or > rhs when strict).  Equalities are split before use.
Ineq = tuple[tuple[Fraction, ...], Fraction, bool]


def constraints_to_ineqs(cs) -> list[Ineq]:
    out: list[Ineq] = []
    for c in cs:
        a = tuple(Fraction(x) for x in c.coeffs)
        b = Fraction(c.rhs)
        if c.rel is Rel.EQ:
            out.append((a, b, False))
            out.append((tuple(-x for x in a), -b, False))
        elif c.rel is Rel.GE:
            out.append((a, b, False))
        else:
            out.append((a, b, True))
    return out


def _fm_dedupe(rows: list[Ineq]) -> list[Ineq]:
    """Scale-normalize and keep only the tightest row per slope."""
    best: dict[tuple, tuple[Fraction, bool]] = {}
    for coeffs, rhs, strict in rows:
        scale = next((abs(c) for c in coeffs if c != 0), Fraction(1))
        nc = tuple(c / scale for c in coeffs)
        nrhs = rhs / scale
        prev = best.get(nc)
        if prev is None or nrhs > prev[0] or (nrhs == prev[0] and strict and not prev[1]):
            best[nc] = (nrhs, strict)
    return [(nc, nrhs, strict) for nc, (nrhs, strict) in best.items()]


def _fm_eliminate(rows: list[Ineq], k: int) -> list[Ineq]:
    """The rows with variable k eliminated, strictness tracked."""
    rows = _fm_dedupe(rows)
    pos = [r for r in rows if r[0][k] > 0]
    neg = [r for r in rows if r[0][k] < 0]
    new_rows = [r for r in rows if r[0][k] == 0]
    for ap, bp, sp in pos:
        for an, bn, sn in neg:
            lam = -an[k]  # > 0
            mu = ap[k]  # > 0
            coeffs = tuple(lam * x + mu * y for x, y in zip(ap, an))
            rhs = lam * bp + mu * bn
            new_rows.append((coeffs, rhs, sp or sn))
    return new_rows


def fm_project(ineqs: list[Ineq], dim: int, keep) -> list[Ineq]:
    """``{x : ineqs}`` in ``dim`` variables, projected onto ``keep`` in that order.

    A pair of opposite non-strict rows is an equality: a variable that one
    mentions is substituted away with it.  Any other variable is
    eliminated by Fourier-Motzkin.
    """
    rows = [(tuple(map(Fraction, a)), Fraction(b), strict) for a, b, strict in ineqs]
    for k in range(dim):
        if k in keep:
            continue
        rows = _fm_dedupe(rows)
        weak = {(a, b) for a, b, strict in rows if not strict}
        pivot = next(
            ((a, b) for a, b, strict in rows
             if a[k] and not strict and (tuple(-x for x in a), -b) in weak),
            None,
        )
        if pivot is None:
            rows = _fm_eliminate(rows, k)
            continue
        a, b = pivot

        def substituted(coeffs, rhs, strict):
            f = coeffs[k] / a[k]
            return tuple(c - f * x for c, x in zip(coeffs, a)), rhs - f * b, strict

        rows = [substituted(*row) for row in rows]
    return [(tuple(c[i] for i in keep), r, strict) for c, r, strict in rows]


def fm_feasible(ineqs: list[Ineq], dim: int) -> bool:
    """Rational feasibility of a conjunction of (possibly strict) inequalities."""
    # every variable eliminated, each row reads 0 >= rhs (0 > rhs when strict)
    return all(rhs < 0 or rhs == 0 and not strict for _, rhs, strict in fm_project(ineqs, dim, ()))


def fm_entails(ineqs: list[Ineq], row: Ineq, dim: int) -> bool:
    """Does the system ineqs entail the single inequality row?"""
    coeffs, rhs, strict = row
    # the negation of <a,x> >= b is <-a,x> > -b; of > it is >=
    return not fm_feasible([*ineqs, (tuple(-x for x in coeffs), -rhs, not strict)], dim)


def fm_same_set(a: list[Ineq], b: list[Ineq], dim: int) -> bool:
    """Do the two systems describe the same set?"""
    return all(fm_entails(a, r, dim) for r in b) and all(fm_entails(b, r, dim) for r in a)


def fm_generated(generators, dim: int) -> list[Ineq]:
    """The set a generator system describes, as inequalities.

    ``x = sum of w_j g_j``: the weights of points and closure points are
    nonnegative, sum to 1 and are positive on the points together, those
    of rays are nonnegative.  Projecting the weights away leaves x.
    """
    gens = list(generators)
    width = dim + len(gens)

    def row(coeffs, rhs=0, strict=False):
        return tuple(coeffs), Fraction(rhs), strict

    def indicator(cols):
        return [1 if i in cols else 0 for i in range(width)]

    eqs = []
    for i in range(dim):  # x_i - sum of w_j g_j[i] = 0
        coeffs = indicator({i})
        for j, g in enumerate(gens):
            coeffs[dim + j] = -Fraction(g.coeffs[i], g.divisor or 1)
        eqs.append(row(coeffs))
    weighted = {dim + j for j, g in enumerate(gens) if g.kind is not GenKind.RAY}
    eqs.append(row(indicator(weighted), 1))
    rows = eqs + [row([-x for x in a], -b) for a, b, _ in eqs]
    rows += [row(indicator({dim + j})) for j in range(len(gens))]
    points = {dim + j for j, g in enumerate(gens) if g.kind is GenKind.POINT}
    rows.append(row(indicator(points), 0, True))
    return fm_project(rows, width, range(dim))


def fm_implies(cs, c: Constraint, dim: int) -> bool:
    """Does the system cs entail the single constraint c?"""
    base = constraints_to_ineqs(cs)
    return all(fm_entails(base, row, dim) for row in constraints_to_ineqs([c]))


def fm_includes(cs_outer, cs_inner, dim: int) -> bool:
    """Inclusion con(cs_inner) subset-of con(cs_outer), both as Constraint lists."""
    if not fm_feasible(constraints_to_ineqs(cs_inner), dim):
        return True
    return all(fm_implies(cs_inner, c, dim) for c in cs_outer)


def semantic_contains(p, q) -> bool:
    """NNC inclusion q <= p decided on the emitted systems: every constraint
    of p holds on every generator of q, strictly on its points."""
    if q.is_empty():
        return True
    if p.is_empty():
        return False
    gens = q.minimized_generators()
    for c in p.minimized_constraints():
        for g in gens:
            value = sum(a * x for a, x in zip(c.coeffs, g.coeffs)) - c.rhs * g.divisor
            if g.kind is GenKind.RAY:
                ok = value == 0 if c.rel is Rel.EQ else value >= 0
            elif c.rel is Rel.EQ:
                ok = value == 0
            elif c.rel is Rel.GE:
                ok = value >= 0
            else:  # strict: points must win strictly, closure points weakly
                ok = value > 0 if g.kind is GenKind.POINT else value >= 0
            if not ok:
                return False
    return True


def trial_widening(older, newer):
    """The standard widening with its exchanges decided by trial polyhedra.

    Keeps the rows of ``older`` (equalities split) that hold on every
    generator of ``newer``, then each row beta of ``newer`` for which
    some row gamma of ``older`` exists such that ``older`` with gamma
    replaced by beta has the same slack embedding as ``older``.
    """
    assert newer.contains(older)
    if older.is_empty() or older._rep_contains(newer):
        return newer

    def exchangeable(rows):
        return [v for v in _split_inequalities(rows) if any(v[1 : 1 + older.dim])]

    p_rows = exchangeable(older._minimal_rows())
    lines, rays = newer._gens_any()
    kept = [
        v for v in p_rows
        if all(_dot(v, l) == 0 for l in lines) and all(_dot(v, r) >= 0 for r in rays)
    ]
    p_set = list(dict.fromkeys(p_rows))
    for beta in exchangeable(newer._minimal_rows()):
        if beta in kept:
            continue
        for gamma in p_set:
            trial_rows = [(v, False) for v in p_set if v != gamma] + [(beta, False)]
            trial = Polyhedron._from_rep_rows(older.dim, older.topology, trial_rows)
            if trial._rep_contains(older) and older._rep_contains(trial):
                kept.append(beta)
                break
    return Polyhedron._from_rep_rows(
        older.dim, older.topology, [(v, False) for v in dict.fromkeys(kept)]
    )


def fraction_scale_to_integers(values):
    """(integers, multiplier) with integers = values * multiplier, in Fractions."""
    mult = 1
    for v in values:
        d = Fraction(v).denominator
        mult = mult * d // gcd(mult, d)
    return tuple(int(v * mult) for v in values), mult


def fraction_canonicalize_constraint(coeffs, rel, rhs=0) -> Constraint:
    """The canonical ``<coeffs, x> rel rhs``, every number made a Fraction."""
    values = [Fraction(c) for c in coeffs] + [Fraction(rhs)]
    if isinstance(rel, Rel):
        rel = rel.value
    if rel in ("<", "<="):
        values = [-v for v in values]
        rel = ">" if rel == "<" else ">="
    stored = Rel(rel)
    ints, _ = fraction_scale_to_integers(values)
    *acoeffs, arhs = ints
    g = gcd(*ints)
    if g > 1:
        acoeffs = [c // g for c in acoeffs]
        arhs //= g
    if all(c == 0 for c in acoeffs):
        arhs = 0 if arhs == 0 else (1 if arhs > 0 else -1)
        return Constraint(tuple(acoeffs), arhs, stored)
    if stored is Rel.EQ:
        first = next(c for c in acoeffs if c != 0)
        if first < 0:
            acoeffs = [-c for c in acoeffs]
            arhs = -arhs
    return Constraint(tuple(acoeffs), arhs, stored)


def fraction_constraints(p) -> tuple[Constraint, ...]:
    """The minimized constraints of ``p``, each minimal row canonicalized
    through Fractions; eps-redundant twins keep the equality, then the
    strict form."""
    if p.is_empty():
        return (Constraint((0,) * p.dim, 1, Rel.GE),)
    n = p.dim
    order = {Rel.EQ: 0, Rel.GT: 1, Rel.GE: 2}
    seen: dict[tuple, Constraint] = {}
    for vec, is_eq in p._minimal_rows():
        coeffs = vec[1 : 1 + n]
        if not any(coeffs):
            continue
        if is_eq:
            rel = Rel.EQ
        elif p.topology is Topology.NNC and vec[p._eps_col()] < 0:
            rel = Rel.GT
        else:
            rel = Rel.GE
        c = fraction_canonicalize_constraint(coeffs, rel, -vec[0])
        prev = seen.get((c.coeffs, c.rhs))
        if prev is None or order[c.rel] < order[prev.rel]:
            seen[(c.coeffs, c.rhs)] = c
    return tuple(sorted(seen.values(), key=Constraint.sort_key))


def emitted_closure(p):
    """The topological closure of an NNC value, built by encoding its emitted
    generators as ``from_generators`` would, closure points made points."""
    if p.is_empty():
        return Polyhedron.empty(p.dim, Topology.NNC)
    rays = []
    for g in p.minimized_generators():
        if g.kind is GenKind.RAY:
            rays.append((0, *g.coeffs, 0))
        else:
            rays += [(g.divisor, *g.coeffs, g.divisor), (g.divisor, *g.coeffs, 0)]
    return Polyhedron._from_rep_gens(p.dim, Topology.NNC, [], rays)


def rows_intersection(p, q):
    """The meet of two values by the union of their rows, each operand's
    rows converted from its generators if it holds none, and an operand
    returned when the other adds no row to it."""
    if p._empty or q._empty:
        return Polyhedron.empty(p.dim, p.topology)
    mine, theirs = p._rows_any(), q._rows_any()
    if set(mine).issuperset(theirs):
        return p
    if set(theirs).issuperset(mine):
        return q
    return Polyhedron._from_rep_rows(p.dim, p.topology, mine + theirs)


def fraction_contains_point(p, point) -> bool:
    """Membership of ``point`` (any rational coordinates) tested on the
    minimized constraints of ``p`` in Fractions."""
    if p.is_empty():
        return False
    coords = [Fraction(x) for x in point]
    for c in p.minimized_constraints():
        value = sum(a * x for a, x in zip(c.coeffs, coords)) - c.rhs
        if c.rel is Rel.EQ and value != 0:
            return False
        if c.rel is Rel.GE and value < 0:
            return False
        if c.rel is Rel.GT and value <= 0:
            return False
    return True


def fraction_eliminate(vectors, cols):
    """Gauss-Jordan elimination in Fractions, one vector at a time: each
    vector is reduced by the pivots before it and, if nonzero on ``cols``,
    scaled to 1 at its first nonzero column there and cleared from the
    other pivots.  Returns ``(pivots by column, rest)`` with every vector
    scaled to coprime integers (a positive scale), zero vectors dropped."""
    pivots: dict[int, list[Fraction]] = {}
    rest = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for c, p in pivots.items():
            q = w[c]
            w = [a - q * b for a, b in zip(w, p)]
        if not any(w):
            continue
        col = next((c for c in cols if w[c]), None)
        if col is None:
            rest.append(w)
            continue
        w = [a / w[col] for a in w]
        for c, p in pivots.items():
            q = p[col]
            pivots[c] = [a - q * b for a, b in zip(p, w)]
        pivots[col] = w

    def integers(w):
        return _norm(fraction_scale_to_integers(w)[0])

    return {c: integers(p) for c, p in pivots.items()}, [integers(w) for w in rest]


def fm_empty(cs, dim: int) -> bool:
    return not fm_feasible(constraints_to_ineqs(cs), dim)


def enumerate_vertices_1d(cs) -> list[Fraction]:
    """All constraint-boundary points of a 1-D system that are feasible."""
    out = []
    for c in cs:
        (a,), b = c.coeffs, c.rhs
        if a == 0:
            continue
        x = Fraction(b, a)
        if all(_holds(other, (x,)) for other in cs):
            out.append(x)
    return sorted(set(out))


def _holds(c: Constraint, point) -> bool:
    v = sum(a * x for a, x in zip(c.coeffs, point)) - c.rhs
    if c.rel is Rel.EQ:
        return v == 0
    if c.rel is Rel.GE:
        return v >= 0
    return v > 0


# ---------------------------------------------------------------------------
# Random instance generation
# ---------------------------------------------------------------------------

def random_constraints(
    rng: random.Random,
    dim: int,
    count: int,
    *,
    coeff_bound: int = 8,
    allow_eq: bool = True,
    allow_strict: bool = False,
) -> list[Constraint]:
    from polyinv.linalg import canonicalize_constraint

    out = []
    for _ in range(count):
        coeffs = [rng.randint(-coeff_bound, coeff_bound) for _ in range(dim)]
        if not any(coeffs):
            coeffs[rng.randrange(dim)] = rng.choice([-1, 1])
        rhs = rng.randint(-coeff_bound, coeff_bound)
        roll = rng.random()
        if allow_eq and roll < 0.2:
            rel = "="
        elif allow_strict and roll < 0.45:
            rel = ">"
        else:
            rel = ">="
        out.append(canonicalize_constraint(coeffs, rel, rhs))
    return out


def random_rational_point(rng: random.Random, dim: int, bound: int = 12):
    return tuple(
        Fraction(rng.randint(-bound, bound), rng.randint(1, 4)) for _ in range(dim)
    )


# The constraint grammar in Fractions, an expression a pair (coeffs, const):
# the bodies ``parse._term``, ``linear_expr`` and ``_constraint`` had before
# they built integer rows.

def _fraction_variable(ts, var_index, dim, what):
    tok = ts.peek()
    if tok[0] != "name":
        ts.error(f"expected {what}")
    if tok[1] not in var_index:
        raise ParseError(f"unknown variable {tok[1]!r}", tok[2], tok[3])
    ts.take()
    i = var_index[tok[1]]
    if not 0 <= i < dim:
        raise DimensionError(f"variable index {i} out of range for dimension {dim}")
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(dim)), Fraction(0)


def _fraction_term(ts, var_index, dim):
    tok = ts.peek()
    if tok[0] != "int":
        return _fraction_variable(ts, var_index, dim, "a term")
    ts.take()
    if not ts.accept("*"):
        return (Fraction(0),) * dim, Fraction(int(tok[1]))
    coeffs, const = _fraction_variable(ts, var_index, dim, "a variable after '*'")
    k = Fraction(int(tok[1]))
    return tuple(k * a for a in coeffs), k * const


def fraction_linear_expr(ts, var_index, dim):
    """``['-'] term (('+'|'-') term)*`` at the cursor, as ``(coeffs, const)``."""
    negate = ts.accept("-")
    coeffs, const = _fraction_term(ts, var_index, dim)
    if negate:
        coeffs, const = tuple(-a for a in coeffs), -const
    while ts.at("+") or ts.at("-"):
        sign = 1 if ts.take()[1] == "+" else -1
        more, k = _fraction_term(ts, var_index, dim)
        coeffs, const = tuple(a + sign * b for a, b in zip(coeffs, more)), const + sign * k
    return coeffs, const


def fraction_constraint(ts, var_index, dim) -> Constraint:
    """``expr rel expr`` at the cursor, canonicalized through Fractions."""
    lhs, lconst = fraction_linear_expr(ts, var_index, dim)
    tok = ts.peek()
    if tok[1] not in ("<", "<=", "=", ">=", ">"):
        ts.error("expected a relation")
    ts.take()
    rhs, rconst = fraction_linear_expr(ts, var_index, dim)
    diff = [a - b for a, b in zip(lhs, rhs)]
    return fraction_canonicalize_constraint(diff, tok[1], rconst - lconst)


def two_lift_entry(t, invariant, act, source):
    """The entry region of transition ``t`` from ``source``: the source
    flow under ``act`` in one lift, the image met with ``invariant`` in
    a second, each lift reduced."""
    flowed = source.lift_image(lambda p: _source_flow(p, act))
    return flowed.lift_image(lambda p: t.image(p).intersection(invariant))


def former_sweep_step(old, f_value, widened: bool, cap: int):
    """(new region, changed) of one location in a sweep: the join, or at a
    widened location the widening unless ``f_value`` is below ``old``,
    then a second inclusion test of the new region against ``old``."""
    if widened:
        new = old if f_value.entails(old) else old.widen(old.join(f_value), cap)
    else:
        new = old.join(f_value)
    return new, not new.entails(old)


def former_reach(h, opts):
    """(regions, iterations) of the reach sweeps on ``former_sweep_step``
    and ``two_lift_entry``, with no memo; None if no fixpoint comes
    within ``opts.max_iter`` sweeps."""
    widen_at = h.widen_at or h.default_widen_set()
    bottom = lift(Polyhedron.empty(h.dim, Topology.NNC), opts.domain)
    regions = {l.name: bottom for l in h.locations}
    for sweep in range(1, opts.max_iter + 1):
        changed = False
        for loc in h.locations:
            f_value = lift(loc.init, opts.domain)
            for i in h.incoming(loc.name):
                t = h.transitions[i]
                act = h.location(t.source).rate
                f_value = f_value.join(two_lift_entry(t, loc.invariant, act, regions[t.source]))
            f_value = f_value.lift_image(
                lambda p: p.time_elapse(loc.rate).intersection(loc.invariant)
            )
            widened = loc.name in widen_at and sweep > opts.delay
            new, moved = former_sweep_step(regions[loc.name], f_value, widened, opts.cap)
            if moved:
                changed = True
                regions[loc.name] = new
        if not changed:
            return regions, sweep
    return None


def concat_join(a, b):
    """The join of two powersets: both operands' elements, a's first,
    reduced."""
    return PolySet.reduce(a.dim, a.topology, a.elements + b.elements)


def emitted_bounds(p, k: int):
    """(lo, hi) of dimension ``k`` over the closure of nonempty ``p``, in
    Fractions, None when unbounded: the extremes of the emitted points and
    closure points, unbounded on a side where an emitted ray (a line is
    two) moves."""
    lo = hi = None
    down = up = False
    for g in p.minimized_generators():
        if g.kind is GenKind.RAY:
            down, up = down or g.coeffs[k] < 0, up or g.coeffs[k] > 0
        else:
            x = Fraction(g.coeffs[k], g.divisor)
            lo, hi = x if lo is None else min(lo, x), x if hi is None else max(hi, x)
    return None if down else lo, None if up else hi


def dual_minimal_rows(p):
    """The minimal rows of a nonempty ``p`` by a dual conversion of its minimal
    generators (``_dual_rows``), as the kernel found a row-built value's before
    it read them off the forward matrix: the lines are the equalities, the rays
    the inequalities, the positivity row dropped.  Reads nothing ``p`` holds
    but its generators."""
    lines, rays, _, _ = _dual_rows(p._hom_dim, *p._minimal_gens())
    pi = p._pi()
    return tuple([(v, True) for v in lines] + [(v, False) for v in rays if v != pi])


# The `.imp` parser in two phases: the descent builds every node with pid 0,
# then ``_renumber`` rebuilds the tree with the pre-order pids and bounds its
# depth, and ``_collect_vars`` walks it for the variables of a program with no
# ``vars`` header.  These are the bodies ``polyinv.imp`` had before it built
# each node once.

_FORMER_KEYWORDS = {"skip", "if", "then", "else", "while", "do", "true", "false", "vars"}


class _FormerParser(Tokens):
    def __init__(self, text: str):
        super().__init__(text)
        self.tokens = [("kw", *t[1:]) if t[1] in _FORMER_KEYWORDS else t for t in self.tokens]
        self.declared: list[str] | None = None

    def variable(self):
        tok = self.name()
        if self.declared is not None and tok[1] not in self.declared:
            raise ParseError(f"undeclared variable {tok[1]!r}", tok[2], tok[3])
        return tok

    def atom(self):
        kind, text, line, col = self.peek()
        if kind == "int":
            self.take()
            return imp.IntLit(0, line, col, int(text))
        if text in ("-", "("):
            self.enter()
            self.take()
            if text == "-":
                e = imp.BinOp(0, line, col, "-", imp.IntLit(0, line, col, 0), self.atom())
            else:
                e = self.aexp()
                self.take(")")
            self.leave()
            return e
        if kind == "name":
            return imp.Var(0, line, col, self.variable()[1])
        self.error("expected an expression")

    def mul(self):
        e = self.atom()
        while self.at("*"):
            _, _, line, col = self.take()
            e = imp.BinOp(0, line, col, "*", e, self.atom())
        return e

    def aexp(self):
        e = self.mul()
        while self.at("+") or self.at("-"):
            _, op, line, col = self.take()
            e = imp.BinOp(0, line, col, op, e, self.mul())
        return e

    def bexp(self):
        tok = self.peek()
        if tok[1] in ("true", "false"):
            self.take()
            return imp.BoolLit(0, tok[2], tok[3], tok[1] == "true")
        left = self.aexp()
        if not (self.at("=") or self.at("<")):
            self.error("expected '=' or '<'")
        _, op, line, col = self.take()
        return imp.Compare(0, line, col, op, left, self.aexp())

    def body(self):
        self.enter()
        if self.accept("{"):
            s = self.sequence(until="}")
            self.take("}")
        else:
            s = self.statement()
        self.leave()
        return s

    def element(self):
        return self.body() if self.at("{") else self.statement()

    def statement(self):
        kind, text, line, col = self.peek()
        if text == "skip":
            self.take()
            return imp.Skip(0, line, col)
        if text == "if":
            self.take()
            cond = self.bexp()
            self.take("then")
            then = self.body()
            self.take("else")
            return imp.If(0, line, col, cond, then, self.body())
        if text == "while":
            self.take()
            cond = self.bexp()
            self.take("do")
            return imp.While(0, line, col, cond, self.body())
        if kind == "name":
            name = self.variable()[1]
            self.take(":=")
            return imp.Assign(0, line, col, name, self.aexp())
        self.error("expected a statement")

    def sequence(self, until=None):
        stmts = [self.element()]
        while self.accept(";"):
            if self.at(until) if until is not None else self.at_end():
                break
            stmts.append(self.element())
        out = stmts[-1]
        for s in reversed(stmts[:-1]):
            out = imp.Seq(0, s.line, s.col, s, out)
        return out


def _fields(node) -> list:
    return [getattr(node, f) for f in node.__match_args__[3:]]


def _renumber(program_body):
    pids = count()

    def visit(node, depth):
        if depth > MAX_DEPTH:
            raise ParseError(TOO_DEEP, node.line, node.col)
        spine = []
        while isinstance(node, imp.Seq):
            pid = next(pids)
            spine.append((node, pid, visit(node.first, depth + 1)))
            node = node.second
        pid = next(pids)
        values = [visit(v, depth + 1) if isinstance(v, imp.Node) else v for v in _fields(node)]
        out = type(node)(pid, node.line, node.col, *values)
        for seq, pid, first in reversed(spine):
            out = imp.Seq(pid, seq.line, seq.col, first, out)
        return out

    return visit(program_body, 1)


def _collect_vars(s, acc: list[str]) -> None:
    while isinstance(s, imp.Seq):
        _collect_vars(s.first, acc)
        s = s.second
    if isinstance(s, (imp.Var, imp.Assign)) and s.name not in acc:
        acc.append(s.name)
    for v in _fields(s):
        if isinstance(v, imp.Node):
            _collect_vars(v, acc)


def former_parse_program(text: str):
    parser = _FormerParser(text)
    if parser.accept("vars"):
        parser.declared = []
        for tok in parser.names():
            if tok[1] in parser.declared:
                raise ParseError(f"duplicate variable {tok[1]!r}", tok[2], tok[3])
            parser.declared.append(tok[1])
    body = parser.sequence()
    if not parser.at_end():
        parser.error("expected ';'")
    body = _renumber(body)
    declared = parser.declared
    if declared is None:
        declared = []
        _collect_vars(body, declared)
    return imp.Program(tuple(declared), body)


# The product of two hybrid automata by three transition loops: the first
# component's moves (paired on a shared label, else interleaved at each of the
# partner's locations), then the second's unshared moves.  This is the body
# ``polyinv.hybrid.parallel_compose`` had before it composed by one rule.

def _former_identity_relation(n: int):
    return Polyhedron.from_constraints(2 * n, Topology.NNC, [_unchanged(i, n) for i in range(n)])


def _former_interleave_relation(rel, m: int, n: int):
    """(x, x', y, y') -> (x, y, x', y') for a concatenated relation."""
    perm = [*range(m), *range(m + n, 2 * m + n), *range(m, m + n), *range(2 * m + n, 2 * (m + n))]
    return rel.map_dimensions(perm)


def former_parallel_compose(first, second):
    clash = set(first.variables) & set(second.variables)
    if clash:
        raise ValueError(f"variable clash in composition: {sorted(clash)}")
    m, n = first.dim, second.dim
    variables = first.variables + second.variables
    shared = first.labels & second.labels

    def prod_name(a: str, b: str) -> str:
        if len(second.locations) == 1:
            return a
        if len(first.locations) == 1:
            return b
        return f"{a}.{b}"

    locations = []
    for a in first.locations:
        for b in second.locations:
            locations.append(
                Location(
                    prod_name(a.name, b.name),
                    a.invariant.concatenate(b.invariant),
                    a.rate.concatenate(b.rate),
                    a.init.concatenate(b.init),
                )
            )

    transitions = []
    for t in first.transitions:
        if t.label is not None and t.label in shared:
            for u in second.transitions:
                if u.label == t.label:
                    rel = _former_interleave_relation(t.relation.concatenate(u.relation), m, n)
                    transitions.append(
                        Transition(
                            prod_name(t.source, u.source),
                            t.label,
                            rel,
                            prod_name(t.target, u.target),
                        )
                    )
        else:
            rel = _former_interleave_relation(
                t.relation.concatenate(_former_identity_relation(n)), m, n
            )
            for b in second.locations:
                transitions.append(
                    Transition(prod_name(t.source, b.name), t.label, rel, prod_name(t.target, b.name))
                )
    for u in second.transitions:
        if u.label is not None and u.label in shared:
            continue  # handled above (or blocked)
        rel = _former_interleave_relation(_former_identity_relation(m).concatenate(u.relation), m, n)
        for a in first.locations:
            transitions.append(
                Transition(prod_name(a.name, u.source), u.label, rel, prod_name(a.name, u.target))
            )

    widen_at = set()
    for a in first.locations:
        for b in second.locations:
            if a.name in first.widen_at or b.name in second.widen_at:
                widen_at.add(prod_name(a.name, b.name))

    return HybridAutomaton(
        variables,
        tuple(locations),
        first.labels | second.labels,
        tuple(transitions),
        frozenset(widen_at),
    )
