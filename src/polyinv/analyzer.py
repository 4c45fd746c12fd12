"""Linear-invariant analyzer for the small imperative language.

Stores are abstracted by closed convex polyhedra (one dimension per
declared variable) or by finite sets of them.  Statements are evaluated
by the abstract big-step rules: assignments of affine expressions are
exact single-update affine images, other assignments go through
interval evaluation and a bounded affine image, and tests strengthen
the store through Boolean filters (with strict integer comparisons
tightened, e.g. ``a < b`` to ``a <= b - 1``, since variables range over
the integers).

Loops follow the rational-tree construction: a while node is expanded
until the store met at its recursive occurrence is subsumed by the one
at the expansion (then the recursive conclusion is the least fixpoint
of ``X -> filter_ff join X``, which is ``filter_ff`` itself); a
non-subsumed recurrence re-expands the node in place with
the store joined (`delay` times) and then widened, which guarantees
termination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import imp
from .domains import Interval, int_arith
from .linalg import Constraint, LinExpr, Rel, canonicalize_constraint
from .polyhedron import Polyhedron, Topology
from .powerset import PolySet, check_domain_options, lift


class AnalysisError(RuntimeError):
    """Internal engine failure (iteration caps exceeded)."""


@dataclass(frozen=True)
class AnalysisOptions:
    domain: str = "poly"  # 'poly' | 'powerset'
    delay: int = 0
    cap: int = 8
    max_local_iterations: int = 64

    def __post_init__(self):
        check_domain_options(self.domain, self.cap, self.delay, self.max_local_iterations)


@dataclass(frozen=True)
class AbstractStore:
    """A polyhedral (or disjunctive) store over the declared variables."""

    variables: tuple[str, ...]
    value: Polyhedron | PolySet

    @property
    def dim(self) -> int:
        return len(self.variables)

    @staticmethod
    def top(variables: Sequence[str], domain: str = "poly") -> AbstractStore:
        u = Polyhedron.universe(len(variables), Topology.CLOSED)
        return AbstractStore(tuple(variables), lift(u, domain))

    @staticmethod
    def from_constraints(
        variables: Sequence[str], cs: Sequence[Constraint], domain: str = "poly"
    ) -> AbstractStore:
        p = Polyhedron.from_constraints(len(variables), Topology.CLOSED, _tighten_strict(cs))
        return AbstractStore(tuple(variables), lift(p, domain))

    # lattice ----------------------------------------------------------------

    def is_bottom(self) -> bool:
        return self.value.is_bottom()

    def join(self, other: AbstractStore) -> AbstractStore:
        return self._with(self.value.join(other.value))

    def leq(self, other: AbstractStore) -> bool:
        return self.value.entails(other.value)

    def equals(self, other: AbstractStore) -> bool:
        return self.value.equals(other.value)

    def widen(self, newer: AbstractStore, cap: int) -> AbstractStore:
        return self._with(self.value.widen(newer.value, cap))

    def lift_image(self, op: Callable[[Polyhedron], Polyhedron]) -> AbstractStore:
        return self._with(self.value.lift_image(op))

    def contains_concrete(self, store: Mapping[str, int]) -> bool:
        point = [store[v] for v in self.variables]
        return self.value.contains_point(point)

    def _with(self, value) -> AbstractStore:
        return AbstractStore(self.variables, value)

    def pretty(self) -> str:
        if isinstance(self.value, PolySet):
            if self.value.is_bottom():
                return "{0>=1}"
            parts = [p.constraints_pretty(self.variables) for p in self.value.elements]
            return " | ".join(sorted(parts))
        return self.value.constraints_pretty(self.variables)


def _tighten_strict(cs: Sequence[Constraint]) -> list[Constraint]:
    """Integer tightening: <a,x> > b becomes <a,x> >= b+1 (closed domain)."""
    out = []
    for c in cs:
        if c.rel is Rel.GT:
            out.append(canonicalize_constraint(c.coeffs, ">=", c.rhs + 1))
        else:
            out.append(c)
    return out


# ---------------------------------------------------------------------------
# Abstract expression evaluation
# ---------------------------------------------------------------------------

def to_linexpr(e: imp.Aexp, variables: Sequence[str]) -> LinExpr | None:
    """The exact affine form of an arithmetic expression, if it has one."""
    n = len(variables)
    if isinstance(e, imp.IntLit):
        return LinExpr.constant(e.value, n)
    if isinstance(e, imp.Var):
        return LinExpr.variable(variables.index(e.name), n)
    assert isinstance(e, imp.BinOp)
    left = to_linexpr(e.left, variables)
    right = to_linexpr(e.right, variables)
    if left is None or right is None:
        return None
    if e.op == "+":
        return left + right
    if e.op == "-":
        return left - right
    return left.try_mul(right)


def _interval_of_dim(p: Polyhedron, k: int) -> Interval:
    lo, hi = p.dim_bounds(k)
    ilo = None if lo is None else -((-lo.numerator) // lo.denominator)  # ceil
    ihi = None if hi is None else hi.numerator // hi.denominator  # floor
    if ilo is not None and ihi is not None and ilo > ihi:
        return Interval.bottom()
    return Interval(ilo, ihi)


def abstract_eval_aexp(e: imp.Aexp, p: Polyhedron, variables: Sequence[str]) -> Interval:
    """The integer interval of e's values over the polyhedron p."""
    if p.is_empty():
        return Interval.bottom()
    if isinstance(e, imp.IntLit):
        return Interval.singleton(e.value)
    if isinstance(e, imp.Var):
        return _interval_of_dim(p, variables.index(e.name))
    assert isinstance(e, imp.BinOp)
    return int_arith(
        e.op, abstract_eval_aexp(e.left, p, variables), abstract_eval_aexp(e.right, p, variables)
    )


# ---------------------------------------------------------------------------
# Filters and assignment
# ---------------------------------------------------------------------------

def _comparison_constraint(lhs: LinExpr, rhs: LinExpr, kind: str) -> Constraint:
    diff = rhs - lhs
    if kind == "lt":  # lhs < rhs, integers: lhs <= rhs - 1
        return canonicalize_constraint(diff.coeffs, ">=", 1 - diff.const)
    if kind == "ge":  # lhs >= rhs
        return canonicalize_constraint(diff.coeffs, "<=", -diff.const)
    if kind == "eq":
        return canonicalize_constraint(diff.coeffs, "=", -diff.const)
    if kind == "gt":  # lhs > rhs, integers: lhs >= rhs + 1
        return canonicalize_constraint(diff.coeffs, "<=", -1 - diff.const)
    raise AssertionError(kind)


def filter_store(store: AbstractStore, b: imp.Bexp, branch: bool) -> AbstractStore:
    """Sound Boolean filter (phi_tt / phi_ff)."""
    if store.is_bottom():
        return store
    if isinstance(b, imp.BoolLit):
        if b.value == branch:
            return store
        return store.lift_image(lambda p: Polyhedron.empty(p.dim, p.topology))
    assert isinstance(b, imp.Compare)
    lhs = to_linexpr(b.left, store.variables)
    rhs = to_linexpr(b.right, store.variables)
    if lhs is None or rhs is None:
        return store  # non-affine side: identity is sound
    if b.op == "<":
        kind = "lt" if branch else "ge"
        c = _comparison_constraint(lhs, rhs, kind)
        return store.lift_image(lambda p: p.add_constraint(c))
    # equality test
    if branch:
        c = _comparison_constraint(lhs, rhs, "eq")
        return store.lift_image(lambda p: p.add_constraint(c))
    if isinstance(store.value, PolySet):
        below = _comparison_constraint(lhs, rhs, "lt")
        above = _comparison_constraint(lhs, rhs, "gt")
        elements = store.value.elements
        pieces = [p.add_constraint(below) for p in elements]
        pieces += [p.add_constraint(above) for p in elements]
        return store._with(PolySet.reduce(store.dim, Topology.CLOSED, pieces))
    return store  # convex domain cannot express the complement of a hyperplane


def abstract_assign(store: AbstractStore, name: str, e: imp.Aexp) -> AbstractStore:
    if name not in store.variables:
        raise ValueError(f"assignment to undeclared variable {name!r}")
    if store.is_bottom():
        return store
    k = store.variables.index(name)
    expr = to_linexpr(e, store.variables)
    if expr is not None:
        return store.lift_image(lambda p: p.affine_image(k, expr))
    n = store.dim

    def interval_image(p: Polyhedron) -> Polyhedron:
        iv = abstract_eval_aexp(e, p, store.variables)
        if iv.is_bottom():
            return Polyhedron.empty(n, Topology.CLOSED)
        lo = None if iv.lo is None else LinExpr.constant(iv.lo, n)
        hi = None if iv.hi is None else LinExpr.constant(iv.hi, n)
        return p.bounded_affine_image(k, lo, hi)

    return store.lift_image(interval_image)


# ---------------------------------------------------------------------------
# The analysis engine
# ---------------------------------------------------------------------------

@dataclass
class AnalysisResult:
    entries: dict[int, AbstractStore]
    exit_store: AbstractStore
    loop_invariants: dict[int, AbstractStore]
    widenings: int = 0
    delayed_joins: int = 0


def analyze(
    program: imp.Program, initial: AbstractStore, opts: AnalysisOptions = AnalysisOptions()
) -> AnalysisResult:
    if tuple(initial.variables) != tuple(program.variables):
        raise ValueError("initial store variables differ from the program's")
    result = AnalysisResult({}, initial, {})

    def eval_stmt(s: imp.Stmt, store: AbstractStore) -> AbstractStore:
        result.entries[s.pid] = store
        if isinstance(s, imp.Skip):
            return store
        if isinstance(s, imp.Assign):
            return abstract_assign(store, s.name, s.expr)
        if isinstance(s, imp.Seq):  # a loop along the chain, however long
            store = eval_stmt(s.first, store)
            while isinstance(s.second, imp.Seq):
                s = s.second
                result.entries[s.pid] = store
                store = eval_stmt(s.first, store)
            return eval_stmt(s.second, store)
        if isinstance(s, imp.If):
            then_out = eval_stmt(s.then, filter_store(store, s.cond, True))
            else_out = eval_stmt(s.orelse, filter_store(store, s.cond, False))
            return then_out.join(else_out)
        assert isinstance(s, imp.While)
        return eval_while(s, store)

    def eval_while(w: imp.While, store: AbstractStore) -> AbstractStore:
        head = store
        delay_left = opts.delay
        for _ in range(opts.max_local_iterations):
            result.entries[w.pid] = head
            body_out = eval_stmt(w.body, filter_store(head, w.cond, True))
            if body_out.leq(head):
                # subsumed recurrence: the least r = filter_ff(head) join r is filter_ff(head)
                result.loop_invariants[w.pid] = head
                return filter_store(head, w.cond, False)
            if delay_left > 0:
                delay_left -= 1
                result.delayed_joins += 1
                head = head.join(body_out)
            else:
                result.widenings += 1
                head = head.widen(head.join(body_out), opts.cap)
        raise AnalysisError("loop analysis failed to stabilize (engine bug)")

    result.exit_store = eval_stmt(program.body, initial)
    return result
