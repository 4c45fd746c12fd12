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

The engine runs on regions (a ``Polyhedron`` or a ``PolySet``) through
the lattice verbs both answer, as the reach engine does; an
``AbstractStore`` pairs a region with the variable names only at the
edges, as the initial store and the stores of the result.

Each assignment and test is compiled on its first visit, in integers:
an affine expression to a row ``(const, c_1..c_n)``, a test and branch
to the one-row polyhedra it meets.  A loop in another loop's body is
memoized by its entry region's minimized constraints; a repeated entry
replays the recorded regions.  ``widenings`` and ``delayed_joins`` count
the work done, so a replay adds nothing to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from . import imp
from .domains import Interval, int_arith
from .linalg import Constraint, Rel, canonicalize_constraint
from .polyhedron import Polyhedron, Topology
# the analyzer's options are the domain options: name, widening delay and cap
from .powerset import DomainOptions as AnalysisOptions, PolySet, lift


class AnalysisError(RuntimeError):
    """Internal engine failure (iteration caps exceeded)."""


# the widening stabilizes every loop; one still moving after this many sweeps is an engine bug
MAX_LOCAL_ITERATIONS = 64


Region = Polyhedron | PolySet


@dataclass(frozen=True)
class AbstractStore:
    """A polyhedral (or disjunctive) store over the declared variables."""

    variables: tuple[str, ...]
    value: Region

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

    def contains_concrete(self, store: Mapping[str, int]) -> bool:
        point = [store[v] for v in self.variables]
        return self.value.contains_point(point)

    def pretty(self) -> str:
        if isinstance(self.value, PolySet):
            if self.value.is_bottom():
                return "{0>=1}"
            parts = [p.constraints_pretty(self.variables) for p in self.value.elements]
            return " | ".join(sorted(parts))
        return self.value.constraints_pretty(self.variables)


def region_key(value: Region) -> tuple:
    """The minimized constraints, per disjunct: equal keys print equal stores."""
    parts = value.elements if isinstance(value, PolySet) else (value,)
    return tuple(p.minimized_constraints() for p in parts)


def _tighten_strict(cs: Sequence[Constraint]) -> list[Constraint]:
    """Integer tightening: <a,x> > b becomes <a,x> >= b+1 (closed domain)."""
    return [c if c.rel is not Rel.GT else canonicalize_constraint(c.coeffs, ">=", c.rhs + 1)
            for c in cs]


# ---------------------------------------------------------------------------
# Abstract expression evaluation
# ---------------------------------------------------------------------------

def affine_row(e: imp.Aexp, variables: Sequence[str]) -> list[int] | None:
    """The integer row ``(const, c_1..c_n)`` of e's affine form, if it has one."""
    if isinstance(e, imp.IntLit):
        return [e.value] + [0] * len(variables)
    if isinstance(e, imp.Var):
        k = 1 + variables.index(e.name)
        return [int(i == k) for i in range(1 + len(variables))]
    assert isinstance(e, imp.BinOp)
    left = affine_row(e.left, variables)
    right = affine_row(e.right, variables)
    if left is None or right is None:
        return None
    if e.op != "*":
        sign = 1 if e.op == "+" else -1
        return [a + sign * b for a, b in zip(left, right)]
    if any(left[1:]) and any(right[1:]):
        return None  # no constant factor
    factor, row = (left[0], right) if not any(left[1:]) else (right[0], left)
    return [factor * a for a in row]


def _interval_of_dim(p: Polyhedron, k: int) -> Interval:
    lo, hi = p.closure_box()[k]
    lo, hi = None if lo is None else -(-lo[0] // lo[1]), None if hi is None else hi[0] // hi[1]
    return Interval.bottom() if None not in (lo, hi) and lo > hi else Interval(lo, hi)


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

def _test_pieces(b: imp.Compare, branch: bool, variables: Sequence[str]):
    """The one-row polyhedra whose union is where ``b`` is ``branch``; None if not affine."""
    left = affine_row(b.left, variables)
    right = affine_row(b.right, variables)
    if left is None or right is None:
        return None

    def half(row: list[int], rel: str) -> Polyhedron:  # row[0] + <row[1:], x> rel 0
        c = canonicalize_constraint(row[1:], rel, -row[0])
        return Polyhedron.from_constraints(len(row) - 1, Topology.CLOSED, [c])

    d = [r - l for l, r in zip(left, right)]  # rhs - lhs
    below = [d[0] - 1, *d[1:]]  # lhs < rhs over the integers: rhs - lhs - 1 >= 0
    above = [-d[0] - 1, *(-c for c in d[1:])]  # lhs > rhs: lhs - rhs - 1 >= 0
    if b.op == "<":
        return (half(below, ">="),) if branch else (half([-c for c in d], ">="),)
    return (half(d, "="),) if branch else (half(below, ">="), half(above, ">="))


def filter_store(
    value: Region, variables: Sequence[str], b: imp.Bexp, branch: bool, compiled=None
) -> Region:
    """Sound Boolean filter (phi_tt / phi_ff); ``compiled`` keeps tests by (pid, branch)."""
    if value.is_bottom():
        return value
    if isinstance(b, imp.BoolLit):
        if b.value == branch:
            return value
        return value.lift_image(lambda p: Polyhedron.empty(p.dim, p.topology))
    assert isinstance(b, imp.Compare)
    compiled = {} if compiled is None else compiled
    if (b.pid, branch) not in compiled:  # first visit: compile the test
        compiled[b.pid, branch] = _test_pieces(b, branch, variables)
    pieces = compiled[b.pid, branch]
    if pieces is None:
        return value  # non-affine side: identity is sound
    if len(pieces) == 1:
        return value.lift_image(lambda p: p.intersection(pieces[0]))
    if isinstance(value, PolySet):
        split = [p.intersection(piece) for piece in pieces for p in value.elements]
        return PolySet.reduce(value.dim, Topology.CLOSED, split)
    return value  # convex domain cannot express the complement of a hyperplane


def abstract_assign(
    value: Region, variables: Sequence[str], name: str, e: imp.Aexp, compiled=None
) -> Region:
    """The image of ``name := e``; ``compiled`` keeps expression rows by pid."""
    if name not in variables:
        raise ValueError(f"assignment to undeclared variable {name!r}")
    if value.is_bottom():
        return value
    k = variables.index(name)
    compiled = {} if compiled is None else compiled
    if e.pid not in compiled:  # first visit: compile the expression
        compiled[e.pid] = affine_row(e, variables)
    row = compiled[e.pid]
    if row is not None:
        return value.lift_image(lambda p: p.affine_image(k, row))
    n = len(variables)

    def interval_image(p: Polyhedron) -> Polyhedron:
        iv = abstract_eval_aexp(e, p, variables)
        if iv.is_bottom():
            return Polyhedron.empty(n, Topology.CLOSED)
        lo, hi = [None if b is None else [b] + [0] * n for b in (iv.lo, iv.hi)]
        return p.bounded_affine_image(k, lo, hi)

    return value.lift_image(interval_image)


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
    variables = tuple(initial.variables)
    if variables != tuple(program.variables):
        raise ValueError("initial store variables differ from the program's")
    entries: dict[int, Region] = {}
    invariants: dict[int, Region] = {}
    compiled: dict = {}  # rows of expressions by pid, test polyhedra by (pid, branch)
    memo: dict = {}  # inner loop runs by (pid, entry key): exit region, subtree regions
    open_loops = widenings = delayed_joins = 0

    def eval_stmt(s: imp.Stmt, value: Region) -> Region:
        entries[s.pid] = value
        if isinstance(s, imp.Skip):
            return value
        if isinstance(s, imp.Assign):
            return abstract_assign(value, variables, s.name, s.expr, compiled)
        if isinstance(s, imp.Seq):  # a loop along the chain, however long
            value = eval_stmt(s.first, value)
            while isinstance(s.second, imp.Seq):
                s = s.second
                entries[s.pid] = value
                value = eval_stmt(s.first, value)
            return eval_stmt(s.second, value)
        if isinstance(s, imp.If):
            then_out = eval_stmt(s.then, filter_store(value, variables, s.cond, True, compiled))
            else_out = eval_stmt(s.orelse, filter_store(value, variables, s.cond, False, compiled))
            return then_out.join(else_out)
        assert isinstance(s, imp.While)
        return eval_while(s, value)

    def eval_while(w: imp.While, value: Region) -> Region:
        nonlocal open_loops, widenings, delayed_joins
        key = (w.pid, region_key(value)) if open_loops else None
        if key in memo:  # an inner loop entered as before: replay its run
            out, saved = memo[key]
            for table, regions in saved:
                table.update(regions)
            return out
        open_loops += 1
        head = value
        delay_left = opts.delay
        for _ in range(MAX_LOCAL_ITERATIONS):
            entries[w.pid] = head
            body_out = eval_stmt(w.body, filter_store(head, variables, w.cond, True, compiled))
            if body_out.entails(head):
                # subsumed recurrence: the least r = filter_ff(head) join r is filter_ff(head)
                invariants[w.pid] = head
                out = filter_store(head, variables, w.cond, False, compiled)
                break
            if delay_left > 0:
                delay_left -= 1
                delayed_joins += 1
                head = head.join(body_out)
            else:
                widenings += 1
                head = head.widen(head.join(body_out), opts.cap)
        else:
            raise AnalysisError("loop analysis failed to stabilize (engine bug)")
        open_loops -= 1
        if key is not None:
            pids = [s.pid for s in imp.walk_statements(w)]
            memo[key] = out, [(t, {p: t[p] for p in pids if p in t}) for t in (entries, invariants)]
        return out

    exit_value = eval_stmt(program.body, initial.value)

    def stores(table: dict[int, Region]) -> dict[int, AbstractStore]:
        return {pid: AbstractStore(variables, r) for pid, r in table.items()}

    exit_store = AbstractStore(variables, exit_value)
    return AnalysisResult(stores(entries), exit_store, stores(invariants), widenings, delayed_joins)
