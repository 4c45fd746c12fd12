"""Linear-invariant analyzer for the small imperative language.

Stores are abstracted by closed convex polyhedra (one dimension per
declared variable) or by finite sets of them.  Statements are evaluated
by the abstract big-step rules: assignments of affine expressions are
exact single-update affine images, other assignments evaluate their
expression's integer range on the closure box of each polyhedron and
assign it as a bounded affine image, and tests strengthen
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


Range = tuple[int | None, int | None]  # integer bounds, None for an unbounded end


def abstract_eval_aexp(e: imp.Aexp, p: Polyhedron, variables: Sequence[str]) -> Range | None:
    """The integer range of e's values over p's closure box; None when p is
    empty or a variable of e has no integer in its range."""
    if p.is_empty():
        return None
    box = p.closure_box()

    def span(e: imp.Aexp) -> Range | None:
        if isinstance(e, imp.IntLit):
            return e.value, e.value
        if isinstance(e, imp.Var):  # the closure's bounds, rounded inward to integers
            lo, hi = box[variables.index(e.name)]
            lo = None if lo is None else -(-lo[0] // lo[1])
            hi = None if hi is None else hi[0] // hi[1]
            return None if None not in (lo, hi) and lo > hi else (lo, hi)
        assert isinstance(e, imp.BinOp)
        a, b = span(e.left), span(e.right)
        if a is None or b is None:
            return None
        (alo, ahi), (blo, bhi) = a, b
        if e.op == "-":
            blo, bhi = None if bhi is None else -bhi, None if blo is None else -blo
        if e.op != "*":
            return tuple(None if None in ends else sum(ends) for ends in ((alo, blo), (ahi, bhi)))
        # endpoint products: 0 times an infinite end is 0, an infinite one has the signs' product
        finite, infinite = [], set()
        for x, x_inf in ((alo, -1), (ahi, 1)):
            for y, y_inf in ((blo, -1), (bhi, 1)):
                sign = (x_inf if x is None else (x > 0) - (x < 0)) * (
                    y_inf if y is None else (y > 0) - (y < 0))
                if sign and None in (x, y):
                    infinite.add(sign)
                else:
                    finite.append(x * y if sign else 0)
        return None if -1 in infinite else min(finite), None if 1 in infinite else max(finite)

    return span(e)


# ---------------------------------------------------------------------------
# Filters and assignment
# ---------------------------------------------------------------------------

def _test_pieces(b: imp.Bexp, branch: bool, variables: Sequence[str]):
    """The one-row polyhedra whose union is where ``b`` is ``branch``; None if not
    affine or everywhere (a literal equal to ``branch``), an empty one if nowhere."""
    if isinstance(b, imp.BoolLit):
        return None if b.value == branch else (Polyhedron.empty(len(variables), Topology.CLOSED),)
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
    compiled = {} if compiled is None else compiled
    if (b.pid, branch) not in compiled:  # first visit: compile the test
        compiled[b.pid, branch] = _test_pieces(b, branch, variables)
    pieces = compiled[b.pid, branch]
    if pieces is None:
        return value  # a true literal, or a non-affine side: identity is sound
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
        bounds = abstract_eval_aexp(e, p, variables)
        if bounds is None:
            return Polyhedron.empty(n, Topology.CLOSED)
        lo, hi = [None if b is None else [b] + [0] * n for b in bounds]
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
    if isinstance(initial.value, PolySet) != (opts.domain == "powerset"):
        raise ValueError(f"initial store is not of the {opts.domain!r} domain")
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
