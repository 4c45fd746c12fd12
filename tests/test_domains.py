"""The integer range of an expression over a store's closure box
(``abstract_eval_aexp``): examples plus soundness by exhaustion.

A store is a box over one or two variables, each side an integer or
None (unbounded); ``EMPTY`` is a range of rationals with no integer in
it.  The range of ``x op y`` is checked against the values the operator
takes on the box's integer points.
"""

from itertools import product

from polyinv.analyzer import abstract_eval_aexp
from polyinv.imp import parse_program
from polyinv.parse import parse_constraints
from polyinv.polyhedron import Polyhedron, Topology

CONCRETE_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}
EMPTY = "3*{v}>=1, 3*{v}<=2"  # x in [1/3, 2/3]: the store holds no integer point
NAMES = ("x", "y")


def store(*ranges):
    """The box with one (lo, hi) pair, or EMPTY, per variable of NAMES."""
    parts = []
    for v, r in zip(NAMES, ranges):
        if r == EMPTY:
            parts.append(EMPTY.format(v=v))
            continue
        lo, hi = r
        if lo is not None:
            parts.append(f"{v}>={lo}")
        if hi is not None:
            parts.append(f"{v}<={hi}")
    n = len(ranges)
    cs = parse_constraints(", ".join(parts), {v: i for i, v in enumerate(NAMES[:n])}, n)
    return Polyhedron.from_constraints(n, Topology.CLOSED, cs)


def span(text, *ranges):
    names = NAMES[:len(ranges)]
    e = parse_program(f"vars {', '.join(names)}; x := {text}").body.expr
    return abstract_eval_aexp(e, store(*ranges), names)


def test_addition_formula():
    assert span("x + y", (1, 2), (3, 4)) == (4, 6)


def test_multiplication_brute_forced():
    products = {x * y for x in range(-1, 3) for y in range(3, 5)}
    assert span("x * y", (-1, 2), (3, 4)) == (min(products), max(products)) == (-4, 8)


def test_subtraction_loses_correlation():
    assert span("x - x", (0, 1)) == (-1, 1)


def test_bottom_absorbs():
    assert span("y", EMPTY, (0, 1)) == (0, 1)  # the store itself is not empty
    for op in "+-*":
        assert span(f"x {op} y", EMPTY, (0, 1)) is None
        assert span(f"y {op} x", EMPTY, (0, 1)) is None
    empty = Polyhedron.empty(1, Topology.CLOSED)
    assert abstract_eval_aexp(parse_program("x := 1").body.expr, empty, ("x",)) is None


def test_infinite_endpoint_products():
    for a, b, product_range in [
        ((0, None), (2, 3), (0, None)),
        ((0, None), (-3, -2), (None, 0)),
        ((None, None), (0, 0), (0, 0)),  # 0 times an infinite end is 0
        ((None, -1), (None, -1), (1, None)),
    ]:
        assert span("x * y", a, b) == span("x * y", b, a) == product_range


BOUNDS = [None, -2, -1, 0, 1, 2]
RANGES = [(lo, hi) for lo in BOUNDS for hi in BOUNDS if None in (lo, hi) or lo <= hi]


def _integers(r):
    """The integers of r in [-2, 2], which holds every bounded range of RANGES."""
    return [m for m in range(-2, 3) if (r[0] is None or r[0] <= m) and (r[1] is None or m <= r[1])]


def test_soundness_by_exhaustion():
    # sound on every box, and the exact range (optimal) on every bounded one
    for a, b in product(RANGES, repeat=2):
        for op, f in CONCRETE_OPS.items():
            got = span(f"x {op} y", a, b)
            values = [f(x, y) for x in _integers(a) for y in _integers(b)]
            assert all((got[0] is None or got[0] <= v) and (got[1] is None or v <= got[1])
                       for v in values), (op, a, b)
            if None not in (*a, *b):
                assert got == (min(values), max(values)), (op, a, b)


def _inside(r, s):
    """Whether the range r (None when empty) lies in the range s."""
    if r is None:
        return True
    if s is None:
        return False
    return (s[0] is None or (r[0] is not None and r[0] >= s[0])) and (
        s[1] is None or (r[1] is not None and r[1] <= s[1]))


def test_monotonicity():
    # nested boxes over x, with y held in a probe range, give nested ranges
    boxes = [EMPTY, *RANGES]
    probe = (-1, 2)
    for op in "+-*":
        got = {a: span(f"x {op} y", a, probe) for a in boxes}
        for a, b in product(boxes, repeat=2):
            if _inside(None if a == EMPTY else a, None if b == EMPTY else b):
                assert _inside(got[a], got[b]), (op, a, b)
