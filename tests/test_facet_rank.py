"""Emitted constraints are the facets of the emitted generators, at d = 5..8.

For a nonempty closed value, each emitted generator is a homogeneous
vector: a point ``(divisor, *coeffs)``, a ray ``(0, *coeffs)``, a line
its two opposite rays (as ``minimized_generators`` emits it).  Each
emitted constraint ``<a, x> rel b`` is the row ``(-b, *a)``.  Then, in
exact arithmetic and with no conversion of the kernel's:

* every equality vanishes on every generator, and the equalities number
  ``d + 1`` less the rank of the generators;
* every inequality is nonnegative on every generator, and the generators
  it is tight on have rank exactly one less than all of them: it is a
  facet, not a redundant row or half of an implicit equality;
* no two inequalities are tight on the same generators.

The values are the closed families of ``tests/test_dual_extraction.py``:
cross-polytopes, cyclic polytopes and random hulls built from raw
generators, and row systems from their constraints with redundant sums,
duplicates, split and implicit equalities and dropped facets.  Values of
more than 48 rays are skipped, as that file skips them.
"""

from hypothesis import given
from hypothesis import strategies as st

from polyinv.linalg import GenKind, Rel
from polyinv.polyhedron import Polyhedron, Topology

from .oracles import fraction_eliminate
from .test_dual_extraction import FUZZ, raw_values, row_values

CLOSED = Topology.CLOSED


def rank(vectors) -> int:
    vectors = list(vectors)
    if not vectors:
        return 0
    pivots, _ = fraction_eliminate(vectors, range(len(vectors[0])))
    return len(pivots)


def assert_facets(p: Polyhedron):
    if p.is_empty() or len(p._minimal_gens()[1]) > 48:
        return
    gens = [(g.divisor if g.kind is GenKind.POINT else 0, *g.coeffs) for g in p.minimized_generators()]
    full = rank(gens)
    tight_sets = set()
    equalities = 0
    for c in p.minimized_constraints():
        row = (-c.rhs, *c.coeffs)
        values = [sum(a * b for a, b in zip(row, g)) for g in gens]
        if c.rel is Rel.EQ:
            assert not any(values), c
            equalities += 1
            continue
        assert min(values) >= 0, c
        tight = frozenset(i for i, v in enumerate(values) if v == 0)
        assert rank(gens[i] for i in tight) == full - 1, c
        assert tight not in tight_sets, c
        tight_sets.add(tight)
    assert equalities == p.dim + 1 - full


@FUZZ
@given(raw_values(CLOSED))
def test_constraints_of_a_value_built_from_generators_are_its_facets(case):
    _, _, build, _ = case
    assert_facets(build())


@FUZZ
@given(row_values(CLOSED))
def test_constraints_of_a_value_built_from_rows_are_its_facets(case):
    d, topology, rows, _ = case
    assert_facets(Polyhedron.from_constraints(d, topology, rows))
