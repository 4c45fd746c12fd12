"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from polyinv import polyhedron


class Conversions(list):
    """The dimension of each DD conversion (``_dd_cone`` call) the test runs;
    ``given`` holds each call's rows and its kind, as
    ``tools/check_digests.Conversions`` counts them: ``"forward"`` from
    scratch, ``"seeded"`` from an operand's generators, or ``"dual"`` (the
    call inside ``_dual_rows``, whose cone and matrix pass through)."""

    def __init__(self):
        super().__init__()
        self.given: list[tuple[list, str]] = []

    def clear(self):
        super().clear()
        self.given.clear()

    def of_kind(self, kind: str) -> list[int]:
        return [dim for dim, (_, k) in zip(self, self.given) if k == kind]


@pytest.fixture
def conversions(monkeypatch):
    """The ``Conversions`` of the test."""
    calls = Conversions()
    dd_cone, dual_rows = polyhedron._dd_cone, polyhedron._dual_rows
    in_dual = False

    def counted(dim, rows, seed=None):
        rows = list(rows)
        calls.append(dim)
        calls.given.append((rows, "dual" if in_dual else "forward" if seed is None else "seeded"))
        return dd_cone(dim, rows, seed)

    def counted_dual(hom_dim, lines, rays):
        nonlocal in_dual
        in_dual = True
        try:
            return dual_rows(hom_dim, lines, rays)
        finally:
            in_dual = False

    monkeypatch.setattr(polyhedron, "_dd_cone", counted)
    monkeypatch.setattr(polyhedron, "_dual_rows", counted_dual)
    return calls


@pytest.fixture
def fractions_built(monkeypatch):
    """The arguments of each ``Fraction(...)`` construction the test runs.

    From Python 3.12 on ``Fraction`` arithmetic makes its results without
    ``__new__``; before, each arithmetic result is counted too.
    """
    calls = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls
