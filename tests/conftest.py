"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from polyinv import polyhedron


class Conversions(list):
    """The dimension of each DD conversion (``_dd_cone`` call) the test runs;
    ``given`` holds each call's rows and whether it was seeded."""

    def __init__(self):
        super().__init__()
        self.given: list[tuple[list, bool]] = []

    def clear(self):
        super().clear()
        self.given.clear()


@pytest.fixture
def conversions(monkeypatch):
    """The ``Conversions`` of the test."""
    calls = Conversions()
    original = polyhedron._dd_cone

    def counted(dim, rows, seed=None):
        rows = list(rows)
        calls.append(dim)
        calls.given.append((rows, seed is not None))
        return original(dim, rows, seed)

    monkeypatch.setattr(polyhedron, "_dd_cone", counted)
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
