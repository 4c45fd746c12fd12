"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest

from polyinv import polyhedron


@pytest.fixture
def conversions(monkeypatch):
    """The dimension of each DD conversion (``_dd_cone`` call) the test runs."""
    calls = []
    original = polyhedron._dd_cone

    def counted(dim, rows):
        calls.append(dim)
        return original(dim, rows)

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
