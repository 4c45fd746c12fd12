"""Fixtures shared by the test modules."""

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
