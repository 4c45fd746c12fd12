"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from .counting import counted, sites


class Conversions(list):
    """The dimension of each DD conversion (``_dd_cone`` call) the test runs;
    ``given`` holds each call's rows and its kind, as the ``_dd_cone`` site of
    ``tests/counting.py`` counts them: ``"forward"`` from scratch,
    ``"seeded"`` from an operand's generators, or ``"dual"`` (the call
    inside ``_dual_rows``, whose cone and matrix pass through)."""

    def __init__(self):
        super().__init__()
        self.given: list[tuple[list, str]] = []

    def clear(self):
        super().clear()
        self.given.clear()

    def of_kind(self, kind: str) -> list[int]:
        return [dim for dim, (_, k) in zip(self, self.given) if k == kind]

    def keep(self, name: str, details) -> None:
        if name == "polyhedron._dd_cone":
            dim, rows, kind = details
            self.append(dim)
            self.given.append((rows, kind))


@pytest.fixture
def conversions():
    """The ``Conversions`` of the test."""
    calls = Conversions()
    with counted(Counter(), sites("_dd_cone", "_dual_rows"), calls.keep):
        yield calls


@pytest.fixture
def fractions_built():
    """The arguments of each ``Fraction(...)`` construction the test runs.

    From Python 3.12 on ``Fraction`` arithmetic makes its results without
    ``__new__``; before, each arithmetic result is counted too.
    """
    calls = []
    with counted(Counter(), sites("__new__"), lambda name, args: calls.append(args[1:])):
        yield calls  # args[1:]: the arguments after the class
