"""Convex-polyhedra abstract interpretation toolkit.

Exact double-description kernel for closed and not-necessarily-closed
polyhedra, a finite powerset domain, a linear-invariant analyzer for a
small imperative language, and a reachability engine for linear hybrid
automata.
"""

from .linalg import (
    Constraint,
    DimensionError,
    GenKind,
    Generator,
    Rel,
    canonicalize_constraint,
)
from .polyhedron import (
    GeneratorSystemError,
    Polyhedron,
    Topology,
    TopologyError,
    WideningPreconditionError,
    standard_widening,
)
from .powerset import PolySet

__all__ = [
    "Constraint",
    "DimensionError",
    "GenKind",
    "Generator",
    "GeneratorSystemError",
    "PolySet",
    "Polyhedron",
    "Rel",
    "Topology",
    "TopologyError",
    "WideningPreconditionError",
    "canonicalize_constraint",
    "standard_widening",
]
