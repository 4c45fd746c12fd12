"""Counted call sites, shared by ``tools/check_digests.py`` and the test fixtures.

A site is ``(owner, attribute, count)``.  Inside ``counted(tally)``, a call of
``owner.attribute`` adds 1 to ``tally[name]``, e.g. ``tally["Polyhedron.contains"]``
(``tally`` is a ``Counter``), then runs ``count(tally, real, *args, **kwargs)``
on the original ``real``.  That returns the result and the call's details for
``counted``'s ``keep`` callback (by default its positional arguments), and
some sites count more keys:

* ``_dd_cone``: its kind, ``"forward"`` (from scratch), ``"seeded"`` (from an
  operand's generators) or ``"dual"`` (inside ``_dual_rows``), and its rows and
  rays (lines not counted) under ``kind + " rows"`` and ``kind + " rays"``;
  its details are ``(dim, rows, kind)``;
* ``box_excludes`` and ``contains``: ``"box rejections"`` and ``"contains yes"``;
* ``minimized_constraints``: ``"fresh minimizations"``, the calls on a value
  that had not emitted its constraints yet.
"""

from contextlib import contextmanager
from fractions import Fraction

from polyinv import polyhedron
from polyinv.hybrid import Transition
from polyinv.polyhedron import Polyhedron
from polyinv.powerset import PolySet


def _call(tally, real, *args, **kwargs):
    return real(*args, **kwargs), args


def _conversion(tally, dd_cone, dim, rows, seed=None):
    rows = list(rows)
    kind = "dual" if tally["inside _dual_rows"] else "forward" if seed is None else "seeded"
    cone = dd_cone(dim, rows, seed)
    tally.update({kind: 1, kind + " rows": len(rows), kind + " rays": len(cone[1])})
    return cone, (dim, rows, kind)


def _dual(tally, dual_rows, *args):
    tally["inside _dual_rows"] += 1
    try:
        return _call(tally, dual_rows, *args)
    finally:
        tally["inside _dual_rows"] -= 1


def _answered(key):
    def count(tally, test, p, q):
        answer = test(p, q)
        tally[key] += answer
        return answer, (p, q)

    return count


def _minimization(tally, minimized_constraints, p):
    tally["fresh minimizations"] += p._out_cons is None
    return _call(tally, minimized_constraints, p)


SITES = [
    (polyhedron, "_dd_cone", _conversion),
    (polyhedron, "_dual_rows", _dual),
    (Fraction, "__new__", _call),
    (Polyhedron, "box_excludes", _answered("box rejections")),
    (Polyhedron, "contains", _answered("contains yes")),
    (PolySet, "reduce", _call),
    (Polyhedron, "minimized_constraints", _minimization),
    (Polyhedron, "_read_rows", _call),
    (Transition, "image", _call),
    (Polyhedron, "time_elapse", _call),
]


def sites(*attributes: str) -> list:
    """The sites of ``SITES`` with these attribute names."""
    return [site for site in SITES if site[1] in attributes]


@contextmanager
def counted(tally, chosen=SITES, keep=None):
    """Count the calls of the ``chosen`` sites into ``tally`` while open, passing
    each call's name and details to ``keep`` if given; on leaving, also when
    the body raises, put back the exact objects the owners held (for a
    staticmethod, the staticmethod object)."""
    originals = [(owner, attribute, vars(owner)[attribute]) for owner, attribute, _ in chosen]
    try:
        for owner, attribute, count in chosen:
            setattr(owner, attribute, _wrapper(tally, keep, owner, attribute, count))
        yield tally
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def _wrapper(tally, keep, owner, attribute, count):
    real, name = getattr(owner, attribute), f"{owner.__name__.rpartition('.')[2]}.{attribute}"

    def wrapper(*args, **kwargs):
        tally[name] += 1
        result, details = count(tally, real, *args, **kwargs)
        if keep is not None:
            keep(name, details)
        return result

    return staticmethod(wrapper) if isinstance(vars(owner)[attribute], staticmethod) else wrapper
