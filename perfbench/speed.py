"""The host's speed, read from a fixed computation timed next to the items.

On the shared host this benchmark was built on, the speed of a Python
process drifts by up to 1.7x, both within seconds and for whole minutes,
while its CPU time grows with its wall time (neighbours slow the core;
they do not take it away).  Whole-run slowdowns like that cannot be
averaged away inside a 50 s run, so every time the benchmark gates is
scaled to a fixed host speed: a measured time t becomes
``t * NOMINAL_S / r``, where r is the median time of the reference
computation below, read in between the items of the same pass (or, for
set-up, in the same process).  A change to the program moves t and not
r; a change of host speed moves both.

The reference imports nothing from ``polyinv``, so the program under test
can never make it faster or slower.  It does what the kernel's hot loop
does on small inputs: integer dot products through generator
expressions, pairwise combinations, gcd normalisation, tuples and sets.
"""

from __future__ import annotations

import math
import statistics
import time

# One reading times this many calls, about 2 ms on the host named in NOMINAL_S.
CALLS = 4
# The time of one reading on a quiet moment of a 2-CPU Xeon VM at 2.1 GHz
# (CPython 3.11): the speed every scaled time is expressed at.
NOMINAL_S = 2.0e-3

_VECTORS = [tuple((i * 37 + j * 11) % 13 - 6 for j in range(6)) for i in range(24)]


def reference() -> int:
    """One double-description-like step over fixed integer vectors."""
    out = set()
    rays = _VECTORS[:12]
    for h in _VECTORS[12:18]:
        dots = [sum(a * b for a, b in zip(h, r)) for r in rays]
        pos = [(r, d) for r, d in zip(rays, dots) if d > 0]
        neg = [(r, d) for r, d in zip(rays, dots) if d < 0]
        for r, a in pos:
            for s, b in neg:
                v = tuple(a * y - b * x for x, y in zip(r, s))
                g = 0
                for x in v:
                    g = math.gcd(g, x)
                if g > 1:
                    v = tuple(x // g for x in v)
                out.add(v)
    return len(out)


def reading() -> float:
    """Seconds taken by one reading of the reference."""
    t0 = time.perf_counter()
    for _ in range(CALLS):
        reference()
    return time.perf_counter() - t0


def scale(readings: list[float]) -> float:
    """The factor that turns a time measured next to `readings` into
    seconds at the nominal speed."""
    return NOMINAL_S / statistics.median(readings)
