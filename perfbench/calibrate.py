"""Host-speed calibration: a fixed reference kernel timed beside every request.

The shared host these figures come from runs slower in phases that change
within a second and last up to minutes (a fixed pure-Python loop reads
between 1.0 and 1.6 times its best time in 0.4 s windows).  The best of a
request's repeats does not remove a slow phase that covers a whole run.

So every timed request is bracketed by readings of ``kernel``, a fixed piece
of work that does not touch ``conevol``: complex scalar recurrences in pure
Python (the mix of the Chebyshev and Newton layers), a few small numpy root
finds, and dict and call overhead.  A request's *normalised* time is its
wall time times ``REF_S`` over the mean of the readings just before and just
after it, that is, the time it would have taken on a host that runs the
kernel in ``REF_S``.  A change of the program moves its requests' times and
leaves the kernel's alone, so it shows in full; a change of the host's speed
moves both and cancels.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's time on the host of NOTES.md in its faster phases (2 CPUs,
# x86_64 Linux, Python 3.11.7, numpy 2.4.6).  A fixed constant: it only sets
# the scale.
REF_S = 0.003

_COEFFS = (1.0, -2.5, 0.75, 1.25, -0.5, 0.125)


def kernel() -> complex:
    acc = 0j
    table = {}
    y = complex(1.3, 0.2)
    for j in range(1200):
        prev, cur = 1.0 + 0j, y
        for _ in range(24):
            prev, cur = cur, y * cur - prev
        table[j % 17] = cur
        acc += cur / (y - 2.0) + abs(prev) * 1e-9
        y += 1e-3j
    for j in range(24):
        roots = np.roots(_COEFFS[: 4 + j % 3])
        acc += complex(roots[0]) * 1e-9
    return acc + sum(table.values()) * 1e-12


def reading() -> float:
    """Wall seconds of one kernel call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
