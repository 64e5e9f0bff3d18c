"""The machine's speed at a moment, read from a fixed reference kernel.

On the machine this benchmark was written on, the speed of pure-Python
Fraction arithmetic moves by up to 2x over milliseconds to seconds, with CPU
time equal to wall time.  A single pass of a workload then reads up to 60%
faster or slower than the pass before it.  So each operation is bracketed by
two timings of a fixed Fraction elimination.  The operation's time is scaled
by REFERENCE_SECONDS over the mean of the two timings, and its unit becomes
"seconds at the reference speed".  The kernel shares no code with evencob, so
a change to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time, between operations, on the 2-vCPU machine the
# reference figures come from.
REFERENCE_SECONDS = 1.3e-3

_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 4) for j in range(7)] for i in range(6)]
_REPEATS = 3
_SETTLED_READINGS = 5


def _eliminate(rows: list[list[Fraction]]) -> None:
    m = [row[:] for row in rows]
    top = 0
    for c in range(len(m[0])):
        r = next((i for i in range(top, len(m)) if m[i][c]), None)
        if r is None:
            continue
        m[top], m[r] = m[r], m[top]
        lead = m[top][c]
        m[top] = [x / lead for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[top])]
        top += 1


def reference_seconds() -> float:
    """The fastest of a few timings of the kernel: one reading of the speed."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _eliminate(_MATRIX)
        best = min(best, time.perf_counter() - start)
    return best


def settled_reference_seconds() -> float:
    """The median of several readings, for an interval with no operations in it."""
    return statistics.median(reference_seconds() for _ in range(_SETTLED_READINGS))


def scaled(seconds: float, reference: float) -> float:
    """Seconds at the reference speed."""
    return seconds * REFERENCE_SECONDS / reference
