"""The reference kernel that paces the benchmark's timings.

The host's speed drifts by tens of percent over seconds to minutes, and it
slows the library and any other pure-Python code alike.  The benchmark
therefore runs this fixed kernel between items (about every
``INTERVAL_S`` of item time) and between set-up launches, and scales every
latency by ``NOMINAL_S`` over the kernel times measured beside it.  The
reported times are those of a machine on which the kernel always takes
``NOMINAL_S``: a program change moves them, the host's drift cancels.

The kernel is fraction-free Gaussian elimination (Bareiss) of a fixed
integer matrix, so it works the interpreter the way trcalc's exact Smith
forms do: loops over lists of growing Python integers.  It is part of the
benchmark, never of trcalc, so no change to the library changes it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

NOMINAL_S = 0.0015  # about the kernel's time on the 2-vCPU Xeon VM the bounds were set on
INTERVAL_S = 0.05   # item time between two kernel runs
SIZE = 24

_RNG = random.Random(20230826)
_MATRIX = [[_RNG.randrange(-50, 51) for _ in range(SIZE)] for _ in range(SIZE)]


def determinant(matrix: list[list[int]]) -> int:
    """Determinant by Bareiss elimination, with row swaps for zero pivots."""
    a = [row[:] for row in matrix]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return sign * a[-1][-1]


def timed_kernel(clock=time.perf_counter) -> float:
    """Wall time of one kernel run, with the garbage collector held off so
    that a collection owed to the workload's objects is not charged here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        determinant(_MATRIX)
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


def local_scale(refs: list[float], j: int) -> float:
    """Kernel time around an item that ran after ``refs[j]``: the median of
    that run and its neighbours on either side, when they exist."""
    return statistics.median(refs[max(0, j - 1): j + 2])
