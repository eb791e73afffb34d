"""Reference clock: how fast the host is right now.

The hosts this benchmark runs on are shared.  Measured on a 2-vCPU
container, a fixed pure-Python loop pinned to one vCPU runs in one of
two states: fast, or about 1.6x slower while a neighbour loads the
same physical core.  Each vCPU switches between the states on its own,
every second or so, and how much of a run falls in the slow state
varies from minute to minute -- so raw wall times of identical runs
minutes apart differ by 10-40%, more than any useful regression bound.

Every time the benchmark reports is therefore in *reference seconds*:
the wall time of each timed call multiplied by ``NOMINAL_S`` over the
mean of two loop readings taken on the CPU doing the work, one right
before and one right after the call.  That is the time the call would
take with the host in its fast state.  The loop is read only between
timed calls, never during one, so it does not share the CPU or its
caches with the program while the program is timed.  It does what the
simulator's hot paths do -- dict lookups and stores on small ints,
float arithmetic -- and uses no repository code.
"""

from __future__ import annotations

import time
from statistics import median

#: One loop on an unloaded vCPU of the host the baseline was measured
#: on (an Intel Xeon at 2.0 GHz).
NOMINAL_S = 0.00083
_ITERATIONS = 5_000


def _loop() -> float:
    table = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(_ITERATIONS):
        k = (i * 7919) & 0xFFFF
        v = table.get(k, 0.0)
        table[k] = v + i * 0.5
        acc += v
    return time.perf_counter() - t0


def measure() -> float:
    """Median of five loop timings (~4 ms in all) on this CPU."""
    return median(_loop() for _ in range(5))


def factor(before: float, after: float) -> float:
    """Reference seconds per wall second between two readings."""
    return NOMINAL_S * 2 / (before + after)
