"""Speed of the machine's processors, measured with a fixed loop.

The benchmark runs on shared machines whose processors alternate between
fast and slow phases, each processor on its own schedule, and whose speed
drifts over tens of minutes.  Each pass is pinned to the processor that is
fastest when it starts, and its times are scaled by this loop's time taken
in the same process before and after its calls (``run.end_to_end``).
"""

from __future__ import annotations

import os
from time import perf_counter


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, best of 3: this processor's speed now.

    The loop is the benchmark's own and must not change: the reference
    speed ``run.CAL_REF_S`` is this loop's time.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc, seen = 1, {}
        for i in range(20000):
            acc = (acc * 48271 + i) % 2147483647
            seen[acc & 1023] = (acc, i)
        best = min(best, perf_counter() - t0)
    return best


def fastest_cpu() -> tuple[int, dict]:
    """The processor, among those this process may use, that is fastest now.

    Returns it with the loop time measured on each processor.
    """
    allowed = os.sched_getaffinity(0)
    speeds = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = calibrate()
    finally:
        os.sched_setaffinity(0, allowed)
    return min(speeds, key=speeds.get), speeds
