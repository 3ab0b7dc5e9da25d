"""The reference block: a fixed amount of pure-Python work that no switchrd
code touches. Timings of it, taken next to the benchmark's own timings, give
the machine's speed at that moment; ``run.py`` scales every reported time by
it. It imports nothing beyond the standard library, so fresh interpreters
can use it before ``import switchrd``.
"""

from __future__ import annotations

import statistics
import time

#: Iterations of the block; about 2 ms of interpreter work.
ITERATIONS = 30000


def reference() -> int:
    total = 0
    for i in range(ITERATIONS):
        total += i * i
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def median_reference(runs: int) -> float:
    return statistics.median(time_reference() for _ in range(runs))
