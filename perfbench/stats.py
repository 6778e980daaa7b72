"""Percentiles and host diagnostics for the benchmark.

Latency percentiles use the nearest-rank definition: the p-th
percentile of n samples is the sample at rank ceil(p * n / 100) in
ascending order, so it is always a measured value, and the samples
beyond it are the n - rank strictly later ranks.  A job that failed or
was refused is a sample of +inf: slower than any limit.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def nearest_rank(samples: Sequence[float], p: float) -> Tuple[float, int]:
    """(value, samples beyond it) of the p-th percentile."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def reportable(samples: Sequence[float], p: float) -> Optional[float]:
    """The p-th percentile when it is finite and has at least
    :data:`MIN_BEYOND` samples beyond it, else None."""
    if not samples:
        return None
    value, beyond = nearest_rank(samples, p)
    if beyond < MIN_BEYOND or math.isinf(value):
        return None
    return value


# -- host diagnostics -------------------------------------------------------

#: Iterations of the fixed pure-Python loop timed before and after a
#: workload.
PROBE_ITERATIONS = 300_000


def probe_loop() -> float:
    """Seconds for a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies summed over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    numbers = [int(field) for field in fields[1:]]
    steal = numbers[7] if len(numbers) > 7 else 0
    # guest time is already counted inside user time.
    return steal, sum(numbers[:8])


def steal_share(before, after) -> Optional[float]:
    if before is None or after is None:
        return None
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def process_cpu() -> Dict[str, float]:
    """CPU seconds of this process and its reaped children."""
    times = os.times()
    return {
        "self_s": times.user + times.system,
        "children_s": times.children_user + times.children_system,
    }
