"""Summary arithmetic shared by the benchmark: medians, the tail-percentile
rule, failure accounting and span self time.

Pure functions with no dependency on pathreg, so the tests in
``perfbench/tests`` exercise them directly.
"""

from __future__ import annotations

import math
import statistics

# A tail below the median is not a tail: the rule only reports percentiles
# from p50 upwards, so a run needs at least 20 ops before it has one.
TAIL_MIN_BEYOND = 10
TAIL_LOWEST_PERCENTILE = 50


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(latencies, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest integer percentile p whose nearest-rank value leaves at least
    ``min_beyond`` ops slower than it.

    Returns ``(p, value)``, or ``None`` when the run has too few ops for any
    p from 50 up.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, TAIL_LOWEST_PERCENTILE - 1, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            return p, xs[rank - 1]
    return None


def error_rate(failed: int, attempted: int) -> float:
    """Failed ops as a share of attempted ops; the base must be positive."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted op")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} is outside 0..{attempted}")
    return failed / attempted


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, child_intervals) -> float:
    """A span's duration minus the part of it that its children cover."""
    return (end - start) - covered(child_intervals, start, end)
