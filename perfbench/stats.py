"""Summary statistics shared by the benchmark and its self-tests."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first; a fixed ladder keeps the
# reported percentile the same across runs whose job counts differ a little
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _rank(n: int, pct: float) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(values, pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")
    rank = _rank(len(ordered), pct)
    return ordered[rank - 1]


def beyond_count(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank pct-th percentile."""
    return n - _rank(n, pct)


def tail_percentile(n: int):
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it, or None when n is too small for any."""
    for pct in TAIL_LADDER:
        if beyond_count(n, pct) >= TAIL_MIN_BEYOND:
            return pct
    return None


def tail(values):
    """(percentile, value, jobs beyond) for the tail rule.

    With too few samples for the lowest ladder step the maximum is
    reported, flagged by a percentile of 100."""
    pct = tail_percentile(len(values))
    if pct is None:
        return 100.0, max(values), 0
    return pct, nearest_rank(values, pct), beyond_count(len(values), pct)


def median(values) -> float:
    return float(statistics.median(values))
