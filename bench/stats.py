"""Arithmetic of the benchmark: medians, quartiles, tail percentiles, error rate.

Kept free of numpy and of the program under test so the parent process stays
small and these rules can be tested on their own.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that it says more about one slow sample than about the tail.
TAIL_SAMPLES_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p: float) -> float:
    """The p-th percentile (0 < p < 100), interpolated between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(count: int, wanted: int = 90,
                    beyond: int = TAIL_SAMPLES_BEYOND) -> int | None:
    """Highest whole percentile up to ``wanted`` with ``beyond`` samples past it.

    Of ``count`` samples, ``count * (100 - p) / 100`` lie beyond the p-th
    percentile.  Returns None when even the median has fewer than ``beyond``
    samples past it.
    """
    if count <= 0:
        return None
    p = min(wanted, math.floor(100.0 * (count - beyond) / count + 1e-9))
    return p if p >= 50 else None


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed operations must lie between 0 and attempted")
    return failed / attempted
