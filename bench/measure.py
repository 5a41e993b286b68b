"""Arithmetic of the benchmark's metrics: percentiles and run-to-run spread."""

from __future__ import annotations

import math
import statistics

# Tail percentile reported for per-job wall time.  A tail percentile is only
# reported with at least ten samples beyond it.  A run executes every job of
# its pass at least MIN_PASSES times (so medians over passes are medians of
# three or more), and a pass holds at least MIN_JOBS jobs, so a run has at
# least 150 samples, 15 beyond the nearest-rank 90th percentile.
TAIL_PERCENTILE = 90
MIN_JOBS = 50
MIN_PASSES = 3


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of samples <= it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - math.ceil(p / 100.0 * n)


def relative_spread(values) -> float:
    """Interquartile distance over the median (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
