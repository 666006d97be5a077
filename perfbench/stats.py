"""Small statistics shared by the runner, the spread check and the tests."""

from __future__ import annotations

import math
import statistics

TARGET_HALF_WIDTH = 0.002

# Percentiles a latency report may name, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default) of a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile in PERCENTILES with at least ten of n samples
    beyond it, or None when even the median has fewer."""
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def time_to_target(wall_s: float, half_width: float, target: float = TARGET_HALF_WIDTH) -> float:
    """Estimator seconds to reach a 95% half-width of `target`: the
    half-width shrinks as 1/sqrt(paths), so time scales as (hw/target)^2."""
    return wall_s * (half_width / target) ** 2


def relative_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
