"""Order statistics for benchmark samples.

A tail percentile is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; otherwise it is ``None``.  Every summary carries
its sample count.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values: Sequence[float], fraction: float) -> float | None:
    """Nearest-rank percentile, or None with fewer than :data:`MIN_BEYOND`
    samples strictly above its rank."""
    ordered = sorted(values)
    if not ordered:
        return None
    rank = max(1, math.ceil(fraction * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def latency_summary(values: Sequence[float]) -> dict:
    """``{"p50", "p95", "n"}``; ``p95`` is None when the sample is too
    small to support it."""
    return {
        "p50": median(values) if values else None,
        "p95": percentile(values, 0.95),
        "n": len(values),
    }


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the stability
    measure: ``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf
