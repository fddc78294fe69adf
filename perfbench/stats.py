"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond
#: it; p90 therefore needs 100 samples and p95 needs 200.
MIN_TAIL_SAMPLES = 10


def min_samples_for(pct: float) -> int:
    """Smallest sample count at which :func:`percentile` reports ``pct``."""
    return math.ceil(MIN_TAIL_SAMPLES / (1.0 - pct / 100.0) - 1e-9)


def percentile(samples: Sequence[float], pct: float) -> Optional[float]:
    """The ``pct``-th percentile (linear interpolation between ranks).

    Returns ``None`` when fewer than :data:`MIN_TAIL_SAMPLES` samples lie
    beyond the percentile, so a tail figure is never read off a handful of
    points. The median (``pct=50``) is reported from 20 samples on.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    if len(samples) < min_samples_for(pct):
        return None
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (run-to-run noise)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else math.inf
