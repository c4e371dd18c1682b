"""Sample summaries: median, quartiles, percentiles, supported percentile.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it — a tail estimate resting on
fewer samples than that moves with single outliers.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Percentiles a report may quote, lowest first.
CANDIDATE_PERCENTILES = (50.0, 80.0, 90.0, 95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to be quoted.
MIN_SAMPLES_BEYOND = 10


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``p``-th
    nearest-rank percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def supported_percentile(n: int) -> float | None:
    """The highest candidate percentile with >= 10 samples beyond it,
    or None when even the median has fewer."""
    best = None
    for p in CANDIDATE_PERCENTILES:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def summary(values: Sequence[float]) -> dict:
    """The stored form of a sampled metric: n, quartiles, all samples."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "samples": [float(v) for v in values],
    }
