"""The few statistics the benchmark reports, in one place.

Timings are reported as a median plus the highest percentile the sample
can support (at least ten samples beyond it), always with the sample
count — a p99 over 40 samples is the maximum under another name.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: percentiles a report may quote, ascending; `highest_supported`
#: picks the last one that still has ten samples beyond it.
PERCENTILE_LADDER = (0.50, 0.75, 0.90, 0.95, 0.99, 0.999)
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-quantile (0 < q ≤ 1): the smallest sample with
    at least ``q·n`` of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def highest_supported(n: int) -> float | None:
    """The highest ladder percentile with at least
    :data:`MIN_SAMPLES_BEYOND` of *n* samples beyond it, or ``None``
    when even the median is not supported."""
    supported = None
    for q in PERCENTILE_LADDER:
        if n - math.ceil(q * n) >= MIN_SAMPLES_BEYOND:
            supported = q
    return supported


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median — the
    run-to-run spread the acceptance rule compares with a bound."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    if centre == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(centre)
