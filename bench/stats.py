"""Order statistics over the samples of one run."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def tail_percentile(values: Sequence[float], fraction: float) -> Optional[float]:
    """The percentile, or None with fewer than ten samples beyond it."""
    if len(values) * (1.0 - fraction) < 10:
        return None
    return percentile(values, fraction)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and count — what is printed beside a metric."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
