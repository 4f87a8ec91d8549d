"""Robust reductions: block medians, quartile spread, the tail-percentile rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: candidate tail quantiles, lowest first
TAIL_LADDER = (0.5, 0.9, 0.95, 0.99)

#: a percentile is reported only with at least this many samples beyond it
TAIL_MIN_BEYOND = 10


def percentile(sorted_vals: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted, non-empty samples.

    Rank ``ceil(q n)``, so exactly ``n - ceil(q n)`` samples lie beyond the
    reported one — the count :func:`tail_quantile` reasons about.
    """
    rank = math.ceil(round(q * len(sorted_vals), 9))
    return sorted_vals[min(len(sorted_vals), max(rank, 1)) - 1]


def tail_quantile(n_samples: int) -> float:
    """Highest quantile of the ladder with >= 10 samples beyond it.

    With fewer than 20 samples not even the median qualifies; the median is
    still what gets reported (there is nothing lower on the ladder), and the
    sample count stated next to it says how little it means.
    """
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if round(n_samples * (1.0 - q), 9) >= TAIL_MIN_BEYOND:
            best = q
    return best


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(values: Sequence[float]) -> dict:
    """median / q1 / q3 / n / spread of one metric over rounds or blocks."""
    q1, med, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med if med else 0.0,
    }


def worsening(better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive means worse in the metric's own direction; negative, better.
    """
    if base == 0:
        return 0.0
    delta = (new - base) / base
    return delta if better == "lower" else -delta
