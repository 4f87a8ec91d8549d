"""The percentile rule and the reductions over rounds."""

import statistics

import pytest

from harness.stats import (
    percentile,
    quartiles,
    summarize,
    tail_quantile,
    worsening,
)


def test_nearest_rank_percentile():
    vals = list(range(1, 101))  # 1..100, sorted
    assert percentile(vals, 0.5) == 50
    assert percentile(vals, 0.99) == 99
    assert percentile(vals, 1.0) == 100
    assert percentile([3.0], 0.99) == 3.0


@pytest.mark.parametrize("n, q", [
    (5, 0.5),       # nothing qualifies: the median, with n stated
    (20, 0.5),      # 10 beyond the median
    (99, 0.5),      # 9.9 beyond p90: not enough
    (100, 0.9),     # 10 beyond p90
    (199, 0.9),
    (200, 0.95),    # 10 beyond p95
    (999, 0.95),
    (1000, 0.99),   # 10 beyond p99
    (10**6, 0.99),  # the ladder stops at p99
])
def test_highest_percentile_with_ten_samples_beyond(n, q):
    assert tail_quantile(n) == q


def test_the_reported_percentile_really_has_ten_beyond():
    for n in (20, 100, 200, 1000, 4321):
        vals = list(range(n))
        q = tail_quantile(n)
        beyond = sum(v > percentile(vals, q) for v in vals)
        assert beyond >= 10


def test_quartiles_are_the_statistics_modules():
    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3, 5.8, 9.7, 9.3]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    assert quartiles(vals) == (q1, med, q3)
    assert summarize(vals) == {
        "median": statistics.median(vals), "q1": q1, "q3": q3, "n": 10,
        "spread": pytest.approx((q3 - q1) / med)}
    assert quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_worsening_follows_the_metrics_direction():
    assert worsening("lower", 100.0, 110.0) == pytest.approx(0.10)
    assert worsening("lower", 100.0, 90.0) == pytest.approx(-0.10)
    assert worsening("higher", 100.0, 90.0) == pytest.approx(0.10)
    assert worsening("higher", 100.0, 110.0) == pytest.approx(-0.10)
