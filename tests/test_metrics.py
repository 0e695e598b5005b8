"""Tests for the paper's metrics (§3.5)."""

import math

import pytest

from repro.metrics import (
    Band,
    CostRecord,
    Thresholds,
    band_breakdown,
    classify,
    max_min_ratio,
    percentile,
    summarize_distribution,
    summarize_latencies,
)

T = Thresholds(easy_steps=100, budget_steps=1000)


def rec(steps, killed=False, found=True):
    return CostRecord(steps=steps, found=found, killed=killed)


class TestClassification:
    def test_bands(self):
        assert classify(rec(50), T) is Band.EASY
        assert classify(rec(100), T) is Band.MID
        assert classify(rec(999), T) is Band.MID
        assert classify(rec(1000, killed=True), T) is Band.HARD

    def test_charged(self):
        assert rec(50).charged(T) == 50
        assert rec(700, killed=True).charged(T) == 1000

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Thresholds(easy_steps=0, budget_steps=10)
        with pytest.raises(ValueError):
            Thresholds(easy_steps=10, budget_steps=10)


class TestBandBreakdown:
    def test_averages_and_percentages(self):
        records = [rec(10), rec(30), rec(500), rec(1000, killed=True)]
        bd = band_breakdown(records, T)
        assert bd.avg_easy == pytest.approx(20)
        assert bd.avg_mid == pytest.approx(500)
        assert bd.avg_completed == pytest.approx(180)
        assert bd.pct_easy == pytest.approx(50)
        assert bd.pct_mid == pytest.approx(25)
        assert bd.pct_hard == pytest.approx(25)

    def test_empty_band_is_nan(self):
        bd = band_breakdown([rec(10)], T)
        assert math.isnan(bd.avg_mid)

    def test_no_records_rejected(self):
        with pytest.raises(ValueError):
            band_breakdown([], T)


class TestRatios:
    def test_max_min(self):
        assert max_min_ratio([2.0, 10.0, 4.0]) == pytest.approx(5.0)
        assert max_min_ratio([3.0]) == 1.0
        with pytest.raises(ValueError):
            max_min_ratio([])
        with pytest.raises(ValueError):
            max_min_ratio([0.0, 1.0])

class TestDistributionSummary:
    def test_stats(self):
        s = summarize_distribution([1.0, 2.0, 3.0, 4.0])
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)
        assert s.stddev > 0

    def test_single_value(self):
        s = summarize_distribution([7.0])
        assert s.stddev == 0.0
        assert s.median == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_distribution([])


class TestPercentileEdgeCases:
    """Pinned nearest-rank semantics at tiny n (the bench-digest and
    /watch-frame contract — see the :func:`repro.metrics.percentile`
    docstring)."""

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1], -1)
        with pytest.raises(ValueError):
            percentile([1], 100.5)

    def test_single_value_every_q(self):
        # n == 1: rank is ceil(q/100) == 1 for q > 0, and q == 0 is
        # special-cased to the minimum — same element either way
        for q in (0, 1, 50, 95, 99, 100):
            assert percentile([42], q) == 42

    def test_two_values_split_at_50(self):
        # n == 2: rank = ceil(q/50); p50 is the LOWER sample
        assert percentile([10, 20], 0) == 10
        assert percentile([20, 10], 1) == 10
        assert percentile([20, 10], 50) == 10
        assert percentile([10, 20], 50.0001) == 20
        assert percentile([10, 20], 95) == 20
        assert percentile([10, 20], 99) == 20
        assert percentile([10, 20], 100) == 20

    def test_ties_returned_verbatim(self):
        assert percentile([7, 7, 7], 50) == 7
        assert percentile([7, 7, 7], 95) == 7
        # a tie at the rank boundary still yields the tied value
        assert percentile([1, 5, 5, 9], 50) == 5
        assert percentile([1, 5, 5, 9], 75) == 5

    def test_unsorted_input(self):
        values = [30, 10, 50, 20, 40]
        assert percentile(values, 0) == 10
        assert percentile(values, 20) == 10
        assert percentile(values, 50) == 30
        assert percentile(values, 95) == 50
        # input list untouched
        assert values == [30, 10, 50, 20, 40]

    def test_summary_uses_same_definition(self):
        s = summarize_latencies([10, 20]).as_dict()
        assert s == {
            "count": 2,
            "mean": 15,
            "p50": 10,
            "p95": 20,
            "p99": 20,
            "max": 20,
        }
