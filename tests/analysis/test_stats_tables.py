"""Tests for the analysis helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    percentile,
    size_histogram,
    summarize,
    throughput_per_minute,
    windowed_percentile,
)
from repro.analysis.tables import DelayCostCell, delta_percent, format_comparison_table


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_extremes(self):
        assert percentile([1, 2, 3], 0.0) == 1.0
        assert percentile([1, 2, 3], 1.0) == 3.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=100),
           st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_within_range_property(self, xs, p):
        v = percentile(xs, p)
        assert min(xs) <= v <= max(xs)


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.minimum == 1.0 and s.maximum == 4.0

    def test_empty(self):
        s = summarize([])
        assert s.count == 0
        assert math.isnan(s.mean)

    def test_single(self):
        s = summarize([5.0])
        assert s.std == 0.0


class TestWindowedPercentile:
    def test_per_minute_quantiles(self):
        times = [0, 10, 30, 70, 80, 130]
        values = [1, 2, 3, 10, 20, 5]
        starts, q = windowed_percentile(times, values, 1.0, window_s=60.0,
                                        start=0.0, end=180.0)
        assert q[0] == 3.0
        assert q[1] == 20.0
        assert q[2] == 5.0

    def test_empty_windows_nan(self):
        starts, q = windowed_percentile([0.0], [1.0], 0.5, window_s=60.0,
                                        start=0.0, end=180.0)
        assert q[0] == 1.0
        assert math.isnan(q[1])

    def test_empty_input(self):
        starts, q = windowed_percentile([], [], 0.5)
        assert starts.size == 0 and q.size == 0


class TestSizeHistogram:
    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 10**9, 10_000)
        hist = size_histogram(sizes)
        assert sum(v["count"] for v in hist.values()) == pytest.approx(1.0)
        assert sum(v["capacity"] for v in hist.values()) == pytest.approx(1.0)

    def test_bucket_placement(self):
        hist = size_histogram([5, 5_000, 5_000_000])
        assert hist["1B"]["count"] == pytest.approx(1 / 3)
        assert hist["1KB"]["count"] == pytest.approx(1 / 3)
        assert hist["1MB"]["count"] == pytest.approx(1 / 3)

    def test_empty(self):
        hist = size_histogram([])
        assert all(v["count"] == 0 for v in hist.values())


class TestThroughput:
    def test_bytes_per_minute(self):
        times, bps = throughput_per_minute([0, 30, 70], [100, 200, 400])
        assert bps[0] == 300
        assert bps[1] == 400

    def test_empty(self):
        times, bps = throughput_per_minute([], [])
        assert times.size == 0


class TestTables:
    def test_delta_percent(self):
        assert delta_percent(1.0, 10.0) == pytest.approx(-90.0)
        assert delta_percent(15.0, 10.0) == pytest.approx(50.0)
        assert delta_percent(1.0, 0.0) == float("inf")
        assert delta_percent(0.0, 0.0) == 0.0

    def test_cost_unit_conversion(self):
        cell = DelayCostCell("AReplica", 1.5, 0.00003)
        assert cell.cost_1e4 == pytest.approx(0.3)

    def test_format_table_contains_all_systems(self):
        cells = {
            ("1MB", "eu-west-1", "AReplica"): DelayCostCell("AReplica", 1.5, 3e-5),
            ("1MB", "eu-west-1", "Skyplane"): DelayCostCell("Skyplane", 84.7, 0.054),
        }
        text = format_comparison_table(
            "Table 1", ["eu-west-1"], ["1MB"], cells, ["AReplica", "Skyplane"])
        assert "AReplica" in text and "Skyplane" in text
        assert "84.7" in text
        assert "Δ" in text

    def test_format_table_missing_cells_na(self):
        cells = {
            ("1MB", "eastus", "AReplica"): DelayCostCell("AReplica", 1.3, 9e-5),
        }
        text = format_comparison_table(
            "T", ["eastus"], ["1MB"], cells, ["AReplica", "S3RTC"])
        assert "N/A" in text
