"""Reporting helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import bucket_rate_series, format_table
from repro.experiments.reporting import bucket_mean_series
from repro.units import msec, sec


class TestFormatTable:
    def test_alignment_and_content(self):
        text = format_table(["name", "watts"], [["lake", 59.0], ["nsd", 96.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "lake" in text and "59.0" in text

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])

    def test_number_formatting(self):
        text = format_table(["v"], [[1234567.0], [0.123456], [12.34]])
        assert "1,234,567" in text
        assert "0.123" in text
        assert "12.3" in text


class TestBucketSeries:
    def test_rate_buckets(self):
        # 10 events in the first 100ms, none later
        times = [i * 10_000.0 for i in range(10)]
        series = bucket_rate_series(times, msec(100.0), sec(0.3))
        assert series[0][1] == pytest.approx(100.0)  # 10 / 0.1s
        assert series[1][1] == 0.0
        assert len(series) == 4

    def test_mean_buckets_with_gaps(self):
        times = [10_000.0, 20_000.0, 250_000.0]
        series = bucket_mean_series(
            times, [5.0, 15.0, 7.0], msec(100.0), msec(300.0)
        )
        assert series[0][1] == pytest.approx(10.0)
        assert series[1][1] is None
        assert series[2][1] == pytest.approx(7.0)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            bucket_rate_series([], 0.0, 100.0)
