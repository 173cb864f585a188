"""Unit-conversion helpers."""

import pytest

from repro import units
from repro.errors import ConfigurationError


def test_time_constants_relate():
    assert units.sec(1) == units.msec(1000) == units.usec(1_000_000)


def test_round_trips():
    assert units.to_seconds(units.sec(2.5)) == pytest.approx(2.5)
    assert units.to_msec(units.msec(7)) == pytest.approx(7.0)


def test_rates():
    assert units.kpps(80) == 80_000
    assert units.mpps(1.5) == 1_500_000
    assert units.to_kpps(150_000) == pytest.approx(150.0)


def test_interarrival():
    assert units.interarrival_us(1_000_000) == pytest.approx(1.0)
    assert units.interarrival_us(1_000) == pytest.approx(1000.0)


def test_interarrival_rejects_nonpositive():
    with pytest.raises(ConfigurationError):
        units.interarrival_us(0.0)
    with pytest.raises(ConfigurationError):
        units.interarrival_us(-5.0)


def test_line_rate_10ge_small_frames():
    # 64B frames on 10GE: the canonical 14.88Mpps
    rate = units.line_rate_pps(units.gbit_per_s(10.0), 64)
    assert rate == pytest.approx(14.88e6, rel=0.01)


def test_line_rate_lake_frame_matches_paper():
    # ~70B memcached queries: LaKe's ~13Mpps line rate (§4.2)
    rate = units.line_rate_pps(units.gbit_per_s(10.0), 70)
    assert rate == pytest.approx(13.0e6, rel=0.08)


def test_line_rate_rejects_bad_frame():
    with pytest.raises(ConfigurationError):
        units.line_rate_pps(1e9, 0)
