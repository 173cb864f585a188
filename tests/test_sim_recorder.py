"""Time series, latency recorder and percentile math."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.floats import left_sum
from repro.scenarios import windowed_mean
from repro.sim import LatencyRecorder, Simulator, TimeSeries, percentile
from repro.sim.recorder import (
    PeriodicSampler,
    bucket_mean_series,
    bucket_rate_series,
    percentiles,
)
from repro.units import SEC, sec


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50.0) == 2

    def test_p99_of_100(self):
        values = list(range(1, 101))
        assert percentile(values, 99.0) == 99

    def test_p0_is_min_p100_is_max(self):
        values = [5, 1, 9]
        assert percentile(values, 0.0) == 1
        assert percentile(values, 100.0) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_pct_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101.0)

    def test_presorted_skips_the_sort(self):
        # a deliberately unsorted list with presorted=True reads ranks
        # positionally — proving the sort really is skipped
        assert percentile([9, 1, 5], 50.0, presorted=True) == 1

    def test_percentiles_single_sort_matches_percentile(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0]
        assert percentiles(values, (0.0, 50.0, 99.0, 100.0)) == [
            percentile(values, 0.0),
            percentile(values, 50.0),
            percentile(values, 99.0),
            percentile(values, 100.0),
        ]


class TestTimeSeries:
    def test_record_and_query(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        ts.record(10.0, 3.0)
        assert ts.mean() == pytest.approx(2.0)
        assert ts.last().value == 3.0

    def test_out_of_order_rejected(self):
        ts = TimeSeries()
        ts.record(10.0, 1.0)
        with pytest.raises(ConfigurationError):
            ts.record(5.0, 2.0)

    def test_window_query(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t))
        window = ts.window(3.0, 6.0)
        assert [s.value for s in window] == [3.0, 4.0, 5.0]

    def test_windowed_mean(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t))
        assert ts.mean(5.0, 8.0) == pytest.approx(6.0)

    def test_mean_empty_window_raises(self):
        ts = TimeSeries()
        ts.record(0.0, 1.0)
        with pytest.raises(ValueError):
            ts.mean(100.0, 200.0)

    def test_integrate_constant_power(self):
        ts = TimeSeries()
        ts.record(0.0, 50.0)
        ts.record(sec(10.0), 50.0)
        # 50W for 10s = 500J
        assert ts.integrate_seconds() == pytest.approx(500.0)

    def test_integrate_ramp(self):
        ts = TimeSeries()
        ts.record(0.0, 0.0)
        ts.record(sec(10.0), 100.0)
        assert ts.integrate_seconds() == pytest.approx(500.0)

    def test_views_are_read_only(self):
        ts = TimeSeries()
        ts.record(1.0, 10.0)
        ts.record(2.0, 20.0)
        assert list(ts.times) == [1.0, 2.0]
        assert list(ts.values) == [10.0, 20.0]
        assert ts.values[-1] == 20.0 and len(ts.times) == 2
        with pytest.raises(TypeError):
            ts.times[0] = 5.0
        assert not hasattr(ts.values, "append")
        # a slice is a copy: writing to it leaves the series alone
        head = ts.times[:1]
        head[0] = 5.0
        assert list(ts.times) == [1.0, 2.0]

    def test_views_read_the_live_columns(self):
        """A view is no snapshot: one taken before an append sees it, and
        the series keeps nothing besides its name and two columns."""
        ts = TimeSeries()
        ts.record(1.0, 10.0)
        times, values = ts.times, ts.values
        ts.record(2.0, 20.0)
        assert list(times) == [1.0, 2.0]
        assert list(values) == [10.0, 20.0]
        assert not hasattr(ts, "__dict__")
        assert TimeSeries.__slots__ == ("name", "_times", "_values")


class TestLeftToRightTotals:
    """Every mean adds its values left to right from 0.0, so a run reduces
    to the same bits on every Python.  Each case below is one where a
    compensated sum (``sum()`` on 3.12, ``math.fsum``) disagrees."""

    CANCELLING = [1e16, 1.0, -1e16]  # left to right: 0.0; exact: 1.0

    def test_left_sum(self):
        assert left_sum(self.CANCELLING) == 0.0
        assert math.fsum(self.CANCELLING) == 1.0
        assert left_sum([]) == 0.0

    def test_time_series_mean(self):
        ts = TimeSeries()
        for t, value in enumerate(self.CANCELLING):
            ts.record(float(t), value)
        assert ts.mean() == 0.0

    def test_latency_recorder_mean(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 1e-16, 1e-16])  # exact total: 1 + 2**-52
        assert rec.mean() == 1.0 / 3

    def test_bucket_mean_series(self):
        times = [0.0, 1.0, 2.0]
        series = bucket_mean_series(times, self.CANCELLING, 10.0, 10.0)
        assert series[0] == (0.0, 0.0)

    def test_windowed_mean(self):
        series = list(enumerate(self.CANCELLING))
        assert windowed_mean(series, 0.0, 10.0) == 0.0


class TestLatencyRecorder:
    def test_statistics(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0, 3.0, 4.0, 100.0])
        assert rec.mean() == pytest.approx(22.0)
        assert rec.median() == 3.0
        assert len(rec) == 5

    def test_negative_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(ConfigurationError):
            rec.record(-1.0)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            LatencyRecorder().mean()

    def test_reset(self):
        rec = LatencyRecorder()
        rec.record(5.0)
        rec.reset()
        assert len(rec) == 0


class TestLatencyRecorderOverASeries:
    """A client's recorder reads its latency series' value column: one
    stored copy of each sample, the same statistics."""

    def recorded(self, latencies):
        series = TimeSeries("latency-series")
        rec = LatencyRecorder("latency", series)
        for t, latency in enumerate(latencies):
            rec.record(latency, float(t))
        return series, rec

    def test_records_into_the_series_once(self):
        series, rec = self.recorded([4.0, 1.0, 3.0])
        assert list(series.times) == [0.0, 1.0, 2.0]
        assert list(series.values) == [4.0, 1.0, 3.0]
        assert rec._samples is series._values

    def test_statistics_match_a_standalone_recorder(self):
        import random

        rng = random.Random(5)
        latencies = [rng.uniform(0.0, 500.0) for _ in range(101)]
        _, rec = self.recorded(latencies)
        alone = LatencyRecorder()
        alone.extend(latencies)
        assert len(rec) == len(alone) == 101
        assert rec.samples == alone.samples
        assert rec.mean() == alone.mean()
        assert rec.median() == alone.median()
        assert rec.p99() == alone.p99()

    def test_negative_rejected_before_the_series_records(self):
        series, rec = self.recorded([2.0])
        with pytest.raises(ConfigurationError):
            rec.record(-1.0, 5.0)
        assert len(series) == 1

    def test_reset_keeps_the_series(self):
        series, rec = self.recorded([9.0, 8.0])
        assert rec.median() == 8.0
        rec.reset()
        assert len(rec) == 0
        with pytest.raises(ValueError):
            rec.median()
        rec.record(1.0, 3.0)
        rec.record(2.0, 4.0)
        assert rec.samples == [1.0, 2.0]
        assert rec.sorted_samples() == [1.0, 2.0]
        assert rec.mean() == 1.5
        assert list(series.values) == [9.0, 8.0, 1.0, 2.0]

    def test_extend_is_refused(self):
        series, rec = self.recorded([1.0])
        with pytest.raises(ConfigurationError):
            rec.extend([2.0])
        assert len(series) == len(rec) == 1


class TestPeriodicSampler:
    def test_samples_at_interval(self):
        sim = Simulator()
        value = {"power": 10.0}
        sampler = PeriodicSampler(sim, lambda: value["power"], 100.0)
        sim.run_until(250.0)
        # initial sample at t=0, then t=100, t=200
        assert len(sampler.series) == 3

    def test_stop_halts_sampling(self):
        sim = Simulator()
        sampler = PeriodicSampler(sim, lambda: 1.0, 100.0)
        sim.run_until(150.0)
        sampler.stop()
        sim.run_until(1000.0)
        assert len(sampler.series) == 2

    def test_bad_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PeriodicSampler(Simulator(), lambda: 1.0, 0.0)

    def test_nan_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            PeriodicSampler(Simulator(), lambda: 1.0, float("nan"))


class TestIncrementalSortedCache:
    """sorted_samples() merges the sorted prefix with the new tail instead
    of re-sorting from scratch — and must stay coherent through every mix
    of record()/extend()/reset()."""

    def test_cache_coherent_across_record_extend_mix(self):
        import random

        rng = random.Random(11)
        rec = LatencyRecorder()
        shadow = []
        for round_ in range(8):
            batch = [rng.uniform(0.0, 1000.0) for _ in range(round_ * 3 + 1)]
            if round_ % 2:
                rec.extend(batch)
            else:
                for v in batch:
                    rec.record(v)
            shadow.extend(batch)
            # query mid-stream so the cache is built, then appended past
            assert rec.sorted_samples() == sorted(shadow)
        assert rec.median() == percentile(sorted(shadow), 50, presorted=True)

    def test_repeated_queries_without_new_samples(self):
        rec = LatencyRecorder()
        rec.extend([3.0, 1.0, 2.0])
        first = rec.sorted_samples()
        assert rec.sorted_samples() == first == [1.0, 2.0, 3.0]

    def test_reset_clears_the_cache(self):
        rec = LatencyRecorder()
        rec.extend([5.0, 4.0])
        assert rec.sorted_samples() == [4.0, 5.0]
        rec.reset()
        rec.extend([2.0, 1.0])
        assert rec.sorted_samples() == [1.0, 2.0]

    def test_extend_is_all_or_nothing(self):
        rec = LatencyRecorder()
        rec.extend([1.0, 2.0])
        with pytest.raises(ConfigurationError):
            rec.extend([3.0, -0.5, 4.0])
        # the valid prefix of the rejected batch must not have landed
        assert rec.samples == [1.0, 2.0]
        assert rec.sorted_samples() == [1.0, 2.0]


def _bucket_rate_oracle(times_us, window_us, end_us):
    """Per-sample binning: every timestamp lands in window
    ``int(t // window_us)``, in input order."""
    buckets = {}
    for t in times_us:
        buckets[int(t // window_us)] = buckets.get(int(t // window_us), 0) + 1
    n_buckets = int(end_us // window_us) + 1
    series = []
    for i in range(n_buckets):
        rate = buckets.get(i, 0) * SEC / window_us
        series.append((i * window_us, rate))
    return series


def _bucket_mean_oracle(samples, window_us, end_us):
    """Per-sample binning with running sums: each window adds its values
    in input order, starting from 0.0."""
    sums = {}
    counts = {}
    for t, v in samples:
        idx = int(t // window_us)
        sums[idx] = sums.get(idx, 0.0) + v
        counts[idx] = counts.get(idx, 0) + 1
    series = []
    for i in range(int(end_us // window_us) + 1):
        if counts.get(i):
            series.append((i * window_us, sums[i] / counts[i]))
        else:
            series.append((i * window_us, None))
    return series


#: Window length and horizon (us): integral and fractional windows, which
#: may be shorter or longer than the horizon, including a horizon inside
#: the first window.
_windows = st.one_of(st.integers(1, 100).map(float), st.floats(0.1, 100.0))
_horizons = st.one_of(st.integers(0, 1_000).map(float), st.floats(0.0, 1e3))


@st.composite
def _timed_samples(draw):
    """(t, v) samples whose times hit window edges ``k * window_us``
    exactly, repeat (ties), go negative and run past the horizon."""
    window_us = draw(_windows)
    end_us = draw(_horizons)
    edge = st.integers(-3, 12).map(lambda k: k * window_us)
    anywhere = st.floats(-2.0 * window_us, end_us + 3.0 * window_us)
    times = draw(st.lists(st.one_of(edge, anywhere), max_size=60))
    # a few exact repeats of drawn times: equal-time ties
    times += draw(st.lists(st.sampled_from(times), max_size=10)) if times else []
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    samples = [(t, draw(values)) for t in times]
    return samples, window_us, end_us


class TestOrderAwareReductions:
    """The bisection reductions against the per-sample binning oracles:
    exact (``==``) on time-ordered input — the series every caller
    passes — and sorted-first on input in any order."""

    @given(_timed_samples())
    @settings(max_examples=300, deadline=None)
    def test_time_ordered_rates_match_the_oracle(self, case):
        samples, window_us, end_us = case
        times = sorted(t for t, _ in samples)
        assert bucket_rate_series(times, window_us, end_us) == (
            _bucket_rate_oracle(times, window_us, end_us)
        )

    @given(_timed_samples())
    @settings(max_examples=300, deadline=None)
    def test_time_ordered_means_match_the_oracle(self, case):
        samples, window_us, end_us = case
        samples.sort(key=lambda s: s[0])  # stable: ties keep draw order
        times = [t for t, _ in samples]
        values = [v for _, v in samples]
        assert bucket_mean_series(times, values, window_us, end_us) == (
            _bucket_mean_oracle(samples, window_us, end_us)
        )

    @given(_timed_samples())
    @settings(max_examples=300, deadline=None)
    def test_series_views_reduce_like_the_list_path(self, case):
        """A TimeSeries' column views, read in place, reduce to the very
        bits (``repr``, so -0.0 counts) the per-sample list passes give,
        equal-time ties included."""
        samples, window_us, end_us = case
        samples.sort(key=lambda s: s[0])  # stable: ties keep draw order
        ts = TimeSeries()
        for t, v in samples:
            ts.record(t, v)
        times = [t for t, _ in samples]
        assert repr(bucket_rate_series(ts.times, window_us, end_us)) == repr(
            _bucket_rate_oracle(times, window_us, end_us)
        )
        assert repr(
            bucket_mean_series(ts.times, ts.values, window_us, end_us)
        ) == repr(_bucket_mean_oracle(samples, window_us, end_us))

    @given(_timed_samples(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_out_of_order_input_is_rejected(self, case, rng):
        """The reductions bisect, so they take time-ordered input only and
        refuse anything else rather than bin it wrongly."""
        samples, window_us, end_us = case
        rng.shuffle(samples)
        times = [t for t, _ in samples]
        values = [v for _, v in samples]
        if times == sorted(times):
            assert bucket_rate_series(times, window_us, end_us) == (
                _bucket_rate_oracle(times, window_us, end_us)
            )
            return
        with pytest.raises(ConfigurationError, match="time-ordered"):
            bucket_rate_series(times, window_us, end_us)
        with pytest.raises(ConfigurationError, match="time-ordered"):
            bucket_mean_series(times, values, window_us, end_us)

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ConfigurationError, match="2 sample times for 1"):
            bucket_mean_series([1.0, 2.0], [1.0], 10.0, 10.0)

    def test_empty_input_gives_empty_windows(self):
        assert bucket_rate_series([], 10.0, 25.0) == [
            (0.0, 0.0), (10.0, 0.0), (20.0, 0.0)
        ]
        assert bucket_mean_series([], [], 10.0, 25.0) == [
            (0.0, None), (10.0, None), (20.0, None)
        ]

    def test_window_longer_than_the_horizon(self):
        # one window, [0, 100): the sample at t=100 opens the next one,
        # which lies past the horizon
        times = [0.0, 3.0, 99.0, 100.0]
        values = [1.0, 2.0, 4.0, 8.0]
        assert bucket_mean_series(times, values, 100.0, 5.0) == [(0.0, 7.0 / 3)]
        assert bucket_rate_series(times, 100.0, 5.0) == [
            (0.0, 3 * SEC / 100.0)
        ]

    def test_percentiles_pick_the_sorted_elements(self):
        rng = random.Random(7)
        values = [rng.expovariate(1 / 50.0) for _ in range(501)]
        pcts = [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0]
        ordered = sorted(values)
        assert percentiles(values, pcts) == [
            percentile(ordered, pct, presorted=True) for pct in pcts
        ]

    @pytest.mark.parametrize("window_us", [0.0, -1.0, float("nan")])
    def test_nonpositive_or_nan_window_rejected(self, window_us):
        with pytest.raises(ConfigurationError, match="window must be positive"):
            bucket_rate_series([1.0], window_us, 10.0)
        with pytest.raises(ConfigurationError, match="window must be positive"):
            bucket_mean_series([1.0], [1.0], window_us, 10.0)
