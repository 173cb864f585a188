"""Cross-cutting property-based invariants (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ClassifierRule, PacketClassifier, TrafficClass
from repro.net.packet import make_packet
from repro.power import NiccoliniEnergyModel
from repro.sim import Simulator, TimeSeries, percentile
from repro.steady.base import SoftwareCurveModel
from repro.units import sec


class TestSimulatorProperties:
    @given(delays=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_execution_times_nondecreasing(self, delays):
        sim = Simulator()
        seen = []
        for delay in delays:
            sim.schedule(delay, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert len(seen) == len(delays)

    @given(delays=st.lists(st.floats(0.0, 1e3), min_size=2, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_cancellation_removes_exactly_the_cancelled(self, delays):
        sim = Simulator()
        fired = []
        events = [
            sim.schedule(d, lambda i=i: fired.append(i))
            for i, d in enumerate(delays)
        ]
        events[0].cancel()
        sim.run()
        assert 0 not in fired
        assert len(fired) == len(delays) - 1


@pytest.fixture(scope="module")
def np():
    """numpy as a reference implementation; the library never imports it."""
    return pytest.importorskip("numpy")


class TestNumericAgreementWithNumpy:
    @given(
        values=st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=200
        ),
        pct=st.floats(1.0, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_percentile_is_inverted_cdf(self, np, values, pct):
        ours = percentile(values, pct)
        numpy_result = float(
            np.percentile(np.array(values), pct, method="inverted_cdf")
        )
        assert ours == pytest.approx(numpy_result)

    @given(
        samples=st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 500.0)),
            min_size=2,
            max_size=100,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_integrate_matches_numpy_trapezoid(self, np, samples):
        times = sorted(sec(t) for t, _ in samples)
        values = [v for _, v in samples]
        ts = TimeSeries()
        last = -1.0
        kept_t, kept_v = [], []
        for t, v in zip(times, values):
            if t > last:  # TimeSeries requires strictly usable ordering
                ts.record(t, v)
                kept_t.append(t / 1e6)
                kept_v.append(v)
                last = t
        if len(kept_t) < 2:
            return
        ours = ts.integrate_seconds()
        reference = float(np.trapezoid(kept_v, kept_t))
        assert ours == pytest.approx(reference, rel=1e-9, abs=1e-9)


class TestPowerModelProperties:
    @given(
        idle=st.floats(1.0, 100.0),
        span=st.floats(0.0, 200.0),
        alpha=st.floats(0.2, 3.0),
        rates=st.lists(st.floats(0.0, 2e6), min_size=2, max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_software_curve_monotone_and_bounded(self, idle, span, alpha, rates):
        model = SoftwareCurveModel(
            "m", capacity_pps=1e6, idle_w=idle, peak_w=idle + span, alpha=alpha
        )
        ordered = sorted(rates)
        powers = [model.power_at(r) for r in ordered]
        assert powers == sorted(powers)
        for p in powers:
            assert idle - 1e-9 <= p <= idle + span + 1e-9

    @given(
        packets=st.floats(0.0, 1e9),
        rate=st.floats(1.0, 1e7),
        idle_s=st.floats(0.0, 1e4),
    )
    @settings(max_examples=80, deadline=None)
    def test_energy_nonnegative_and_additive(self, packets, rate, idle_s):
        model = NiccoliniEnergyModel(
            active_power_w=lambda r: 40.0 + r / 1e5, idle_power_w=40.0
        )
        e = model.energy(packets, rate, idle_s=idle_s)
        assert e.total_j >= 0.0
        half = model.energy(packets / 2, rate, idle_s=idle_s / 2)
        assert 2 * half.total_j == pytest.approx(e.total_j, rel=1e-6, abs=1e-6)


class TestClassifierConservation:
    @given(
        classes=st.lists(
            st.sampled_from(list(TrafficClass)), min_size=1, max_size=200
        ),
        offload=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_packet_goes_somewhere_exactly_once(self, classes, offload):
        sim = Simulator()
        hw, host, default = [], [], []
        clf = PacketClassifier(sim, default_host=default.append)
        clf.add_rule(
            ClassifierRule(
                TrafficClass.MEMCACHED, hardware=hw.append, host=host.append
            )
        )
        clf.set_offload(TrafficClass.MEMCACHED, offload)
        for tc in classes:
            clf.classify(make_packet("c", "s", tc, now=sim.now))
        delivered = len(hw) + len(host) + len(default)
        assert delivered == len(classes)
        assert sum(clf.counters.values()) == len(classes)
        if offload:
            assert not host
        else:
            assert not hw


def test_des_determinism_same_seed():
    """Two identical Figure 7 runs produce identical results."""
    from repro.experiments import run_figure7

    a = run_figure7(duration_s=0.8, shift_to_hw_s=0.3, shift_to_sw_s=0.6, seed=9)
    b = run_figure7(duration_s=0.8, shift_to_hw_s=0.3, shift_to_sw_s=0.6, seed=9)
    assert a.decided == b.decided
    assert a.retries == b.retries
    assert a.throughput_series == b.throughput_series


def test_des_seed_sensitivity_open_loop():
    """Seeds drive the open-loop arrival jitter (closed-loop Figure 7 runs
    are seed-free by design: submissions are decision-driven)."""
    from repro.experiments import run_figure6

    a = run_figure6(duration_s=1.0, chainer_start_s=0.2, chainer_stop_s=0.6,
                    keyspace=2_000, seed=1)
    b = run_figure6(duration_s=1.0, chainer_start_s=0.2, chainer_stop_s=0.6,
                    keyspace=2_000, seed=2)
    assert a.client_responses != b.client_responses or (
        a.throughput_series != b.throughput_series
    )
