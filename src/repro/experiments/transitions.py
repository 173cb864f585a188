"""The DES transition experiments: Figures 6 and 7.

These run the full simulated substrate: real protocol implementations on a
client/switch/server topology, live controllers, RAPL/power metering, and
they return the same three timelines the paper plots (throughput, latency,
power) plus the red transition lines.

Since the scenario-engine refactor the runners no longer wire anything by
hand: each figure is a named :class:`~repro.scenarios.ScenarioSpec` in
:mod:`repro.scenarios.registry`, materialized and executed by the
:class:`~repro.scenarios.ScenarioBuilder`; this module only adapts the
generic :class:`~repro.scenarios.ScenarioResult` into the figure-shaped
result objects the benchmarks and plots consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .. import calibration as cal
from ..scenarios import ScenarioBuilder, ScenarioResult, windowed_mean
from ..scenarios.registry import build_spec

# ---------------------------------------------------------------------------
# Figure 6: shifting the KVS.
# ---------------------------------------------------------------------------


@dataclass
class Figure6Result:
    """The three Figure 6 timelines plus the transition markers."""

    duration_us: float
    throughput_series: List[Tuple[float, float]]   # (t_us, pps)
    latency_series: List[Tuple[float, Optional[float]]]  # (t_us, µs)
    power_series: List[Tuple[float, float]]        # (t_us, W) — RAPL/CPU
    shift_times_us: List[float]
    hw_hits: int
    hw_miss_forwards: int
    client_responses: int
    offered_pps: float

    def render(self) -> str:
        lines = ["Figure 6: KVS software<->hardware transition"]
        lines.append(
            f"transitions at: "
            + ", ".join(f"{t / 1e6:.2f}s" for t in self.shift_times_us)
        )
        lines.append(f"responses: {self.client_responses} (offered {self.offered_pps:.0f}pps)")
        lines.append("t[s]  throughput[kpps]  latency[us]  power[W]")
        for (t, thr), (_, lat), (_, pw) in zip(
            self.throughput_series, self.latency_series, self.power_series
        ):
            lat_text = f"{lat:8.1f}" if lat is not None else "       -"
            lines.append(f"{t / 1e6:5.1f}  {thr / 1e3:16.1f}  {lat_text}  {pw:8.1f}")
        return "\n".join(lines)

    def mean_latency_us(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.latency_series, start_us, end_us, "latency")

    def mean_throughput_pps(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.throughput_series, start_us, end_us, "throughput")

    def save_png(self, path) -> "object":
        """Render the three timelines as a PNG (requires matplotlib; the
        text ``render()`` stays the dependency-free contract)."""
        from .plots import save_transition_png

        return save_transition_png(
            self, path, title="Figure 6: KVS software ↔ hardware transition"
        )


def run_figure6(
    duration_s: float = 12.0,
    rate_kpps: float = 16.0,
    chainer_start_s: float = 2.0,
    chainer_stop_s: float = 7.5,
    keyspace: int = 50_000,
    seed: int = 42,
    power_save: bool = False,
    bucket_ms: float = 250.0,
) -> Figure6Result:
    """Reproduce Figure 6: host-controlled KVS shift under a co-located
    ChainerMN job, ETC arrivals, RAPL-driven controller.

    Defaults compress the paper's 35s trace to 12s (the controller windows
    are the paper's 3s); ``power_save=False`` matches the paper ("Clock
    gating and memories reset are not enabled in this experiment").
    """
    spec = build_spec(
        "fig6-kvs-transition",
        duration_s=duration_s,
        rate_kpps=rate_kpps,
        chainer_start_s=chainer_start_s,
        chainer_stop_s=chainer_stop_s,
        keyspace=keyspace,
        seed=seed,
        power_save=power_save,
        bucket_ms=bucket_ms,
    )
    result = ScenarioBuilder(spec).run()
    return _figure6_result(result)


def _figure6_result(result: ScenarioResult) -> Figure6Result:
    host = result.hosts[0]
    return Figure6Result(
        duration_us=result.duration_us,
        throughput_series=host.throughput_series,
        latency_series=host.latency_series,
        power_series=host.power_series,
        shift_times_us=host.shift_times_us,
        hw_hits=host.hw_hits,
        hw_miss_forwards=host.hw_miss_forwards,
        client_responses=host.responses,
        offered_pps=host.offered_pps,
    )


# ---------------------------------------------------------------------------
# Figure 7: shifting the Paxos leader.
# ---------------------------------------------------------------------------


@dataclass
class Figure7Result:
    duration_us: float
    throughput_series: List[Tuple[float, float]]
    latency_series: List[Tuple[float, Optional[float]]]
    shift_times_us: List[float]
    decided: int
    retries: int
    stall_us: List[float] = field(default_factory=list)

    def render(self) -> str:
        lines = ["Figure 7: Paxos leader software<->hardware transition"]
        lines.append(
            "transitions at: "
            + ", ".join(f"{t / 1e6:.2f}s" for t in self.shift_times_us)
        )
        lines.append(f"decisions: {self.decided}, client retries: {self.retries}")
        if self.stall_us:
            lines.append(
                "post-shift stalls: "
                + ", ".join(f"{s / 1e3:.0f}ms" for s in self.stall_us)
                + f" (paper: ~{cal.PAXOS_CLIENT_TIMEOUT_MS:.0f}ms client timeout)"
            )
        lines.append("t[s]  throughput[kpps]  latency[us]")
        for (t, thr), (_, lat) in zip(self.throughput_series, self.latency_series):
            lat_text = f"{lat:8.1f}" if lat is not None else "       -"
            lines.append(f"{t / 1e6:5.2f}  {thr / 1e3:16.1f}  {lat_text}")
        return "\n".join(lines)

    def mean_latency_us(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.latency_series, start_us, end_us, "latency")

    def mean_throughput_pps(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.throughput_series, start_us, end_us, "throughput")

    def save_png(self, path) -> "object":
        """Render the timelines as a PNG (requires matplotlib; the text
        ``render()`` stays the dependency-free contract)."""
        from .plots import save_transition_png

        return save_transition_png(
            self, path, title="Figure 7: Paxos leader software ↔ hardware transition"
        )


def run_figure7(
    duration_s: float = 5.0,
    shift_to_hw_s: float = 1.5,
    shift_to_sw_s: float = 3.5,
    n_clients: int = 3,
    client_window: int = 1,
    n_acceptors: int = 3,
    recovery_window: int = 512,
    seed: int = 7,
    bucket_ms: float = 50.0,
) -> Figure7Result:
    """Reproduce Figure 7: leader shift via forwarding-rule rewrite, new
    leader sequence recovery, ~100ms client-timeout stall, halved latency
    and higher closed-loop throughput in hardware."""
    spec = build_spec(
        "fig7-paxos-transition",
        duration_s=duration_s,
        shift_to_hw_s=shift_to_hw_s,
        shift_to_sw_s=shift_to_sw_s,
        n_clients=n_clients,
        client_window=client_window,
        n_acceptors=n_acceptors,
        recovery_window=recovery_window,
        seed=seed,
        bucket_ms=bucket_ms,
    )
    result = ScenarioBuilder(spec).run()
    paxos = result.paxos
    return Figure7Result(
        duration_us=result.duration_us,
        throughput_series=paxos.throughput_series,
        latency_series=paxos.latency_series,
        shift_times_us=paxos.shift_times_us,
        decided=paxos.responses,
        retries=paxos.retries,
        stall_us=paxos.stall_us,
    )
