"""KVS client — an open-loop, rate-controlled load generator.

Plays the role of the mutilate client of §9.2's Figure 6 experiment: it
issues GETs (and a configurable SET fraction) at a target rate with keys
drawn from a workload's key sampler, and records end-to-end latency and
achieved throughput.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from ...errors import ConfigurationError
from ...net.packet import Packet, TrafficClass, make_packet, release_packet
from ...net.node import Node
from ...sim import LatencyRecorder, Simulator, TimeSeries
from ...units import SEC
from ..common import UtilizationTracker
from .protocol import KvsOp, KvsRequest, KvsResponse, KvsStatus

KVS_PORT = 11211

# bound once for the per-request paths (see protocol.py)
_GET, _SET = KvsOp.GET, KvsOp.SET
_HIT, _MISS = KvsStatus.HIT, KvsStatus.MISS
_MEMCACHED = TrafficClass.MEMCACHED


class KvsClient(Node):
    """Sends KVS requests at a controlled rate; records replies."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        server_name: str,
        key_sampler: Callable[[], str],
        value_sampler: Callable[[], bytes],
        rate_pps: float = 0.0,
        set_fraction: float = 0.0,
        rng=None,
    ):
        super().__init__(sim, name)
        if not 0.0 <= set_fraction <= 1.0:
            raise ConfigurationError("set_fraction outside [0,1]")
        self.server_name = server_name
        self.key_sampler = key_sampler
        self.value_sampler = value_sampler
        self.set_fraction = set_fraction
        self._rng = rng
        self._ids = itertools.count(1)
        #: (response time, latency) samples for timeline plots (Figure 6)
        self.latency_series = TimeSeries(f"{name}.latency-series")
        #: latency statistics over the series' value column
        self.latency = LatencyRecorder(f"{name}.latency", self.latency_series)
        self.responses = 0
        self.hits = 0
        self.misses = 0
        self._rate_pps = 0.0
        self._send_timer = None
        if rate_pps > 0:
            self.set_rate(rate_pps)

    # -- load control ------------------------------------------------------

    def set_rate(self, rate_pps: float) -> None:
        """Change the offered rate (0 stops the generator)."""
        if not rate_pps >= 0:
            raise ConfigurationError("rate must be >= 0")
        if self._send_timer is not None:
            self._send_timer.cancel()
            self._send_timer = None
        self._rate_pps = rate_pps
        if rate_pps > 0:
            interval = SEC / rate_pps
            jitter = 0.3 if self._rng is not None else 0.0
            # hot path: one fast-tier tick per generated request; the
            # cancel above leaves the old loop's next tick as a no-op
            self._send_timer = self.sim.call_every(
                interval, self._send_one, jitter=jitter, rng=self._rng
            )

    @property
    def rate_pps(self) -> float:
        return self._rate_pps

    @property
    def response_times_us(self) -> Sequence[float]:
        """Response timestamps, for throughput timelines: a read-only view
        of :attr:`latency_series`' times."""
        return self.latency_series.times

    def stop(self) -> None:
        self.set_rate(0.0)

    # -- request generation ---------------------------------------------------

    def _send_one(self) -> None:
        is_set = (
            self.set_fraction > 0
            and self._rng is not None
            and self._rng.random() < self.set_fraction
        )
        if is_set:
            request = KvsRequest(
                _SET, self.key_sampler(), self.value_sampler(), next(self._ids)
            )
        else:
            request = KvsRequest(_GET, self.key_sampler(), None, next(self._ids))
        self.send(
            make_packet(
                self.name,
                self.server_name,
                _MEMCACHED,
                request,
                self.sim._now,
                KVS_PORT,
                request.size_bytes,
            )
        )

    # -- response handling -----------------------------------------------------

    def receive(self, packet: Packet) -> None:
        # hot path: Node.receive and packet.age_us inlined
        self.rx_packets += 1
        response = packet.payload
        if not isinstance(response, KvsResponse):
            return
        self.responses += 1
        now = self.sim._now
        latency = now - packet.created_us
        self.latency.record(latency, now)
        status = response.status
        if status is _HIT:
            self.hits += 1
        elif status is _MISS:
            self.misses += 1
        # the reply terminates here; recycle its shell
        release_packet(packet)
