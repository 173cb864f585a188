"""DNS client — open-loop query generator."""

from __future__ import annotations

import itertools
from typing import Callable

from ...errors import ConfigurationError
from ...net.packet import Packet, TrafficClass, make_packet, release_packet
from ...net.node import Node
from ...sim import LatencyRecorder, Simulator, TimeSeries
from ...units import SEC
from .message import DnsQuery, DnsResponse, DnsRcode

DNS_PORT = 53


class DnsClient(Node):
    """Sends DNS queries at a controlled rate; records replies."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        server_name: str,
        name_sampler: Callable[[], str],
        rate_pps: float = 0.0,
        rng=None,
    ):
        super().__init__(sim, name)
        self.server_name = server_name
        self.name_sampler = name_sampler
        self._rng = rng
        self._ids = itertools.count(1)
        self.latency = LatencyRecorder(f"{name}.latency")
        #: (response time, latency) samples for timeline plots
        self.latency_series = TimeSeries(f"{name}.latency-series")
        #: response timestamps for bucketed throughput series
        self.response_times_us = []
        self.responses = 0
        self.resolved = 0
        self.nxdomain = 0
        self._send_timer = None
        self._rate_pps = 0.0
        if rate_pps > 0:
            self.set_rate(rate_pps)

    def set_rate(self, rate_pps: float) -> None:
        if not rate_pps >= 0:
            raise ConfigurationError("rate must be >= 0")
        if self._send_timer is not None:
            self._send_timer.cancel()
            self._send_timer = None
        self._rate_pps = rate_pps
        if rate_pps > 0:
            interval = SEC / rate_pps
            jitter = 0.3 if self._rng is not None else 0.0
            # hot path: one fast-tier tick per request; the cancel above
            # leaves the old loop's next tick as a no-op
            self._send_timer = self.sim.call_every(
                interval, self._send_one, jitter=jitter, rng=self._rng
            )

    @property
    def rate_pps(self) -> float:
        return self._rate_pps

    def stop(self) -> None:
        self.set_rate(0.0)

    def _send_one(self) -> None:
        query = DnsQuery(name=self.name_sampler(), query_id=next(self._ids))
        packet = make_packet(
            src=self.name,
            dst=self.server_name,
            traffic_class=TrafficClass.DNS,
            payload=query,
            now=self.sim.now,
            dport=DNS_PORT,
            size_bytes=query.size_bytes,
        )
        self.send(packet)

    def receive(self, packet: Packet) -> None:
        super().receive(packet)
        response = packet.payload
        if not isinstance(response, DnsResponse):
            return
        self.responses += 1
        age = packet.age_us(self.sim.now)
        self.latency.record(age)
        self.latency_series.record(self.sim.now, age)
        self.response_times_us.append(self.sim.now)
        if response.rcode is DnsRcode.NOERROR:
            self.resolved += 1
        elif response.rcode is DnsRcode.NXDOMAIN:
            self.nxdomain += 1
        # the reply terminates here; recycle its shell
        release_packet(packet)
