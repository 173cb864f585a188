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

# bound once for the per-query paths (see message.py)
_DNS = TrafficClass.DNS
_NOERROR, _NXDOMAIN = DnsRcode.NOERROR, DnsRcode.NXDOMAIN


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
        #: (response time, latency) samples for timeline plots
        self.latency_series = TimeSeries(f"{name}.latency-series")
        #: latency statistics over the series' value column
        self.latency = LatencyRecorder(f"{name}.latency", self.latency_series)
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
        query = DnsQuery(self.name_sampler(), next(self._ids))
        self.send(
            make_packet(
                self.name,
                self.server_name,
                _DNS,
                query,
                self.sim._now,
                DNS_PORT,
                query.size_bytes,
            )
        )

    def receive(self, packet: Packet) -> None:
        # hot path: Node.receive and packet.age_us inlined
        self.rx_packets += 1
        response = packet.payload
        if not isinstance(response, DnsResponse):
            return
        self.responses += 1
        now = self.sim._now
        self.latency.record(now - packet.created_us, now)
        rcode = response.rcode
        if rcode is _NOERROR:
            self.resolved += 1
        elif rcode is _NXDOMAIN:
            self.nxdomain += 1
        # the reply terminates here; recycle its shell
        release_packet(packet)
