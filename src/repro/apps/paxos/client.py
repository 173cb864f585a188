"""Paxos client: open-loop submission with the §9.2 retry timeout.

"The clients resend requests after a time-out period if the learner has not
acknowledged" — the ~100ms client timeout is what Figure 7's throughput gap
corresponds to, so it is a first-class parameter here.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Dict, Optional

from ... import calibration as cal
from ...errors import ConfigurationError
from ...net.packet import Packet, TrafficClass, make_packet, release_packet
from ...net.node import Node
from ...sim import LatencyRecorder, Simulator, TimeSeries
from ...units import SEC, msec
from .deployment import LOGICAL_LEADER, PAXOS_PORT
from .messages import ClientCommand, ClientRequest, Decision

_PAXOS = TrafficClass.PAXOS  # bound once (see deployment._PAXOS)


class PaxosClient(Node):
    """Submits commands; open-loop (fixed rate) or closed-loop (fixed
    window of outstanding requests, like the paper's benchmark clients —
    closed-loop throughput adapts to consensus latency, which is what makes
    Figure 7's throughput rise when the leader moves to hardware)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_pps: float = 0.0,
        timeout_us: float = msec(cal.PAXOS_CLIENT_TIMEOUT_MS),
        max_outstanding: int = 4096,
        rng=None,
        leader_address: str = LOGICAL_LEADER,
    ):
        super().__init__(sim, name)
        if timeout_us <= 0:
            raise ConfigurationError("timeout must be positive")
        self.timeout_us = timeout_us
        #: the logical leader this client's group addresses (per-group in
        #: multi-group racks; the ToR maps it to the active leader node)
        self.leader_address = leader_address
        self.max_outstanding = max_outstanding
        self._rng = rng
        self._ids = itertools.count(1)
        #: request_id -> first-submission time (for end-to-end latency)
        self._outstanding: Dict[int, float] = {}
        self._timeout_events: Dict[int, object] = {}
        self._timeout_name = f"{name}.timeout"
        #: (decision time, latency) samples for timeline plots (Figure 7)
        self.latency_series = TimeSeries(f"{name}.latency-series")
        #: latency statistics over the series' value column
        self.latency = LatencyRecorder(f"{name}.latency", self.latency_series)
        self.decided = 0
        self.retries = 0
        self.dropped_backpressure = 0
        self._send_timer = None
        self._rate_pps = 0.0
        self._window = 0  # closed-loop outstanding target; 0 = open loop
        if rate_pps > 0:
            self.set_rate(rate_pps)

    # -- load control ------------------------------------------------------

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
                interval, self._submit_new, jitter=jitter, rng=self._rng
            )

    @property
    def rate_pps(self) -> float:
        return self._rate_pps

    def start_closed_loop(self, window: int) -> None:
        """Keep ``window`` requests outstanding; each decision triggers the
        next submission."""
        if window <= 0:
            raise ConfigurationError("window must be positive")
        self._window = window
        for _ in range(window - len(self._outstanding)):
            self._submit_new()

    def stop(self) -> None:
        self.set_rate(0.0)
        self._window = 0
        for event in self._timeout_events.values():
            event.cancel()
        self._timeout_events.clear()

    # -- submission --------------------------------------------------------

    def _submit_new(self) -> None:
        if len(self._outstanding) >= self.max_outstanding:
            self.dropped_backpressure += 1
            return
        request_id = next(self._ids)
        self._outstanding[request_id] = self.sim._now
        self._send(request_id, attempt=1)

    def _send(self, request_id: int, attempt: int) -> None:
        request = ClientRequest(ClientCommand(self.name, request_id), attempt)
        sim = self.sim
        self.send(
            make_packet(
                self.name, self.leader_address, _PAXOS, request, sim._now, PAXOS_PORT
            )
        )
        self._timeout_events[request_id] = sim.schedule(
            self.timeout_us,
            partial(self._on_timeout, request_id, attempt),
            self._timeout_name,
        )

    def _on_timeout(self, request_id: int, attempt: int) -> None:
        if request_id not in self._outstanding:
            return
        self.retries += 1
        self._send(request_id, attempt + 1)

    # -- decisions ------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        # hot path: Node.receive inlined
        self.rx_packets += 1
        decision = packet.payload
        if not isinstance(decision, Decision):
            return
        # the decision terminates here whatever happens next (the payload
        # object, not the shell, is what learners/duplicates share)
        release_packet(packet)
        command = decision.value
        if not isinstance(command, ClientCommand) or command.client != self.name:
            return
        submitted = self._outstanding.pop(command.request_id, None)
        if submitted is None:
            return  # duplicate decision for an already-acknowledged command
        event = self._timeout_events.pop(command.request_id, None)
        if event is not None:
            event.cancel()
        self.decided += 1
        now = self.sim._now
        self.latency.record(now - submitted, now)
        if self._window and len(self._outstanding) < self._window:
            self._submit_new()
