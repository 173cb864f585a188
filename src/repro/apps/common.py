"""Shared application machinery.

:class:`SoftwareService` is the queueing skeleton of every software server
in the package (memcached, libpaxos, NSD): a FIFO request queue drained at
the service's calibrated capacity, with busy-time accounting feeding the
host's CPU model so power and the host controller see the load.

:class:`HardwareService` is the counterpart for on-card applications: a
fixed pipeline latency (plus optional memory access components), a line-rate
capacity, and utilization reporting into the FPGA card model's dynamic
power.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ConfigurationError
from ..net.packet import Packet, make_packet, release_packet
from ..sim import FifoQueue, Simulator
from ..units import SEC, msec


class UtilizationTracker:
    """Accumulates busy time and reports a windowed utilization."""

    def __init__(self, sim: Simulator, window_us: float = msec(100.0)):
        self._sim = sim
        self.window_us = window_us
        self._busy_us = 0.0
        self._window_start = sim.now
        self.utilization = 0.0

    def add_busy(self, duration_us: float) -> None:
        self._busy_us += duration_us

    def roll(self) -> float:
        """Close the current window and return its utilization."""
        now = self._sim.now
        elapsed = now - self._window_start
        if elapsed > 0:
            self.utilization = min(1.0, self._busy_us / elapsed)
        self._busy_us = 0.0
        self._window_start = now
        return self.utilization


class SoftwareService:
    """A software network service: single logical queue, fixed capacity.

    Subclasses implement :meth:`handle_request` which receives the request
    packet and returns a reply payload (or ``None`` for no reply).  The
    service:

    * serves requests at ``capacity_pps`` (service time = 1/capacity);
    * accounts busy time into the host's :class:`CpuAccount` under
      ``app_name`` over ``cores`` cores;
    * stamps replies and sends them back toward ``packet.src``.

    ``active`` gates processing: when a workload has been shifted to the
    network, the software copy sits idle (its queue is bypassed upstream by
    the classifier, but stray packets are still served — the paper's LaKe
    miss path relies on that).
    """

    def __init__(
        self,
        sim: Simulator,
        server,
        app_name: str,
        capacity_pps: float,
        cores: float,
        extra_latency_us: float = 0.0,
        util_window_us: float = msec(100.0),
    ):
        if capacity_pps <= 0:
            raise ConfigurationError("capacity_pps must be positive")
        if cores <= 0:
            raise ConfigurationError("cores must be positive")
        if extra_latency_us < 0:
            raise ConfigurationError("extra_latency_us must be >= 0")
        self.sim = sim
        self.server = server
        self.app_name = app_name
        self.capacity_pps = capacity_pps
        self.cores = cores
        #: pipeline (non-occupancy) latency of the software stack: kernel
        #: UDP, wakeups, syscalls.  Calibrated per application in
        #: repro.calibration (e.g. 14µs memcached, 200µs libpaxos leader).
        self.extra_latency_us = extra_latency_us
        self.queue = FifoQueue(sim, capacity=4096, name=f"{app_name}.q")
        self.util = UtilizationTracker(sim, util_window_us)
        self._busy = False
        self.served = 0
        self.rx = 0
        self._util_timer = sim.call_every(util_window_us, self._update_cpu_load)
        # start with zero load registered so the controller sees the app
        server.cpu.set_load(app_name, cores, 0.0)

    # -- configuration -------------------------------------------------------

    @property
    def service_time_us(self) -> float:
        return SEC / self.capacity_pps

    # -- packet path -----------------------------------------------------------

    def offer(self, packet: Packet) -> None:
        """Entry point: queue a request (drop-tail on overload)."""
        self.rx += 1
        if self.queue.push(packet):
            if not self._busy:
                self._start_service()
        else:
            release_packet(packet)  # drop-tail: nothing holds it now

    def _start_service(self) -> None:
        packet = self.queue.pop()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        # hot path: service_time_us and util.add_busy inlined
        duration = SEC / self.capacity_pps
        self.util._busy_us += duration
        self.sim.schedule_call(duration, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self.served += 1
        reply = self.handle_request(packet)
        if reply is not None:
            self._send_reply(packet, reply)
        # handle_request implementations consume the payload and drop the
        # shell; recycle it for the next request/reply
        release_packet(packet)
        self._start_service()

    def _send_reply(self, request: Packet, payload) -> None:
        reply = make_packet(
            src=self.server.name,
            dst=request.src,
            traffic_class=request.traffic_class,
            payload=payload,
            size_bytes=request.size_bytes,
            now=request.created_us,  # preserve for end-to-end latency
            dport=request.dport,
        )
        self.transmit(reply)

    def transmit(self, packet: Packet) -> None:
        """Send a packet after the software stack's pipeline latency."""
        if self.extra_latency_us > 0:
            self.sim.schedule_call(
                self.extra_latency_us, self.server.send, packet
            )
        else:
            self.server.send(packet)

    # -- CPU/power feedback ------------------------------------------------------

    def _update_cpu_load(self) -> None:
        utilization = self.util.roll()
        self.server.cpu.set_load(self.app_name, self.cores, utilization)

    def stop(self) -> None:
        self._util_timer.cancel()
        self.server.cpu.clear_load(self.app_name)

    # -- subclass hook -------------------------------------------------------

    def handle_request(self, packet: Packet):  # pragma: no cover - abstract
        raise NotImplementedError


class HardwareService:
    """An on-card application: pipeline latency, line-rate capacity.

    Hardware designs are fully pipelined (§9.5), so there is no queueing
    below capacity; requests complete after ``pipeline_latency_us`` (which
    subclasses may vary per request, e.g. LaKe's cache levels).  Utilization
    is tracked over a window and pushed into the card model so its dynamic
    power follows load.
    """

    def __init__(
        self,
        sim: Simulator,
        card,
        node,
        app_name: str,
        capacity_pps: float,
        util_window_us: float = msec(100.0),
    ):
        if capacity_pps <= 0:
            raise ConfigurationError("capacity_pps must be positive")
        self.sim = sim
        self.card = card
        self.node = node  # network node used to send replies
        self.app_name = app_name
        self.capacity_pps = capacity_pps
        self.served = 0
        self.rx = 0
        self.dropped_overload = 0
        self._window_count = 0
        self._window_us = util_window_us
        self._util_timer = sim.call_every(util_window_us, self._update_utilization)

    def offer(self, packet: Packet) -> None:
        """Entry point from the classifier's hardware path."""
        self.rx += 1
        # Line-rate policing: beyond capacity the input queues overflow.
        window_capacity = self.capacity_pps * self._window_us / SEC
        if self._window_count >= window_capacity:
            self.dropped_overload += 1
            release_packet(packet)  # policed drop: nothing holds it now
            return
        self._window_count += 1
        latency = self.request_latency_us(packet)
        self.sim.schedule_call(latency, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self.served += 1
        reply = self.handle_request(packet)
        if reply is not None:
            self._send_reply(packet, reply)
        release_packet(packet)

    def _send_reply(self, request: Packet, payload) -> None:
        reply = make_packet(
            src=self.node.name,
            dst=request.src,
            traffic_class=request.traffic_class,
            payload=payload,
            size_bytes=request.size_bytes,
            now=request.created_us,
            dport=request.dport,
        )
        self.node.send(reply)

    def _update_utilization(self) -> None:
        window_capacity = self.capacity_pps * self._window_us / SEC
        utilization = min(1.0, self._window_count / window_capacity)
        self.card.set_utilization(utilization)
        self._window_count = 0

    def stop(self) -> None:
        self._util_timer.cancel()
        self.card.set_utilization(0.0)

    # -- subclass hooks -----------------------------------------------------

    def request_latency_us(self, packet: Packet) -> float:  # pragma: no cover
        raise NotImplementedError

    def handle_request(self, packet: Packet):  # pragma: no cover - abstract
        raise NotImplementedError
