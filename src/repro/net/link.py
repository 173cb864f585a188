"""Point-to-point links with serialization + propagation delay and faults.

Links model what matters for the paper's experiments: in-rack propagation on
the order of a microsecond, serialization at 10GE, and (for protocol
robustness tests) loss / duplication / reordering fault injection used by the
Paxos property tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush
from typing import Optional

from ..errors import ConfigurationError, SimulationError
from ..units import gbit_per_s
from ..sim import Simulator
from .node import Node
from .packet import Packet


def serialization_time_us(size_bytes: float, bandwidth_bps: float) -> float:
    """Analytic serialization delay: time to put ``size_bytes`` on a wire
    of ``bandwidth_bps`` — the same expression :meth:`Link.serialization_us`
    charges per packet, exposed for the steady-state fast path."""
    if bandwidth_bps <= 0:
        raise ConfigurationError("bandwidth_bps must be > 0")
    return size_bytes * 8 / bandwidth_bps * 1e6


def fifo_wait_us(
    offered_pps: float, size_bytes: float, bandwidth_bps: float
) -> float:
    """Mean queueing wait (us) of a rate-constant flow through one FIFO
    output queue (:class:`Link` with ``queueing=True``).

    At a constant offered rate the queue is an M/D/1 station —
    deterministic service (fixed serialization time ``S``), near-Poisson
    arrivals from many independent clients — whose mean wait is
    ``S * rho / (2 * (1 - rho))`` at utilization ``rho = offered_pps * S``.
    The approximation degrades near saturation; utilization is clamped
    just below 1 so callers get a large-but-finite wait instead of a pole,
    and the fast-path tolerance gate is what enforces the validity
    envelope (``rho`` comfortably below 1).
    """
    if offered_pps < 0:
        raise ConfigurationError("offered_pps must be >= 0")
    service_s = serialization_time_us(size_bytes, bandwidth_bps) / 1e6
    rho = min(offered_pps * service_s, 0.999)
    return service_s * rho / (2.0 * (1.0 - rho)) * 1e6


@dataclass
class LinkFaults:
    """Fault-injection knobs, all probabilities in [0, 1]."""

    loss: float = 0.0
    duplicate: float = 0.0
    #: extra random delay (us, uniform in [0, reorder_jitter_us]) causing
    #: effective reordering between back-to-back packets.
    reorder_jitter_us: float = 0.0

    def validate(self) -> None:
        for field_name in ("loss", "duplicate"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{field_name} must be in [0,1], got {value}")
        if self.reorder_jitter_us < 0:
            raise ConfigurationError("reorder_jitter_us must be >= 0")


class Link:
    """A unidirectional link from anywhere to ``dst``.

    ``latency_us`` is one-way propagation; ``bandwidth_bps`` adds
    serialization delay (size / bandwidth).  Statistics count delivered,
    lost, and duplicated packets.

    ``send(packet)`` transmits toward ``dst``.  It is bound once, in
    ``__init__``, to one of three variants: plain (contention-free), FIFO
    queued (``queueing=True``) or faulty (any :class:`LinkFaults` knob
    set).  The plain and queued variants push the delivery entry
    ``(time, seq, dst.receive, packet)`` straight onto the simulator's
    heap (the layout :mod:`repro.sim.kernel` documents), ordered exactly
    like a :meth:`~repro.sim.Simulator.schedule_call`.

    ``send_after(delay, packet)`` is the fused send that
    :meth:`Node.send_after <repro.net.node.Node.send_after>` uses for a
    software stack's latency: a plain link pushes the arrival at
    ``(now + delay) + (latency + serialization)`` at once, bit-identical
    to a ``send`` ``delay`` later, with its ``seq`` drawn at the hand-off.
    It is ``None`` on queued and faulty links, whose busy-until time and
    fault draws belong to the real send time.  ``delivered`` and
    ``packet.hops`` count when the link takes the packet, so on a plain
    link they include packets still inside the sender's stack.
    """

    def __init__(
        self,
        sim: Simulator,
        dst: Node,
        latency_us: float = 1.0,
        bandwidth_bps: float = gbit_per_s(10.0),
        faults: Optional[LinkFaults] = None,
        rng: Optional[random.Random] = None,
        name: str = "",
        queueing: bool = False,
    ):
        if not latency_us >= 0:
            raise ConfigurationError("latency_us must be >= 0")
        if not bandwidth_bps > 0:
            raise ConfigurationError("bandwidth_bps must be > 0")
        self.sim = sim
        self.dst = dst
        self.latency_us = latency_us
        self.bandwidth_bps = bandwidth_bps
        self.faults = faults or LinkFaults()
        self.faults.validate()
        faulty = bool(
            self.faults.loss or self.faults.duplicate or self.faults.reorder_jitter_us
        )
        if faulty and rng is None:
            raise ConfigurationError("fault injection requires an rng")
        if queueing and faulty:
            raise ConfigurationError(
                "queueing and fault injection are mutually exclusive on one link"
            )
        self._rng = rng
        self.name = name or f"link->{dst.name}"
        #: FIFO output-queue contention: each packet occupies the wire for
        #: its serialization time and later packets wait their turn.  This
        #: is what makes an oversubscribed fabric uplink actually queue
        #: (raising cross-rack tail latency) rather than just serializing
        #: each packet independently.  Off by default: in-rack links keep
        #: the contention-free model the paper figures were calibrated on.
        self.queueing = queueing
        self._busy_until_us = 0.0
        self.queued_us = 0.0
        self.max_queue_us = 0.0
        self.delivered = 0
        self.lost = 0
        self.duplicated = 0
        # bound once: the fault-free variants write the kernel's heap
        # directly, with sequence numbers from its one counter
        self._heap = sim._heap
        self._seq = sim._seq
        self._receive = dst.receive
        self.send_after = None
        if faulty:
            self.send = self._send_faulty
        elif queueing:
            self.send = self._send_queued
        else:
            self.send = self._send_plain
            self.send_after = self._send_plain_after

    def serialization_us(self, packet: Packet) -> float:
        """Time to put ``packet`` on the wire at this link's bandwidth."""
        # keep this expression operation-for-operation identical to
        # serialization_time_us: event times must not drift between the
        # DES and the analytic fast path's description of it
        return packet.size_bytes * 8 / self.bandwidth_bps * 1e6

    def _send_plain(self, packet: Packet) -> None:
        # the hot path: one call per simulated hop.  The delay expression
        # must stay operation-for-operation identical to serialization_us
        # so event times are bit-identical across code paths.
        packet.hops += 1
        self.delivered += 1
        delay = self.latency_us + packet.size_bytes * 8 / self.bandwidth_bps * 1e6
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(
            self._heap,
            (self.sim._now + delay, next(self._seq), self._receive, packet),
        )

    def _send_plain_after(self, delay: float, packet: Packet) -> None:
        # _send_plain ``delay`` from now, in one push: the same two float
        # additions in the same order as that later send
        packet.hops += 1
        self.delivered += 1
        wire = self.latency_us + packet.size_bytes * 8 / self.bandwidth_bps * 1e6
        if not delay >= 0 or wire < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay}, wire={wire})"
            )
        heappush(
            self._heap,
            ((self.sim._now + delay) + wire, next(self._seq), self._receive, packet),
        )

    def _send_queued(self, packet: Packet) -> None:
        # FIFO output queue: the wire is busy until the previous packet's
        # serialization finishes; propagation overlaps (pipelining).
        now = self.sim._now
        start = self._busy_until_us
        if start < now:
            start = now
        wait = start - now
        serialization = packet.size_bytes * 8 / self.bandwidth_bps * 1e6
        self._busy_until_us = start + serialization
        if wait > 0.0:
            self.queued_us += wait
            if wait > self.max_queue_us:
                self.max_queue_us = wait
        packet.hops += 1
        self.delivered += 1
        delay = wait + serialization + self.latency_us
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (now + delay, next(self._seq), self._receive, packet))

    def _send_faulty(self, packet: Packet) -> None:
        faults = self.faults
        if faults.loss and self._rng.random() < faults.loss:
            self.lost += 1
            return
        self._deliver(packet)
        if faults.duplicate and self._rng.random() < faults.duplicate:
            self.duplicated += 1
            self._deliver(packet.copy())

    def _deliver(self, packet: Packet) -> None:
        delay = (
            self.latency_us
            + packet.size_bytes * 8 / self.bandwidth_bps * 1e6
        )
        if self.faults.reorder_jitter_us:
            delay += self._rng.uniform(0.0, self.faults.reorder_jitter_us)
        packet.hops += 1
        self.delivered += 1
        self.sim.schedule_call(delay, self.dst.receive, packet)
