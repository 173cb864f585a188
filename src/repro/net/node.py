"""Network node base class.

A :class:`Node` is anything with a name that can receive packets: servers,
switches, hardware devices, and test sinks.  Delivery is always via
:meth:`receive`; links call it after their propagation delay.

A sender-side latency before the wire (a software stack's) goes through
:meth:`Node.send_after`.  On a plain :class:`~repro.net.link.Link` that is
one step: the link pushes the arrival at ``(now + delay) + link delay``
at once, the same two float additions in the same order as a send
``delay`` later, so event times are bit-identical to the two-event path.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..sim import Simulator
from .packet import Packet


class Node:
    """A named packet endpoint attached to a simulator.

    ``tx_packets`` counts packets handed to the egress: by :meth:`send`,
    or by :meth:`send_after` at the hand-off when the egress is a plain
    link, so a packet still inside the sender's stack at the horizon is
    already counted.
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._egress: Optional[Callable[[Packet], None]] = None
        self._egress_after: Optional[Callable[[float, Packet], None]] = None
        self.rx_packets = 0
        self.tx_packets = 0

    # -- wiring ---------------------------------------------------------

    def attach_egress(self, send: Callable[[Packet], None]) -> None:
        """Set the function used to transmit packets (usually Link.send).

        When ``send`` belongs to a :class:`~repro.net.link.Link` that takes
        a sender-side delay in its own push (``Link.send_after``, a plain
        link's), :meth:`send_after` hands packets to it directly.
        """
        from .link import Link  # link.py imports this module

        link = getattr(send, "__self__", None)
        self._egress = send
        self._egress_after = link.send_after if isinstance(link, Link) else None

    def send(self, packet: Packet) -> None:
        """Transmit a packet through the attached egress."""
        egress = self._egress
        if egress is None:
            raise ConfigurationError(f"node {self.name!r} has no egress attached")
        self.tx_packets += 1
        egress(packet)

    def send_after(self, delay: float, packet: Packet) -> None:
        """Transmit ``packet`` after ``delay`` us of sender-side latency.

        A plain link's egress takes the packet now, with the delay, and
        pushes its arrival as one event.  Any other egress (a queued link's
        busy-until time, a faulty link's RNG draws, a test callback) must
        see the real send time, so :meth:`send` runs ``delay`` later as an
        event of its own; with no egress that send raises
        :class:`ConfigurationError`.
        """
        egress_after = self._egress_after
        if egress_after is None:
            self.sim.schedule_call(delay, self.send, packet)
            return
        self.tx_packets += 1
        egress_after(delay, packet)

    # -- delivery --------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Deliver a packet to this node.  Subclasses override."""
        self.rx_packets += 1


class SinkNode(Node):
    """A node that records everything it receives (for tests)."""

    def __init__(self, sim: Simulator, name: str = "sink"):
        super().__init__(sim, name)
        self.received = []

    def receive(self, packet: Packet) -> None:
        super().receive(packet)
        self.received.append(packet)


class CallbackNode(Node):
    """A node that forwards received packets to a callback (for tests and
    simple composition)."""

    def __init__(self, sim: Simulator, name: str, on_packet: Callable[[Packet], None]):
        super().__init__(sim, name)
        self._on_packet = on_packet

    def receive(self, packet: Packet) -> None:
        super().receive(packet)
        self._on_packet(packet)
