"""Network node base class.

A :class:`Node` is anything with a name that can receive packets: servers,
switches, hardware devices, and test sinks.  Delivery is always via
:meth:`receive`; links call it after their propagation delay.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..errors import ConfigurationError
from ..sim import Simulator
from .packet import Packet


class Node:
    """A named packet endpoint attached to a simulator."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._egress: Optional[Callable[[Packet], None]] = None
        self.rx_packets = 0
        self.tx_packets = 0

    # -- wiring ---------------------------------------------------------

    def attach_egress(self, send: Callable[[Packet], None]) -> None:
        """Set the function used to transmit packets (usually Link.send)."""
        self._egress = send

    def send(self, packet: Packet) -> None:
        """Transmit a packet through the attached egress."""
        egress = self._egress
        if egress is None:
            raise ConfigurationError(f"node {self.name!r} has no egress attached")
        self.tx_packets += 1
        egress(packet)

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
