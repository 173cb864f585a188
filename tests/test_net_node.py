"""Node base classes."""

import pytest

from repro.errors import ConfigurationError
from repro.net.node import CallbackNode, Node, SinkNode
from repro.net.packet import TrafficClass, make_packet
from repro.sim import Simulator


def test_send_without_egress_raises():
    node = Node(Simulator(), "n")
    with pytest.raises(ConfigurationError):
        node.send(make_packet("n", "x", TrafficClass.NORMAL))


def test_tx_rx_counters():
    sim = Simulator()
    sink = SinkNode(sim, "sink")
    node = Node(sim, "n")
    node.attach_egress(sink.receive)
    for _ in range(3):
        node.send(make_packet("n", "sink", TrafficClass.NORMAL, now=sim.now))
    assert node.tx_packets == 3
    assert sink.rx_packets == 3
    assert len(sink.received) == 3


def test_callback_node_invokes_handler():
    sim = Simulator()
    seen = []
    node = CallbackNode(sim, "cb", on_packet=seen.append)
    packet = make_packet("x", "cb", TrafficClass.DNS, now=sim.now)
    node.receive(packet)
    assert seen == [packet]
    assert node.rx_packets == 1
