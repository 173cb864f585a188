"""Link delays and fault injection."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net import Link, LinkFaults, TrafficClass
from repro.net.node import SinkNode
from repro.net.packet import make_packet
from repro.sim import Simulator
from repro.units import gbit_per_s


def _setup(latency_us=1.0, bandwidth=gbit_per_s(10.0), faults=None, rng=None):
    sim = Simulator()
    sink = SinkNode(sim)
    link = Link(sim, sink, latency_us=latency_us, bandwidth_bps=bandwidth,
                faults=faults, rng=rng)
    return sim, sink, link


def test_delivery_after_propagation_and_serialization():
    sim, sink, link = _setup(latency_us=2.0)
    p = make_packet("a", "sink", TrafficClass.NORMAL, size_bytes=1250, now=sim.now)
    link.send(p)
    # serialization: 1250B * 8 / 10G = 1us; total 3us
    sim.run_until(2.9)
    assert sink.received == []
    sim.run_until(3.1)
    assert len(sink.received) == 1


def test_fifo_delivery_without_jitter():
    sim, sink, link = _setup()
    for i in range(10):
        link.send(make_packet("a", "sink", TrafficClass.NORMAL, payload=i, now=sim.now))
    sim.run()
    assert [p.payload for p in sink.received] == list(range(10))


def test_loss_fault():
    rng = random.Random(1)
    sim, sink, link = _setup(faults=LinkFaults(loss=1.0), rng=rng)
    link.send(make_packet("a", "sink", TrafficClass.NORMAL, now=sim.now))
    sim.run()
    assert sink.received == []
    assert link.lost == 1


def test_duplicate_fault():
    rng = random.Random(1)
    sim, sink, link = _setup(faults=LinkFaults(duplicate=1.0), rng=rng)
    link.send(make_packet("a", "sink", TrafficClass.NORMAL, now=sim.now))
    sim.run()
    assert len(sink.received) == 2
    assert sink.received[0].packet_id != sink.received[1].packet_id


def test_partial_loss_statistics():
    rng = random.Random(7)
    sim, sink, link = _setup(faults=LinkFaults(loss=0.5), rng=rng)
    for _ in range(1000):
        link.send(make_packet("a", "sink", TrafficClass.NORMAL, now=sim.now))
    sim.run()
    assert 350 < len(sink.received) < 650
    assert link.lost + link.delivered == 1000


def test_faults_require_rng():
    with pytest.raises(ConfigurationError):
        _setup(faults=LinkFaults(loss=0.1), rng=None)


def test_invalid_fault_probability():
    with pytest.raises(ConfigurationError):
        _setup(faults=LinkFaults(loss=1.5), rng=random.Random(0))


def test_negative_latency_rejected():
    with pytest.raises(ConfigurationError):
        _setup(latency_us=-1.0)


def test_hop_count_increments():
    sim, sink, link = _setup()
    p = make_packet("a", "sink", TrafficClass.NORMAL, now=sim.now)
    link.send(p)
    sim.run()
    assert sink.received[0].hops == 1


# -- the fused send: a sender-side delay folded into the link push -----------


def _twin(fused, link_kwargs, plan, markers=()):
    """One simulator running ``plan``: (hand-off time, stack delay) per
    packet, sent with ``Node.send_after`` (``fused``) or with the two-event
    path it replaces, ``schedule_call(delay, node.send, packet)``.  Each
    marker time gets two entries, one scheduled before every hand-off and
    one at 7 us, after the sends of packets that hand off by 3 us with at
    most 3 us of delay: that tests same-time order.  Returns what the sink
    saw, as (time, label), and the node and link."""
    from repro.net.node import CallbackNode, Node

    sim = Simulator()
    seen = []
    sink = CallbackNode(sim, "sink", lambda p: seen.append((sim.now, p.payload)))
    link = Link(sim, sink, **link_kwargs)
    node = Node(sim, "src")
    node.attach_egress(link.send)

    def hand_off(item):
        label, delay = item
        packet = make_packet(
            "src", "sink", TrafficClass.NORMAL, label, sim.now, size_bytes=90
        )
        if fused:
            node.send_after(delay, packet)
        else:
            sim.schedule_call(delay, node.send, packet)

    def mark(tag):
        for when in markers:
            sim.schedule_at(when, lambda t=f"{tag}@{when}": seen.append((sim.now, t)))

    mark("early")
    for label, (at, delay) in enumerate(plan):
        sim.schedule_at(float(at), lambda item=(label, delay): hand_off(item))
    sim.schedule_at(7.0, lambda: mark("late"))
    sim.run()
    return seen, node, link


def test_fused_send_matches_the_two_event_path_on_a_plain_link():
    """Same float arrival times and the same order among tied arrivals:
    hand-offs at 0-3 us with stack delays of 1-3 us send at equal times
    from different hand-offs, and markers sit at every arrival time.
    Hand-offs at arbitrary times with the calibrated stack latencies pin
    the float additions' order."""
    rng = random.Random(4)
    tied = [(at, float(delay)) for at in range(4) for delay in (3, 1, 2, 3)]
    wire = 10.0 + 90 * 8 / gbit_per_s(10.0) * 1e6
    arrivals = sorted({(at + delay) + wire for at, delay in tied})
    plan = tied + [
        (rng.uniform(0.0, 6.0), rng.choice((14.0, 70.0, 200.0))) for _ in range(40)
    ]
    fused, node, link = _twin(True, dict(latency_us=10.0), plan, arrivals)
    twin, twin_node, twin_link = _twin(False, dict(latency_us=10.0), plan, arrivals)
    assert fused == twin
    assert len(fused) == len(plan) + 2 * len(arrivals)
    assert node.tx_packets == twin_node.tx_packets == len(plan)
    assert link.delivered == twin_link.delivered == len(plan)


def test_fused_send_counts_at_hand_off():
    """On a plain link the node, the link and the packet count when the
    stack hands the packet over, before its send time."""
    from repro.net.node import Node

    sim, sink, link = _setup(latency_us=1.0)
    node = Node(sim, "src")
    node.attach_egress(link.send)
    packet = make_packet("src", "sink", TrafficClass.NORMAL, now=sim.now)
    node.send_after(50.0, packet)
    assert (node.tx_packets, link.delivered, packet.hops) == (1, 1, 1)
    assert sim.pending == 1  # the arrival itself: no send event
    sim.run()
    assert sink.received == [packet]


def test_queued_link_keeps_the_two_event_path():
    """A queued link's wait is read at the real send time: the node sends
    ``delay`` later as its own event, behind a packet that took the wire
    meanwhile."""
    from repro.net.node import CallbackNode, Node

    sim = Simulator()
    times = []
    sink = CallbackNode(sim, "sink", lambda p: times.append((sim.now, p.payload)))
    # 1250 B at 1 Gb/s: 10 us on the wire
    link = Link(sim, sink, latency_us=1.0, bandwidth_bps=gbit_per_s(1.0), queueing=True)
    node = Node(sim, "src")
    node.attach_egress(link.send)
    assert link.send_after is None
    first = make_packet("src", "sink", TrafficClass.NORMAL, "first", size_bytes=1250)
    node.send_after(5.0, first)
    assert (node.tx_packets, link.delivered) == (0, 0)
    second = make_packet("src", "sink", TrafficClass.NORMAL, "second", size_bytes=1250)
    sim.schedule_call(4.0, link.send, second)  # busy 4-14 us
    sim.run()
    # second: 4 + 10 + 1; first, sent at 5, waits 9 us: 5 + (9 + 10 + 1)
    assert times == [(15.0, "second"), (25.0, "first")]
    assert node.tx_packets == 1


def test_faulty_link_keeps_the_two_event_path():
    """A faulty link draws its losses, duplicates and jitter at the real
    send time: under one RNG seed the fused and the two-event paths drop,
    duplicate and deliver the same packets at the same times."""
    faults = dict(loss=0.3, duplicate=0.2, reorder_jitter_us=2.0)
    plan = [(at % 5, float(1 + at % 3)) for at in range(60)]
    runs = []
    for fused in (True, False):
        kwargs = dict(latency_us=1.0, faults=LinkFaults(**faults), rng=random.Random(9))
        seen, node, link = _twin(fused, kwargs, plan)
        runs.append((seen, link.lost, link.duplicated, link.delivered))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0 and runs[0][2] > 0


def test_non_link_egress_still_delivers_after_the_delay():
    from repro.net.node import Node

    sim = Simulator()
    sink = SinkNode(sim)
    node = Node(sim, "src")
    node.attach_egress(sink.receive)
    node.send_after(5.0, make_packet("src", "sink", TrafficClass.NORMAL, now=sim.now))
    assert node.tx_packets == 0
    sim.run_until(4.9)
    assert sink.received == []
    sim.run_until(5.0)
    assert len(sink.received) == 1
    assert node.tx_packets == 1


def test_send_after_without_egress_raises_at_send_time():
    from repro.net.node import Node

    sim = Simulator()
    node = Node(sim, "n")
    node.send_after(5.0, make_packet("n", "x", TrafficClass.NORMAL))
    with pytest.raises(ConfigurationError):
        sim.run()
