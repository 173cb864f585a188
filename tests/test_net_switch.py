"""Switch forwarding and the §9.2 redirect rules."""

import pytest

from repro.errors import ConfigurationError
from repro.net import ForwardingRule, Link, Switch, TrafficClass
from repro.net.node import SinkNode
from repro.net.packet import make_packet
from repro.sim import Simulator


def _star():
    sim = Simulator()
    switch = Switch(sim)
    nodes = {}
    for name in ("a", "b", "c"):
        node = SinkNode(sim, name)
        switch.connect(node, Link(sim, node, name=f"sw->{name}"))
        nodes[name] = node
    return sim, switch, nodes


def test_destination_forwarding():
    sim, switch, nodes = _star()
    switch.receive(make_packet("a", "b", TrafficClass.NORMAL, now=sim.now))
    sim.run()
    assert len(nodes["b"].received) == 1
    assert len(nodes["c"].received) == 0


def test_unknown_destination_dropped():
    sim, switch, nodes = _star()
    switch.receive(make_packet("a", "nowhere", TrafficClass.NORMAL, now=sim.now))
    sim.run()
    assert switch.dropped_no_route == 1


def test_redirect_rule_rewrites_target():
    sim, switch, nodes = _star()
    switch.install_rule(ForwardingRule(TrafficClass.PAXOS, "paxos-leader", "c"))
    switch.receive(make_packet("a", "paxos-leader", TrafficClass.PAXOS, now=sim.now))
    sim.run()
    assert len(nodes["c"].received) == 1
    assert switch.redirected == 1


def test_rule_only_matches_its_class():
    sim, switch, nodes = _star()
    switch.install_rule(ForwardingRule(TrafficClass.PAXOS, "b", "c"))
    switch.receive(make_packet("a", "b", TrafficClass.NORMAL, now=sim.now))
    sim.run()
    assert len(nodes["b"].received) == 1
    assert len(nodes["c"].received) == 0


def test_rule_replacement_shifts_leader():
    """The §9.2 shift: replace the rule, traffic moves."""
    sim, switch, nodes = _star()
    switch.install_rule(ForwardingRule(TrafficClass.PAXOS, "paxos-leader", "b"))
    switch.receive(make_packet("x", "paxos-leader", TrafficClass.PAXOS, now=sim.now))
    switch.install_rule(ForwardingRule(TrafficClass.PAXOS, "paxos-leader", "c"))
    switch.receive(make_packet("x", "paxos-leader", TrafficClass.PAXOS, now=sim.now))
    sim.run()
    assert len(nodes["b"].received) == 1
    assert len(nodes["c"].received) == 1


def test_rule_to_unknown_port_rejected():
    sim, switch, nodes = _star()
    with pytest.raises(ConfigurationError):
        switch.install_rule(ForwardingRule(TrafficClass.PAXOS, "x", "nowhere"))


def test_remove_rule():
    sim, switch, nodes = _star()
    rule = ForwardingRule(TrafficClass.PAXOS, "x", "b")
    switch.install_rule(rule)
    assert switch.remove_rule(TrafficClass.PAXOS, "x") == rule
    assert switch.remove_rule(TrafficClass.PAXOS, "x") is None


def test_class_counters():
    sim, switch, nodes = _star()
    for _ in range(3):
        switch.receive(make_packet("a", "b", TrafficClass.DNS, now=sim.now))
    switch.receive(make_packet("a", "b", TrafficClass.NORMAL, now=sim.now))
    assert switch.class_counters[TrafficClass.DNS] == 3
    assert switch.class_counters[TrafficClass.NORMAL] == 1


def test_duplicate_port_rejected():
    sim, switch, nodes = _star()
    extra = SinkNode(sim, "a")
    with pytest.raises(ConfigurationError):
        switch.connect(extra, Link(sim, extra))


def test_dispatch_rule_chooses_per_packet():
    """A dispatch rule spreads one logical destination across ports."""
    sim, switch, nodes = _star()
    targets = iter(["b", "c", "b"])
    switch.install_dispatch(
        TrafficClass.MEMCACHED, "kvs-rack", lambda packet: next(targets)
    )
    for _ in range(3):
        switch.receive(
            make_packet("a", "kvs-rack", TrafficClass.MEMCACHED, now=sim.now)
        )
    sim.run()
    assert len(nodes["b"].received) == 2
    assert len(nodes["c"].received) == 1
    assert switch.dispatched == 3


def test_exact_rule_takes_precedence_over_dispatch():
    sim, switch, nodes = _star()
    switch.install_dispatch(
        TrafficClass.MEMCACHED, "kvs-rack", lambda packet: "b"
    )
    switch.install_rule(ForwardingRule(TrafficClass.MEMCACHED, "kvs-rack", "c"))
    switch.receive(make_packet("a", "kvs-rack", TrafficClass.MEMCACHED, now=sim.now))
    sim.run()
    assert len(nodes["c"].received) == 1
    assert len(nodes["b"].received) == 0


def test_remove_dispatch():
    sim, switch, nodes = _star()
    chooser = lambda packet: "b"
    switch.install_dispatch(TrafficClass.MEMCACHED, "kvs-rack", chooser)
    assert switch.remove_dispatch(TrafficClass.MEMCACHED, "kvs-rack") is chooser
    assert switch.remove_dispatch(TrafficClass.MEMCACHED, "kvs-rack") is None
    switch.receive(make_packet("a", "kvs-rack", TrafficClass.MEMCACHED, now=sim.now))
    sim.run()
    assert switch.dropped_no_route == 1


def test_cached_lookups_follow_every_table_write():
    """The match and egress caches: one (class, dst) pair is sent between
    control-plane writes, one write at a time.  Each packet follows the
    table as it stands, and every counter moves per packet."""
    sim, switch, nodes = _star()
    ghost = SinkNode(sim, "ghost")
    paxos = TrafficClass.PAXOS
    sent = []

    def send():
        sent.append(len(sent))
        switch.receive(make_packet("x", "svc", paxos, payload=sent[-1]))
        sim.run()

    send()  # 0: no rule, no dispatcher, no route -> cached drop
    switch.install_rule(ForwardingRule(paxos, "svc", "b"))
    send()  # 1: redirected to b
    switch.remove_rule(paxos, "svc")
    send()  # 2: dropped again
    switch.install_dispatch(paxos, "svc", lambda packet: "ghost")
    send()  # 3: dispatched to "ghost", which has no port or route: drop
    switch.add_route("ghost", "c")
    send()  # 4: the cached drop is replaced: routed out the port toward c
    switch.connect(ghost, Link(sim, ghost))
    send()  # 5: a direct port now beats the route
    switch.remove_dispatch(paxos, "svc")
    send()  # 6: "svc" itself has no port or route: drop
    switch.set_default_route("a")
    send()  # 7: default-routed out the port toward a

    def payloads(node):
        return [packet.payload for packet in node.received]

    assert payloads(nodes["b"]) == [1]
    assert payloads(nodes["c"]) == [4]
    assert payloads(ghost) == [5]
    assert payloads(nodes["a"]) == [7]
    assert switch.rx_packets == 8
    assert switch.forwarded == 4
    assert switch.redirected == 1
    assert switch.dispatched == 3
    assert switch.routed == 2
    assert switch.dropped_no_route == 4
    assert switch.class_counters == {
        tc: (8 if tc is paxos else 0) for tc in TrafficClass
    }
    assert switch.logical_counters == {(paxos, "svc"): 4}
