"""Topology builder: nodes, switches, racks and leaf-spine fabrics.

Experiments build small rack-scale topologies: clients, a ToR switch, the
server under test, and (for Paxos) acceptor/learner nodes.  ``Topology``
keeps the wiring in one place and gives tests a convenient registry.

Datacenter-scale scenarios build a :class:`Fabric` instead: per-rack ToR
switches under one aggregation/spine switch, with oversubscribed
(queueing) uplinks carrying cross-rack traffic.  The fabric mirrors the
switch control plane across every switch — redirect rules and per-packet
dispatchers are installed fleet-wide, and per-(class, logical-dst)
counters are aggregated across ToRs — which is exactly the view the
paper's §9.1 *centralized* controller needs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import random

from ..errors import ConfigurationError
from ..naming import rack_qualified
from ..units import gbit_per_s
from ..sim import Simulator
from .link import Link, LinkFaults
from .node import Node
from .packet import Packet, TrafficClass
from .switch import ForwardingRule, Switch


class Topology:
    """A registry of nodes plus helpers to wire them together."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._nodes: Dict[str, Node] = {}

    # -- registry -----------------------------------------------------------

    def add(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ConfigurationError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown node {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    @property
    def nodes(self) -> Dict[str, Node]:
        return dict(self._nodes)

    # -- wiring ---------------------------------------------------------------

    def link(
        self,
        src_name: str,
        dst_name: str,
        latency_us: float = 1.0,
        bandwidth_bps: float = gbit_per_s(10.0),
        faults: Optional[LinkFaults] = None,
        rng: Optional[random.Random] = None,
        queueing: bool = False,
    ) -> Link:
        """Create a unidirectional link src -> dst and attach it.

        If ``src`` is a :class:`Switch` the link becomes a switch port;
        otherwise it becomes the node's egress.
        """
        src = self.node(src_name)
        dst = self.node(dst_name)
        link = Link(
            self.sim,
            dst,
            latency_us=latency_us,
            bandwidth_bps=bandwidth_bps,
            faults=faults,
            rng=rng,
            name=f"{src_name}->{dst_name}",
            queueing=queueing,
        )
        if isinstance(src, Switch):
            src.connect(dst, link)
        else:
            src.attach_egress(link.send)
        return link

    def connect_via_switch(
        self,
        switch_name: str,
        node_name: str,
        latency_us: float = 1.0,
        bandwidth_bps: float = gbit_per_s(10.0),
        faults: Optional[LinkFaults] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Bidirectional attachment of a node to a switch (two links)."""
        self.link(
            node_name, switch_name,
            latency_us=latency_us, bandwidth_bps=bandwidth_bps,
            faults=faults, rng=rng,
        )
        self.link(
            switch_name, node_name,
            latency_us=latency_us, bandwidth_bps=bandwidth_bps,
            faults=faults, rng=rng,
        )


class Fabric:
    """A built leaf-spine fabric: per-rack ToRs under one spine switch.

    Packets never carry fabric state: a switch re-resolves the (possibly
    logical) destination at every hop, so the fabric installs each
    redirect rule and each per-packet dispatcher on *every* switch — the
    ingress ToR resolves a logical service to a concrete host, and the
    spine/egress ToR re-resolve the same way (all choosers share owner
    state, so every hop agrees).  Static routes do the rest: the spine
    routes each host via its rack's ToR, and each ToR default-routes
    unknown destinations up its spine uplink.

    Control-plane reads aggregate with the transit identity: a same-rack
    packet is seen by one ToR and no spine; a cross-rack packet is seen by
    its ingress ToR, the spine (exactly once), and its egress ToR.  So
    ``sum(ToR counters) - spine counter`` counts each *offered* packet
    exactly once, and the spine counter alone is the cross-rack subset —
    both views are exposed (``logical_count`` vs ``spine_logical_count``).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        spine: Switch,
        tors: Dict[str, Switch],
        host_latency_us: float = 1.0,
        host_bandwidth_bps: float = gbit_per_s(10.0),
    ):
        self.sim = sim
        self.topology = topology
        self.spine = spine
        self._tors = tors
        self.host_latency_us = host_latency_us
        self.host_bandwidth_bps = host_bandwidth_bps
        #: rack of each connected host (fully-qualified name -> rack).
        self._host_racks: Dict[str, str] = {}

    # -- structure ---------------------------------------------------------

    @property
    def racks(self) -> Tuple[str, ...]:
        return tuple(self._tors)

    @property
    def tors(self) -> Dict[str, Switch]:
        return dict(self._tors)

    @property
    def switches(self) -> List[Switch]:
        return [self.spine, *self._tors.values()]

    def tor(self, rack: str) -> Switch:
        try:
            return self._tors[rack]
        except KeyError:
            raise ConfigurationError(
                f"unknown rack {rack!r}; fabric racks are {list(self._tors)}"
            ) from None

    def rack_of(self, host_name: str) -> str:
        try:
            return self._host_racks[host_name]
        except KeyError:
            raise ConfigurationError(
                f"{host_name!r} is not connected to this fabric"
            ) from None

    def connect_host(
        self,
        rack: str,
        node: Node,
        latency_us: Optional[float] = None,
        bandwidth_bps: Optional[float] = None,
    ) -> None:
        """Wire ``node`` (already added to the topology) into ``rack``.

        Attaches the node to the rack's ToR bidirectionally and teaches
        the spine which ToR owns it; the ToR's default route (installed at
        build time) already points up the uplink.
        """
        tor = self.tor(rack)
        self.topology.connect_via_switch(
            tor.name,
            node.name,
            latency_us=self.host_latency_us if latency_us is None else latency_us,
            bandwidth_bps=(
                self.host_bandwidth_bps if bandwidth_bps is None else bandwidth_bps
            ),
        )
        self.spine.add_route(node.name, via=tor.name)
        self._host_racks[node.name] = rack

    # -- mirrored control plane -------------------------------------------

    def install_rule(self, rule: ForwardingRule) -> None:
        """Install a redirect rule on every switch in the fabric.

        This is the §9.2 leader shift at datacenter scale: the centralized
        controller rewrites the logical leader's next hop fleet-wide, and
        ToRs without a local port to the new leader forward via the spine.
        """
        for switch in self.switches:
            switch.install_rule(rule)

    def remove_rule(
        self, traffic_class: TrafficClass, logical_dst: str
    ) -> Optional[ForwardingRule]:
        removed = None
        for switch in self.switches:
            got = switch.remove_rule(traffic_class, logical_dst)
            removed = removed or got
        return removed

    def install_dispatch(
        self,
        traffic_class: TrafficClass,
        logical_dst: str,
        chooser_factory: Callable[[], Callable[[Packet], str]],
    ) -> Dict[str, Callable[[Packet], str]]:
        """Install one dispatcher per switch for a logical service address.

        ``chooser_factory`` is called once per switch so each hop owns its
        own chooser instance (per-switch routed counters stay meaningful);
        steering updates must be applied to all returned choosers — see
        :meth:`repro.net.classifier.KeyShardRouter.reassign`.  Returns
        ``{switch_name: chooser}``.
        """
        choosers: Dict[str, Callable[[Packet], str]] = {}
        for switch in self.switches:
            chooser = chooser_factory()
            switch.install_dispatch(traffic_class, logical_dst, chooser)
            choosers[switch.name] = chooser
        return choosers

    # -- aggregated counters ----------------------------------------------

    def logical_count(self, traffic_class: TrafficClass, logical_dst: str) -> int:
        """Offered packets for (class, logical-dst), fleet-wide.

        ``sum(ToRs) - spine``: a cross-rack packet hits two ToRs and the
        spine once, a same-rack packet one ToR and no spine, so the
        difference counts each offered packet exactly once — the
        fleet-wide rate a centralized controller keys its decisions on.
        """
        return sum(
            tor.logical_count(traffic_class, logical_dst)
            for tor in self._tors.values()
        ) - self.spine.logical_count(traffic_class, logical_dst)

    def rack_logical_counts(
        self, traffic_class: TrafficClass, logical_dst: str
    ) -> Dict[str, int]:
        """Packets for (class, logical-dst) seen at each rack's ToR.

        Raw per-ToR telemetry: a rack's count includes both its own
        clients' offered load and cross-rack arrivals handed down from
        the spine.  For per-host *serving* load use the dispatch routers'
        ``per_host`` counters instead.
        """
        return {
            rack: tor.logical_count(traffic_class, logical_dst)
            for rack, tor in self._tors.items()
        }

    def spine_logical_count(
        self, traffic_class: TrafficClass, logical_dst: str
    ) -> int:
        """Cross-rack packets for (class, logical-dst): only traffic that
        left its ingress rack transits the spine."""
        return self.spine.logical_count(traffic_class, logical_dst)

    @property
    def class_counters(self) -> Dict[TrafficClass, int]:
        """Per-class offered packets fleet-wide (``sum(ToRs) - spine``)."""
        totals = {tc: 0 for tc in TrafficClass}
        for tor in self._tors.values():
            for tc, count in tor.class_counters.items():
                totals[tc] += count
        for tc, count in self.spine.class_counters.items():
            totals[tc] -= count
        return totals

    @property
    def dropped_no_route(self) -> int:
        return sum(switch.dropped_no_route for switch in self.switches)

    @property
    def uplinks(self) -> List[Link]:
        """The oversubscribed ToR->spine and spine->ToR links."""
        links: List[Link] = []
        for tor in self._tors.values():
            links.append(tor.ports[self.spine.name])
            links.append(self.spine.ports[tor.name])
        return links


def uplink_effective_bps(
    uplink_bandwidth_bps: float, oversubscription: float
) -> float:
    """The effective per-direction bandwidth of an oversubscribed uplink —
    the single analytic parameter the steady fast path needs from the
    fabric's queueing model.  Kept as the one shared expression so
    :func:`build_fabric`'s DES links and the analytic model can never
    disagree about what a 4:1 oversubscribed 40G uplink serves."""
    if uplink_bandwidth_bps <= 0:
        raise ConfigurationError(
            f"uplink bandwidth must be > 0, got {uplink_bandwidth_bps}"
        )
    if oversubscription < 1.0:
        raise ConfigurationError(
            f"oversubscription must be >= 1, got {oversubscription}"
        )
    return uplink_bandwidth_bps / oversubscription


def build_fabric(
    sim: Simulator,
    rack_names: Sequence[str],
    topology: Optional[Topology] = None,
    spine_name: str = "spine",
    tor_name: str = "tor",
    host_latency_us: float = 1.0,
    host_bandwidth_bps: float = gbit_per_s(10.0),
    uplink_latency_us: float = 5.0,
    uplink_bandwidth_bps: float = gbit_per_s(40.0),
    oversubscription: float = 1.0,
) -> Fabric:
    """Build a leaf-spine fabric skeleton: ToR per rack + spine + uplinks.

    Each rack's ToR is named ``<rack>/<tor_name>`` (so racks can share the
    bare spelling), wired to the spine both ways at
    ``uplink_bandwidth_bps / oversubscription`` effective bandwidth with
    FIFO queueing — an oversubscribed uplink genuinely queues under load
    instead of serializing packets independently.  Cross-rack packets pay
    the uplink latency twice (up, then down).  Hosts are attached later
    via :meth:`Fabric.connect_host`.
    """
    if not rack_names:
        raise ConfigurationError("a fabric needs at least one rack")
    if len(set(rack_names)) != len(rack_names):
        raise ConfigurationError(f"duplicate rack names in {list(rack_names)}")
    effective_bps = uplink_effective_bps(uplink_bandwidth_bps, oversubscription)
    topo = topology if topology is not None else Topology(sim)
    spine = Switch(sim, spine_name)
    topo.add(spine)
    tors: Dict[str, Switch] = {}
    for rack in rack_names:
        tor = Switch(sim, rack_qualified(rack, tor_name))
        topo.add(tor)
        topo.link(
            tor.name, spine_name,
            latency_us=uplink_latency_us, bandwidth_bps=effective_bps,
            queueing=True,
        )
        topo.link(
            spine_name, tor.name,
            latency_us=uplink_latency_us, bandwidth_bps=effective_bps,
            queueing=True,
        )
        tor.set_default_route(spine_name)
        tors[rack] = tor
    return Fabric(
        sim, topo, spine, tors,
        host_latency_us=host_latency_us,
        host_bandwidth_bps=host_bandwidth_bps,
    )


def star_topology(
    sim: Simulator,
    switch: Switch,
    nodes,
    latency_us: float = 1.0,
    bandwidth_bps: float = gbit_per_s(10.0),
) -> Topology:
    """Wire ``nodes`` to ``switch`` in a star (typical ToR layout)."""
    topo = Topology(sim)
    topo.add(switch)
    for node in nodes:
        topo.add(node)
        topo.connect_via_switch(
            switch.name, node.name, latency_us=latency_us, bandwidth_bps=bandwidth_bps
        )
    return topo
