"""A programmable switch with a rewritable forwarding table.

The Paxos on-demand shift (§9.2) is implemented by a centralized controller
that "modifies switch forwarding rules to send messages to the new leader".
:class:`Switch` provides exactly that: destination-based forwarding with
optional (traffic_class, dport) match rules that take precedence, so a
controller can redirect e.g. all PAXOS traffic addressed to the logical
leader onto a different physical node without touching other flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..sim import Simulator
from .link import Link
from .node import Node
from .packet import Packet, TrafficClass

#: match-cache miss marker (``None`` is a cached "no rule, no dispatcher")
_UNRESOLVED = object()


@dataclass(frozen=True)
class ForwardingRule:
    """An exact-match redirect rule.

    Matches on (traffic_class, logical destination) and rewrites the packet
    destination to ``next_hop`` before normal destination lookup.
    """

    traffic_class: TrafficClass
    logical_dst: str
    next_hop: str


class Switch(Node):
    """Destination-forwarding switch with redirect rules and counters.

    The data plane answers its two table lookups from per-key caches: the
    match stage per (traffic class, destination) and the egress per
    target.  Every control-plane write (``connect``, ``add_route``,
    ``set_default_route``, ``install_rule``, ``remove_rule``,
    ``install_dispatch``, ``remove_dispatch``) clears both, so each packet
    after a write follows the new table.
    """

    def __init__(self, sim: Simulator, name: str = "switch"):
        super().__init__(sim, name)
        self._ports: Dict[str, Link] = {}
        self._rules: Dict[Tuple[TrafficClass, str], ForwardingRule] = {}
        self._dispatchers: Dict[
            Tuple[TrafficClass, str], Callable[[Packet], str]
        ] = {}
        #: destination name -> port name to reach it (multi-switch fabrics:
        #: the spine routes each host via its rack's ToR).
        self._routes: Dict[str, str] = {}
        #: port used for any destination with no direct port and no route
        #: (a ToR's uplink toward the spine).  None on single-switch racks.
        self._default_route: Optional[str] = None
        self.forwarded = 0
        self.redirected = 0
        self.dispatched = 0
        self.routed = 0
        self.dropped_no_route = 0
        #: per-traffic-class packet counters (controllers read these).
        self.class_counters: Dict[TrafficClass, int] = {tc: 0 for tc in TrafficClass}
        #: per-(class, logical destination) counters, bumped before rule or
        #: dispatch rewrite — how a centralized controller watches one
        #: consensus group's leader-bound rate among many sharing the ToR.
        self.logical_counters: Dict[Tuple[TrafficClass, str], int] = {}
        #: (class, dst) -> the matching ForwardingRule, dispatch chooser, or
        #: None when neither matches
        self._match_cache: Dict[Tuple[TrafficClass, str], object] = {}
        #: target -> (egress link or None for a drop, whether it was routed)
        self._egress_cache: Dict[str, Tuple[Optional[Link], bool]] = {}

    def _table_changed(self) -> None:
        """Every control-plane write ends here: forget cached lookups."""
        self._match_cache.clear()
        self._egress_cache.clear()

    # -- wiring ----------------------------------------------------------

    def connect(self, node: Node, link: Link) -> None:
        """Attach a port toward ``node`` over ``link``."""
        if node.name in self._ports:
            raise ConfigurationError(f"duplicate port toward {node.name!r}")
        self._ports[node.name] = link
        self._table_changed()

    @property
    def ports(self) -> Dict[str, Link]:
        return dict(self._ports)

    def add_route(self, dst_name: str, via: str) -> None:
        """Route packets for ``dst_name`` out the port toward ``via``.

        This is the fabric's static routing table: the spine knows each
        host is reachable via its rack's ToR without holding a direct
        port to the host.
        """
        if via not in self._ports:
            raise ConfigurationError(
                f"route via {via!r} is not a connected port of {self.name!r}"
            )
        self._routes[dst_name] = via
        self._table_changed()

    def set_default_route(self, via: str) -> None:
        """Send anything without a port or route out ``via`` (ToR uplink)."""
        if via not in self._ports:
            raise ConfigurationError(
                f"default route via {via!r} is not a connected port of "
                f"{self.name!r}"
            )
        self._default_route = via
        self._table_changed()

    def route_for(self, dst_name: str) -> Optional[str]:
        """The port a packet for ``dst_name`` would leave on, or None."""
        if dst_name in self._ports:
            return dst_name
        return self._routes.get(dst_name, self._default_route)

    # -- control plane -----------------------------------------------------

    def install_rule(self, rule: ForwardingRule) -> None:
        """Install (or replace) a redirect rule.  This is the operation the
        Paxos on-demand controller performs to shift the leader (§9.2).

        The next hop must be *routable* — a direct port, a routing-table
        entry, or (fabric ToRs) a default uplink — not necessarily a local
        port: a centralized controller installs the same leader rule on
        every switch in the fabric, and remote ToRs forward via the spine.
        """
        if self.route_for(rule.next_hop) is None:
            raise ConfigurationError(
                f"rule next_hop {rule.next_hop!r} is not a connected port"
            )
        self._rules[(rule.traffic_class, rule.logical_dst)] = rule
        self._table_changed()

    def remove_rule(self, traffic_class: TrafficClass, logical_dst: str) -> Optional[ForwardingRule]:
        """Remove a redirect rule; returns it, or None if absent."""
        rule = self._rules.pop((traffic_class, logical_dst), None)
        self._table_changed()
        return rule

    def rule_for(self, traffic_class: TrafficClass, logical_dst: str) -> Optional[ForwardingRule]:
        return self._rules.get((traffic_class, logical_dst))

    def logical_count(self, traffic_class: TrafficClass, logical_dst: str) -> int:
        """Packets seen for a (class, logical destination) pair."""
        return self.logical_counters.get((traffic_class, logical_dst), 0)

    def install_dispatch(
        self,
        traffic_class: TrafficClass,
        logical_dst: str,
        chooser: Callable[[Packet], str],
    ) -> None:
        """Install a per-packet dispatch rule for a logical destination.

        Where :class:`ForwardingRule` rewrites to one fixed next hop,
        a dispatch rule consults ``chooser(packet)`` on every matching
        packet — this is how a rack spreads a logical service address
        across many hosts (e.g. key-sharded KVS routing, where the chooser
        is a :class:`repro.net.classifier.KeyShardRouter`).  Exact-match
        redirect rules take precedence over dispatch rules.
        """
        self._dispatchers[(traffic_class, logical_dst)] = chooser
        self._table_changed()

    def remove_dispatch(
        self, traffic_class: TrafficClass, logical_dst: str
    ) -> Optional[Callable[[Packet], str]]:
        """Remove a dispatch rule; returns the chooser, or None if absent."""
        chooser = self._dispatchers.pop((traffic_class, logical_dst), None)
        self._table_changed()
        return chooser

    # -- data plane --------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        # hot path: one call per forwarded packet; Node.receive inlined.
        # Both lookups come from the caches; every counter still moves per
        # packet.
        self.rx_packets += 1
        traffic_class = packet.traffic_class
        self.class_counters[traffic_class] += 1
        target = packet.dst
        key = (traffic_class, target)
        match = self._match_cache.get(key, _UNRESOLVED)
        if match is _UNRESOLVED:
            match = self._resolve_match(key)
        if match is not None:
            self.logical_counters[key] = self.logical_counters.get(key, 0) + 1
            if match.__class__ is ForwardingRule:
                target = match.next_hop
                self.redirected += 1
            else:
                target = match(packet)
                self.dispatched += 1
        egress = self._egress_cache.get(target)
        if egress is None:
            egress = self._resolve_egress(target)
        link, routed = egress
        if link is None:
            self.dropped_no_route += 1
            return
        if routed:
            self.routed += 1
        self.forwarded += 1
        link.send(packet)

    def _resolve_match(self, key: Tuple[TrafficClass, str]) -> object:
        """The match stage for ``key``: exact redirect rules take
        precedence over dispatch rules."""
        match = self._rules.get(key)
        if match is None:
            match = self._dispatchers.get(key)
        self._match_cache[key] = match
        return match

    def _resolve_egress(self, target: str) -> Tuple[Optional[Link], bool]:
        """The port toward ``target`` and whether reaching it was routed."""
        link = self._ports.get(target)
        routed = False
        if link is None:
            # multi-switch fabrics: static route (spine -> owning ToR) or
            # default route (ToR -> spine uplink); single-switch racks have
            # neither, so this stays a drop there.
            via = self._routes.get(target, self._default_route)
            if via is not None:
                link = self._ports.get(via)
            routed = link is not None
        egress = (link, routed)
        self._egress_cache[target] = egress
        return egress
