"""Packet classifier — the hardware front-end used by LaKe and Emu DNS.

§3.1: LaKe contains a packet classifier that separates memcached traffic
(processed on the card) from normal traffic (DMA'd to the host as a plain
NIC).  §3.3: Emu DNS was amended with the same classifier so it can serve as
both a NIC and a DNS.  §9.1: the network-controlled on-demand controller is
"implemented in 40 lines of code within the FPGA's classifier module" — in
this package the controller hooks the classifier's per-class rate counters.

The classifier has a per-class *offload switch*: when offload is enabled for
a class, matching packets go to the hardware application; otherwise they go
to the host path.  Flipping this switch is how a workload shifts between
software and network.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import ConfigurationError
from ..sim import Simulator
from .packet import Packet, TrafficClass

PacketHandler = Callable[[Packet], None]


def key_shard(key: str, n_shards: int) -> int:
    """The canonical key→shard mapping used across the rack.

    CRC32 rather than :func:`hash` so the mapping is stable across
    processes (Python string hashing is salted per interpreter) — the
    ToR router, the per-host preloaders and the workload generators must
    all agree on shard ownership.
    """
    if n_shards < 1:
        raise ConfigurationError("n_shards must be >= 1")
    return zlib.crc32(key.encode()) % n_shards


@dataclass
class ClassifierRule:
    """Routing decision for one traffic class."""

    traffic_class: TrafficClass
    #: deliver to the on-card application when offload is enabled
    hardware: PacketHandler
    #: deliver to the host when offload is disabled (plain NIC path)
    host: PacketHandler
    offload_enabled: bool = False


class PacketClassifier:
    """Classifies packets by traffic class and steers hardware vs host.

    Maintains per-class packet counters that rate estimators (and the
    network-controlled on-demand controller) read.
    """

    def __init__(self, sim: Simulator, default_host: Optional[PacketHandler] = None):
        self.sim = sim
        self._rules: Dict[TrafficClass, ClassifierRule] = {}
        self._default_host = default_host
        self.counters: Dict[TrafficClass, int] = {tc: 0 for tc in TrafficClass}
        self.to_hardware = 0
        self.to_host = 0

    def add_rule(self, rule: ClassifierRule) -> None:
        self._rules[rule.traffic_class] = rule

    def set_offload(self, traffic_class: TrafficClass, enabled: bool) -> None:
        """Enable/disable hardware processing for a class (the shift)."""
        rule = self._rules.get(traffic_class)
        if rule is None:
            raise ConfigurationError(f"no classifier rule for {traffic_class}")
        rule.offload_enabled = enabled

    def offload_enabled(self, traffic_class: TrafficClass) -> bool:
        rule = self._rules.get(traffic_class)
        return bool(rule and rule.offload_enabled)

    def classify(self, packet: Packet) -> None:
        """Steer one packet."""
        self.counters[packet.traffic_class] += 1
        rule = self._rules.get(packet.traffic_class)
        if rule is None:
            if self._default_host is not None:
                self.to_host += 1
                self._default_host(packet)
            return
        if rule.offload_enabled:
            self.to_hardware += 1
            rule.hardware(packet)
        else:
            self.to_host += 1
            rule.host(packet)


class KeyShardRouter:
    """Key-sharded routing for a rack of KVS hosts (§9.4's many-hosts ToR).

    Clients address one logical rack service; the ToR switch consults this
    router (via :meth:`repro.net.switch.Switch.install_dispatch`) to pick
    the host owning the request's key shard.  The shard mapping is
    :func:`key_shard` over the request key, so it agrees with the per-host
    ETC workload split and store preloading.

    Packets without an extractable key (no ``key`` attribute on the
    payload) are spread by CRC32 of their source name so stray traffic
    still lands deterministically on some host.
    """

    def __init__(
        self,
        hosts: Sequence[Optional[str]],
        key_of: Optional[Callable[[Packet], Optional[str]]] = None,
    ):
        if not hosts:
            raise ConfigurationError("router needs at least one host")
        if all(h is None for h in hosts):
            raise ConfigurationError("router needs at least one owned shard")
        #: shard index -> owning host name.  ``None`` marks a shard with no
        #: host in this scenario (a sub-rack of a larger sharded rack);
        #: traffic for such shards is never offered, so routing to one is a
        #: configuration bug and raises.
        self.hosts: List[Optional[str]] = list(hosts)
        #: None reads ``packet.payload.key`` (inline in :meth:`route`)
        self._key_of = key_of
        #: per-host routed-packet counters (rack telemetry).
        self.per_host: Dict[str, int] = {
            name: 0 for name in self.hosts if name is not None
        }
        self.keyless = 0
        # key -> host memo; the host list is fixed at construction so the
        # mapping never changes, and keyspaces are bounded (ETC preloads
        # them), so the cache cannot grow without bound.
        self._host_cache: Dict[str, str] = {}

    @classmethod
    def for_qnames(cls, hosts: Sequence[str]) -> "KeyShardRouter":
        """Anycast-style DNS steering: hash the query name instead of a
        KVS key.  Every host answers authoritatively for the whole zone
        (the replicas are identical); the qname hash only spreads load,
        the way anycast spreads resolvers across sites (§3.3 at rack
        scale)."""
        return cls(hosts, key_of=lambda packet: getattr(packet.payload, "name", None))

    @property
    def n_shards(self) -> int:
        return len(self.hosts)

    def shard_of(self, key: str) -> int:
        return key_shard(key, self.n_shards)

    def host_for_key(self, key: str) -> str:
        host = self.hosts[self.shard_of(key)]
        if host is None:
            raise ConfigurationError(
                f"no host owns shard {self.shard_of(key)} for key {key!r}"
            )
        return host

    def route(self, packet: Packet) -> str:
        """The switch-dispatch chooser: next-hop host name for a packet."""
        key_of = self._key_of
        if key_of is None:
            key = getattr(packet.payload, "key", None)
        else:
            key = key_of(packet)
        if key is None:
            self.keyless += 1
            key = packet.src
        host = self._host_cache.get(key)
        if host is None:
            host = self.hosts[key_shard(key, self.n_shards)]
            if host is None:
                raise ConfigurationError(
                    f"no host owns shard {key_shard(key, self.n_shards)} "
                    f"for key {key!r}"
                )
            self._host_cache[key] = host
        self.per_host[host] += 1
        return host

    def reassign(self, shard_index: int, host: Optional[str]) -> Optional[str]:
        """Move a shard to a different owning host (fabric steering).

        Returns the previous owner.  Invalidates the key->host memo (the
        ownership mapping is no longer fixed) and registers the new host
        in the per-host counters.  In a multi-switch fabric the same
        reassignment must be applied to every switch's router instance so
        all hops keep agreeing — see
        :meth:`repro.net.topology.Fabric.install_dispatch`.
        """
        if not 0 <= shard_index < self.n_shards:
            raise ConfigurationError(
                f"shard_index {shard_index} out of range [0, {self.n_shards})"
            )
        previous = self.hosts[shard_index]
        self.hosts[shard_index] = host
        if host is not None and host not in self.per_host:
            self.per_host[host] = 0
        self._host_cache.clear()
        return previous


class RouterFleet:
    """One logical service's routers across every switch of a fabric.

    In a leaf-spine fabric each switch re-resolves a dispatched logical
    destination independently, so each ToR and the spine owns its own
    :class:`KeyShardRouter` instance (sharing the initial owner list).
    The fleet keeps them in lock-step — :meth:`reassign` applies a shard
    move to every instance — and exposes aggregated telemetry using the
    transit identity (a cross-rack packet is dispatched at its ingress
    ToR, the spine, and its egress ToR; a same-rack packet only at its
    ToR): ``sum(ToR routers) - spine router`` counts each request once.
    """

    def __init__(
        self,
        tor_routers: Dict[str, "KeyShardRouter"],
        spine_router: Optional["KeyShardRouter"] = None,
    ):
        if not tor_routers:
            raise ConfigurationError("a router fleet needs at least one ToR router")
        self._tor_routers = dict(tor_routers)
        self._spine_router = spine_router
        self._primary = next(iter(self._tor_routers.values()))

    @property
    def routers(self) -> List["KeyShardRouter"]:
        routers = list(self._tor_routers.values())
        if self._spine_router is not None:
            routers.append(self._spine_router)
        return routers

    @property
    def owners(self) -> List[Optional[str]]:
        """shard index -> owning host (all instances agree)."""
        return list(self._primary.hosts)

    @property
    def n_shards(self) -> int:
        return self._primary.n_shards

    def shards_of(self, host: str) -> List[int]:
        return [i for i, h in enumerate(self._primary.hosts) if h == host]

    @property
    def per_host(self) -> Dict[str, int]:
        """Requests served per host (each offered request counted once)."""
        totals: Dict[str, int] = {}
        for router in self._tor_routers.values():
            for host, count in router.per_host.items():
                totals[host] = totals.get(host, 0) + count
        if self._spine_router is not None:
            for host, count in self._spine_router.per_host.items():
                totals[host] = totals.get(host, 0) - count
        return totals

    @property
    def crossrack_per_host(self) -> Dict[str, int]:
        """Requests that crossed racks, per serving host (spine view)."""
        if self._spine_router is None:
            return {}
        return dict(self._spine_router.per_host)

    def reassign(self, shard_index: int, host: Optional[str]) -> Optional[str]:
        """Move a shard on every switch's router; returns the old owner."""
        previous = None
        for router in self.routers:
            previous = router.reassign(shard_index, host)
        return previous
