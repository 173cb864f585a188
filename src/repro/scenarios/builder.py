"""Materialize a :class:`ScenarioSpec` into a wired DES run.

The builder owns all the plumbing the experiment runners used to hand-wire:
servers with NIC-replacing cards, software/hardware application pairs
behind per-host packet classifiers, the ToR switch (with key-shard and
qname-hash dispatch in rack mode, and per-group logical leader redirects),
per-placement shift controllers of any :class:`ControllerSpec` kind,
co-located CPU jobs, workload clients with phased rate schedules, and the
shared sampling.  Executing the run produces a :class:`ScenarioResult`
carrying per-host, per-group and aggregate timelines — the same series the
paper's Figures 6/7 plot, generalized to heterogeneous racks.

KVS hosts and DNS replicas share one build path and one collect path:
the on-demand shift is the same classifier-rule move for both apps (§9.1),
so :meth:`ScenarioBuilder._build_host` wires either into a
:class:`BuiltHost` and :meth:`ScenarioRun._collect_host` reads either
back.  Per-app code is only each rack method's traffic split, the
software/hardware and client constructors of :class:`_KvsTraffic` and
:class:`_DnsTraffic`, and the host table's two hardware counters.  Paxos
groups keep their own paths and share only the wall samplers.

Event order is part of the determinism contract.  Within a host: the
software util timer, the hardware util timer, the client's ``set_rate``,
the co-located jobs, the controller's timers (RAPL first), the initial
hardware pin, the RAPL sampler, the wall sampler.  Placements are built
KVS, Paxos, DNS and their power is attributed KVS, DNS, Paxos.  RNG
stream keys are ``<host>.lake.latency``, ``<host>.emu.jitter`` and
``<client>.arrivals``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Union

from .. import calibration as cal
from ..apps.common import HardwareService, SoftwareService
from ..apps.dns import DnsClient, EmuDns, SoftwareNsd, ZoneTable
from ..apps.kvs import KvsClient, LakeKvs, SoftwareMemcached
from ..apps.paxos import PaxosClient
from ..apps.paxos.deployment import (
    HardwarePaxosRole,
    LearnerGapScanner,
    PaxosDeployment,
    SoftwarePaxosRole,
    _Directory,
)
from ..apps.paxos.roles import AcceptorState, LeaderState, LearnerState
from ..core.controller import ShiftController
from ..core.fabric_controller import (
    FabricController,
    FabricControllerConfig,
    HostPlacement,
    SteerEvent,
)
from ..core.host_controller import HostController, HostControllerConfig
from ..core.network_controller import (
    DEFAULT_CONFIGS as NETCTL_DEFAULT_CONFIGS,
    NetworkController,
)
from ..core.ondemand import OnDemandService
from ..core.paxos_controller import PaxosControllerConfig, PaxosShiftController
from ..core.predictive_controller import (
    PredictiveController,
    PredictiveControllerConfig,
)
from ..errors import ConfigurationError
from ..floats import left_sum
from ..host import make_i7_server
from ..hw.device import DEFAULT_DEVICE_KIND, OffloadDevice, get_device
from ..naming import rack_qualified, split_rack
from ..net.classifier import (
    ClassifierRule,
    KeyShardRouter,
    PacketClassifier,
    RouterFleet,
)
from ..net.node import CallbackNode
from ..net.packet import TrafficClass
from ..net.switch import Switch
from ..net.topology import Fabric, Topology, build_fabric
from ..sim import (
    PeriodicSampler,
    RngStreams,
    Simulator,
    bucket_mean_series,
    bucket_rate_series,
)
from ..units import gbit_per_s, kpps, msec, sec
from ..workloads.colocated import ChainerMNWorkload
from ..workloads.dns import DnsNameWorkload, ShardedDnsWorkload
from ..workloads.etc import EtcShardStream, EtcWorkload, ShardedEtcWorkload
from .spec import (
    RACK_DNS_SERVICE,
    RACK_KVS_SERVICE,
    DnsHostSpec,
    KvsHostSpec,
    OnDemandSweepSpec,
    PaxosSpec,
    PhaseSchedule,
    ScenarioSpec,
)

# ---------------------------------------------------------------------------
# Results.
# ---------------------------------------------------------------------------


def windowed_mean(series, start_us: float, end_us: float, label: str = "series") -> float:
    """Mean of the non-None values with start <= t < end.

    The one windowing rule every result type (host, paxos, aggregate, and
    the figure-shaped adapters in :mod:`repro.experiments.transitions`)
    shares.
    """
    values = [
        v for t, v in series if v is not None and start_us <= t < end_us
    ]
    if not values:
        raise ValueError(f"no {label} samples in window")
    return left_sum(values) / len(values)


@dataclass
class HostResult:
    """One host's Figure-6-style timelines plus its transition markers.

    ``app`` tells KVS hosts from DNS hosts in mixed racks; for DNS hosts
    ``hw_hits`` counts Emu-served queries and ``hw_miss_forwards`` the
    deeper-than-parser fallbacks (§9.2).
    """

    name: str
    offered_pps: float
    shift_times_us: List[float]
    throughput_series: List[Tuple[float, float]]
    latency_series: List[Tuple[float, Optional[float]]]
    power_series: List[Tuple[float, float]]
    hw_hits: int
    hw_miss_forwards: int
    responses: int
    app: str = "kvs"
    controller_kind: str = "host"
    #: which offload card this host carries ("none" = NIC-only host)
    device_kind: str = DEFAULT_DEVICE_KIND

    def mean_throughput_pps(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.throughput_series, start_us, end_us, "throughput")

    def mean_latency_us(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.latency_series, start_us, end_us, "latency")

    def mean_power_w(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.power_series, start_us, end_us, "power")


@dataclass
class PaxosResult:
    """One consensus group's Figure-7-style timelines."""

    throughput_series: List[Tuple[float, float]]
    latency_series: List[Tuple[float, Optional[float]]]
    power_series: List[Tuple[float, float]]
    shift_times_us: List[float]
    decided: int
    retries: int
    stall_us: List[float] = field(default_factory=list)
    name: str = "paxos"

    def mean_throughput_pps(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.throughput_series, start_us, end_us, "throughput")

    def mean_latency_us(self, start_us: float, end_us: float) -> float:
        return windowed_mean(self.latency_series, start_us, end_us, "latency")


@dataclass
class ScenarioResult:
    """Everything a scenario run measured."""

    name: str
    duration_us: float
    hosts: List[HostResult]
    paxos_groups: List[PaxosResult]
    #: summed per-bucket host throughput (the rack's served rate, KVS+DNS)
    aggregate_throughput_series: List[Tuple[float, float]]
    #: summed per-bucket host platform power (the rack's CPU draw, KVS+DNS)
    aggregate_power_series: List[Tuple[float, float]]
    #: routed-packet counts per KVS host in rack mode (ToR telemetry)
    routed_per_host: Dict[str, int] = field(default_factory=dict)
    #: routed-query counts per DNS host in anycast mode (ToR telemetry)
    dns_routed_per_host: Dict[str, int] = field(default_factory=dict)
    dns_hosts: List[HostResult] = field(default_factory=list)
    #: mean **wall** watts (platform + card) attributed to each placement —
    #: KVS host, DNS replica or Paxos group — over the whole run; a server
    #: claimed by several placements is split between them (§9.4 rack
    #: accounting).  The per-host ``power_series`` above stay CPU-only,
    #: matching the paper's RAPL methodology.
    power_by_placement: Dict[str, float] = field(default_factory=dict)
    #: mean summed wall power of every rack server+card — computed from the
    #: per-sample totals, independently of the per-placement attribution,
    #: so the two must agree (the attribution invariant the §9.4 sweep
    #: benchmark asserts).
    total_wall_power_w: float = 0.0
    #: fabric telemetry (empty/zero on single-ToR scenarios, so every
    #: pre-fabric result — and its rendering — is unchanged)
    fabric_racks: Tuple[str, ...] = ()
    #: packets for the KVS service seen at each rack's ToR (raw per-ToR
    #: telemetry: a rack counts its own clients' offered load plus
    #: cross-rack arrivals handed down from the spine)
    rack_kvs_packets: Dict[str, int] = field(default_factory=dict)
    #: KVS packets that transited the spine — the cross-rack subset
    spine_crossrack_packets: int = 0
    #: per-host served requests that crossed racks (spine router view)
    crossrack_routed_per_host: Dict[str, int] = field(default_factory=dict)
    #: shard moves issued by the centralized fabric controller
    fabric_steers: List[SteerEvent] = field(default_factory=list)
    #: total / worst FIFO queueing delay accumulated on the uplinks
    uplink_queued_us: float = 0.0
    uplink_max_queue_us: float = 0.0

    def cross_rack_steers(self) -> List[SteerEvent]:
        return [s for s in self.fabric_steers if s.cross_rack]

    def same_rack_steers(self) -> List[SteerEvent]:
        return [s for s in self.fabric_steers if not s.cross_rack]

    @property
    def paxos(self) -> Optional[PaxosResult]:
        """The single consensus group of a Figure-7-style scenario (the
        first group of a multi-group rack), or None."""
        return self.paxos_groups[0] if self.paxos_groups else None

    def host(self, name: str) -> HostResult:
        for host in (*self.hosts, *self.dns_hosts):
            if host.name == name:
                return host
        raise KeyError(name)

    def paxos_group(self, name: str) -> PaxosResult:
        for group in self.paxos_groups:
            if group.name == name:
                return group
        raise KeyError(name)

    @property
    def all_hosts(self) -> List[HostResult]:
        return [*self.hosts, *self.dns_hosts]

    @property
    def total_responses(self) -> int:
        return sum(h.responses for h in self.all_hosts)

    @property
    def offered_pps(self) -> float:
        return left_sum(h.offered_pps for h in self.all_hosts)

    def aggregate_mean_throughput_pps(self, start_us: float, end_us: float) -> float:
        return windowed_mean(
            self.aggregate_throughput_series, start_us, end_us, "throughput"
        )

    def attributed_power_w(self) -> float:
        """Sum of the per-placement wall-power attribution."""
        return left_sum(self.power_by_placement.values())

    def hosts_with_shifts(self) -> List[HostResult]:
        return [h for h in self.all_hosts if h.shift_times_us]

    def distinct_first_shift_times(self) -> List[float]:
        """Sorted unique first-shift moments across the rack — evidence
        that hosts move between software and hardware independently."""
        return sorted({h.shift_times_us[0] for h in self.hosts_with_shifts()})

    def paxos_distinct_first_shift_times(self) -> List[float]:
        """Unique first-shift moments across consensus groups — evidence
        that groups behind one ToR shift independently."""
        return sorted(
            {g.shift_times_us[0] for g in self.paxos_groups if g.shift_times_us}
        )

    def render(self) -> str:
        lines = [f"Scenario: {self.name} ({self.duration_us / 1e6:.1f}s simulated)"]
        if self.fabric_racks:
            lines.append(
                f"fabric: {len(self.fabric_racks)} rack(s) "
                f"[{', '.join(self.fabric_racks)}], "
                f"{self.spine_crossrack_packets} cross-rack packet(s), "
                f"uplink queueing {self.uplink_queued_us / 1e3:.1f} ms total "
                f"(max {self.uplink_max_queue_us:.1f} us)"
            )
            if any(self.rack_kvs_packets.values()):
                per_rack = ", ".join(
                    f"{rack}={count}"
                    for rack, count in self.rack_kvs_packets.items()
                )
                lines.append(f"per-rack ToR KVS packets: {per_rack}")
            for steer in self.fabric_steers:
                kind = "cross-rack" if steer.cross_rack else "same-rack"
                lines.append(
                    f"fabricctl steer @{steer.time_us / 1e6:.2f}s: "
                    f"shard {steer.shard} {steer.from_host} -> {steer.to_host} "
                    f"({kind})"
                )
        if self.hosts:
            lines.append(
                f"rack: {len(self.hosts)} KVS host(s), "
                f"offered {sum(h.offered_pps for h in self.hosts) / 1e3:.1f} kpps total, "
                f"{sum(h.responses for h in self.hosts)} responses"
            )
            lines.extend(self._host_table(self.hosts, self.duration_us))
            if self.routed_per_host:
                routed = ", ".join(
                    f"{name}={count}" for name, count in self.routed_per_host.items()
                )
                lines.append(f"ToR key-shard routing: {routed}")
        if self.dns_hosts:
            lines.append(
                f"anycast DNS: {len(self.dns_hosts)} host(s), "
                f"offered {sum(h.offered_pps for h in self.dns_hosts) / 1e3:.1f} kqps total, "
                f"{sum(h.responses for h in self.dns_hosts)} responses"
            )
            lines.extend(self._host_table(self.dns_hosts, self.duration_us))
            if self.dns_routed_per_host:
                routed = ", ".join(
                    f"{name}={count}"
                    for name, count in self.dns_routed_per_host.items()
                )
                lines.append(f"ToR qname-hash routing: {routed}")
        if self.all_hosts:
            agg = self.aggregate_mean_throughput_pps(0.0, self.duration_us)
            lines.append(f"aggregate throughput: {agg / 1e3:.1f} kpps")
        for group in self.paxos_groups:
            lines.append(
                f"paxos[{group.name}]: {group.decided} decisions, "
                f"{group.retries} retries, shifts at "
                + (
                    ", ".join(f"{t / 1e6:.2f}s" for t in group.shift_times_us)
                    or "-"
                )
            )
        return "\n".join(lines)

    @staticmethod
    def _host_table(hosts: List[HostResult], duration_us: float) -> List[str]:
        # the device column appears only on heterogeneous racks, keeping
        # the default-device scenario outputs identical to the pre-device
        # renderer
        with_devices = any(h.device_kind != DEFAULT_DEVICE_KIND for h in hosts)
        header = "host            ctl         shifts[s]           mean thr[kpps]  hw hits  misses"
        if with_devices:
            header = "host            device          " + header[16:]
        lines = [header]
        for host in hosts:
            shifts = ", ".join(f"{t / 1e6:.2f}" for t in host.shift_times_us) or "-"
            thr = (
                windowed_mean(host.throughput_series, 0.0, duration_us, "throughput")
                if any(v for _, v in host.throughput_series)
                else 0.0
            )
            device_col = f"{host.device_kind:<14}  " if with_devices else ""
            lines.append(
                f"{host.name:<14}  {device_col}{host.controller_kind:<10}  "
                f"{shifts:<18}  "
                f"{thr / 1e3:14.1f}  {host.hw_hits:7d}  {host.hw_miss_forwards:6d}"
            )
        return lines


# ---------------------------------------------------------------------------
# Built runtime handles.
# ---------------------------------------------------------------------------


@dataclass
class BuiltHost:
    """The wired stack behind one KVS host or DNS replica (construction
    handles).  ``app`` says which: ``software``/``hardware`` are
    memcached/LaKe or NSD/Emu DNS.  A NIC-only host has no card, hardware
    or classifier (all None); its software server takes every packet.
    """

    app: str
    spec: Union[KvsHostSpec, DnsHostSpec]
    server: object
    card: Optional[object]
    software: SoftwareService
    hardware: Optional[HardwareService]
    classifier: Optional[PacketClassifier]
    service: OnDemandService
    controller: Optional[ShiftController]
    client: Union[KvsClient, DnsClient]
    power_sampler: PeriodicSampler
    wall_sampler: PeriodicSampler
    #: co-located CPU jobs (only KVS hosts declare them)
    jobs: List[ChainerMNWorkload]
    offered_pps: float


@dataclass
class BuiltPaxosGroup:
    """One wired consensus group (construction handles)."""

    spec: PaxosSpec
    deployment: PaxosDeployment
    controller: PaxosShiftController
    clients: List[PaxosClient]
    gap_scanner: LearnerGapScanner
    power_sampler: PeriodicSampler
    #: server/card name -> wall-power sampler for every node the group owns
    #: (a *shared* acceptor box appears in several groups' maps, pointing
    #: at one sampler object)
    wall_samplers: Dict[str, PeriodicSampler] = field(default_factory=dict)
    #: node name -> this group's software role on it, for the busy-time
    #: weights of the shared-host power split
    roles_by_node: Dict[str, SoftwarePaxosRole] = field(default_factory=dict)

    def busy_us_on(self, node_name: str) -> float:
        """Cumulative service busy time this group spent on a node (the
        proportional-split weight; nodes without a software role — the
        hardware leader card — are sole-owned, so the weight is moot)."""
        role = self.roles_by_node.get(node_name)
        if role is None:
            return 1.0
        return role.served * role.service_time_us


class ScenarioRun:
    """A materialized scenario: simulator, topology and all runtimes."""

    def __init__(
        self,
        spec: ScenarioSpec,
        sim: Simulator,
        topology: Topology,
        switch: Switch,
        kvs_hosts: List[BuiltHost],
        router: Optional[KeyShardRouter],
        paxos_groups: List[BuiltPaxosGroup],
        dns_hosts: Optional[List[BuiltHost]] = None,
        dns_router: Optional[KeyShardRouter] = None,
        fabric: Optional[Fabric] = None,
        fabric_controller: Optional[FabricController] = None,
    ):
        self.spec = spec
        self.sim = sim
        self.topology = topology
        #: the rack ToR on single-switch scenarios, the spine on fabrics
        self.switch = switch
        self.kvs_hosts = kvs_hosts
        #: the ToR's :class:`KeyShardRouter` on single-switch scenarios, or
        #: the fabric-wide :class:`RouterFleet` (same ``per_host`` surface)
        self.router = router
        self.paxos_groups = paxos_groups
        self.dns_hosts = dns_hosts or []
        self.dns_router = dns_router
        self.fabric = fabric
        self.fabric_controller = fabric_controller
        self._executed = False

    # -- execution -----------------------------------------------------------

    def execute(self) -> ScenarioResult:
        """Run the scenario to its horizon and collect every timeline."""
        if self._executed:
            raise ConfigurationError("scenario already executed; build a new run")
        self._executed = True
        duration_us = sec(self.spec.duration_s)
        self.sim.run_until(duration_us)
        for host in (*self.kvs_hosts, *self.dns_hosts):
            if host.controller is not None:
                host.controller.stop()
        for group in self.paxos_groups:
            group.controller.stop()
            group.gap_scanner.stop()
        if self.fabric_controller is not None:
            self.fabric_controller.stop()
        return self._collect(duration_us)

    # -- series collection ---------------------------------------------------

    def _collect(self, duration_us: float) -> ScenarioResult:
        bucket_us = msec(self.spec.sampling.bucket_ms)
        host_results = [
            self._collect_host(host, duration_us) for host in self.kvs_hosts
        ]
        dns_results = [
            self._collect_host(host, duration_us) for host in self.dns_hosts
        ]
        # Aggregates always use the scenario-level bucket so hosts with
        # per-host sampling overrides still sum onto aligned buckets.
        aggregate_thr = _sum_series(
            [
                bucket_rate_series(
                    host.client.response_times_us, bucket_us, duration_us
                )
                for host in (*self.kvs_hosts, *self.dns_hosts)
            ]
        )
        aggregate_pw = _sum_series(
            [
                _power_series(host.power_sampler, bucket_us, duration_us)
                for host in (*self.kvs_hosts, *self.dns_hosts)
            ]
        )
        paxos_results = [
            self._collect_paxos(group, bucket_us, duration_us)
            for group in self.paxos_groups
        ]
        power_by_placement, total_wall_power_w = self._attribute_wall_power()
        fabric_racks: Tuple[str, ...] = ()
        rack_kvs_packets: Dict[str, int] = {}
        spine_crossrack = 0
        crossrack_per_host: Dict[str, int] = {}
        steers: List[SteerEvent] = []
        uplink_queued_us = 0.0
        uplink_max_queue_us = 0.0
        if self.fabric is not None:
            fabric_racks = self.fabric.racks
            rack_kvs_packets = self.fabric.rack_logical_counts(
                TrafficClass.MEMCACHED, RACK_KVS_SERVICE
            )
            # every packet the spine forwards crossed racks, whatever its
            # class or direction — counts Paxos quorums and responses too,
            # not just KVS dispatch
            spine_crossrack = self.fabric.spine.forwarded
            if isinstance(self.router, RouterFleet):
                crossrack_per_host = self.router.crossrack_per_host
            uplink_queued_us = left_sum(l.queued_us for l in self.fabric.uplinks)
            uplink_max_queue_us = max(
                (l.max_queue_us for l in self.fabric.uplinks), default=0.0
            )
        if self.fabric_controller is not None:
            steers = list(self.fabric_controller.steers)
        return ScenarioResult(
            name=self.spec.name,
            duration_us=duration_us,
            hosts=host_results,
            paxos_groups=paxos_results,
            aggregate_throughput_series=aggregate_thr,
            aggregate_power_series=aggregate_pw,
            routed_per_host=dict(self.router.per_host) if self.router else {},
            dns_routed_per_host=(
                dict(self.dns_router.per_host) if self.dns_router else {}
            ),
            dns_hosts=dns_results,
            power_by_placement=power_by_placement,
            total_wall_power_w=total_wall_power_w,
            fabric_racks=fabric_racks,
            rack_kvs_packets=rack_kvs_packets,
            spine_crossrack_packets=spine_crossrack,
            crossrack_routed_per_host=crossrack_per_host,
            fabric_steers=steers,
            uplink_queued_us=uplink_queued_us,
            uplink_max_queue_us=uplink_max_queue_us,
        )

    def _attribute_wall_power(self) -> Tuple[Dict[str, float], float]:
        """Per-placement wall-power attribution over the whole run.

        Every rack server (and hardware card) is sampled on the shared
        scenario cadence; each sampled node is claimed by the placement(s)
        running on it — :func:`merge_power_claims` folds multiple
        claimants of one node together so shared hosts split, never
        double-count or drop.
        """
        entries = [
            (host.spec.name, host.wall_sampler.series.values, host.spec.name, 1.0)
            for host in (*self.kvs_hosts, *self.dns_hosts)
        ]
        for group in self.paxos_groups:
            for node_name, sampler in group.wall_samplers.items():
                entries.append(
                    (
                        node_name,
                        sampler.series.values,
                        group.spec.name,
                        group.busy_us_on(node_name),
                    )
                )
        return attribute_power(*merge_power_claims(entries))

    def _collect_host(self, host: BuiltHost, duration_us: float) -> HostResult:
        bucket_us = msec((host.spec.sampling or self.spec.sampling).bucket_ms)
        client = host.client
        throughput = bucket_rate_series(
            client.response_times_us, bucket_us, duration_us
        )
        latency = bucket_mean_series(
            client.latency_series.times,
            client.latency_series.values,
            bucket_us,
            duration_us,
        )
        power = _power_series(host.power_sampler, bucket_us, duration_us)
        # the host table's two hardware columns
        hardware = host.hardware
        if hardware is None:
            hw_hits = hw_miss_forwards = 0
        elif host.app == "kvs":
            # LaKe: hits in either cache layer, misses forwarded to memcached
            hw_hits = hardware.l1.hits + (
                hardware.l2.hits if hardware.l2 is not None else 0
            )
            hw_miss_forwards = hardware.miss_forwards
        else:
            # Emu: queries answered on the card, names deeper than its parser
            hw_hits = hardware.served
            hw_miss_forwards = hardware.deep_query_fallbacks
        return HostResult(
            name=host.spec.name,
            offered_pps=host.offered_pps,
            shift_times_us=host.service.shift_times_us(),
            throughput_series=throughput,
            latency_series=latency,
            power_series=power,
            hw_hits=hw_hits,
            hw_miss_forwards=hw_miss_forwards,
            responses=client.responses,
            app=host.app,
            controller_kind=host.spec.controller.kind,
            device_kind=host.spec.device.kind,
        )

    def _collect_paxos(
        self, group: BuiltPaxosGroup, bucket_us: float, duration_us: float
    ) -> PaxosResult:
        clients = group.clients
        # one (time, latency) sort merges the clients' series; it also
        # sets the order of equal-time samples inside a window's mean
        samples = []
        for client in clients:
            samples.extend(
                zip(client.latency_series.times, client.latency_series.values)
            )
        samples.sort()
        decision_times = [t for t, _ in samples]
        latencies = [latency for _, latency in samples]
        throughput = bucket_rate_series(decision_times, bucket_us, duration_us)
        latency = bucket_mean_series(
            decision_times, latencies, bucket_us, duration_us
        )
        power = _power_series(group.power_sampler, bucket_us, duration_us)
        # Post-shift stall: the largest decision gap in the 300ms following
        # each shift (in-flight decisions may land just after the rule
        # flip; the stall is the silence until client retries).
        shift_times = group.controller.shift_times_us()
        stalls = []
        for shift_time in shift_times:
            window = [shift_time] + [
                t
                for t in decision_times
                if shift_time < t <= shift_time + msec(300.0)
            ]
            if len(window) > 1:
                gaps = [b - a for a, b in zip(window, window[1:])]
                stalls.append(max(gaps))
        return PaxosResult(
            throughput_series=throughput,
            latency_series=latency,
            power_series=power,
            shift_times_us=shift_times,
            decided=sum(c.decided for c in clients),
            retries=sum(c.retries for c in clients),
            stall_us=stalls,
            name=group.spec.name,
        )


def merge_power_claims(
    entries: List[Tuple[str, Sequence[float], str, float]],
) -> Tuple[
    Dict[str, Sequence[float]],
    Dict[str, Tuple[str, ...]],
    Dict[str, Dict[str, float]],
]:
    """Fold (node, samples, owner, busy_us) tuples into
    :func:`attribute_power` inputs.  A node listed by several placements
    keeps **one** sample set (it is one physical box — same probe either
    way), accumulates every distinct owner, and sums each owner's busy
    time, so shared hosts reach the split path instead of the last
    claimant silently absorbing the whole draw.
    """
    samples: Dict[str, Sequence[float]] = {}
    claims: Dict[str, Tuple[str, ...]] = {}
    busy: Dict[str, Dict[str, float]] = {}
    for node_name, values, owner, busy_us in entries:
        samples.setdefault(node_name, values)
        owners = claims.get(node_name, ())
        if owner not in owners:
            claims[node_name] = owners + (owner,)
        node_busy = busy.setdefault(node_name, {})
        node_busy[owner] = node_busy.get(owner, 0.0) + busy_us
    return samples, claims, busy


def attribute_power(
    samples_by_server: Dict[str, Sequence[float]],
    claims: Dict[str, Tuple[str, ...]],
    busy_us_by_server: Optional[Dict[str, Dict[str, float]]] = None,
) -> Tuple[Dict[str, float], float]:
    """Split per-server wall-power samples among claiming placements.

    ``claims`` maps each sampled server to the placements running on it; a
    server claimed by several placements (Paxos groups sharing acceptor
    hosts, KVS shards co-resident with a consensus role) is split between
    them **in proportion to each claimant's busy time** on that box
    (``busy_us_by_server``: server → owner → busy µs).  Claimants with no
    recorded busy time — or a box where nobody was busy at all — fall back
    to the equal split, so idle shared boxes still decompose.  Returns the
    per-placement attribution plus the independently-reduced total (mean of
    per-sample sums), so callers can assert the decomposition drops or
    double-counts nothing.

    All non-empty sample series must be the same length — i.e. sampled on
    one shared cadence, as the builder's wall samplers are.  With ragged
    series a "mean of per-sample sums" would silently disagree with the
    attribution, so that is rejected rather than approximated.
    """
    lengths = {len(s) for s in samples_by_server.values() if s}
    if len(lengths) > 1:
        raise ConfigurationError(
            "power attribution needs aligned sample series (one shared "
            f"sampling cadence); got lengths {sorted(lengths)}"
        )
    attribution: Dict[str, float] = {}
    per_sample_totals: List[float] = []
    for server, samples in samples_by_server.items():
        if not samples:
            continue
        owners = claims.get(server)
        if not owners:
            raise ConfigurationError(
                f"power samples for {server!r} are claimed by no placement"
            )
        mean_w = left_sum(samples) / len(samples)
        weights = (busy_us_by_server or {}).get(server)
        busy = [max(0.0, (weights or {}).get(owner, 0.0)) for owner in owners]
        busy_total = left_sum(busy)
        for owner, owner_busy in zip(owners, busy):
            if busy_total > 0.0:
                share = mean_w * owner_busy / busy_total
            else:
                share = mean_w / len(owners)
            attribution[owner] = attribution.get(owner, 0.0) + share
        for i, value in enumerate(samples):
            if i < len(per_sample_totals):
                per_sample_totals[i] += value
            else:
                per_sample_totals.append(value)
    total = (
        left_sum(per_sample_totals) / len(per_sample_totals)
        if per_sample_totals
        else 0.0
    )
    return attribution, total


def _power_series(
    sampler: PeriodicSampler, bucket_us: float, duration_us: float
) -> List[Tuple[float, float]]:
    series = bucket_mean_series(
        sampler.series.times, sampler.series.values, bucket_us, duration_us
    )
    return [(t, v if v is not None else 0.0) for t, v in series]


def _sum_series(
    series_list: List[List[Tuple[float, Optional[float]]]]
) -> List[Tuple[float, float]]:
    """Bucket-wise sum of aligned (t, value) series (None counts as 0)."""
    if not series_list:
        return []
    out = []
    for i, (t, _) in enumerate(series_list[0]):
        total = 0.0
        for series in series_list:
            if i < len(series) and series[i][1] is not None:
                total += series[i][1]
        out.append((t, total))
    return out


# ---------------------------------------------------------------------------
# The builder.
# ---------------------------------------------------------------------------


class _PaxosRoleFanout:
    """Packet dispatch for a server hosting several groups' acceptor roles.

    A shared acceptor box is one switch port, so inbound 1A/2A messages
    from *different groups' leaders* arrive on one handler; acceptors only
    ever receive from their group's leader nodes, which makes the packet
    source the natural dispatch key.
    """

    def __init__(self, server_name: str):
        self.server_name = server_name
        self._roles_by_src: Dict[str, SoftwarePaxosRole] = {}

    def register(self, leader_names: Tuple[str, ...], role) -> None:
        for src in leader_names:
            if src in self._roles_by_src:
                raise ConfigurationError(
                    f"leader {src!r} already routed on shared acceptor "
                    f"host {self.server_name!r}"
                )
            self._roles_by_src[src] = role

    def offer(self, packet) -> None:
        role = self._roles_by_src.get(packet.src)
        if role is None:
            raise ConfigurationError(
                f"shared acceptor host {self.server_name!r} got a packet "
                f"from unregistered source {packet.src!r}"
            )
        role.offer(packet)


@dataclass
class _KvsTraffic:
    """A KVS host's share of the ETC load (``etc``: the workload or one
    shard's stream) and its app: memcached, LaKe (§3.1), an ETC client."""

    app: ClassVar[str] = "kvs"
    traffic_class: ClassVar[TrafficClass] = TrafficClass.MEMCACHED
    server_name: str
    rate_pps: float
    etc: Union[EtcWorkload, EtcShardStream]
    preload: Optional[Callable]

    def software(self, sim: Simulator, server) -> SoftwareMemcached:
        memcached = SoftwareMemcached(sim, server)
        if self.preload is not None:
            self.preload(memcached.store.set)
        return memcached

    def hardware(self, sim, streams, card, server, memcached, capacity_pps) -> LakeKvs:
        rng = streams.get(f"{server.name}.lake.latency")
        return LakeKvs(sim, card, server, memcached, rng=rng, capacity_pps=capacity_pps)

    def client(self, sim: Simulator, name: str, rng) -> KvsClient:
        return KvsClient(
            sim,
            name,
            server_name=self.server_name,
            key_sampler=self.etc.key,
            value_sampler=self.etc.value,
            set_fraction=self.etc.set_fraction,
            rng=rng,
        )


@dataclass
class _DnsTraffic:
    """A DNS replica's share of the query stream and its app: NSD and Emu
    DNS (§3.3), both answering for ``records``, and a DNS client."""

    app: ClassVar[str] = "dns"
    traffic_class: ClassVar[TrafficClass] = TrafficClass.DNS
    server_name: str
    rate_pps: float
    name_sampler: Callable[[], str]
    records: list

    def software(self, sim: Simulator, server) -> SoftwareNsd:
        zone = ZoneTable(name=f"{server.name}.zone")
        zone.add_many(self.records)
        return SoftwareNsd(sim, server, zone=zone)

    def hardware(self, sim, streams, card, server, nsd, capacity_pps) -> EmuDns:
        rng = streams.get(f"{server.name}.emu.jitter")
        emu = EmuDns(
            sim, card, server, fallback=nsd, rng=rng, capacity_pps=capacity_pps
        )
        emu.zone.add_many(self.records)
        return emu

    def client(self, sim: Simulator, name: str, rng) -> DnsClient:
        return DnsClient(
            sim,
            name,
            server_name=self.server_name,
            name_sampler=self.name_sampler,
            rng=rng,
        )


class ScenarioBuilder:
    """Materializes a :class:`ScenarioSpec` into a :class:`ScenarioRun`."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec.validate()

    # -- public API ----------------------------------------------------------

    def build(self) -> ScenarioRun:
        spec = self.spec
        sim = Simulator()
        streams = RngStreams(spec.seed)
        if spec.fabric is not None:
            # -- leaf-spine fabric: a ToR per rack under one spine, with
            # oversubscribed queueing uplinks; the per-rack ToRs reuse the
            # single-switch spelling under their rack prefix
            self._fabric = build_fabric(
                sim,
                spec.fabric.rack_names(),
                spine_name=spec.fabric.spine.name,
                tor_name=spec.switch.name,
                host_latency_us=spec.switch.latency_us,
                host_bandwidth_bps=gbit_per_s(spec.switch.bandwidth_gbps),
                uplink_latency_us=spec.fabric.uplink.latency_us,
                uplink_bandwidth_bps=gbit_per_s(spec.fabric.uplink.bandwidth_gbps),
                oversubscription=spec.fabric.uplink.oversubscription,
            )
            topo = self._fabric.topology
            switch = self._fabric.spine
        else:
            self._fabric = None
            switch = Switch(sim, spec.switch.name)
            topo = Topology(sim)
            topo.add(switch)
        #: shared acceptor boxes built so far: name -> (server, fanout)
        self._shared_acceptor_hosts: Dict[str, Tuple[object, _PaxosRoleFanout]] = {}
        #: one wall sampler per physical box, even when placements share it
        self._wall_samplers: Dict[str, PeriodicSampler] = {}

        kvs_hosts: List[BuiltHost] = []
        router = None
        if spec.kvs_hosts:
            kvs_hosts, router = self._build_kvs_rack(sim, streams, topo, switch)

        paxos_groups = [
            self._build_paxos_group(sim, streams, topo, switch, group)
            for group in spec.paxos_groups
        ]

        dns_hosts: List[BuiltHost] = []
        dns_router = None
        if spec.dns_hosts:
            dns_hosts, dns_router = self._build_dns_rack(sim, streams, topo, switch)

        fabric_controller = self._build_fabric_controller(sim, kvs_hosts, router)

        return ScenarioRun(
            spec,
            sim,
            topo,
            switch,
            kvs_hosts,
            router,
            paxos_groups,
            dns_hosts=dns_hosts,
            dns_router=dns_router,
            fabric=self._fabric,
            fabric_controller=fabric_controller,
        )

    def run(self) -> ScenarioResult:
        """Build and execute in one step."""
        return self.build().execute()

    # -- shared plumbing -----------------------------------------------------

    def _connect(self, topo: Topology, node_name: str) -> None:
        """Attach a node to the scenario's switching layer.

        Single-switch scenarios wire to the one ToR; fabric scenarios wire
        to the ToR of the rack that prefixes the name (see
        :meth:`_qualified`), or to the fabric's default rack for a name
        without a rack prefix.
        """
        if self._fabric is not None:
            name_rack = split_rack(node_name)[0]
            self._fabric.connect_host(
                name_rack or self.spec.fabric.default_rack,
                topo.node(node_name),
                latency_us=self.spec.switch.latency_us,
                bandwidth_bps=gbit_per_s(self.spec.switch.bandwidth_gbps),
            )
            return
        topo.connect_via_switch(
            self.spec.switch.name,
            node_name,
            latency_us=self.spec.switch.latency_us,
            bandwidth_bps=gbit_per_s(self.spec.switch.bandwidth_gbps),
        )

    def _qualified(self, host_spec):
        """Rack-qualify a host/group spec's names for fabric scenarios.

        Every derived name (clients, paxos roles, RNG stream keys, sampler
        names) flows from the spec's ``name``, so one ``dataclasses.replace``
        namespaces the whole host under ``<rack>/`` — racks can reuse host
        spellings without colliding in the topology or the RNG registry.
        Single-switch scenarios return the spec untouched (byte-identity).
        """
        if self._fabric is None:
            return host_spec
        rack = self.spec.host_rack(host_spec)
        if isinstance(host_spec, PaxosSpec):
            return dataclasses.replace(
                host_spec,
                name=rack_qualified(rack, host_spec.name),
                acceptor_hosts=tuple(
                    rack_qualified(rack, acc) for acc in host_spec.acceptor_hosts
                ),
            )
        updates = dict(
            name=rack_qualified(rack, host_spec.name),
            client_name=rack_qualified(rack, host_spec.resolved_client_name()),
        )
        if getattr(host_spec, "served_by", None) is not None:
            updates["served_by"] = rack_qualified(rack, host_spec.served_by)
        return dataclasses.replace(host_spec, **updates)

    def _install_dispatch(
        self,
        switch: Switch,
        traffic_class: TrafficClass,
        logical_dst: str,
        router_factory,
    ):
        """Install the key-shard dispatcher for a logical service.

        On a single switch: one router, installed once.  On a fabric:
        one router per switch (per-hop counters stay meaningful), kept in
        lock-step by the returned :class:`RouterFleet`; the spine's router
        only sees cross-rack traffic, so the fleet's ``per_host`` uses the
        ``sum(ToRs) - spine`` transit identity.
        """
        if self._fabric is None:
            router = router_factory()
            switch.install_dispatch(traffic_class, logical_dst, router.route)
            return router
        tor_routers: Dict[str, KeyShardRouter] = {}
        spine_router: Optional[KeyShardRouter] = None
        for sw in self._fabric.switches:
            router = router_factory()
            sw.install_dispatch(traffic_class, logical_dst, router.route)
            if sw is self._fabric.spine:
                spine_router = router
            else:
                tor_routers[sw.name] = router
        return RouterFleet(tor_routers, spine_router)

    def _build_fabric_controller(
        self, sim: Simulator, kvs_hosts: List[BuiltHost], router
    ) -> Optional[FabricController]:
        """Materialize the scenario-level §9.1 centralized controller."""
        ctl_spec = self.spec.fabric_controller
        if ctl_spec is None:
            return None
        if not kvs_hosts:
            raise ConfigurationError(
                f"scenario {self.spec.name!r}: the fabric controller drives "
                "the sharded KVS fleet and needs at least one KVS host"
            )
        placements = []
        for host in kvs_hosts:
            device = get_device(host.spec.device.kind)
            up_pps = down_pps = None
            if device.is_offload:
                up_pps, down_pps = device.netctl_thresholds_pps("kvs")
            placements.append(
                HostPlacement(
                    host=host.spec.name,
                    rack=self.spec.host_rack(host.spec),
                    service=host.service if host.classifier is not None else None,
                    shift_up_pps=up_pps,
                    shift_down_pps=down_pps,
                )
            )
        params = ctl_spec.as_dict()
        return FabricController(
            sim,
            self._fabric,
            TrafficClass.MEMCACHED,
            RACK_KVS_SERVICE,
            placements,
            fleet=router if isinstance(router, RouterFleet) else None,
            config=FabricControllerConfig(**params) if params else None,
        )

    def _wall_sampler(self, sim: Simulator, node_name: str, probe) -> PeriodicSampler:
        """The wall-power sampler of one physical box, on the shared
        scenario cadence so the §9.4 attribution sees aligned series.  A
        box several placements claim (a shared acceptor host) is sampled
        once: every claimant gets the same sampler, as it is one probe."""
        sampler = self._wall_samplers.get(node_name)
        if sampler is None:
            sampler = self._wall_samplers[node_name] = PeriodicSampler(
                sim,
                probe,
                msec(self.spec.sampling.power_interval_ms),
                name=f"{node_name}.wall-power",
            )
        return sampler

    def _schedule_phases(
        self,
        sim: Simulator,
        phases: PhaseSchedule,
        clients: List,
        weights: List[float],
    ) -> None:
        """Apply a (at_s, total_rate_kpps) schedule: each client gets its
        host's popularity-weighted share of the new total rate."""
        for at_s, rate_kpps in phases:
            for client, weight in zip(clients, weights):
                sim.schedule_at(
                    sec(at_s),
                    lambda c=client, r=kpps(rate_kpps) * weight: c.set_rate(r),
                    name="workload.phase",
                )

    def _build_controller(
        self,
        sim: Simulator,
        app: str,
        host_spec,
        server,
        service: OnDemandService,
        device: OffloadDevice,
    ) -> Optional[ShiftController]:
        """Materialize the host's :class:`ControllerSpec` — the unified
        controller plane.  Every §9.1 family plugs in here; the rate
        thresholds and standby figures default to the host's *device*
        profile (the §4 calibrated crossovers on the NetFPGA, each other
        device's own analytic crossover), and ``params`` override them.
        Controllers flip the ``service``'s own classifier rule."""
        kind = host_spec.controller.kind
        params = host_spec.controller.as_dict()
        if kind == "none":
            return None
        classifier, traffic_class = service.classifier, service.traffic_class
        up_pps, down_pps = device.netctl_thresholds_pps(app)
        if kind == "host":
            server.start_rapl(update_interval_us=msec(host_spec.rapl_interval_ms))
            defaults = {"rate_down_pps": down_pps}
            return HostController(
                sim,
                server,
                service,
                config=HostControllerConfig(**{**defaults, **params}),
                classifier=classifier,
                traffic_class=traffic_class,
            )
        if kind == "network":
            # the NetFPGA's §4 crossover defaults live next to the
            # controller; other devices get their analytic crossover
            if device.kind == DEFAULT_DEVICE_KIND:
                config = NETCTL_DEFAULT_CONFIGS[app]
            else:
                config = dataclasses.replace(
                    NETCTL_DEFAULT_CONFIGS[app],
                    up_rate_pps=up_pps,
                    down_rate_pps=down_pps,
                )
            if params:
                config = dataclasses.replace(config, **params)
            return NetworkController(
                sim, classifier, traffic_class, service, config
            )
        if kind == "predictive":
            # the steady-state curves of both placements — on *this*
            # device — are the model the §9.1-forward predictive
            # controller carries
            from ..steady.ondemand import make_ondemand_model

            model = make_ondemand_model(app, device=device.kind)
            standby_card_w = params.pop("standby_card_w", model.standby_card_w)
            return PredictiveController(
                sim,
                classifier,
                traffic_class,
                service,
                software_model=model.software,
                hardware_model=model.hardware,
                standby_card_w=standby_card_w,
                config=PredictiveControllerConfig(**params),
            )
        raise ConfigurationError(f"unknown controller kind {kind!r}")  # pragma: no cover

    # -- KVS and DNS hosts ---------------------------------------------------

    def _build_kvs_rack(
        self,
        sim: Simulator,
        streams: RngStreams,
        topo: Topology,
        switch: Switch,
    ) -> Tuple[List[BuiltHost], Optional[KeyShardRouter]]:
        spec = self.spec
        workload = spec.kvs_workload
        host_specs = [self._qualified(h) for h in spec.kvs_hosts]
        total_rate_pps = kpps(workload.rate_kpps)

        if spec.sharded:
            # A sub-rack (workload.n_shards > host count) keeps the *full*
            # rack's shard space: each host samples, weighs and preloads
            # its original shard, so per-host traffic is byte-identical to
            # the complete scenario and absent shards simply offer nothing.
            n_shards = workload.n_shards or len(host_specs)
            shard_indices = [
                h.shard_index if h.shard_index is not None else i
                for i, h in enumerate(host_specs)
            ]
            sharded = ShardedEtcWorkload(
                keyspace=workload.keyspace,
                n_shards=n_shards,
                zipf_s=workload.zipf_s,
                seed=spec.seed,
            )
            all_weights = sharded.shard_weights()
            weights = [all_weights[s] for s in shard_indices]
            owners: List[Optional[str]] = [None] * n_shards
            for host_spec, s in zip(host_specs, shard_indices):
                # consolidated initial placement: another host starts as
                # this shard's server (the donor still offers its traffic)
                owners[s] = host_spec.served_by or host_spec.name
            router = self._install_dispatch(
                switch,
                TrafficClass.MEMCACHED,
                RACK_KVS_SERVICE,
                lambda: KeyShardRouter(list(owners)),
            )
            server_name = RACK_KVS_SERVICE
            etcs = [sharded.stream(s) for s in shard_indices]
            preloads = [etc.preload for etc in etcs]
        else:
            # one host, addressed by its own name, serving the whole keyspace
            etc = EtcWorkload(
                keyspace=workload.keyspace,
                zipf_s=workload.zipf_s,
                seed=spec.seed,
            )
            weights = [1.0]
            router = None
            server_name = host_specs[0].name
            etcs = [etc]
            preloads = [partial(etc.preload, count=workload.keyspace)]
        traffic = [
            _KvsTraffic(
                server_name=server_name,
                rate_pps=total_rate_pps * weight,
                etc=etc,
                preload=preload if workload.preload else None,
            )
            for etc, preload, weight in zip(etcs, preloads, weights)
        ]

        hosts = [
            self._build_host(sim, streams, topo, host_spec, host_traffic)
            for host_spec, host_traffic in zip(host_specs, traffic)
        ]
        if spec.sharded:
            # consolidated shards: the serving host also preloads the
            # donated shard's keys (a fresh same-seed stream, so the
            # donor's own samplers are not perturbed)
            by_name = {host.spec.name: host for host in hosts}
            for host, s in zip(hosts, shard_indices):
                target = host.spec.served_by
                if target and target != host.spec.name and workload.preload:
                    sharded.stream(s).preload(by_name[target].software.store.set)
        self._schedule_phases(
            sim, workload.phases, [host.client for host in hosts], weights
        )
        return hosts, router

    def _build_dns_rack(
        self,
        sim: Simulator,
        streams: RngStreams,
        topo: Topology,
        switch: Switch,
    ) -> Tuple[List[BuiltHost], Optional[KeyShardRouter]]:
        spec = self.spec
        workload = spec.dns_workload
        host_specs = [self._qualified(h) for h in spec.dns_hosts]
        total_rate_pps = kpps(workload.rate_kpps)

        if spec.dns_sharded:
            sharded = ShardedDnsWorkload(
                n_names=workload.n_names,
                n_shards=len(host_specs),
                zipf_s=workload.zipf_s,
                seed=spec.seed,
                miss_fraction=workload.miss_fraction,
            )
            weights = sharded.shard_weights()
            # every anycast replica answers for the whole zone
            records = sharded.records()
            replica_names = [h.name for h in host_specs]
            router = self._install_dispatch(
                switch,
                TrafficClass.DNS,
                RACK_DNS_SERVICE,
                lambda: KeyShardRouter.for_qnames(replica_names),
            )
            server_name = RACK_DNS_SERVICE
            samplers = [sharded.stream(i).name for i in range(len(host_specs))]
        else:
            # one replica, addressed by its own name
            names = DnsNameWorkload(
                n_names=workload.n_names,
                zipf_s=workload.zipf_s,
                seed=spec.seed,
                miss_fraction=workload.miss_fraction,
            )
            weights = [1.0]
            router = None
            server_name = host_specs[0].name
            records = names.records()
            samplers = [names.name]
        traffic = [
            _DnsTraffic(
                server_name=server_name,
                rate_pps=total_rate_pps * weight,
                name_sampler=sampler,
                records=records,
            )
            for sampler, weight in zip(samplers, weights)
        ]

        hosts = [
            self._build_host(sim, streams, topo, host_spec, host_traffic)
            for host_spec, host_traffic in zip(host_specs, traffic)
        ]
        self._schedule_phases(
            sim, workload.phases, [host.client for host in hosts], weights
        )
        return hosts, router

    def _build_host(
        self,
        sim: Simulator,
        streams: RngStreams,
        topo: Topology,
        host_spec: Union[KvsHostSpec, DnsHostSpec],
        traffic: Union[_KvsTraffic, _DnsTraffic],
    ) -> BuiltHost:
        """Wire one KVS host or DNS replica, in the module docstring's
        per-host order; ``traffic`` supplies the app pair, the client and
        the host's share of the load, and everything else is app-blind."""
        app = traffic.app
        device = get_device(host_spec.device.kind)
        if device.is_offload:
            # -- server with the device's card replacing its NIC (§4.2; the
            # DNS card doubles as the NIC, §3.3)
            server = make_i7_server(sim, name=host_spec.name, nic=None)
            card = device.make_card(app, **host_spec.device.as_dict())
            server.install_card(card.power_w)
            software = traffic.software(sim, server)
            hardware = traffic.hardware(
                sim, streams, card, server, software, device.capacity_pps(app)
            )
            hardware.disable(power_save=host_spec.power_save)

            classifier = PacketClassifier(sim)
            classifier.add_rule(
                ClassifierRule(
                    traffic.traffic_class,
                    hardware=hardware.offer,
                    host=software.offer,
                )
            )
            server.set_packet_handler(classifier.classify)
        else:
            # -- NIC-only host: the ordinary NIC stays in, the software
            # server handles every packet, nothing can ever shift
            server = make_i7_server(sim, name=host_spec.name)
            card = hardware = classifier = None
            software = traffic.software(sim, server)
            server.set_packet_handler(software.offer)
        topo.add(server)
        self._connect(topo, host_spec.name)

        # -- the host's slice of the rack workload
        client_name = host_spec.resolved_client_name()
        client = traffic.client(
            sim, client_name, streams.get(f"{client_name}.arrivals")
        )
        topo.add(client)
        self._connect(topo, client_name)
        client.set_rate(traffic.rate_pps)

        # -- co-located CPU jobs (the Figure 6 trigger; DNS replicas declare
        # none)
        jobs = []
        for job_spec in getattr(host_spec, "colocated", ()):
            job = ChainerMNWorkload(
                sim,
                server,
                cores=job_spec.cores,
                utilization=job_spec.utilization,
                app_name=job_spec.app_name,
            )
            job.schedule(sec(job_spec.start_s), sec(job_spec.stop_s))
            jobs.append(job)

        # -- on-demand service + the host's chosen controller kind (§9.1);
        # a NIC-only host gets a hook-less service that never shifts.  The
        # device's warm-up (FPGA reconfiguration, ASIC table loads) delays
        # classifier activation; software keeps serving meanwhile.  The
        # shift-back hook binds this host's power_save now.
        service = OnDemandService(
            sim,
            host_spec.name,
            classifier=classifier,
            traffic_class=traffic.traffic_class,
            to_hardware=hardware.enable if hardware is not None else None,
            to_software=(
                partial(hardware.disable, power_save=host_spec.power_save)
                if hardware is not None
                else None
            ),
            warmup_us=device.warmup_us,
        )
        controller = self._build_controller(
            sim, app, host_spec, server, service, device
        )
        if host_spec.start_in_hardware:
            # before instrumentation: the first sample must see the active
            # card; a declared initial placement was warm before the
            # experiment window opened, so it skips the warm-up
            service.shift_to_hardware(
                "spec: initial hardware placement", immediate=True
            )

        # -- instrumentation (the paper reads CPU power from RAPL; the wall
        # sampler adds the card draw on the shared scenario cadence so the
        # §9.4 power attribution sees what the SHW 3A meter would)
        sampling = host_spec.sampling or self.spec.sampling
        power_sampler = PeriodicSampler(
            sim,
            server.platform_power_w,
            msec(sampling.power_interval_ms),
            name=f"{host_spec.name}.rapl-power",
        )
        wall_sampler = self._wall_sampler(sim, host_spec.name, server.wall_power_w)
        return BuiltHost(
            app=app,
            spec=host_spec,
            server=server,
            card=card,
            software=software,
            hardware=hardware,
            classifier=classifier,
            service=service,
            controller=controller,
            client=client,
            power_sampler=power_sampler,
            wall_sampler=wall_sampler,
            jobs=jobs,
            offered_pps=traffic.rate_pps,
        )

    # -- Paxos groups ----------------------------------------------------------

    def _build_paxos_group(
        self,
        sim: Simulator,
        streams: RngStreams,
        topo: Topology,
        switch: Switch,
        px: PaxosSpec,
    ) -> BuiltPaxosGroup:
        # On a fabric the group (and its derived role/client names) lives
        # under its rack prefix; explicitly rack-qualified acceptor_hosts
        # entries keep their declared rack, splitting the quorum across
        # racks.  The switch handle is then the Fabric facade, so leader
        # redirect rules and rate reads span every ToR.
        px = self._qualified(px)
        switch = self._fabric if self._fabric is not None else switch
        acceptor_names = px.acceptor_names()
        learner_names = [px.learner_name]
        directory = _Directory(
            acceptor_names, learner_names, leader_address=px.leader_address
        )
        roles_by_node: Dict[str, SoftwarePaxosRole] = {}

        # -- software leader on an i7 host
        sw_name = px.software_leader_name
        sw_server = make_i7_server(sim, name=sw_name)
        sw_leader = SoftwarePaxosRole(
            sim,
            sw_server,
            LeaderState(sw_name, 0, px.n_acceptors),
            directory,
            capacity_pps=cal.LIBPAXOS_LEADER_CAPACITY_PPS,
            stack_latency_us=cal.LIBPAXOS_LEADER_STACK_US,
            app_name=f"libpaxos-leader.{px.name}",
        )
        sw_server.set_packet_handler(sw_leader.offer)
        topo.add(sw_server)
        self._connect(topo, sw_name)
        roles_by_node[sw_name] = sw_leader

        # -- hardware leader: the group's device behind its own port
        device = get_device(px.device.kind)
        hw_name = px.hardware_leader_name
        hw_card = device.make_card("paxos", **px.device.as_dict())
        hw_node = CallbackNode(
            sim, hw_name, on_packet=lambda p: hw_leader.offer(p)
        )
        hw_capacity = device.capacity_pps("paxos")
        hw_leader = HardwarePaxosRole(
            sim,
            hw_card,
            hw_node,
            LeaderState(hw_name, 1, px.n_acceptors),
            directory,
            **({"capacity_pps": hw_capacity} if hw_capacity is not None else {}),
        )
        topo.add(hw_node)
        self._connect(topo, hw_name)

        # -- software acceptors and learner.  With explicit acceptor_hosts
        # the boxes may be shared with other groups: one server, one port,
        # one wall sampler — and one role per group, dispatched by the
        # sending leader.
        group_servers = [sw_server]
        for name in acceptor_names:
            if px.acceptor_hosts:
                existing = self._shared_acceptor_hosts.get(name)
                if existing is None:
                    server = make_i7_server(sim, name=name)
                    fanout = _PaxosRoleFanout(name)
                    server.set_packet_handler(fanout.offer)
                    topo.add(server)
                    self._connect(topo, name)
                    self._shared_acceptor_hosts[name] = (server, fanout)
                else:
                    server, fanout = existing
                role = SoftwarePaxosRole(
                    sim,
                    server,
                    AcceptorState(name, recovery_window=px.recovery_window),
                    directory,
                    capacity_pps=cal.LIBPAXOS_ACCEPTOR_CAPACITY_PPS,
                    stack_latency_us=cal.LIBPAXOS_ACCEPTOR_STACK_US,
                    app_name=f"acceptor.{px.name}.{name}",
                )
                fanout.register((sw_name, hw_name), role)
            else:
                server = make_i7_server(sim, name=name)
                role = SoftwarePaxosRole(
                    sim,
                    server,
                    AcceptorState(name, recovery_window=px.recovery_window),
                    directory,
                    capacity_pps=cal.LIBPAXOS_ACCEPTOR_CAPACITY_PPS,
                    stack_latency_us=cal.LIBPAXOS_ACCEPTOR_STACK_US,
                    app_name=f"acceptor.{name}",
                )
                server.set_packet_handler(role.offer)
                topo.add(server)
                self._connect(topo, name)
            group_servers.append(server)
            roles_by_node[name] = role

        learner_server = make_i7_server(sim, name=px.learner_name)
        group_servers.append(learner_server)
        learner_role = SoftwarePaxosRole(
            sim,
            learner_server,
            LearnerState(px.learner_name, px.n_acceptors),
            directory,
            capacity_pps=cal.LIBPAXOS_ACCEPTOR_CAPACITY_PPS,
            stack_latency_us=cal.LIBPAXOS_LEARNER_STACK_US,
            app_name=f"learner.{px.name}",
        )
        learner_server.set_packet_handler(learner_role.offer)
        topo.add(learner_server)
        self._connect(topo, px.learner_name)
        roles_by_node[px.learner_name] = learner_role
        gap_scanner = LearnerGapScanner(sim, learner_role)

        # -- deployment + this group's shift controller (§9.2)
        deployment = PaxosDeployment(switch, logical_leader=px.leader_address)
        deployment.register_leader(sw_name, sw_leader)
        deployment.register_leader(hw_name, hw_leader)
        if px.start_in_hardware:
            deployment.activate_leader(hw_name)
        else:
            deployment.activate_leader(sw_name)
            # inactive hardware leader waits in the §9.2 standby state
            hw_leader.stand_by()
        params = px.controller.as_dict()
        automatic = px.controller.kind == "rate"
        controller = PaxosShiftController(
            sim,
            switch,
            deployment,
            software_node=sw_name,
            hardware_node=hw_name,
            config=PaxosControllerConfig(**params) if params else None,
            automatic=automatic,
            logical_dst=px.leader_address,
        )
        for at_s, to_hardware in px.shifts:
            controller.schedule_shift(sec(at_s), to_hardware=to_hardware)

        # -- closed-loop clients
        clients = []
        for name in px.client_names():
            client = PaxosClient(
                sim,
                name,
                rng=streams.get(f"{name}.arrivals"),
                leader_address=px.leader_address,
            )
            topo.add(client)
            self._connect(topo, client.name)
            clients.append(client)
        # start after a short warm-up so the software leader finished phase 1
        for client in clients:
            sim.schedule_at(
                msec(px.client_start_ms),
                lambda c=client: c.start_closed_loop(px.client_window),
                name="client.start",
            )

        power_sampler = PeriodicSampler(
            sim,
            sw_server.platform_power_w,
            msec(self.spec.sampling.power_interval_ms),
            name=f"{sw_name}.power",
        )
        # Every node the group owns is wall-sampled so the §9.4 sweep can
        # attribute the rack's draw per group; the hardware leader card has
        # no host CPU, its probe is the card itself.
        wall_samplers = {
            server.name: self._wall_sampler(sim, server.name, server.wall_power_w)
            for server in group_servers
        }
        wall_samplers[hw_name] = self._wall_sampler(sim, hw_name, hw_card.power_w)
        return BuiltPaxosGroup(
            spec=px,
            deployment=deployment,
            controller=controller,
            clients=clients,
            gap_scanner=gap_scanner,
            power_sampler=power_sampler,
            wall_samplers=wall_samplers,
            roles_by_node=roles_by_node,
        )


def run_scenario_spec(spec: ScenarioSpec) -> ScenarioResult:
    """Convenience: validate, build, execute."""
    return ScenarioBuilder(spec).run()


# ---------------------------------------------------------------------------
# Analytic on-demand sweep (the Figure 5 path).
# ---------------------------------------------------------------------------


@dataclass
class OnDemandSweepResult:
    """Figure-5 series: per-app on-demand vs software-only power curves."""

    series: Dict[str, list]
    savings_at_peak: Dict[str, float]


def run_ondemand_sweep(spec: OnDemandSweepSpec) -> OnDemandSweepResult:
    """Execute the declarative Figure-5 sweep over the steady-state models."""
    # Imported lazily: repro.experiments imports this package at module
    # scope (transitions are scenario-backed), so the dependency must stay
    # one-way at import time.
    from ..experiments.sweep import linspace_rates, sweep_model
    from ..steady.ondemand import ondemand_models

    rates = linspace_rates(kpps(spec.max_rate_kpps), spec.steps)
    series: Dict[str, list] = {}
    savings: Dict[str, float] = {}
    for app, model in ondemand_models().items():
        series[f"{app} (On demand)"] = sweep_model(model, rates)
        series[f"{app} (SW)"] = sweep_model(model.software, rates)
        peak = min(kpps(spec.peak_rate_kpps), model.software.capacity_pps)
        savings[app] = model.saving_vs_software_w(peak) / model.software.power_at(
            peak
        )
    return OnDemandSweepResult(series=series, savings_at_peak=savings)
