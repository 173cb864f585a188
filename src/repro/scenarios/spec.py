"""Declarative scenario specifications.

A :class:`ScenarioSpec` describes a complete on-demand cluster — hosts with
their NIC-replacing FPGA cards, the ToR switch fabric, per-host application
placements and controllers, workloads, and sampling — without constructing
anything.  :class:`repro.scenarios.builder.ScenarioBuilder` materializes a
spec into a wired DES run; :mod:`repro.scenarios.registry` names the
canonical ones (the paper's Figures 6/7 plus the rack-scale extensions).

A rack may mix all three of the paper's applications: key-sharded KVS
hosts, N independent Paxos consensus groups sharing the ToR (each with its
own logical leader address), and anycast DNS hosts steered by qname hash.
Each placement names its own :class:`ControllerSpec` — the §9.1 host- and
network-driven designs, the predictive enhancement, or none — so *who
decides to shift* is part of the declaration, not the wiring.  Each
placement also names its own :class:`DeviceSpec` — the NetFPGA, a §10
SmartNIC tier, or ``none`` for a NIC-only host — so *what there is to
shift to* is declarative as well, and racks may mix offload devices.

Specs are frozen dataclasses so scenarios can be derived from one another
with :func:`dataclasses.replace` (the registry test shortens horizons that
way, and sweeps can scale host counts or rates).  They also hash: a list
given for a tuple field — placements, co-located jobs, Paxos shifts and
acceptor hosts, controller and device params — is stored as a tuple, so
the sweep engine can memoize pinned placements by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from ..core.controller import CONTROLLER_KINDS, PAXOS_CONTROLLER_KINDS
from ..core.fabric_controller import (
    FABRIC_CONTROLLER_KINDS,
    FabricControllerConfig,
)
from ..core.host_controller import HostControllerConfig
from ..core.network_controller import NetworkControllerConfig
from ..core.paxos_controller import PaxosControllerConfig
from ..core.predictive_controller import PredictiveControllerConfig
from ..errors import ConfigurationError
from ..hw.device import DEFAULT_DEVICE_KIND, get_device
from ..naming import rack_qualified, split_rack


def _config_fields(config_cls, *extra: str) -> FrozenSet[str]:
    return frozenset(f.name for f in fields(config_cls)) | frozenset(extra)


#: kind -> parameter names its controller family accepts.  Validated at
#: declaration time so a typo fails in ``validate()`` like every other
#: spec mistake, not as a TypeError deep inside the builder.
_KIND_PARAMS: Dict[str, FrozenSet[str]] = {
    "host": _config_fields(HostControllerConfig),
    "network": _config_fields(NetworkControllerConfig),
    "predictive": _config_fields(PredictiveControllerConfig, "standby_card_w"),
    "none": frozenset(),
    "schedule": _config_fields(PaxosControllerConfig),
    "rate": _config_fields(PaxosControllerConfig),
    "fabric": _config_fields(FabricControllerConfig),
}

#: (at_s, value) steps applied over a run, e.g. offered-rate ramps.
PhaseSchedule = Tuple[Tuple[float, float], ...]


def _frozen(value):
    """``value`` with every list, at any depth, turned into a tuple: specs
    are compared and memoized by value, so a list given where the spec
    declares a tuple must not leave it unhashable."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(item) for item in value)
    return value


def _param_pairs(params) -> Tuple[Tuple[str, object], ...]:
    """Controller/device ``params`` as hashable ``(name, value)`` pairs,
    sorted when given as a mapping."""
    items = sorted(params.items()) if isinstance(params, Mapping) else params
    return tuple(_frozen(tuple(pair)) for pair in items)


@dataclass(frozen=True)
class SwitchSpec:
    """The ToR switch and the rack's port characteristics.

    In a multi-rack scenario (``ScenarioSpec.fabric``) this describes
    *each rack's* ToR: one switch named ``<rack>/<name>`` is built per
    rack, with these host-port characteristics.
    """

    name: str = "tor"
    latency_us: float = 1.0
    bandwidth_gbps: float = 10.0


@dataclass(frozen=True)
class UplinkSpec:
    """A rack's ToR->spine uplink (both directions).

    ``oversubscription`` divides the effective bandwidth — a 4:1
    oversubscribed 40G uplink serves cross-rack traffic at 10G — and the
    uplink queues (FIFO output contention), so oversubscription shows up
    as cross-rack tail latency under load, not just a rate cap.
    """

    latency_us: float = 5.0
    bandwidth_gbps: float = 40.0
    oversubscription: float = 1.0

    def effective_bandwidth_bps(self) -> float:
        """The per-direction bandwidth the DES uplinks actually serve —
        the declared bandwidth divided down by the oversubscription ratio.
        This is the analytic parameter the steady fast path's queueing
        model consumes (``repro.steady.fabric``)."""
        from ..net.topology import uplink_effective_bps
        from ..units import gbit_per_s

        return uplink_effective_bps(
            gbit_per_s(self.bandwidth_gbps), self.oversubscription
        )

    def validate(self, owner: str) -> None:
        if not self.latency_us >= 0:
            raise ConfigurationError(
                f"uplink latency_us must be >= 0 on {owner!r}"
            )
        if not self.bandwidth_gbps > 0:
            raise ConfigurationError(
                f"uplink bandwidth_gbps must be positive on {owner!r}"
            )
        if not self.oversubscription >= 1.0:
            raise ConfigurationError(
                f"uplink oversubscription must be >= 1 on {owner!r}, got "
                f"{self.oversubscription}"
            )


@dataclass(frozen=True)
class SpineSpec:
    """The aggregation/spine switch tier (one switch; latency and
    bandwidth live on the :class:`UplinkSpec` links that reach it)."""

    name: str = "spine"


@dataclass(frozen=True)
class FabricSpec:
    """A declarative leaf-spine fabric: N racks of ToRs under one spine.

    Racks are named ``rack0..rack{N-1}``; placements choose a rack with
    their ``rack`` field (default: ``rack0``).  ``hosts_per_rack`` is an
    optional capacity cap on declared KVS/DNS server hosts per rack —
    exceeding it is a declaration error, the way a real rack runs out of
    slots.
    """

    racks: int = 2
    hosts_per_rack: Optional[int] = None
    uplink: UplinkSpec = field(default_factory=UplinkSpec)
    spine: SpineSpec = field(default_factory=SpineSpec)

    def rack_names(self) -> Tuple[str, ...]:
        return tuple(f"rack{i}" for i in range(self.racks))

    @property
    def default_rack(self) -> str:
        return "rack0"

    def rack_of(self, placement) -> str:
        """The rack a placement (host spec or Paxos group) lives in: its
        ``rack`` field, else the default rack."""
        return placement.rack or self.default_rack

    def validate(self, owner: str) -> None:
        if self.racks < 1:
            raise ConfigurationError(
                f"fabric on {owner!r} needs at least one rack"
            )
        if self.hosts_per_rack is not None and self.hosts_per_rack < 1:
            raise ConfigurationError(
                f"fabric hosts_per_rack must be >= 1 on {owner!r}"
            )
        self.uplink.validate(owner)
        if not self.spine.name:
            raise ConfigurationError(f"fabric spine needs a name on {owner!r}")


@dataclass(frozen=True)
class ControllerSpec:
    """Which controller family drives a placement, and with what knobs.

    ``kind`` names one of the §9 designs (:data:`CONTROLLER_KINDS` for
    per-host placements, :data:`PAXOS_CONTROLLER_KINDS` for consensus
    groups); ``params`` carries family-specific overrides (threshold rates,
    window lengths, predictive margins, …) applied on top of each family's
    calibrated defaults.  ``params`` accepts a mapping and is normalized to
    a sorted tuple of pairs, list values to tuples, so specs stay hashable
    and replace-derivable.
    """

    kind: str = "host"
    params: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", _param_pairs(self.params))

    def as_dict(self) -> Dict[str, object]:
        return dict(self.params)

    def validate_for(self, app: str, owner: str) -> None:
        if app == "paxos":
            kinds = PAXOS_CONTROLLER_KINDS
        elif app == "fabric":
            kinds = FABRIC_CONTROLLER_KINDS
        else:
            kinds = CONTROLLER_KINDS
        if self.kind not in kinds:
            raise ConfigurationError(
                f"unknown controller kind {self.kind!r} on {owner!r}; "
                f"{app} placements accept: {', '.join(kinds)}"
            )
        allowed = _KIND_PARAMS[self.kind]
        for key, _ in self.params:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"controller param names on {owner!r} must be strings"
                )
            if key not in allowed:
                accepted = ", ".join(sorted(allowed)) or "none"
                raise ConfigurationError(
                    f"unknown {self.kind!r} controller param {key!r} on "
                    f"{owner!r}; accepted: {accepted}"
                )


#: A host running a static software placement (no controller at all).
NO_CONTROLLER = ControllerSpec(kind="none")


@dataclass(frozen=True)
class DeviceSpec:
    """Which offload device a placement's host carries, and with what knobs.

    ``kind`` names a profile of the :mod:`repro.hw.device` registry —
    ``netfpga-sume`` (the paper's platform, the default), the §10 SmartNIC
    tiers (``accelnet-fpga``, ``asic-nic``, ``soc-nic``), or ``none`` (a
    NIC-only host whose placement can never shift).  ``params`` carries
    device-specific construction overrides (e.g. the NetFPGA's LaKe
    ``pe_count``), validated against the profile at declaration time.  Like
    :class:`ControllerSpec`, ``params`` accepts a mapping and is normalized
    to a sorted tuple of pairs so specs stay hashable.
    """

    kind: str = DEFAULT_DEVICE_KIND
    params: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", _param_pairs(self.params))

    def as_dict(self) -> Dict[str, object]:
        return dict(self.params)

    @property
    def is_offload(self) -> bool:
        """False for the ``none`` profile (NIC-only host)."""
        return get_device(self.kind).is_offload

    def validate_for(self, app: str, owner: str) -> None:
        # unknown kinds raise here with a case-insensitive did-you-mean
        # suggestion, like scenario and sweep names
        device = get_device(self.kind)
        device.validate_app(app, owner)
        allowed = device.accepted_params(app)
        for key, _ in self.params:
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"device param names on {owner!r} must be strings"
                )
            if key not in allowed:
                accepted = ", ".join(sorted(allowed)) or "none"
                raise ConfigurationError(
                    f"unknown {device.kind!r} device param {key!r} on "
                    f"{owner!r}; accepted: {accepted}"
                )


#: A host with no offload card at all (software placement forever).
NO_DEVICE = DeviceSpec(kind="none")


@dataclass(frozen=True)
class ColocatedJobSpec:
    """A ChainerMN-style CPU job co-located on one host (Figure 6)."""

    start_s: float
    stop_s: float
    cores: float = 2.5
    utilization: float = 0.95
    app_name: str = "chainermn"


@dataclass(frozen=True)
class SamplingSpec:
    """Instrumentation cadence — the scenario default, overridable per host."""

    power_interval_ms: float = 50.0
    bucket_ms: float = 250.0

    def validate(self, owner: str) -> None:
        if not self.power_interval_ms > 0:
            raise ConfigurationError(
                f"sampling power_interval_ms must be positive on {owner!r}"
            )
        if not self.bucket_ms > 0:
            raise ConfigurationError(
                f"sampling bucket_ms must be positive on {owner!r}"
            )


@dataclass(frozen=True)
class KvsHostSpec:
    """One memcached host with a LaKe card and its own shift controller.

    ``client_name`` names the load-generator node driving this host's key
    shard (defaults to ``<name>-client``).  ``controller`` selects the
    decision policy (host-driven RAPL by default; ``NO_CONTROLLER`` builds
    the host with a static software placement).  ``sampling`` overrides the
    scenario-wide instrumentation cadence for this host's series.
    """

    name: str
    client_name: Optional[str] = None
    power_save: bool = False
    controller: ControllerSpec = ControllerSpec(kind="host")
    rapl_interval_ms: float = 10.0
    colocated: Tuple[ColocatedJobSpec, ...] = ()
    sampling: Optional[SamplingSpec] = None
    #: Begin the run already shifted into the network (the sweep engine's
    #: hardware-pinned mode).  Applied before instrumentation starts, so
    #: the very first power sample sees the active card.
    start_in_hardware: bool = False
    #: Which offload card this host carries (``none`` = NIC-only host).
    device: DeviceSpec = DeviceSpec()
    #: Which key shard of the rack-wide keyspace this host owns.  Defaults
    #: to the host's position; set explicitly (with
    #: ``KvsWorkloadSpec.n_shards``) to build a *sub-rack* — a residual
    #: scenario simulating only some shards of a larger rack while keeping
    #: every per-shard RNG stream, traffic weight and route identical to
    #: the full rack (the per-placement steady fast path depends on this).
    shard_index: Optional[int] = None
    #: Which fabric rack this host (and its client) lives in.  Requires
    #: ``ScenarioSpec.fabric``; None means the fabric's default rack — or,
    #: without a fabric, the plain single-ToR wiring.
    rack: Optional[str] = None
    #: Consolidated initial placement: the name of *another* KVS host that
    #: initially serves this host's key shard (this host still offers its
    #: shard's traffic, but starts serving nothing).  Requires a sharded
    #: rack.  In fabric mode a bare name resolves inside this host's rack;
    #: write ``"rack0/kvs0"`` to consolidate onto another rack — the
    #: centralized fabric controller can later steer the shard back out.
    served_by: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.colocated, tuple):
            object.__setattr__(self, "colocated", tuple(self.colocated))

    def resolved_client_name(self) -> str:
        return self.client_name or f"{self.name}-client"


@dataclass(frozen=True)
class KvsWorkloadSpec:
    """ETC traffic offered to the KVS hosts.

    ``rate_kpps`` is the **total** rack load.  With one host the client
    offers all of it; with several, the rate is split per host in
    proportion to each key shard's Zipf traffic weight (the per-host ETC
    split), and clients address the logical rack service routed by the
    ToR's key-shard dispatcher.  ``phases`` steps the total rate over the
    run — ``((at_s, rate_kpps), ...)`` — which is how rate-driven
    controllers are exercised on a load ramp.
    """

    keyspace: int = 50_000
    rate_kpps: float = 16.0
    zipf_s: float = 0.99
    preload: bool = True
    phases: PhaseSchedule = ()
    #: Total shard count of the rack this workload describes.  ``None``
    #: (the default) means "one shard per declared host".  Setting it
    #: larger than the host count declares a sub-rack: the declared hosts
    #: own only their ``shard_index`` shards, traffic for absent shards is
    #: simply not offered, and ``rate_kpps`` still names the **full** rack
    #: load so per-shard rates stay identical to the complete scenario.
    n_shards: Optional[int] = None


@dataclass(frozen=True)
class DnsHostSpec:
    """One anycast DNS replica: NSD in software, Emu DNS on the card.

    Every replica answers authoritatively for the whole zone; the ToR
    spreads queries across replicas by qname hash.  The default controller
    is the network-driven design (§9.1's 40-lines-in-the-classifier
    controller — the natural fit for a rate-driven query storm).
    """

    name: str
    client_name: Optional[str] = None
    power_save: bool = True
    controller: ControllerSpec = ControllerSpec(kind="network")
    rapl_interval_ms: float = 10.0
    sampling: Optional[SamplingSpec] = None
    #: Begin the run already shifted into the network (see KvsHostSpec).
    start_in_hardware: bool = False
    #: Which offload card this replica carries (``none`` = NIC-only host).
    device: DeviceSpec = DeviceSpec()
    #: Which fabric rack this replica (and its client) lives in (see
    #: KvsHostSpec.rack).
    rack: Optional[str] = None

    def resolved_client_name(self) -> str:
        return self.client_name or f"{self.name}-client"


@dataclass(frozen=True)
class DnsWorkloadSpec:
    """Query traffic offered to the anycast DNS hosts.

    ``rate_kpps`` is the total rack query rate, split per host by each
    qname shard's popularity weight; ``phases`` steps it over the run
    (query storms).  ``miss_fraction`` of queries ask names beyond the
    zone and answer NXDOMAIN.
    """

    n_names: int = 1_000
    rate_kpps: float = 20.0
    zipf_s: float = 0.99
    miss_fraction: float = 0.0
    phases: PhaseSchedule = ()


@dataclass(frozen=True)
class PaxosSpec:
    """One Figure-7-style Paxos consensus group with a shiftable leader.

    A scenario may declare several independent groups sharing the ToR;
    ``name`` prefixes every node of the group and derives its logical
    leader address (``<name>-leader``), which the switch maps to the
    currently active physical leader.  ``controller`` selects the shift
    policy: ``"schedule"`` executes the explicit ``shifts`` timetable
    (``(at_s, to_hardware)`` pairs, the Figure 7 drive); ``"rate"``
    watches this group's leader-bound packet rate at the ToR and shifts
    autonomously (§9.2's centralized controller proper).
    """

    name: str = "paxos"
    n_clients: int = 3
    client_window: int = 1
    n_acceptors: int = 3
    recovery_window: int = 512
    client_start_ms: float = 20.0
    shifts: Tuple[Tuple[float, bool], ...] = ()
    controller: ControllerSpec = ControllerSpec(kind="schedule")
    #: Activate the P4xos leader (not the software one) from the start —
    #: the sweep engine's hardware-pinned mode.
    start_in_hardware: bool = False
    #: Which offload card hosts the hardware leader (must support paxos).
    device: DeviceSpec = DeviceSpec()
    #: Explicit acceptor server names.  Empty: the group lays out its own
    #: ``<name>-acceptor{i}`` boxes (disjoint from every other group).
    #: Non-empty (length must equal ``n_acceptors``): the named servers
    #: host this group's acceptors, and several groups naming the same
    #: server *share* it — the §9.4 shared-host case whose wall power is
    #: split between the groups in proportion to their busy time.  In a
    #: fabric scenario an entry may be rack-qualified (``"rack1/acc0"``)
    #: to place that acceptor outside the group's home rack — a consensus
    #: group whose quorum spans racks.
    acceptor_hosts: Tuple[str, ...] = ()
    #: Which fabric rack the group's nodes live in by default (leaders,
    #: learner, clients, and any acceptor_hosts entry without an explicit
    #: ``<rack>/`` prefix).  Requires ``ScenarioSpec.fabric``.
    rack: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "shifts", _frozen(tuple(self.shifts)))
        object.__setattr__(self, "acceptor_hosts", tuple(self.acceptor_hosts))

    # -- derived addressing (the builder and validator share these) ----------

    @property
    def leader_address(self) -> str:
        """The group's logical leader destination at the ToR."""
        return f"{self.name}-leader"

    @property
    def software_leader_name(self) -> str:
        return f"{self.name}-sw-leader"

    @property
    def hardware_leader_name(self) -> str:
        return f"{self.name}-hw-leader"

    @property
    def learner_name(self) -> str:
        return f"{self.name}-learner0"

    def acceptor_names(self) -> List[str]:
        if self.acceptor_hosts:
            return list(self.acceptor_hosts)
        return [f"{self.name}-acceptor{i}" for i in range(self.n_acceptors)]

    def client_names(self) -> List[str]:
        return [f"{self.name}-client{i}" for i in range(self.n_clients)]

    def node_names(self) -> List[str]:
        """Every concrete node this group adds to the topology."""
        return [
            self.software_leader_name,
            self.hardware_leader_name,
            self.learner_name,
            *self.acceptor_names(),
            *self.client_names(),
        ]


@dataclass(frozen=True)
class OnDemandSweepSpec:
    """The analytic Figure-5 sweep: on-demand vs software-only power for
    each application's steady-state model across offered rates."""

    max_rate_kpps: float = 1200.0
    steps: int = 25
    peak_rate_kpps: float = 1000.0


def _validate_host_device(host, app: str) -> None:
    """The NIC-only rules: a host with no card can never leave software, so
    a hardware pin or any shifting controller on it is a declaration error,
    caught at ``validate()`` time like every other spec mistake."""
    if host.device.is_offload:
        return
    if host.start_in_hardware:
        raise ConfigurationError(
            f"NIC-only {app} host {host.name!r} (device 'none') cannot "
            "start_in_hardware: there is no card to start on"
        )
    if host.controller.kind != "none":
        raise ConfigurationError(
            f"NIC-only {app} host {host.name!r} (device 'none') cannot be "
            f"driven by a {host.controller.kind!r} controller: there is "
            "nothing to shift to"
        )


def _validate_workload(workload, owner: str) -> None:
    """The numbers both workload kinds share, each check written so that
    NaN fails it: a NaN rate or Zipf skew would otherwise validate and
    then offer nothing, and a negative one would raise inside the build."""
    if not workload.rate_kpps >= 0:
        raise ConfigurationError(f"{owner} rate_kpps must be >= 0")
    if not workload.zipf_s > 0:
        raise ConfigurationError(f"{owner} zipf_s must be positive")
    _validate_phases(workload.phases, owner)


def _validate_phases(phases: PhaseSchedule, owner: str) -> None:
    last_at = -1.0
    for at_s, rate_kpps in phases:
        if not at_s >= 0:
            raise ConfigurationError(f"{owner} phase scheduled before t=0")
        if at_s <= last_at:
            raise ConfigurationError(f"{owner} phases must be strictly increasing")
        if not rate_kpps >= 0:
            raise ConfigurationError(f"{owner} phase rate must be >= 0")
        last_at = at_s


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative cluster scenario (possibly mixed-app)."""

    name: str
    description: str = ""
    duration_s: float = 10.0
    seed: int = 42
    switch: SwitchSpec = field(default_factory=SwitchSpec)
    #: None: the classic single-ToR rack (byte-identical legacy wiring).
    #: Set: a leaf-spine fabric; placements pick racks via their ``rack``
    #: fields and all node names become ``<rack>/<name>``-qualified.
    fabric: Optional[FabricSpec] = None
    #: The §9.1 centralized controller over the whole fabric
    #: (``ControllerSpec(kind="fabric")``); requires ``fabric``.
    fabric_controller: Optional[ControllerSpec] = None
    kvs_hosts: Tuple[KvsHostSpec, ...] = ()
    kvs_workload: Optional[KvsWorkloadSpec] = None
    paxos_groups: Tuple[PaxosSpec, ...] = ()
    dns_hosts: Tuple[DnsHostSpec, ...] = ()
    dns_workload: Optional[DnsWorkloadSpec] = None
    sampling: SamplingSpec = field(default_factory=SamplingSpec)

    def __post_init__(self):
        # placements given as lists would leave the spec unhashable
        for name in ("kvs_hosts", "paxos_groups", "dns_hosts"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    def validate(self) -> "ScenarioSpec":
        if not self.duration_s > 0:
            raise ConfigurationError("duration_s must be positive")
        if not self.kvs_hosts and not self.paxos_groups and not self.dns_hosts:
            raise ConfigurationError(
                f"scenario {self.name!r} declares no KVS hosts, no Paxos "
                "groups and no DNS hosts"
            )
        self._validate_fabric()
        self._validate_kvs()
        self._validate_dns()
        self._validate_paxos()
        self._validate_sampling()
        self._validate_node_names()
        return self

    # -- fabric placement ----------------------------------------------------

    def host_rack(self, placement) -> Optional[str]:
        """The rack a placement (host spec or Paxos group) lives in: its
        ``rack`` field, the fabric default, or None without a fabric."""
        if self.fabric is None:
            return None
        return self.fabric.rack_of(placement)

    def _validate_fabric(self) -> None:
        placements = [
            ("KVS host", h) for h in self.kvs_hosts
        ] + [
            ("DNS host", h) for h in self.dns_hosts
        ] + [
            ("Paxos group", g) for g in self.paxos_groups
        ]
        if self.fabric is None:
            for what, placement in placements:
                if placement.rack is not None:
                    raise ConfigurationError(
                        f"{what} {placement.name!r} names rack "
                        f"{placement.rack!r} but scenario {self.name!r} "
                        "declares no fabric"
                    )
            if self.fabric_controller is not None:
                raise ConfigurationError(
                    f"scenario {self.name!r} declares a fabric_controller "
                    "but no fabric"
                )
            return
        self.fabric.validate(self.name)
        racks = set(self.fabric.rack_names())
        for what, placement in placements:
            if placement.rack is not None and placement.rack not in racks:
                raise ConfigurationError(
                    f"{what} {placement.name!r} names unknown rack "
                    f"{placement.rack!r}; fabric racks are "
                    f"{', '.join(self.fabric.rack_names())}"
                )
        for group in self.paxos_groups:
            for acceptor in group.acceptor_hosts:
                rack, _ = split_rack(acceptor)
                if rack is not None and rack not in racks:
                    raise ConfigurationError(
                        f"Paxos group {group.name!r} places acceptor "
                        f"{acceptor!r} in unknown rack {rack!r}"
                    )
        if self.fabric.hosts_per_rack is not None:
            per_rack: Dict[str, int] = {}
            for host in (*self.kvs_hosts, *self.dns_hosts):
                rack = self.host_rack(host)
                per_rack[rack] = per_rack.get(rack, 0) + 1
            for rack, count in per_rack.items():
                if count > self.fabric.hosts_per_rack:
                    raise ConfigurationError(
                        f"rack {rack!r} has {count} server hosts but the "
                        f"fabric caps hosts_per_rack at "
                        f"{self.fabric.hosts_per_rack} in {self.name!r}"
                    )
        if self.fabric_controller is not None:
            self.fabric_controller.validate_for("fabric", self.name)

    # -- per-app checks ------------------------------------------------------

    def _validate_kvs(self) -> None:
        if self.kvs_hosts and self.kvs_workload is None:
            raise ConfigurationError(
                f"scenario {self.name!r} has KVS hosts but no workload"
            )
        if self.kvs_workload is not None:
            if not self.kvs_hosts:
                raise ConfigurationError(
                    f"scenario {self.name!r} declares a KVS workload but no hosts"
                )
            _validate_workload(self.kvs_workload, "KVS workload")
            if not self.kvs_workload.keyspace >= 1:
                raise ConfigurationError(
                    f"KVS workload keyspace must be >= 1 in {self.name!r}"
                )
            self._validate_kvs_shards()
        for host in self.kvs_hosts:
            host.controller.validate_for("kvs", host.name)
            host.device.validate_for("kvs", host.name)
            _validate_host_device(host, "kvs")
            for job in host.colocated:
                if job.stop_s <= job.start_s:
                    raise ConfigurationError(
                        f"colocated job on {host.name!r} stops before it starts"
                    )
        self._validate_kvs_served_by()

    def _validate_kvs_shards(self) -> None:
        n_shards = self.kvs_workload.n_shards
        indices = [h.shard_index for h in self.kvs_hosts]
        if n_shards is None:
            if any(i is not None for i in indices):
                raise ConfigurationError(
                    f"scenario {self.name!r} sets shard_index on a KVS host "
                    "but the workload declares no n_shards"
                )
            return
        if n_shards < len(self.kvs_hosts):
            raise ConfigurationError(
                f"scenario {self.name!r} declares n_shards={n_shards} for "
                f"{len(self.kvs_hosts)} KVS hosts"
            )
        if any(i is None for i in indices):
            raise ConfigurationError(
                f"scenario {self.name!r} declares n_shards but a KVS host "
                "is missing its shard_index"
            )
        if len(set(indices)) != len(indices):
            raise ConfigurationError(
                f"scenario {self.name!r} assigns the same shard_index twice"
            )
        for i in indices:
            if not 0 <= i < n_shards:
                raise ConfigurationError(
                    f"scenario {self.name!r} shard_index {i} out of range "
                    f"for n_shards={n_shards}"
                )

    def _validate_kvs_served_by(self) -> None:
        """Consolidated initial ownership must name a real, distinct host
        on a sharded rack, in both single-ToR and fabric spellings."""
        donors = [h for h in self.kvs_hosts if h.served_by is not None]
        if not donors:
            return
        if len(self.kvs_hosts) < 2:
            raise ConfigurationError(
                f"scenario {self.name!r}: served_by needs a sharded rack "
                "(at least two KVS hosts)"
            )
        fq_names = {
            rack_qualified(self.host_rack(h), h.name) for h in self.kvs_hosts
        }
        for host in donors:
            rack = self.host_rack(host)
            target = rack_qualified(rack, host.served_by)
            own = rack_qualified(rack, host.name)
            if target == own:
                raise ConfigurationError(
                    f"KVS host {host.name!r} cannot be served_by itself"
                )
            if target not in fq_names:
                raise ConfigurationError(
                    f"KVS host {host.name!r} is served_by unknown host "
                    f"{host.served_by!r}"
                )

    def _validate_dns(self) -> None:
        if self.dns_hosts and self.dns_workload is None:
            raise ConfigurationError(
                f"scenario {self.name!r} has DNS hosts but no workload"
            )
        if self.dns_workload is not None:
            if not self.dns_hosts:
                raise ConfigurationError(
                    f"scenario {self.name!r} declares a DNS workload but no hosts"
                )
            _validate_workload(self.dns_workload, "DNS workload")
            if not 0.0 <= self.dns_workload.miss_fraction < 1.0:
                raise ConfigurationError(
                    f"DNS miss_fraction must be in [0, 1) in {self.name!r}"
                )
            # every anycast replica loads the whole zone into the card's
            # on-chip table, so the zone must fit Emu's capacity (§5.3)
            from ..apps.dns.emu import EMU_ZONE_CAPACITY

            if self.dns_workload.n_names > EMU_ZONE_CAPACITY:
                raise ConfigurationError(
                    f"DNS zone of {self.dns_workload.n_names} names exceeds "
                    f"the Emu on-chip capacity ({EMU_ZONE_CAPACITY}) in "
                    f"{self.name!r}"
                )
            if self.dns_workload.n_names < 1:
                raise ConfigurationError(
                    f"DNS n_names must be >= 1 in {self.name!r}"
                )
        for host in self.dns_hosts:
            host.controller.validate_for("dns", host.name)
            host.device.validate_for("dns", host.name)
            _validate_host_device(host, "dns")

    def _validate_paxos(self) -> None:
        group_names = [g.name for g in self.paxos_groups]
        if len(set(group_names)) != len(group_names):
            raise ConfigurationError(
                f"duplicate Paxos group names in {self.name!r}"
            )
        for group in self.paxos_groups:
            group.controller.validate_for("paxos", group.name)
            group.device.validate_for("paxos", group.name)
            if group.n_clients < 1 or group.n_acceptors < 1:
                raise ConfigurationError(
                    f"Paxos group {group.name!r} needs >=1 client and acceptor"
                )
            if group.acceptor_hosts:
                if len(group.acceptor_hosts) != group.n_acceptors:
                    raise ConfigurationError(
                        f"Paxos group {group.name!r} names "
                        f"{len(group.acceptor_hosts)} acceptor hosts for "
                        f"{group.n_acceptors} acceptors"
                    )
                if len(set(group.acceptor_hosts)) != len(group.acceptor_hosts):
                    raise ConfigurationError(
                        f"Paxos group {group.name!r} repeats an acceptor host"
                    )
            for at_s, _ in group.shifts:
                if not at_s >= 0:
                    raise ConfigurationError(
                        f"Paxos group {group.name!r} shift scheduled before t=0"
                    )

    def _validate_sampling(self) -> None:
        self.sampling.validate(self.name)
        for host in (*self.kvs_hosts, *self.dns_hosts):
            if host.sampling is not None:
                host.sampling.validate(host.name)

    def _validate_node_names(self) -> None:
        """Node names must be unique across *all* apps sharing the ToR —
        a KVS host, a Paxos acceptor and a DNS client are all ports on the
        same switch — and must not shadow the logical service addresses.
        The one sanctioned overlap: a server named in several groups'
        ``acceptor_hosts`` is *shared* (one box, one port, many roles).

        In a fabric scenario uniqueness is checked on the *fully-qualified*
        ``<rack>/<name>`` spellings (the names the builder actually
        registers), so two racks may each declare an ``h0``; the rack
        prefix is exactly what prevents the duplicate-node collision.
        """
        seen: Dict[str, str] = {}
        _SHARED = "a shared Paxos acceptor host"

        def claim(name: str, what: str) -> None:
            if name in seen:
                raise ConfigurationError(
                    f"node name {name!r} used by both {seen[name]} and {what} "
                    f"in {self.name!r}"
                )
            seen[name] = what

        def claim_shared(name: str) -> None:
            prev = seen.get(name)
            if prev is None:
                seen[name] = _SHARED
            elif prev != _SHARED:
                raise ConfigurationError(
                    f"node name {name!r} used by both {prev} and {_SHARED} "
                    f"in {self.name!r}"
                )

        if self.fabric is None:
            claim(self.switch.name, "the ToR switch")
        else:
            claim(self.fabric.spine.name, "the spine switch")
            for rack in self.fabric.rack_names():
                claim(rack_qualified(rack, self.switch.name), "a ToR switch")
        for host in self.kvs_hosts:
            rack = self.host_rack(host)
            claim(rack_qualified(rack, host.name), "a KVS host")
            claim(
                rack_qualified(rack, host.resolved_client_name()),
                "a KVS client",
            )
        for host in self.dns_hosts:
            rack = self.host_rack(host)
            claim(rack_qualified(rack, host.name), "a DNS host")
            claim(
                rack_qualified(rack, host.resolved_client_name()),
                "a DNS client",
            )
        for group in self.paxos_groups:
            rack = self.host_rack(group)
            shared = {
                rack_qualified(rack, a) for a in group.acceptor_hosts
            }
            for node in group.node_names():
                fq = rack_qualified(rack, node)
                if fq in shared:
                    claim_shared(fq)
                else:
                    claim(fq, f"Paxos group {group.name!r}")
        # logical addresses are switch-level destinations, not ports, but a
        # node with the same name would swallow redirected traffic
        for logical in self.logical_addresses():
            if logical in seen:
                raise ConfigurationError(
                    f"node name {logical!r} collides with a logical service "
                    f"address in {self.name!r}"
                )

    def logical_addresses(self) -> List[str]:
        """The switch-level service destinations, as the builder installs
        them: Paxos leader addresses are rack-qualified in fabric mode
        (each group's leader rule is still installed fleet-wide), while
        the sharded KVS/DNS services stay fabric-global."""
        addresses = [
            rack_qualified(self.host_rack(g), g.leader_address)
            for g in self.paxos_groups
        ]
        if self.sharded:
            addresses.append(RACK_KVS_SERVICE)
        if self.dns_sharded:
            addresses.append(RACK_DNS_SERVICE)
        return addresses

    # -- rack modes ----------------------------------------------------------

    @property
    def sharded(self) -> bool:
        """Rack mode: more than one KVS host — or a declared sub-rack of a
        sharded rack — ⇒ key-sharded ToR routing."""
        if len(self.kvs_hosts) > 1:
            return True
        return (
            self.kvs_workload is not None
            and self.kvs_workload.n_shards is not None
            and self.kvs_workload.n_shards > 1
        )

    @property
    def dns_sharded(self) -> bool:
        """Anycast mode: more than one DNS host ⇒ qname-hash ToR routing."""
        return len(self.dns_hosts) > 1


# ---------------------------------------------------------------------------
# Sweeps: a grid of scenario points (the §9.4 rack tipping-point engine).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One swept factory parameter and the values it takes.

    ``param`` names a keyword of the base scenario's registry factory
    (``n_hosts``, ``rate_per_host_kpps``, ``n_paxos_groups``, …); the sweep
    materializes one scenario per point of the axes' cross product.
    """

    param: str
    values: Tuple[object, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def validate(self, owner: str) -> None:
        if not isinstance(self.param, str) or not self.param:
            raise ConfigurationError(f"sweep axis on {owner!r} needs a parameter name")
        if not self.values:
            raise ConfigurationError(
                f"sweep axis {self.param!r} on {owner!r} has no values"
            )


@dataclass(frozen=True)
class ScenarioSweepSpec:
    """A parameter grid over one registered scenario (§9.4 tipping points).

    ``base`` names a registry entry; each grid point calls its factory with
    the axis values (plus the constant ``fixed`` overrides) and runs the
    resulting spec twice — pinned to software and pinned to hardware — so
    the sweep can chart where the rack tips from one to the other on
    ops/W.  ``tip_axis`` names the axis along which the crossover is
    reported (the offered-rate ramp by default: the last axis).
    """

    name: str
    base: str
    axes: Tuple[SweepAxis, ...] = ()
    description: str = ""
    fixed: Union[Mapping[str, object], Tuple[Tuple[str, object], ...]] = ()
    tip_axis: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        items = (
            tuple(sorted(self.fixed.items()))
            if isinstance(self.fixed, Mapping)
            else tuple(tuple(pair) for pair in self.fixed)
        )
        object.__setattr__(self, "fixed", items)

    def validate(self) -> "ScenarioSweepSpec":
        if not self.axes:
            raise ConfigurationError(f"sweep {self.name!r} declares no axes")
        params = [axis.param for axis in self.axes]
        if len(set(params)) != len(params):
            raise ConfigurationError(f"duplicate sweep axis in {self.name!r}")
        for axis in self.axes:
            axis.validate(self.name)
        for key, _ in self.fixed:
            if key in params:
                raise ConfigurationError(
                    f"fixed override {key!r} collides with a sweep axis in "
                    f"{self.name!r}"
                )
        if self.tip_axis is not None and self.tip_axis not in params:
            raise ConfigurationError(
                f"tip_axis {self.tip_axis!r} is not an axis of {self.name!r}"
            )
        return self

    def fixed_dict(self) -> Dict[str, object]:
        return dict(self.fixed)

    def resolved_tip_axis(self) -> str:
        """The axis the crossover is searched along (defaults to the last)."""
        return self.tip_axis if self.tip_axis is not None else self.axes[-1].param

    def points(self) -> List[Dict[str, object]]:
        """The cross product of the axes, last axis varying fastest."""
        self.validate()
        grid: List[Dict[str, object]] = [{}]
        for axis in self.axes:
            grid = [
                {**point, axis.param: value}
                for point in grid
                for value in axis.values
            ]
        return grid

    def ramp_groups(
        self,
    ) -> List[Tuple[Dict[str, object], List[int]]]:
        """Grid indices grouped by the non-ramp axes, each group ordered
        along the ramp axis — the iteration shape of the tipping-point
        scan and of the adaptive crossover search.

        Returns ``(fixed_params, indices)`` pairs in first-seen grid
        order; ``indices`` point into :meth:`points` and are sorted by
        the ramp-axis value (declaration order when the values are not
        mutually comparable, mirroring the tipping scan's fallback).
        """
        grid = self.points()
        axis = self.resolved_tip_axis()
        other = [a.param for a in self.axes if a.param != axis]
        groups: Dict[Tuple, List[int]] = {}
        for i, params in enumerate(grid):
            key = tuple(params[p] for p in other)
            groups.setdefault(key, []).append(i)
        out = []
        for key, indices in groups.items():
            try:
                indices = sorted(indices, key=lambda i: grid[i][axis])
            except TypeError:
                pass
            out.append((dict(zip(other, key)), indices))
        return out


#: Logical destination clients address in rack mode; the ToR's key-shard
#: dispatch rule spreads it across the hosts.
RACK_KVS_SERVICE = "kvs-rack"

#: Logical destination DNS resolvers address in anycast mode; the ToR's
#: qname-hash dispatch rule spreads it across the replicas.
RACK_DNS_SERVICE = "dns-rack"
