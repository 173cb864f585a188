"""Named scenarios: the catalogue of reproducible cluster compositions.

Each entry is a factory returning a :class:`ScenarioSpec`; factories take
keyword overrides so experiments can compress horizons or rescale racks
without re-declaring the scenario.  The paper's DES figures and the
rack-scale extensions all live here:

=====================  =====================================================
``fig6-kvs-transition``  Figure 6 — host-controlled KVS shift under a
                         co-located ChainerMN job (single host).
``fig6-kvs-netctl``      Figure 6 rerun with the *network-controlled*
                         design (§9.1): a load ramp instead of a
                         co-located job drives the shift.
``fig7-paxos-transition``  Figure 7 — centralized Paxos leader shift via
                         switch-rule rewrite.
``rack4-kvs-sharded``    4 sharded memcached hosts behind one ToR.
``rack8-kvs-sharded``    The rack-scale flagship: 8 sharded memcached
                         hosts, staggered co-located jobs, every host
                         shifting on its own schedule.
``rack-mixed``           A heterogeneous rack: 2 KVS shards, 2 independent
                         Paxos groups and 2 anycast DNS replicas sharing
                         one ToR, with per-host controller kinds.
``rack-hetero``          Heterogeneous *hardware*: a key-sharded KVS rack
                         mixing a NetFPGA host, an ASIC SmartNIC host and
                         a NIC-only host behind one ToR, driven up a load
                         ramp so each card tips at its own crossover.
``rack-paxos-shared``    Two Paxos groups whose acceptors share the same
                         three server boxes (the §9.4 shared-host power
                         split, proportional to busy time).
``fabric-kvs``           Leaf-spine sweep base: ``n_racks`` racks ×
                         ``hosts_per_rack`` sharded KVS hosts under one
                         spine, oversubscribed uplinks, host names reused
                         across racks.
``fabric-kvs-crossrack``  The §9.1 centralized controller at fabric
                         scale: a consolidated 2-rack fleet whose hot host
                         is shifted to hardware and whose donated shard is
                         steered *across racks*.
``fabric-paxos-split``   Figure 7's leader shift with the acceptor quorum
                         split across two racks (one rack-qualified
                         ``acceptor_hosts`` entry behind the spine).
=====================  =====================================================
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..errors import ConfigurationError
# shared with the sweep and device registries and the CLI suggestions;
# re-exported here because this was its historical home
from ..naming import closest_name
from ..units import sec
from .spec import (
    NO_CONTROLLER,
    ColocatedJobSpec,
    ControllerSpec,
    DeviceSpec,
    DnsHostSpec,
    DnsWorkloadSpec,
    FabricSpec,
    KvsHostSpec,
    KvsWorkloadSpec,
    PaxosSpec,
    SamplingSpec,
    ScenarioSpec,
    UplinkSpec,
)

if TYPE_CHECKING:
    from .builder import ScenarioResult

SpecFactory = Callable[..., ScenarioSpec]

_REGISTRY: Dict[str, SpecFactory] = {}


def register(name: str) -> Callable[[SpecFactory], SpecFactory]:
    """Decorator: add a spec factory to the catalogue under ``name``."""

    def wrap(factory: SpecFactory) -> SpecFactory:
        if name in _REGISTRY:
            raise ConfigurationError(f"duplicate scenario name {name!r}")
        _REGISTRY[name] = factory
        return factory

    return wrap


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def scenario_descriptions() -> Dict[str, str]:
    """Name → one-line description for every registered scenario."""
    return {name: _REGISTRY[name]().description for name in scenario_names()}




def closest_scenario(name: str) -> Optional[str]:
    """The registered scenario most similar to ``name``, if any is close."""
    return closest_name(name, scenario_names())


def resolve_factory(registry: Dict[str, Callable], name: str, kind: str):
    """Look ``name`` up in a factory registry: exact case-insensitive
    spellings resolve directly, anything else raises with a did-you-mean
    suggestion.  Shared by the scenario and sweep registries."""
    factory = registry.get(name)
    if factory is not None:
        return factory
    suggestion = closest_name(name, sorted(registry))
    if suggestion is not None and suggestion.lower() == name.lower():
        return registry[suggestion]
    hint = f"; did you mean {suggestion!r}?" if suggestion else ""
    raise ConfigurationError(
        f"unknown {kind} {name!r}{hint} (known: {', '.join(sorted(registry))})"
    )


def build_spec(name: str, **overrides) -> ScenarioSpec:
    """Instantiate a named scenario's spec (factory overrides applied).

    Exact case-insensitive spellings (``RACK-MIXED``) resolve directly;
    anything else raises with a did-you-mean suggestion.
    """
    return resolve_factory(_REGISTRY, name, "scenario")(**overrides)


def run_scenario(name: str, **overrides) -> ScenarioResult:
    """Build and execute a named scenario."""
    from .builder import ScenarioBuilder

    return ScenarioBuilder(build_spec(name, **overrides)).run()


# ---------------------------------------------------------------------------
# The paper's transition figures.
# ---------------------------------------------------------------------------


@register("fig6-kvs-transition")
def figure6_spec(
    duration_s: float = 12.0,
    rate_kpps: float = 16.0,
    chainer_start_s: float = 2.0,
    chainer_stop_s: float = 7.5,
    keyspace: int = 50_000,
    seed: int = 42,
    power_save: bool = False,
    bucket_ms: float = 250.0,
) -> ScenarioSpec:
    """Figure 6: one memcached host (LaKe card), ETC load, ChainerMN
    co-location driving the RAPL-fed host controller (§9.1/§9.2).

    ``power_save=False`` matches the paper ("Clock gating and memories
    reset are not enabled in this experiment").
    """
    chainer_stop_s = min(chainer_stop_s, duration_s)
    return ScenarioSpec(
        name="fig6-kvs-transition",
        description="Figure 6: host-controlled KVS software<->hardware shift",
        duration_s=duration_s,
        seed=seed,
        kvs_hosts=(
            KvsHostSpec(
                name="kvs-server",
                client_name="client",
                power_save=power_save,
                colocated=(
                    ColocatedJobSpec(start_s=chainer_start_s, stop_s=chainer_stop_s),
                )
                if chainer_stop_s > chainer_start_s
                else (),
            ),
        ),
        kvs_workload=KvsWorkloadSpec(keyspace=keyspace, rate_kpps=rate_kpps),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=bucket_ms),
    )


@register("fig6-kvs-netctl")
def figure6_netctl_spec(
    duration_s: float = 12.0,
    base_rate_kpps: float = 2.0,
    peak_rate_kpps: float = 16.0,
    ramp_up_s: float = 2.0,
    ramp_down_s: float = 8.0,
    keyspace: int = 50_000,
    seed: int = 42,
    bucket_ms: float = 250.0,
) -> ScenarioSpec:
    """Figure 6 driven by the *network-controlled* design (§9.1): the same
    single LaKe host, but the decision lives in the device's classifier —
    a sustained offered-rate ramp (not a co-located job) triggers the
    shift, and the rate falling back triggers the return."""
    ramp_down_s = min(ramp_down_s, duration_s)
    return ScenarioSpec(
        name="fig6-kvs-netctl",
        description=(
            "Figure 6 variant: network-controlled KVS shift on a load ramp"
        ),
        duration_s=duration_s,
        seed=seed,
        kvs_hosts=(
            KvsHostSpec(
                name="kvs-server",
                client_name="client",
                controller=ControllerSpec(
                    kind="network",
                    params=dict(
                        up_rate_pps=(base_rate_kpps + peak_rate_kpps) * 1e3 / 2.0,
                        down_rate_pps=base_rate_kpps * 1e3 * 1.5,
                        up_window_us=sec(1.5),
                        down_window_us=sec(1.5),
                    ),
                ),
            ),
        ),
        kvs_workload=KvsWorkloadSpec(
            keyspace=keyspace,
            rate_kpps=base_rate_kpps,
            phases=(
                (ramp_up_s, peak_rate_kpps),
                (ramp_down_s, base_rate_kpps),
            )
            if ramp_down_s > ramp_up_s
            else ((ramp_up_s, peak_rate_kpps),),
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=bucket_ms),
    )


@register("fig7-paxos-transition")
def figure7_spec(
    duration_s: float = 5.0,
    shift_to_hw_s: float = 1.5,
    shift_to_sw_s: float = 3.5,
    n_clients: int = 3,
    client_window: int = 1,
    n_acceptors: int = 3,
    recovery_window: int = 512,
    seed: int = 7,
    bucket_ms: float = 50.0,
) -> ScenarioSpec:
    """Figure 7: Paxos leader shift via forwarding-rule rewrite (§9.2)."""
    return ScenarioSpec(
        name="fig7-paxos-transition",
        description="Figure 7: Paxos leader software<->hardware shift",
        duration_s=duration_s,
        seed=seed,
        paxos_groups=(
            PaxosSpec(
                name="paxos",
                n_clients=n_clients,
                client_window=client_window,
                n_acceptors=n_acceptors,
                recovery_window=recovery_window,
                shifts=((shift_to_hw_s, True), (shift_to_sw_s, False)),
            ),
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=bucket_ms),
    )


# ---------------------------------------------------------------------------
# Rack-scale scenarios (the ROADMAP north-star direction).
# ---------------------------------------------------------------------------


def _rack_spec(
    name: str,
    n_hosts: int,
    duration_s: float,
    total_rate_kpps: float,
    keyspace: int,
    seed: int,
    stagger_s: float,
    first_job_s: float,
    job_length_s: float,
) -> ScenarioSpec:
    """N sharded memcached hosts behind one ToR with staggered co-located
    jobs, so each host's controller shifts on its own schedule."""
    hosts = []
    for i in range(n_hosts):
        start_s = first_job_s + stagger_s * i
        stop_s = min(start_s + job_length_s, duration_s)
        hosts.append(
            KvsHostSpec(
                name=f"kvs{i}",
                colocated=(ColocatedJobSpec(start_s=start_s, stop_s=stop_s),)
                if stop_s > start_s
                else (),
            )
        )
    return ScenarioSpec(
        name=name,
        description=(
            f"{n_hosts} key-sharded memcached hosts behind one ToR switch, "
            "per-host on-demand shifting"
        ),
        duration_s=duration_s,
        seed=seed,
        kvs_hosts=tuple(hosts),
        kvs_workload=KvsWorkloadSpec(
            keyspace=keyspace, rate_kpps=total_rate_kpps
        ),
        sampling=SamplingSpec(power_interval_ms=100.0, bucket_ms=250.0),
    )


@lru_cache(maxsize=128)
def _rack_kvs_hosts(n_hosts: int) -> Tuple[KvsHostSpec, ...]:
    """``rack-kvs``'s hosts, one tuple object per host count.  The sweep
    bases build their hosts through memos like this one, keyed on what the
    hosts depend on and never on the rate, so every rate of a ramp group
    shares one frozen host tuple and the sweep's memos of pinned
    placements and steady host layouts hit by identity."""
    return tuple(KvsHostSpec(name=f"kvs{i}") for i in range(n_hosts))


@register("rack-kvs")
def rack_kvs_spec(
    n_hosts: int = 4,
    rate_per_host_kpps: float = 12.0,
    duration_s: float = 4.0,
    keyspace: int = 20_000,
    seed: int = 11,
) -> ScenarioSpec:
    """The parameterized rack the §9.4 sweeps iterate: N key-sharded
    memcached hosts at a nominal per-host offered rate (the total is split
    by each shard's Zipf traffic weight).  No co-located jobs — sweep
    points are pinned to a placement, so nothing needs a trigger."""
    if n_hosts < 1:
        raise ConfigurationError("rack-kvs needs n_hosts >= 1")
    return ScenarioSpec(
        name="rack-kvs",
        description=(
            "parameterized key-sharded rack (sweep base): N hosts × "
            "per-host offered rate"
        ),
        duration_s=duration_s,
        seed=seed,
        kvs_hosts=_rack_kvs_hosts(n_hosts),
        kvs_workload=KvsWorkloadSpec(
            keyspace=keyspace, rate_kpps=rate_per_host_kpps * n_hosts
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=250.0),
    )


@register("rack4-kvs-sharded")
def rack4_spec(
    duration_s: float = 8.0,
    total_rate_kpps: float = 48.0,
    keyspace: int = 30_000,
    seed: int = 11,
) -> ScenarioSpec:
    return _rack_spec(
        "rack4-kvs-sharded",
        n_hosts=4,
        duration_s=duration_s,
        total_rate_kpps=total_rate_kpps,
        keyspace=keyspace,
        seed=seed,
        stagger_s=0.6,
        first_job_s=0.8,
        job_length_s=3.0,
    )


@register("rack8-kvs-sharded")
def rack8_spec(
    duration_s: float = 8.0,
    total_rate_kpps: float = 96.0,
    keyspace: int = 30_000,
    seed: int = 11,
) -> ScenarioSpec:
    return _rack_spec(
        "rack8-kvs-sharded",
        n_hosts=8,
        duration_s=duration_s,
        total_rate_kpps=total_rate_kpps,
        keyspace=keyspace,
        seed=seed,
        stagger_s=0.5,
        first_job_s=0.8,
        job_length_s=3.5,
    )


# ---------------------------------------------------------------------------
# Heterogeneous hardware: mixed offload devices behind one ToR.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _rack_hetero_hosts(
    kinds: Tuple[str, ...], ctl_window_s: float
) -> Tuple[KvsHostSpec, ...]:
    """``rack-hetero``'s hosts, one tuple object per (device kinds,
    controller window) — shared by every rate (see
    :func:`_rack_kvs_hosts`)."""
    hosts = []
    for i, kind in enumerate(kinds):
        device = DeviceSpec(kind=kind)
        if device.is_offload:
            controller = ControllerSpec(
                kind="network",
                params=dict(
                    up_window_us=sec(ctl_window_s),
                    down_window_us=sec(ctl_window_s),
                ),
            )
        else:
            controller = NO_CONTROLLER
        hosts.append(
            KvsHostSpec(name=f"kvs{i}", device=device, controller=controller)
        )
    return tuple(hosts)


@register("rack-hetero")
def rack_hetero_spec(
    device_kinds: tuple = ("netfpga-sume", "asic-nic", "none"),
    device_kind: str = None,
    rate_per_host_kpps: float = 4.0,
    mid_rate_per_host_kpps: float = 30.0,
    peak_rate_per_host_kpps: float = 110.0,
    ramp: bool = True,
    ctl_window_s: float = 0.8,
    duration_s: float = 3.6,
    keyspace: int = 12_000,
    seed: int = 31,
) -> ScenarioSpec:
    """The heterogeneous *hardware* rack: one key-sharded KVS host per
    entry of ``device_kinds`` — by default a NetFPGA SUME host, an ASIC
    SmartNIC host and a NIC-only host — behind one ToR.

    Every host with a card runs the network-driven controller at **its own
    device's** thresholds (the §4 crossover for the NetFPGA, the device's
    analytic crossover otherwise); the NIC-only host has no controller
    because it has nothing to shift to.  With ``ramp`` the offered rate
    climbs base → mid → peak, placed so the SmartNIC's crossover is passed
    at mid load and the NetFPGA's only at peak: the SmartNIC host tips
    first, the NetFPGA host later, the NIC-only host never — the §9.4
    answer to "which hosts in a mixed rack should even have a card".

    ``device_kind`` (scalar) overrides every host to one kind — the
    homogeneous grid points ``sweep-rack-hetero`` iterates.
    """
    kinds = (device_kind,) * len(device_kinds) if device_kind else tuple(device_kinds)
    if not kinds:
        raise ConfigurationError("rack-hetero needs at least one device kind")
    hosts = _rack_hetero_hosts(kinds, ctl_window_s)
    n_hosts = len(hosts)
    t_mid = min(1.0, duration_s / 3.0)
    t_peak = min(2.5, duration_s / 1.8)
    phases = (
        (
            (t_mid, mid_rate_per_host_kpps * n_hosts),
            (t_peak, peak_rate_per_host_kpps * n_hosts),
        )
        if ramp and t_peak > t_mid
        else ()
    )
    return ScenarioSpec(
        name="rack-hetero",
        description=(
            "heterogeneous offload rack: "
            + " + ".join(kinds)
            + " KVS hosts, per-device crossover controllers"
        ),
        duration_s=duration_s,
        seed=seed,
        kvs_hosts=hosts,
        kvs_workload=KvsWorkloadSpec(
            keyspace=keyspace,
            rate_kpps=rate_per_host_kpps * n_hosts,
            phases=phases,
        ),
        sampling=SamplingSpec(power_interval_ms=100.0, bucket_ms=250.0),
    )


@register("rack-paxos-shared")
def rack_paxos_shared_spec(
    duration_s: float = 4.0,
    n_acceptors: int = 3,
    heavy_clients: int = 3,
    light_clients: int = 1,
    seed: int = 17,
) -> ScenarioSpec:
    """Two Paxos consensus groups whose acceptors run on the *same* three
    server boxes: the builder installs one acceptor role per group on each
    shared box (dispatched by sending leader), and the §9.4 wall-power
    attribution splits each box between the groups in proportion to their
    busy time — px0 drives more clients than px1, so it owns the larger
    share."""
    shared = tuple(f"acceptor-shared{i}" for i in range(n_acceptors))
    return ScenarioSpec(
        name="rack-paxos-shared",
        description=(
            "2 Paxos groups sharing acceptor boxes (proportional-to-busy-"
            "time power split)"
        ),
        duration_s=duration_s,
        seed=seed,
        paxos_groups=(
            PaxosSpec(
                name="px0",
                n_clients=heavy_clients,
                n_acceptors=n_acceptors,
                acceptor_hosts=shared,
                shifts=((min(1.2, duration_s / 2.0), True),),
            ),
            PaxosSpec(
                name="px1",
                n_clients=light_clients,
                n_acceptors=n_acceptors,
                acceptor_hosts=shared,
                shifts=((min(2.2, duration_s * 0.7), True),),
            ),
        ),
        sampling=SamplingSpec(power_interval_ms=100.0, bucket_ms=250.0),
    )


# ---------------------------------------------------------------------------
# Multi-rack fabrics: leaf-spine scenarios and the centralized controller.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=128)
def _fabric_kvs_hosts(
    n_racks: int, hosts_per_rack: int
) -> Tuple[KvsHostSpec, ...]:
    """``fabric-kvs``'s hosts, one tuple object per (rack count, hosts per
    rack) — shared by every rate (see :func:`_rack_kvs_hosts`)."""
    return tuple(
        KvsHostSpec(
            name=f"kvs{j}",
            rack=f"rack{i}",
            client_name=f"rack{(i + 1) % n_racks}/kvs{j}-client",
            controller=NO_CONTROLLER,
        )
        for i in range(n_racks)
        for j in range(hosts_per_rack)
    )


@register("fabric-kvs")
def fabric_kvs_spec(
    n_racks: int = 2,
    hosts_per_rack: int = 2,
    rate_per_host_kpps: float = 12.0,
    oversubscription: float = 4.0,
    uplink_latency_us: float = 5.0,
    duration_s: float = 2.0,
    keyspace: int = 20_000,
    seed: int = 11,
) -> ScenarioSpec:
    """The parameterized leaf-spine rack grid the fabric sweeps iterate:
    ``n_racks`` racks × ``hosts_per_rack`` key-sharded memcached hosts
    under one spine.  Every rack reuses the same host spellings
    (``kvs0``, ``kvs1``, …) — the rack-qualified namespace keeps them
    apart — and each host's client enters the fabric at the *next* rack's
    ToR, so with two or more racks the offered load and its responses all
    cross the oversubscribed uplinks (at one rack everything stays under
    the single ToR).  No controllers: sweep points are pinned to a
    placement."""
    if n_racks < 1:
        raise ConfigurationError("fabric-kvs needs n_racks >= 1")
    if hosts_per_rack < 1:
        raise ConfigurationError("fabric-kvs needs hosts_per_rack >= 1")
    hosts = _fabric_kvs_hosts(n_racks, hosts_per_rack)
    return ScenarioSpec(
        name="fabric-kvs",
        description=(
            f"leaf-spine KVS fabric (sweep base): {n_racks} rack(s) × "
            f"{hosts_per_rack} sharded hosts under one spine"
        ),
        duration_s=duration_s,
        seed=seed,
        fabric=FabricSpec(
            racks=n_racks,
            hosts_per_rack=hosts_per_rack,
            uplink=UplinkSpec(
                latency_us=uplink_latency_us,
                oversubscription=oversubscription,
            ),
        ),
        kvs_hosts=hosts,
        kvs_workload=KvsWorkloadSpec(
            keyspace=keyspace, rate_kpps=rate_per_host_kpps * len(hosts)
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=250.0),
    )


@register("fabric-kvs-crossrack")
def fabric_kvs_crossrack_spec(
    duration_s: float = 3.0,
    rate_kpps: float = 16.0,
    hot_host_kpps: float = 10.0,
    cold_host_kpps: float = 6.0,
    shift_up_kpps: float = 8.0,
    shift_down_kpps: float = 4.0,
    oversubscription: float = 4.0,
    keyspace: int = 20_000,
    seed: int = 19,
) -> ScenarioSpec:
    """The §9.1 centralized controller's cross-rack showcase.

    Two racks under one spine.  The rack-wide keyspace starts
    *consolidated*: ``rack1/kvs1``'s shard is initially served by
    ``rack0/kvs0`` (``served_by``), so kvs0 serves two shards' traffic and
    runs sustained-hot while kvs1 serves nothing.  The centralized fabric
    controller reads every ToR's counters via the spine, shifts kvs0 into
    hardware (its served rate crosses ``shift_up_kpps``), and — because
    rack0 has no cold host to spread onto — steers the donated shard
    **across racks** back to kvs1 once the overload outlasts the
    deliberately longer ``cross_rack_sustain_us``.  Per-host controllers
    are off: every decision here is the central one."""
    return ScenarioSpec(
        name="fabric-kvs-crossrack",
        description=(
            "centralized fabric controller: consolidated 2-rack KVS fleet, "
            "hot host shifted to hardware and its shard steered cross-rack"
        ),
        duration_s=duration_s,
        seed=seed,
        fabric=FabricSpec(
            racks=2,
            uplink=UplinkSpec(oversubscription=oversubscription),
        ),
        fabric_controller=ControllerSpec(
            kind="fabric",
            params=dict(
                hot_host_pps=hot_host_kpps * 1e3,
                cold_host_pps=cold_host_kpps * 1e3,
                shift_up_pps=shift_up_kpps * 1e3,
                shift_down_pps=shift_down_kpps * 1e3,
                window_us=sec(0.5),
                same_rack_sustain_us=sec(0.3),
                cross_rack_sustain_us=sec(0.9),
            ),
        ),
        kvs_hosts=(
            KvsHostSpec(name="kvs0", rack="rack0", controller=NO_CONTROLLER),
            KvsHostSpec(
                name="kvs1",
                rack="rack1",
                controller=NO_CONTROLLER,
                served_by="rack0/kvs0",
            ),
            KvsHostSpec(name="kvs2", rack="rack1", controller=NO_CONTROLLER),
        ),
        kvs_workload=KvsWorkloadSpec(keyspace=keyspace, rate_kpps=rate_kpps),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=250.0),
    )


@register("fabric-paxos-split")
def fabric_paxos_split_spec(
    duration_s: float = 3.0,
    shift_to_hw_s: float = 1.0,
    shift_to_sw_s: float = 2.2,
    n_clients: int = 3,
    n_acceptors: int = 3,
    seed: int = 7,
) -> ScenarioSpec:
    """Figure 7's leader shift on a two-rack fabric with the acceptor
    quorum *split across racks*: two acceptors beside the leader in rack0,
    the third behind the spine in rack1 (a rack-qualified
    ``acceptor_hosts`` entry).  The leader redirect rule is installed
    fleet-wide, so 2A messages to the remote acceptor pay the uplink both
    ways — quorum latency now includes the fabric."""
    acceptors = tuple(
        f"rack1/acc{i}" if i == n_acceptors - 1 else f"acc{i}"
        for i in range(n_acceptors)
    )
    return ScenarioSpec(
        name="fabric-paxos-split",
        description=(
            "Paxos leader shift on a 2-rack fabric, acceptor quorum split "
            "across racks"
        ),
        duration_s=duration_s,
        seed=seed,
        fabric=FabricSpec(racks=2),
        paxos_groups=(
            PaxosSpec(
                name="paxos",
                rack="rack0",
                n_clients=n_clients,
                n_acceptors=n_acceptors,
                acceptor_hosts=acceptors,
                shifts=((shift_to_hw_s, True), (shift_to_sw_s, False)),
            ),
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=50.0),
    )


# ---------------------------------------------------------------------------
# The heterogeneous rack: every application, every controller family.
# ---------------------------------------------------------------------------


@register("rack-mixed")
def rack_mixed_spec(
    duration_s: float = 5.0,
    kvs_rate_kpps: float = 16.0,
    dns_rate_kqps: float = 10.0,
    dns_storm_kqps: float = 30.0,
    keyspace: int = 20_000,
    n_names: int = 800,
    n_paxos_groups: int = 2,
    seed: int = 23,
) -> ScenarioSpec:
    """The §9.4 mixed rack: 2 key-sharded KVS hosts, N independent Paxos
    consensus groups (own logical leader addresses, scheduled shifts at
    distinct times), and 2 anycast DNS replicas steered by qname hash —
    all behind one ToR, each placement with its own controller kind.
    ``n_paxos_groups`` is the sweep axis of ``sweep-rack-mixed``."""
    if n_paxos_groups < 1:
        raise ConfigurationError("rack-mixed needs n_paxos_groups >= 1")
    storm_start_s = min(1.5, duration_s / 3.0)
    storm_stop_s = min(duration_s - 0.5, duration_s * 0.9)
    job_start_s, job_stop_s = 0.8, min(3.5, duration_s)
    return ScenarioSpec(
        name="rack-mixed",
        description=(
            f"Heterogeneous rack: 2 KVS shards + {n_paxos_groups} Paxos "
            "groups + 2 anycast DNS hosts, mixed controller kinds"
        ),
        duration_s=duration_s,
        seed=seed,
        kvs_hosts=(
            # host-driven RAPL controller triggered by a co-located job
            # (dropped on horizons too short for the job to fit)
            KvsHostSpec(
                name="kvs0",
                colocated=(
                    ColocatedJobSpec(start_s=job_start_s, stop_s=job_stop_s),
                )
                if job_stop_s > job_start_s
                else (),
            ),
            # network-driven controller triggered by this shard's rate
            KvsHostSpec(
                name="kvs1",
                controller=ControllerSpec(
                    kind="network",
                    params=dict(
                        up_rate_pps=6_000.0,
                        down_rate_pps=2_000.0,
                        up_window_us=sec(1.0),
                        down_window_us=sec(1.0),
                    ),
                ),
            ),
        ),
        kvs_workload=KvsWorkloadSpec(keyspace=keyspace, rate_kpps=kvs_rate_kpps),
        paxos_groups=tuple(
            # staggered shift times so groups demonstrably move
            # independently; a stagger past the horizon is dropped (like
            # co-located jobs that don't fit) rather than silently queued
            PaxosSpec(
                name=f"px{i}",
                shifts=((1.2 + 1.0 * i, True),)
                if 1.2 + 1.0 * i < duration_s
                else (),
            )
            for i in range(n_paxos_groups)
        ),
        dns_hosts=(
            DnsHostSpec(
                name="dns0",
                controller=ControllerSpec(
                    kind="network",
                    params=dict(
                        up_rate_pps=8_000.0,
                        down_rate_pps=3_000.0,
                        up_window_us=sec(1.0),
                        down_window_us=sec(1.0),
                    ),
                ),
            ),
            DnsHostSpec(
                name="dns1",
                controller=ControllerSpec(
                    kind="network",
                    params=dict(
                        up_rate_pps=8_000.0,
                        down_rate_pps=3_000.0,
                        up_window_us=sec(1.0),
                        down_window_us=sec(1.0),
                    ),
                ),
            ),
        ),
        dns_workload=DnsWorkloadSpec(
            n_names=n_names,
            rate_kpps=dns_rate_kqps,
            phases=(
                (storm_start_s, dns_storm_kqps),
                (storm_stop_s, dns_rate_kqps),
            )
            if storm_stop_s > storm_start_s
            else ((storm_start_s, dns_storm_kqps),),
        ),
        sampling=SamplingSpec(power_interval_ms=100.0, bucket_ms=250.0),
    )
