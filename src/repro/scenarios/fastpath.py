"""Steady-state fast path: skip DES for rate-constant KVS placements.

A pinned sweep run of a pure KVS rack at a constant offered rate converges
to exactly what the :mod:`repro.steady` analytic models describe — idle
power plus a utilization-scaled dynamic term per host.  For those grid
points the DES replay buys convergence noise, not information, so the
sweep engine can (opt-in, ``run_sweep(..., fastpath=True)``) substitute
the analytic curves and skip the event loop entirely.

The steady model is the analytic twin of
:func:`~repro.scenarios.sweep.run_pinned`: :func:`steady_grid` (and
:func:`steady_point`, one spec of it) answers the run ``run_pinned(spec,
mode)`` would replay.  It applies the pin itself, through the memoized
placement pin the DES variants use, so the pin's semantics live in one
place; an already pinned spec gets the same answer.

Which specs it answers (:func:`pinned_steady_eligible`) is deliberately
narrow, and only covers what a pin cannot change — the pin itself strips
controllers, co-located jobs and the centralized fabric controller:

* KVS hosts only — no Paxos groups (closed-loop clients adapt to latency,
  which the steady curves do not model) and no DNS hosts (storm phases);
* a rate-constant workload — no ``phases`` schedule;
* no ``served_by`` shard donation (the pins keep it, and a live fabric
  controller could steer the shard back mid-run).

The on-demand pin keeps its controllers, so it runs DES, or a hybrid on
racks that :func:`split_steady` splits; :func:`steady_eligible` asks
whether a spec *as given* can be answered.

Multi-rack fabrics are eligible too: per-rack steady aggregates compose
with the analytic uplink model of :mod:`repro.steady.fabric`.  Each
cross-rack host pays four uplink traversals (request up + down, response
up + down) of propagation + serialization + the utilization-scaled M/D/1
FIFO wait at that uplink direction's own offered load, where the
per-direction loads are the spec-derived cross-rack subset — the same
quantity the DES's transit identity ``sum(ToRs) − spine`` measures from
counters.  Achieved throughput is capped by the bottleneck direction's
effective bandwidth.  Single-ToR estimates are untouched by the fabric
terms (no fabric → no adder, bare placement names), so pre-fabric outputs
stay byte-identical.

:func:`validate_fastpath` is the tolerance gate: for both pins it replays
the DES (``run_pinned``) and asks the steady model about the same spec,
so both sides see the same pinned run, and it checks the relative error
on achieved throughput, total wall power, and ops/W.  The test suite
holds the gate at :data:`DEFAULT_REL_TOL`; if a model or calibration
change pushes the analytic curves away from the DES, the gate — not a
silently wrong sweep — is what fails.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import calibration as cal
from ..errors import ConfigurationError
from ..floats import left_sum
from ..hw.device import get_device
from ..naming import rack_qualified, split_rack
from ..steady import grid as steady_grid_kernels
from ..steady.fabric import FabricUplinkModel
from ..steady.kvs import memcached_model
from ..steady.ondemand import device_hardware_model
from ..workloads.etc import ShardedEtcWorkload
from .spec import FabricSpec, KvsHostSpec, ScenarioSpec
from .sweep import _pinned_placements

#: Relative error the DES-vs-analytic gate tolerates per compared metric.
#: Short DES horizons carry warm-up and sampling noise; the analytic curve
#: is the infinite-horizon limit.
DEFAULT_REL_TOL = 0.15

_FASTPATH_MODES = ("software", "hardware")


def _rack_steady_shape(spec: ScenarioSpec) -> bool:
    """Rack-level preconditions shared by full and per-host eligibility
    of a spec as given: the pin-invariant shape of
    :func:`pinned_steady_eligible`, and no live centralized fabric
    controller (serving assignments could move mid-run).  Single-ToR
    racks and multi-rack fabrics both qualify (the fabric composes with
    the analytic uplink model of :mod:`repro.steady.fabric`)."""
    return spec.fabric_controller is None and pinned_steady_eligible(spec)


def pinned_steady_eligible(spec: ScenarioSpec) -> bool:
    """Can the steady model answer this spec's software and hardware
    pins, the runs ``run_pinned(spec, "software" | "hardware")`` replays?

    Only what a pin cannot change decides it: KVS hosts and nothing else,
    a rate-constant (phase-free) workload, and no ``served_by`` shard
    donation.  The pin strips controllers, co-located jobs and the
    fabric controller itself, so a grid point needs no pinned variant to
    be asked."""
    return _fleet_steady_shape(spec) and _hosts_steady_shape(spec.kvs_hosts)


def _not_eligible(spec: ScenarioSpec) -> ConfigurationError:
    return ConfigurationError(
        f"scenario {spec.name!r} is not steady-state eligible "
        "(see scenarios.fastpath.pinned_steady_eligible)"
    )


def _fleet_steady_shape(spec: ScenarioSpec) -> bool:
    """The spec-level half of :func:`pinned_steady_eligible`: KVS hosts
    and nothing else, a phase-free workload."""
    if not spec.kvs_hosts or spec.paxos_groups or spec.dns_hosts:
        return False
    workload = spec.kvs_workload
    return workload is not None and not workload.phases


def _hosts_steady_shape(hosts: Sequence[KvsHostSpec]) -> bool:
    """The host-level half of :func:`pinned_steady_eligible`: no
    ``served_by`` shard donation anywhere in the rack."""
    return all(host.served_by is None for host in hosts)


def host_steady_eligible(host) -> bool:
    """Can this one KVS host's run be answered analytically?  Nothing may
    change during the run: no controller that could shift the placement,
    no co-located job that could perturb its power draw."""
    return host.controller.kind == "none" and not host.colocated


def steady_eligible(spec: ScenarioSpec) -> bool:
    """Can this scenario's run, as given, be answered analytically?
    Nothing may change during it: on top of :func:`pinned_steady_eligible`,
    no live controller, co-located job or fabric controller."""
    return _rack_steady_shape(spec) and all(
        host_steady_eligible(host) for host in spec.kvs_hosts
    )


def split_steady(
    spec: ScenarioSpec,
) -> Tuple[Tuple[int, ...], Optional[ScenarioSpec]]:
    """Partition a scenario into analytically-answerable hosts and a
    residual DES sub-rack (per-placement fast-path eligibility).

    Returns ``(analytic_indices, residual)``:

    * ``((), spec)`` — nothing eligible (wrong rack shape, or every host
      can shift): run the full DES.
    * ``(all indices, None)`` — fully eligible: pure analytics.
    * ``(some indices, sub_rack)`` — the mixed case (``sweep-rack-hetero``
      style racks): answer the pinned/NIC-only hosts from the steady
      curves and DES-simulate only the shifting ones.  The residual spec
      keeps the full rack's shard space (``n_shards``/``shard_index``), so
      every surviving host samples, weighs, routes and preloads exactly as
      it would in the complete rack — its DES series are byte-identical to
      the full run's.
    """
    if not _rack_steady_shape(spec):
        return (), spec
    eligible = tuple(
        i for i, host in enumerate(spec.kvs_hosts) if host_steady_eligible(host)
    )
    if not eligible:
        return (), spec
    if len(eligible) == len(spec.kvs_hosts):
        return eligible, None
    if spec.fabric is not None:
        # no partial split on a fabric: eligible and residual hosts share
        # the uplink FIFO queues, so dropping the analytic hosts from the
        # residual DES would change the survivors' queueing delays — the
        # residual would NOT be byte-identical to the full run.  Fabric
        # fast-pathing is all-or-nothing.
        return (), spec
    n_shards = spec.kvs_workload.n_shards or len(spec.kvs_hosts)
    analytic = set(eligible)
    residual_hosts = tuple(
        dataclasses.replace(
            host,
            shard_index=(
                host.shard_index if host.shard_index is not None else i
            ),
        )
        for i, host in enumerate(spec.kvs_hosts)
        if i not in analytic
    )
    residual = dataclasses.replace(
        spec,
        name=f"{spec.name}[resid]",
        kvs_hosts=residual_hosts,
        kvs_workload=dataclasses.replace(spec.kvs_workload, n_shards=n_shards),
    )
    return eligible, residual


@dataclass
class SteadyEstimate:
    """The analytic stand-in for one pinned run's :class:`SweepAggregate`
    inputs (same fields the sweep reduction needs)."""

    mode: str
    offered_pps: float
    achieved_pps: float
    total_power_w: float
    p50_latency_us: float
    p99_latency_us: float
    ops_per_watt: float
    power_by_placement: Dict[str, float] = field(default_factory=dict)


@lru_cache(maxsize=256)
def _shard_weights(
    keyspace: int, n_shards: int, zipf_s: float
) -> Tuple[float, ...]:
    """Memoized Zipf shard split: every grid point of a sweep that shares
    (keyspace, shard count, skew) — an entire rate ramp, and every
    replicate seed of it (the split never reads the seed) — reuses one
    ranking pass instead of recomputing it per analytic evaluation."""
    sharded = ShardedEtcWorkload(
        keyspace=keyspace, n_shards=n_shards, zipf_s=zipf_s
    )
    return tuple(sharded.shard_weights())


def _per_host_rates(spec: ScenarioSpec) -> List[float]:
    """Offered pps per host: the sweep's Zipf shard-weight rate split.

    Honors ``n_shards``/``shard_index`` sub-racks: each host is weighed by
    its *own* shard of the full rack's shard space, so a residual sub-rack
    sees the same per-host rates as the complete scenario.
    """
    workload = spec.kvs_workload
    total_pps = workload.rate_kpps * 1e3
    hosts = spec.kvs_hosts
    n_shards = workload.n_shards or len(hosts)
    if n_shards == 1:
        return [total_pps]
    weights = _shard_weights(workload.keyspace, n_shards, workload.zipf_s)
    return [
        weights[host.shard_index if host.shard_index is not None else i]
        * total_pps
        for i, host in enumerate(hosts)
    ]


def _fabric_uplink_model(fabric: FabricSpec) -> FabricUplinkModel:
    """The declared fabric's analytic uplink parameters (shared by every
    ToR↔spine direction: the spec declares one :class:`UplinkSpec`)."""
    uplink = fabric.uplink
    return FabricUplinkModel(
        latency_us=uplink.latency_us,
        effective_bps=uplink.effective_bandwidth_bps(),
    )


def _host_racks(fabric: FabricSpec, host: KvsHostSpec) -> Tuple[str, str]:
    """``(host_rack, client_rack)`` of one placement.  The client rack is
    read off the (possibly rack-qualified) client name — a bare client
    name enters the fabric at its host's own ToR."""
    host_rack = fabric.rack_of(host)
    client_rack, _ = split_rack(host.resolved_client_name())
    return host_rack, client_rack or host_rack


def steady_point(
    spec: ScenarioSpec,
    mode: str,
    host_indices: Optional[Sequence[int]] = None,
) -> SteadyEstimate:
    """Analytic aggregate of ``run_pinned(spec, mode)``:
    :func:`steady_grid` over the one spec, which applies the pin itself
    (see there for ``host_indices`` and the fabric terms)."""
    return steady_grid([spec], mode, host_indices)[0]


@lru_cache(maxsize=128)
def _grid_host_constants(
    device_kind: str, is_offload: bool, power_save: bool, mode: str
) -> Tuple:
    """The scalar constants of one host's steady curve, flattened for the
    grid kernels and memoized per (device kind, mode): a sweep grid
    re-derives each model family once, not once per point.

    Returns ``("software", capacity, idle, span, alpha, poly_w, poly_exp,
    sub_w, add_w, base_latency_us)`` or ``("hardware", capacity, fixed_w,
    dyn_max_w, latency_us)``; ``fixed_w`` is host idle + the probed card
    draw (``power_at(0.0)``, exact — the dynamic term is +0.0 there).
    """
    software = memcached_model()
    if mode == "software" or not is_offload:
        sub_w = add_w = 0.0
        if is_offload and power_save:
            sub_w = cal.NIC_MELLANOX_CX311A_IDLE_W
            add_w = get_device(device_kind).standby_power_w("kvs")
        span = software.peak_w - software.idle_w - software.poly_w
        return (
            "software",
            software.capacity_pps,
            software.idle_w,
            span,
            software.alpha,
            software.poly_w,
            software.poly_exp,
            sub_w,
            add_w,
            software.base_latency_us(),
        )
    hardware = device_hardware_model("kvs", device_kind)
    return (
        "hardware",
        hardware.capacity_pps,
        hardware.power_at(0.0),
        hardware.card_dynamic_max_w,
        hardware.base_latency_us(),
    )


class _HostLayout(NamedTuple):
    """What :func:`steady_grid` needs of one pinned host tuple that its
    offered rates cannot change (see :func:`_host_layout`).  Positions
    count the selected hosts, in ``host_indices`` order."""

    #: placement keys (rack-qualified on a fabric), one per position
    keys: Tuple[str, ...]
    #: positions on the software curve, and their nine constant columns
    sw_pos: Tuple[int, ...]
    sw_columns: Tuple[Tuple[float, ...], ...]
    #: positions on a card's line, and their four constant columns
    hw_pos: Tuple[int, ...]
    hw_columns: Tuple[Tuple[float, ...], ...]
    #: one fabric's uplink records per spec: ``up[r]`` then ``down[r]``
    #: for each of its racks ``r`` (0 off a fabric), and the
    #: ``(latency_us, serialization_us, capacity_pps)`` every direction
    #: shares (None off a fabric)
    n_links: int
    uplink: Optional[Tuple[float, float, float]]
    #: every cross-rack host of the **fleet** (the FIFO uplinks queue
    #: everyone's packets, so the loads cover the whole fleet): ``(host
    #: index, request up, request down, response up, response down)``,
    #: the last four as link records
    fleet_cross: Tuple[Tuple[int, int, int, int, int], ...]
    #: the selected cross-rack hosts, likewise but by position
    cross: Tuple[Tuple[int, int, int, int, int], ...]


@lru_cache(maxsize=128)
def _host_layout(
    kvs_hosts: Tuple[KvsHostSpec, ...],
    fabric: Optional[FabricSpec],
    mode: str,
    host_indices: Optional[Tuple[int, ...]],
) -> _HostLayout:
    """The rate-independent part of :func:`steady_grid`'s host records
    for one pinned host tuple, memoized by value per (hosts, fabric,
    mode, host subset): every rate of a ramp group declares the same
    hosts, so a grid builds one layout per ramp group and pin instead of
    one per point."""
    indices = range(len(kvs_hosts)) if host_indices is None else host_indices
    # the four link records each cross-rack host's traversals cross —
    # request: client-rack up, host-rack down; response: host-rack up,
    # client-rack down — keyed by host index over the whole fleet
    terms: Dict[int, Tuple[int, int, int, int]] = {}
    n_links = 0
    uplink = None
    if fabric is not None:
        racks = [_host_racks(fabric, host) for host in kvs_hosts]
        rack_index = {rack: r for r, rack in enumerate(fabric.rack_names())}
        n_links = 2 * len(rack_index)
        down = len(rack_index)  # offset of the down records
        for i, (host_rack, client_rack) in enumerate(racks):
            if client_rack != host_rack:
                h, c = rack_index[host_rack], rack_index[client_rack]
                terms[i] = (c, down + h, h, down + c)
        model = _fabric_uplink_model(fabric)
        uplink = (model.latency_us, model.serialization_us, model.capacity_pps)
    keys: List[str] = []
    sw_pos: List[int] = []
    hw_pos: List[int] = []
    sw_columns: List[List[float]] = [[] for _ in range(9)]
    hw_columns: List[List[float]] = [[] for _ in range(4)]
    cross: List[Tuple[int, int, int, int, int]] = []
    for pos, i in enumerate(indices):
        host = kvs_hosts[i]
        constants = _grid_host_constants(
            host.device.kind, host.device.is_offload, host.power_save, mode
        )
        if constants[0] == "software":
            sw_pos.append(pos)
            columns = sw_columns
        else:
            hw_pos.append(pos)
            columns = hw_columns
        for column, value in zip(columns, constants[1:]):
            column.append(value)
        if fabric is None:
            keys.append(host.name)
            continue
        keys.append(rack_qualified(racks[i][0], host.name))
        if i in terms:
            cross.append((pos, *terms[i]))
    return _HostLayout(
        keys=tuple(keys),
        sw_pos=tuple(sw_pos),
        sw_columns=tuple(map(tuple, sw_columns)),
        hw_pos=tuple(hw_pos),
        hw_columns=tuple(map(tuple, hw_columns)),
        n_links=n_links,
        uplink=uplink,
        fleet_cross=tuple((i, *offsets) for i, offsets in terms.items()),
        cross=tuple(cross),
    )


def steady_grid(
    specs: Sequence[ScenarioSpec],
    mode: str,
    host_indices: Optional[Sequence[int]] = None,
) -> List[SteadyEstimate]:
    """The steady model: one pass over many specs (a sweep grid's points)
    for one pin, answering for each spec the run ``run_pinned(spec,
    mode)`` would replay.

    The pin is applied here, through the memoized placement pin the DES
    variants use (:func:`~repro.scenarios.sweep._pinned_placements`), once
    per distinct host tuple object per call: a ramp group's points share
    one host tuple, so the call pins it once.  Pinning is idempotent, so
    an already pinned spec gets the same answer.  A spec the pin cannot
    make steady (:func:`pinned_steady_eligible`) raises
    :class:`ConfigurationError`.

    The grid is flattened into struct-of-arrays host records — offered
    rate plus the memoized per-device model constants — and evaluated
    through the kernels of :mod:`repro.steady.grid`.  The M/D/1 uplink
    crossing and throughput cap are evaluated once per (spec, rack,
    direction), not once per cross-rack host and traversal: each
    cross-rack host then gathers its four traversals from those records.
    Per-spec reductions (achieved sum, wall-power sum, the
    served-weighted p50) stay in host order, so a spec's estimate does
    not depend on the batch it was answered in.

    Everything about a spec's pinned hosts that its offered rates cannot
    change — each host's model constants, placement keys, host and client
    racks, the software/hardware positions and their constant columns,
    the uplink records each cross-rack host reads — comes from
    :func:`_host_layout`, an LRU of 128 layouts keyed by value on (pinned
    ``kvs_hosts``, ``fabric``, ``mode``, ``host_indices``) and emptied by
    :func:`~repro.scenarios.sweep.clear_spec_cache`.  Per spec, only the
    rate split and the uplink direction loads are computed.

    ``host_indices`` restricts every estimate to a subset of its rack's
    hosts (the per-placement fast path: analytics for the hosts of a
    mixed rack that cannot shift while the shifting ones run DES; the
    software pin leaves those hosts as they are).  Rates always come
    from the **full** rack's shard split, so the subset estimate composes
    exactly with the residual sub-rack's DES aggregate.

    On a fabric spec, placement keys are rack-qualified (matching the
    builder's ``power_by_placement`` spelling) and every cross-rack host
    additionally pays the four-traversal analytic uplink adder on latency
    plus the bottleneck direction's throughput cap — see
    :mod:`repro.steady.fabric` for the model and its validity envelope.
    """
    if mode not in _FASTPATH_MODES:
        raise ConfigurationError(
            f"fast path answers {', '.join(_FASTPATH_MODES)}; got {mode!r}"
        )
    indices = None if host_indices is None else tuple(host_indices)
    # -- flatten: one record per (spec, host) --------------------------------
    flat_rate: List[float] = []
    sw_slots: List[int] = []
    hw_slots: List[int] = []
    sw_const: List[List[float]] = [[] for _ in range(9)]
    hw_const: List[List[float]] = [[] for _ in range(4)]
    # uplink-direction records: per fabric spec with a cross-rack host,
    # up[r] then down[r] for every rack r, with the spec's uplink
    link_load: List[float] = []
    link_lat: List[float] = []
    link_ser: List[float] = []
    link_cap: List[float] = []
    spans = []  # per spec: (slot_lo, record_lo, layout)
    # a ramp group's points share one host tuple object, so this call
    # pins and hashes each tuple once, not once per spec
    layouts: Dict[Tuple[int, Optional[FabricSpec]], _HostLayout] = {}
    for spec in specs:
        layout = None
        if _fleet_steady_shape(spec):
            ident = (id(spec.kvs_hosts), spec.fabric)
            layout = layouts.get(ident)
            if layout is None and _hosts_steady_shape(spec.kvs_hosts):
                pinned, _, _ = _pinned_placements(
                    spec.kvs_hosts, (), (), mode == "hardware"
                )
                layout = layouts[ident] = _host_layout(
                    pinned, spec.fabric, mode, indices
                )
        if layout is None:
            raise _not_eligible(spec)
        rates = _per_host_rates(spec)
        slot_lo = len(flat_rate)
        flat_rate.extend(
            rates if indices is None else [rates[i] for i in indices]
        )
        sw_slots.extend([slot_lo + pos for pos in layout.sw_pos])
        for column, block in zip(sw_const, layout.sw_columns):
            column.extend(block)
        hw_slots.extend([slot_lo + pos for pos in layout.hw_pos])
        for column, block in zip(hw_const, layout.hw_columns):
            column.extend(block)
        record_lo = len(link_load)
        if layout.cross:
            # each direction's offered load, summed in host order
            loads = [0.0] * layout.n_links
            for i, up_c, down_h, up_h, down_c in layout.fleet_cross:
                rate = rates[i]
                loads[up_c] += rate    # requests leave the client's rack
                loads[down_h] += rate  # ...and enter the host's rack
                loads[up_h] += rate    # responses leave the host's rack
                loads[down_c] += rate  # ...and return to the client's rack
            link_load.extend(loads)
            latency_us, serialization_us, capacity_pps = layout.uplink
            link_lat.extend([latency_us] * layout.n_links)
            link_ser.extend([serialization_us] * layout.n_links)
            link_cap.extend([capacity_pps] * layout.n_links)
        spans.append((slot_lo, record_lo, layout))
    # -- evaluate the flattened records through the grid kernels -------------
    n = len(flat_rate)
    power = [0.0] * n
    served = [0.0] * n
    latency = [0.0] * n
    if sw_slots:
        sw_rate = [flat_rate[s] for s in sw_slots]
        capacity = sw_const[0]
        for slot, value in zip(
            sw_slots, steady_grid_kernels.software_power(sw_rate, *sw_const[:8])
        ):
            power[slot] = value
        for slot, value in zip(
            sw_slots, steady_grid_kernels.served_pps(sw_rate, capacity)
        ):
            served[slot] = value
        for slot, value in zip(
            sw_slots,
            steady_grid_kernels.software_latency(sw_rate, capacity, sw_const[8]),
        ):
            latency[slot] = value
    if hw_slots:
        hw_rate = [flat_rate[s] for s in hw_slots]
        capacity = hw_const[0]
        for slot, value in zip(
            hw_slots,
            steady_grid_kernels.hardware_power(
                hw_rate, capacity, hw_const[1], hw_const[2]
            ),
        ):
            power[slot] = value
        for slot, value in zip(
            hw_slots, steady_grid_kernels.served_pps(hw_rate, capacity)
        ):
            served[slot] = value
        for slot, base in zip(hw_slots, hw_const[3]):
            latency[slot] = base  # fully pipelined: flat with load (§9.5)
    # each uplink direction is evaluated once, however many hosts cross it
    crossing = steady_grid_kernels.crossing_us(link_load, link_lat, link_ser)
    factor = steady_grid_kernels.throughput_factor(link_load, link_cap)
    # -- per spec: cross-rack traversals, then reductions in host order ------
    estimates = []
    for slot_lo, record_lo, layout in spans:
        if layout.cross:
            # a cross-rack host's four traversals, each at its own
            # direction's load; the adder and the bottleneck cap compose
            # in the scalar path's exact order
            record_hi = record_lo + layout.n_links
            c = crossing[record_lo:record_hi]
            f = factor[record_lo:record_hi]
            for pos, up_c, down_h, up_h, down_c in layout.cross:
                slot = slot_lo + pos
                latency[slot] = latency[slot] + (
                    ((c[up_c] + c[down_h]) + c[up_h]) + c[down_c]
                )
                served[slot] = served[slot] * min(
                    f[up_c], f[down_h], f[up_h], f[down_c]
                )
        keys = layout.keys
        slot_hi = slot_lo + len(keys)
        spec_served = served[slot_lo:slot_hi]
        achieved = left_sum(spec_served)
        power_by_placement = dict(zip(keys, power[slot_lo:slot_hi]))
        total_power = left_sum(power_by_placement.values())
        p50 = left_sum(
            map(operator.mul, spec_served, latency[slot_lo:slot_hi])
        ) / (achieved or 1.0)
        estimates.append(
            SteadyEstimate(
                mode=mode,
                offered_pps=left_sum(flat_rate[slot_lo:slot_hi]),
                achieved_pps=achieved,
                total_power_w=total_power,
                p50_latency_us=p50,
                p99_latency_us=p50,  # steady curves model medians only
                ops_per_watt=achieved / total_power if total_power > 0 else 0.0,
                power_by_placement=power_by_placement,
            )
        )
    return estimates


@dataclass
class FastPathGate:
    """One mode's DES-vs-analytic comparison."""

    mode: str
    des_achieved_pps: float
    analytic_achieved_pps: float
    des_power_w: float
    analytic_power_w: float
    rel_tol: float

    @property
    def achieved_rel_err(self) -> float:
        return _rel_err(self.analytic_achieved_pps, self.des_achieved_pps)

    @property
    def power_rel_err(self) -> float:
        return _rel_err(self.analytic_power_w, self.des_power_w)

    @property
    def ops_per_watt_rel_err(self) -> float:
        des = self.des_achieved_pps / self.des_power_w
        analytic = self.analytic_achieved_pps / self.analytic_power_w
        return _rel_err(analytic, des)

    @property
    def ok(self) -> bool:
        return (
            self.achieved_rel_err <= self.rel_tol
            and self.power_rel_err <= self.rel_tol
            and self.ops_per_watt_rel_err <= self.rel_tol
        )


def _rel_err(estimate: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if estimate == 0.0 else float("inf")
    return abs(estimate - reference) / abs(reference)


def validate_fastpath(
    spec: ScenarioSpec, rel_tol: float = DEFAULT_REL_TOL
) -> List[FastPathGate]:
    """The tolerance gate: for both pins, replay ``run_pinned(spec,
    mode)`` and ask the steady model about the same spec, then report the
    relative errors.  Both sides pin the spec themselves, so a grid
    point's own spec and its pinned variants give the same gates.  Raises
    before any replay if the pins are not eligible
    (:func:`pinned_steady_eligible`); the caller (tests, a cautious sweep
    user) asserts ``all(g.ok for g in ...)``.
    """
    # local import: sweep imports this module for run_sweep(fastpath=True)
    from .sweep import _aggregate, run_pinned

    if not pinned_steady_eligible(spec):
        raise _not_eligible(spec)
    gates = []
    for mode in _FASTPATH_MODES:
        run, result = run_pinned(spec, mode)
        des = _aggregate(run, result, mode)
        analytic = steady_point(spec, mode)
        gates.append(
            FastPathGate(
                mode=mode,
                des_achieved_pps=des.achieved_pps,
                analytic_achieved_pps=analytic.achieved_pps,
                des_power_w=des.total_power_w,
                analytic_power_w=analytic.total_power_w,
                rel_tol=rel_tol,
            )
        )
    return gates
