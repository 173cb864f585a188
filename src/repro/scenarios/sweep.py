"""Scenario sweep engine — the §9.4 rack-scale tipping-point charts.

The paper's core claim is that in-network computing pays off only beyond a
per-application crossover rate; §9.4 asks where that crossover lands at
*rack scale*.  A :class:`~repro.scenarios.spec.ScenarioSweepSpec` names a
registered scenario and a grid of factory parameters (host count, per-host
offered rate, Paxos group count, …); :func:`run_sweep` materializes every
grid point through :class:`ScenarioBuilder` **twice** — once pinned to
software (controllers stripped, cards in the §9.2 standby configuration)
and once pinned to hardware (every placement shifted into the network at
t=0) — and reduces each run into a :class:`SweepAggregate`: achieved rate,
total rack **wall** power, p50/p99 latency, ops/W, and the per-placement
power attribution of :meth:`ScenarioResult.power_by_placement`.

The tipping point of a sweep is, for each setting of the non-ramp axes,
the first value of the ramp axis where the hardware-pinned rack beats the
software-pinned rack on ops/W — the rack-scale generalization of the §8
crossover (``repro.steady.base.find_crossover``) from analytic curves to
measured DES runs.

Named sweeps live in the registry here (``sweep-rack-kvs``,
``sweep-rack-mixed``); run one with ``python -m repro --sweep <name>`` or
:func:`run_sweep`.
"""

from __future__ import annotations

import atexit
import dataclasses
import gc
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import ConfigurationError, ExecutorError
from ..sim.recorder import percentiles
from .registry import _REGISTRY, resolve_factory
from .spec import (
    NO_CONTROLLER,
    ControllerSpec,
    DnsHostSpec,
    KvsHostSpec,
    PaxosSpec,
    ScenarioSpec,
    ScenarioSweepSpec,
    SweepAxis,
)

if TYPE_CHECKING:
    from .builder import ScenarioResult, ScenarioRun

# ---------------------------------------------------------------------------
# Pinned scenario variants.
# ---------------------------------------------------------------------------


def software_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The sweep's software baseline: every placement stays on the host.

    Controllers are stripped (nothing may shift), co-located jobs are
    dropped (they exist to *trigger* controllers, and their CPU draw would
    pollute the power comparison), and ``power_save=True`` holds each card
    in the §9.2 standby configuration — the software phase of an on-demand
    rack, which is the baseline the paper's Figure 5 "SW + idle card"
    comparison uses.
    """
    return _pinned(spec, hardware=False)


def hardware_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The sweep's hardware run: every placement in the network from the
    first instant (``start_in_hardware``, applied by the builder before
    instrumentation, so even the t=0 power sample sees the active cards;
    caches start cold — warm-up is part of what the sweep measures).

    A NIC-only host (device ``none``) has nothing to pin *to*: it keeps
    running software even in the hardware run — exactly the §9.4 question
    "which hosts in a mixed rack should even have a card".
    """
    return _pinned(spec, hardware=True)


def ondemand_variant(spec: ScenarioSpec) -> ScenarioSpec:
    """The third pin: the scenario's *declared* on-demand controllers run
    live at the grid point, between the two static brackets.

    Placements start in software with cards in the §9.2 standby
    configuration (``power_save=True``) and shift — or don't — on their
    own controllers' triggers.  Co-located jobs are dropped for
    comparability with the pinned runs (their CPU draw would pollute the
    power comparison), so a host-driven controller without its job trigger
    may honestly never shift; the rate-driven families react to the grid
    point's offered rate.
    """
    kvs_hosts = tuple(
        dataclasses.replace(
            host, colocated=(), power_save=True, start_in_hardware=False
        )
        for host in spec.kvs_hosts
    )
    dns_hosts = tuple(
        dataclasses.replace(host, power_save=True, start_in_hardware=False)
        for host in spec.dns_hosts
    )
    paxos_groups = tuple(
        dataclasses.replace(group, start_in_hardware=False)
        for group in spec.paxos_groups
    )
    # the scenario-level fabric controller (if any) stays live: it is an
    # on-demand drive like the per-host controllers
    return dataclasses.replace(
        spec,
        name=f"{spec.name}[od]",
        kvs_hosts=kvs_hosts,
        dns_hosts=dns_hosts,
        paxos_groups=paxos_groups,
    )


def _pinned(spec: ScenarioSpec, hardware: bool) -> ScenarioSpec:
    suffix = "hw" if hardware else "sw"
    kvs_hosts, dns_hosts, paxos_groups = _pinned_placements(
        spec.kvs_hosts, spec.dns_hosts, spec.paxos_groups, hardware
    )
    # a pinned rack must stay pinned: the centralized fabric controller
    # is stripped along with the per-host controllers
    return dataclasses.replace(
        spec,
        name=f"{spec.name}[{suffix}]",
        kvs_hosts=kvs_hosts,
        dns_hosts=dns_hosts,
        paxos_groups=paxos_groups,
        fabric_controller=None,
    )


@lru_cache(maxsize=128)
def _pinned_placements(
    kvs_hosts: Tuple[KvsHostSpec, ...],
    dns_hosts: Tuple[DnsHostSpec, ...],
    paxos_groups: Tuple[PaxosSpec, ...],
    hardware: bool,
) -> Tuple[
    Tuple[KvsHostSpec, ...], Tuple[DnsHostSpec, ...], Tuple[PaxosSpec, ...]
]:
    """One pin's placements, memoized by value: every rate of a ramp
    group declares the same placements, so a sweep pins them once per
    ramp group instead of once per grid point.  Specs are frozen, so
    sharing the pinned tuples between points is safe."""
    kvs_hosts = tuple(
        dataclasses.replace(
            host,
            controller=NO_CONTROLLER,
            colocated=(),
            power_save=True,
            # a NIC-only host can never shift; its "hardware" pin is the
            # software placement it is stuck with
            start_in_hardware=hardware and host.device.is_offload,
        )
        for host in kvs_hosts
    )
    dns_hosts = tuple(
        dataclasses.replace(
            host,
            controller=NO_CONTROLLER,
            power_save=True,
            start_in_hardware=hardware and host.device.is_offload,
        )
        for host in dns_hosts
    )
    paxos_groups = tuple(
        dataclasses.replace(
            group,
            controller=ControllerSpec(kind="schedule"),
            shifts=(),
            start_in_hardware=hardware,
        )
        for group in paxos_groups
    )
    return kvs_hosts, dns_hosts, paxos_groups


# ---------------------------------------------------------------------------
# Per-point aggregates.
# ---------------------------------------------------------------------------


@dataclass
class SweepAggregate:
    """One pinned run reduced to the numbers the tipping chart needs.

    ``achieved_pps`` counts every operation the rack completed — KVS/DNS
    responses *plus* Paxos decisions (they are the ops of ops/W) —
    while ``offered_pps`` covers only the open-loop KVS/DNS clients;
    Paxos clients are closed-loop and offer no fixed rate, so
    ``achieved/offered`` is not a goodput ratio on mixed racks.
    """

    mode: str  # "software" | "hardware"
    offered_pps: float
    achieved_pps: float
    total_power_w: float
    p50_latency_us: float
    p99_latency_us: float
    ops_per_watt: float
    #: mean wall watts per placement (KVS host / DNS replica / Paxos group)
    power_by_placement: Dict[str, float] = field(default_factory=dict)

    @property
    def attributed_power_w(self) -> float:
        return sum(self.power_by_placement.values())


@dataclass
class SweepPointResult:
    """The pinned runs of one grid point: the software/hardware brackets
    plus the live on-demand controllers between them."""

    params: Dict[str, object]
    software: SweepAggregate
    hardware: SweepAggregate
    ondemand: Optional[SweepAggregate] = None
    #: True when the aggregates are analytic steady-state estimates filled
    #: in by the adaptive search rather than a DES replay of this point
    estimated: bool = False

    @property
    def hardware_wins(self) -> bool:
        """Does the hardware-pinned rack beat software on ops/W here?"""
        return self.hardware.ops_per_watt > self.software.ops_per_watt


@dataclass
class TippingPoint:
    """The crossover along the ramp axis for one setting of the others."""

    fixed: Dict[str, object]
    axis: str
    crossover: Optional[object]
    sw_ops_per_watt: Optional[float] = None
    hw_ops_per_watt: Optional[float] = None
    #: what the declared on-demand controllers achieved at the crossover
    #: point (between the two pins, when they react in time)
    od_ops_per_watt: Optional[float] = None
    #: once hardware wins, does it keep winning for every later ramp value?
    monotone: bool = True


#: The footnote under a point table whose ``~`` cells are estimates.
_ESTIMATE_NOTE = (
    "~ analytic steady-state estimate (adaptive search; "
    "point not DES-replayed)"
)


@dataclass
class ScenarioSweepResult:
    """Every grid point of a sweep, plus the tipping-point reduction.

    ``search`` records how the grid was evaluated: ``"exhaustive"`` (every
    point through its configured path) or ``"adaptive"`` (DES only at the
    bracketed crossovers, analytic aggregates elsewhere).
    ``des_points_run`` counts the grid points whose pinned brackets
    replayed the DES — the savings counter ``des_points_run /
    grid_points_total`` the adaptive mode reports.
    """

    spec: ScenarioSweepSpec
    points: List[SweepPointResult]
    search: str = "exhaustive"
    des_points_run: Optional[int] = None

    @property
    def grid_points_total(self) -> int:
        return len(self.points)

    def point(self, **params) -> SweepPointResult:
        for pt in self.points:
            if all(pt.params.get(k) == v for k, v in params.items()):
                return pt
        raise KeyError(params)

    def tipping_points(self) -> List[TippingPoint]:
        """One crossover scan per setting of the non-ramp axes, in ramp
        order (:meth:`ScenarioSweepSpec.ramp_groups`).

        Points flagged ``estimated`` do not vote: the scan sees only the
        measured points.  On an adaptive result that is exactly the
        search's DES-confirmed row — no DES win precedes the crossover, a
        DES loss sits right before it, and a later DES loss would have
        sent the group to a full replay.
        """
        axis = self.spec.resolved_tip_axis()
        pts = self.points
        return [
            _scan_tipping_group(
                fixed, axis, [pts[i] for i in indices if not pts[i].estimated]
            )
            for fixed, indices in self.spec.ramp_groups()
        ]

    # -- reporting -----------------------------------------------------------

    def render(self) -> str:
        from ..experiments.reporting import format_table

        axis_params = [a.param for a in self.spec.axes]
        with_od = any(pt.ondemand is not None for pt in self.points)
        pins = "3 pinned placements" if with_od else "2 pinned placements"
        lines = [
            f"Sweep: {self.spec.name} over {self.spec.base!r} — "
            f"{len(self.points)} points × {pins}",
        ]
        headers = axis_params + [
            "sw kpps", "sw W", "sw ops/W",
            "hw kpps", "hw W", "hw ops/W",
        ]
        if with_od:
            headers += ["od kpps", "od W", "od ops/W"]
        headers += ["winner"]
        rows = []
        for pt in self.points:
            row = [pt.params[p] for p in axis_params] + [
                pt.software.achieved_pps / 1e3,
                pt.software.total_power_w,
                pt.software.ops_per_watt,
                pt.hardware.achieved_pps / 1e3,
                pt.hardware.total_power_w,
                pt.hardware.ops_per_watt,
            ]
            if with_od:
                row += (
                    [
                        pt.ondemand.achieved_pps / 1e3,
                        pt.ondemand.total_power_w,
                        pt.ondemand.ops_per_watt,
                    ]
                    if pt.ondemand is not None
                    else ["-", "-", "-"]
                )
            winner = "hardware" if pt.hardware_wins else "software"
            if pt.estimated:
                winner = "~" + winner
            row += [winner]
            rows.append(row)
        lines.append(format_table(headers, rows))
        if any(pt.estimated for pt in self.points):
            lines.append(_ESTIMATE_NOTE)
        lines.append("")
        axis = self.spec.resolved_tip_axis()
        lines.append(
            f"Tipping points: first {axis} where the hardware rack wins on ops/W"
        )
        other_params = [p for p in axis_params if p != axis]
        tip_headers = (other_params or ["rack"]) + [
            f"crossover {axis}", "sw ops/W @ tip", "hw ops/W @ tip",
        ]
        if with_od:
            tip_headers += ["ondemand ops/W @ tip"]
        tip_headers += ["monotone"]
        tip_rows = []
        for tip in self.tipping_points():
            prefix = (
                [tip.fixed[p] for p in other_params] if other_params else ["(all)"]
            )
            row = prefix + [
                tip.crossover if tip.crossover is not None else "-",
                tip.sw_ops_per_watt if tip.sw_ops_per_watt is not None else "-",
                tip.hw_ops_per_watt if tip.hw_ops_per_watt is not None else "-",
            ]
            if with_od:
                row += [
                    tip.od_ops_per_watt
                    if tip.od_ops_per_watt is not None
                    else "-"
                ]
            row += ["yes" if tip.monotone else "NO"]
            tip_rows.append(row)
        lines.append(format_table(tip_headers, tip_rows))
        last = self.points[-1]
        attribution = ", ".join(
            f"{name}={watts:.1f}W"
            for name, watts in last.hardware.power_by_placement.items()
        )
        lines.append("")
        lines.append(
            "per-placement wall power at the last point (hardware-pinned): "
            + attribution
        )
        if self.search == "adaptive" and self.des_points_run is not None:
            # exhaustive renders predate the counter and are golden-pinned
            total = self.grid_points_total
            saved = total - self.des_points_run
            lines.append(
                f"{self.search} search: DES on {self.des_points_run}/{total} "
                f"grid points ({saved} answered analytically)"
            )
        return "\n".join(lines)

    def save_png(self, path):
        """Render the crossover chart to ``path`` (requires matplotlib;
        text :meth:`render` stays the dependency-free contract)."""
        from ..experiments.plots import save_sweep_png

        return save_sweep_png(self, path)


# ---------------------------------------------------------------------------
# Execution.
# ---------------------------------------------------------------------------


_VARIANTS = {
    "software": software_variant,
    "hardware": hardware_variant,
    "ondemand": ondemand_variant,
}


def run_pinned(spec: ScenarioSpec, mode: str) -> Tuple[ScenarioRun, ScenarioResult]:
    """Build and execute one variant ("software" | "hardware" |
    "ondemand") of a scenario point."""
    variant_fn = _VARIANTS.get(mode)
    if variant_fn is None:
        raise ConfigurationError(
            f"unknown pin mode {mode!r}; choose {', '.join(sorted(_VARIANTS))}"
        )
    from .builder import ScenarioBuilder

    run = ScenarioBuilder(variant_fn(spec)).build()
    return run, run.execute()


def _aggregate(run: ScenarioRun, result: ScenarioResult, mode: str) -> SweepAggregate:
    # every placement serves: client replies, or a group's decisions
    achieved_pps = sum(p.responses for p in result.placements) / (
        result.duration_us / 1e6
    )
    latencies: List[float] = []
    for placement in run.placements:
        for client in placement.clients:
            latencies.extend(client.latency_series.values)
    total_power_w = result.total_wall_power_w
    if total_power_w <= 0.0 and achieved_pps > 0.0:
        # mirror experiments.sweep.sweep_model: a rack serving traffic on
        # zero watts is a misconfigured model, not infinite efficiency
        raise ConfigurationError(
            f"scenario {result.name!r} reports non-positive wall power "
            f"({total_power_w}W) while serving {achieved_pps:.0f} pps"
        )
    p50, p99 = percentiles(latencies, (50.0, 99.0)) if latencies else (0.0, 0.0)
    return SweepAggregate(
        mode=mode,
        offered_pps=result.offered_pps,
        achieved_pps=achieved_pps,
        total_power_w=total_power_w,
        p50_latency_us=p50,
        p99_latency_us=p99,
        ops_per_watt=achieved_pps / total_power_w if total_power_w > 0 else 0.0,
        power_by_placement=dict(result.power_by_placement),
    )


def spec_hash(base: str, overrides: Dict[str, object]) -> str:
    """Stable hash of one grid point's materialization inputs: the base
    scenario name plus its full override set (sweep ``fixed`` + point
    params, key-sorted).  Override values are the primitives a sweep axis
    can carry (numbers, strings, tuples), whose ``repr`` is stable within
    a process — and the cache this keys is per-process anyway."""
    payload = repr(
        (base, sorted(overrides.items(), key=lambda item: item[0]))
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: Materialized-spec cache.  It hits when the adaptive search's analytic
#: pass plans the grid points :func:`_adapt` has just materialized, when
#: :func:`sweep_fastpath_eligibility` has materialized a grid before it
#: runs, and when the same sweep runs again in one process.  Replicate
#: seeds never share an entry (each seed is its own ``seed`` override),
#: and pool workers never look here: each task carries its spec.  Specs
#: are frozen dataclasses, so handing the same instance out repeatedly is
#: safe.  Entries pin the factory that built them — a re-registered
#: scenario name misses instead of serving a stale spec.
_SPEC_CACHE: "OrderedDict[Tuple[str, str], Tuple[Callable, ScenarioSpec]]" = (
    OrderedDict()
)
_SPEC_CACHE_MAX = 512
_spec_cache_hits = 0
_spec_cache_misses = 0


def spec_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the materialization cache (diagnostics)."""
    return {
        "hits": _spec_cache_hits,
        "misses": _spec_cache_misses,
        "size": len(_SPEC_CACHE),
    }


def clear_spec_cache() -> None:
    """Drop every cached materialized spec (and reset the counters), and
    empty the by-value memos of pinned placements and steady host
    layouts."""
    from .fastpath import _host_layout

    global _spec_cache_hits, _spec_cache_misses
    _SPEC_CACHE.clear()
    _pinned_placements.cache_clear()
    _host_layout.cache_clear()
    _spec_cache_hits = 0
    _spec_cache_misses = 0


def _materialize(sweep: ScenarioSweepSpec, params: Dict[str, object]) -> ScenarioSpec:
    global _spec_cache_hits, _spec_cache_misses
    overrides = {**sweep.fixed_dict(), **params}
    factory = resolve_factory(_REGISTRY, sweep.base, "scenario")
    key = (sweep.base, spec_hash(sweep.base, overrides))
    entry = _SPEC_CACHE.get(key)
    if entry is not None and entry[0] is factory:
        _spec_cache_hits += 1
        _SPEC_CACHE.move_to_end(key)
        return entry[1]
    _spec_cache_misses += 1
    try:
        spec = factory(**overrides)
    except TypeError as exc:
        raise ConfigurationError(
            f"sweep {sweep.name!r}: scenario factory {sweep.base!r} rejected "
            f"overrides {sorted(overrides)} ({exc})"
        ) from None
    _SPEC_CACHE[key] = (factory, spec)
    while len(_SPEC_CACHE) > _SPEC_CACHE_MAX:
        _SPEC_CACHE.popitem(last=False)
    return spec


def _estimate_aggregate(est, mode: str) -> SweepAggregate:
    """Shape a :class:`SteadyEstimate` into the sweep's aggregate record."""
    return SweepAggregate(
        mode=mode,
        offered_pps=est.offered_pps,
        achieved_pps=est.achieved_pps,
        total_power_w=est.total_power_w,
        p50_latency_us=est.p50_latency_us,
        p99_latency_us=est.p99_latency_us,
        ops_per_watt=est.ops_per_watt,
        power_by_placement=dict(est.power_by_placement),
    )


def _as_ondemand(software: SweepAggregate) -> SweepAggregate:
    """The on-demand column of a point where nothing can shift: the
    on-demand run *is* the software run, so it is never re-run."""
    return dataclasses.replace(
        software,
        mode="ondemand",
        power_by_placement=dict(software.power_by_placement),
    )


def _hybrid_ondemand_aggregate(
    od_spec: ScenarioSpec,
    analytic_indices: Tuple[int, ...],
    residual: ScenarioSpec,
) -> SweepAggregate:
    """Per-placement fast path for the on-demand pin of a mixed rack.

    Hosts that cannot shift (NIC-only, or declared with no controller) sit
    in the software placement for the whole run, so the steady curves
    answer them; only the shifting hosts run DES — as a residual sub-rack
    that keeps the full rack's shard space, so their series are the ones
    the full DES would have produced.  The two halves add: rates and watts
    sum, latency percentiles merge achieved-weighted.
    """
    from .builder import ScenarioBuilder
    from .fastpath import steady_point

    est = steady_point(od_spec, "software", host_indices=analytic_indices)
    run = ScenarioBuilder(residual).build()
    result = run.execute()
    des = _aggregate(run, result, "ondemand")
    achieved = est.achieved_pps + des.achieved_pps
    total_power = est.total_power_w + des.total_power_w
    total = achieved or 1.0
    p50 = (
        est.p50_latency_us * est.achieved_pps
        + des.p50_latency_us * des.achieved_pps
    ) / total
    p99 = (
        est.p99_latency_us * est.achieved_pps
        + des.p99_latency_us * des.achieved_pps
    ) / total
    return SweepAggregate(
        mode="ondemand",
        offered_pps=est.offered_pps + des.offered_pps,
        achieved_pps=achieved,
        total_power_w=total_power,
        p50_latency_us=p50,
        p99_latency_us=p99,
        ops_per_watt=achieved / total_power if total_power > 0 else 0.0,
        power_by_placement={
            **est.power_by_placement,
            **des.power_by_placement,
        },
    )


# ---------------------------------------------------------------------------
# The plan: one pinned evaluation per (replicate, grid point, pin).
# ---------------------------------------------------------------------------

#: The pins the steady curves can answer: the on-demand pin's live
#: controllers are not rate-constant.
_STATIC_PINS = ("software", "hardware")


class PinTask(NamedTuple):
    """One pinned evaluation of a sweep plan.

    ``key`` is ``(replicate, grid point index)``.  ``evaluator`` says what
    answers the pin: ``"analytic"`` (the steady curves), ``"des"`` (a full
    replay) or ``"hybrid"`` (the on-demand pin of a mixed rack: analytic
    hosts plus a residual DES sub-rack).  ``scenario`` is always the grid
    point's one materialization, which every pin of the point shares: the
    evaluator applies the pin (:func:`run_pinned` for a replay,
    :func:`~repro.scenarios.fastpath.steady_grid` for the steady curves).
    """

    key: Tuple[int, int]
    params: Dict[str, object]
    mode: str
    evaluator: str
    scenario: ScenarioSpec


def _pin_tasks(
    key: Tuple[int, int],
    params: Dict[str, object],
    scenario: ScenarioSpec,
    analytic: bool = False,
) -> List[PinTask]:
    """The pins of one grid point.  ``analytic`` says the steady curves
    answer its static pins, else each replays the DES.  The on-demand pin
    exists only when something can shift; on an analytic point whose rack
    splits (:func:`~repro.scenarios.fastpath.split_steady`) it is a
    hybrid, else a full DES replay."""
    from .fastpath import split_steady

    static = "analytic" if analytic else "des"
    tasks = [
        PinTask(key, params, mode, static, scenario) for mode in _STATIC_PINS
    ]
    if _has_ondemand_drive(scenario):
        evaluator = "des"
        if analytic:
            indices, residual = split_steady(ondemand_variant(scenario))
            if indices and residual is not None:
                evaluator = "hybrid"
        tasks.append(PinTask(key, params, "ondemand", evaluator, scenario))
    return tasks


def _plan(
    sweeps: Sequence[ScenarioSweepSpec],
    grid: Sequence[Dict[str, object]],
    fastpath: bool,
    anchors: Sequence[Dict[str, object]] = (),
) -> Iterator[PinTask]:
    """Every pin of every grid point of each replicate sweep, in
    replicate-major grid order (see :func:`_pin_tasks`).

    The policy: everything replays the DES, except that under
    ``fastpath`` the steady curves answer the static pins of every point
    whose pins they can answer
    (:func:`~repro.scenarios.fastpath.pinned_steady_eligible`, checked on
    the point's own spec) and that no anchor names.

    A generator: the executor answers analytic slices while the plan is
    still being materialized, so only one slice of specs is alive at a
    time.  A fastpath plan with no eligible point raises at its end,
    before anything replays — it would silently run the full DES."""
    from .fastpath import pinned_steady_eligible

    eligible = False
    for rep, sweep in enumerate(sweeps):
        for i, params in enumerate(grid):
            scenario = _materialize(sweep, params)
            analytic = fastpath and pinned_steady_eligible(scenario)
            eligible = eligible or analytic
            if analytic and _matches_anchors(params, anchors):
                analytic = False
            yield from _pin_tasks((rep, i), params, scenario, analytic)
    if fastpath and not eligible:
        raise ConfigurationError(
            f"sweep {sweeps[0].name!r} over {sweeps[0].base!r}: "
            "no grid point is steady-state eligible, so fastpath=True and "
            "search='adaptive' have no analytic grid — every point would "
            "silently run the full DES; use the exhaustive DES search or "
            "sweep an eligible scenario (see "
            "repro.scenarios.fastpath.pinned_steady_eligible)"
        )


def _point_result(
    params: Dict[str, object], aggregates: Dict[str, SweepAggregate]
) -> SweepPointResult:
    """One grid point assembled from its answered pins."""
    software = aggregates["software"]
    return SweepPointResult(
        params=params,
        software=software,
        hardware=aggregates["hardware"],
        ondemand=aggregates.get("ondemand") or _as_ondemand(software),
    )


# ---------------------------------------------------------------------------
# The executor: a persistent worker pool with chunked dispatch.
#
# What a pool worker holds is one replay at a time.  A finished run is
# unreachable but not freed: its object graph is cyclic (heap entries
# holding bound methods, closure cells, links, switches, services and
# stores that point back at each other), so only a full generation-2
# collection reclaims it, and a worker replaying pin after pin runs
# few of those.  Without one, each worker's RSS climbs with every pin
# it has ever run; with it, a worker stays at the size of its largest
# pin.  So ``_replay_chunk`` runs ``gc.collect()`` after each replay.
#
# The collection must not walk what the worker inherited.  The pool's
# initializer (``_init_worker``) imports the DES builder, so a replay
# imports nothing, then calls ``gc.freeze()``: every object alive at that
# point (modules, classes, the parent's state copied by fork) moves to
# the permanent generation, and each per-pin collection walks only the
# replay's own objects (2.5 ms after a 2-rack fabric pin, against 8-9 ms
# unfrozen).  It also keeps the collector from writing to the pages a
# forked worker still shares with its parent.
#
# The caller's process does neither.  The in-process path (``workers``
# None or 1) replays pins inside whatever process calls ``run_sweep``:
# a full collection there walks that caller's whole heap (11 ms per pin
# in a process that has imported the test modules), and freezing it
# would make the caller's own objects uncollectable and hide them from
# ``gc.get_objects()``.
# ---------------------------------------------------------------------------

#: One long-lived pool reused across run_sweep/run_replicated calls:
#: forking + importing per call costs a noticeable fraction of a reduced
#: sweep's wall time, and sequential benchmark legs (serial vs pooled vs
#: pooled-again) were paying it over and over.
_POOL = None
_POOL_SIZE = 0
#: The scenario registry as the pool's workers saw it at fork time
#: (strong refs, compared by identity).  Fork workers run with the module
#: state they inherited, so a scenario registered *after* the fork (and
#: anything registered alongside it) would be invisible to a reused
#: pool — recreate instead.
_POOL_REGISTRY: Optional[Dict[str, Callable]] = None

#: Executor observability (``--perf-stats``): how often parallel calls
#: found the persistent pool warm vs had to fork one, and how many pinned
#: replays were dispatched through it.
_EXECUTOR_STATS = {"pool_creates": 0, "pool_reuses": 0, "tasks_dispatched": 0}

#: Grid points per analytic ``steady_grid`` call: bounds the parent's
#: memory on dense fast-path grids to one slice of specs at a time.
_ANALYTIC_SLICE = 512

#: A plan's answers: pin -> aggregate, per ``(replicate, grid point)``.
_Answers = Dict[Tuple[int, int], Dict[str, SweepAggregate]]


def executor_stats() -> Dict[str, int]:
    """Pool create/reuse and dispatched-task counters (diagnostics)."""
    return dict(_EXECUTOR_STATS)


def reset_executor_stats() -> None:
    for key in _EXECUTOR_STATS:
        _EXECUTOR_STATS[key] = 0


def _fork_context():
    import multiprocessing

    # fork (where available) shares the already-imported registry with
    # the workers; spawn re-imports it, which also works — just slower.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _registry_changed() -> bool:
    return _POOL_REGISTRY is None or not (
        len(_POOL_REGISTRY) == len(_REGISTRY)
        and all(_REGISTRY.get(k) is v for k, v in _POOL_REGISTRY.items())
    )


def _get_pool(workers: int):
    """The shared pool, created on first use and reused while the worker
    count and the scenario registry stay the same.  Its workers fork on
    the first dispatch, from the caller's thread: call ``workers > 1``
    sweeps from a single-threaded process, since a fork taken while other
    threads run may deadlock the child."""
    from concurrent.futures import ProcessPoolExecutor

    global _POOL, _POOL_SIZE, _POOL_REGISTRY
    if _POOL is not None and (_POOL_SIZE != workers or _registry_changed()):
        shutdown_executor()
    if _POOL is None:
        _POOL = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_fork_context(),
            initializer=_init_worker,
        )
        _POOL_SIZE = workers
        _POOL_REGISTRY = dict(_REGISTRY)
        _EXECUTOR_STATS["pool_creates"] += 1
    else:
        _EXECUTOR_STATS["pool_reuses"] += 1
    return _POOL


def shutdown_executor() -> None:
    """Tear down the persistent worker pool (idempotent; re-created on the
    next parallel call).  Queued replays are cancelled; a replay already
    running finishes first.  Registered at interpreter exit."""
    global _POOL, _POOL_SIZE, _POOL_REGISTRY
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
        _POOL = None
        _POOL_SIZE = 0
        _POOL_REGISTRY = None


atexit.register(shutdown_executor)


def _auto_chunksize(n_tasks: int, workers: int) -> int:
    """Dispatch granularity: ~4 chunks per worker.  Coarse enough that
    per-task IPC (pickle a spec over a pipe, wake the worker, pickle the
    result back) stops dominating short replays, fine enough that work
    stealing still evens out slow pins."""
    return max(1, n_tasks // (max(1, workers) * 4))


def _answer_analytic(tasks: List[PinTask], results: _Answers) -> None:
    """Answer one slice of one pin's analytic tasks with a single
    ``steady_grid`` call, then empty the slice."""
    if not tasks:
        return
    from .fastpath import steady_grid

    mode = tasks[0].mode
    estimates = steady_grid([task.scenario for task in tasks], mode)
    for task, est in zip(tasks, estimates):
        results[task.key][mode] = _estimate_aggregate(est, mode)
    tasks.clear()


def _replay(task: PinTask) -> SweepAggregate:
    """Answer one DES or hybrid pin.  Every pin builds its own Simulator
    and RNGs from the spec's seeds, so a replay in a pool worker equals
    the same replay in-process."""
    if task.evaluator == "hybrid":
        from .fastpath import split_steady

        od_spec = ondemand_variant(task.scenario)
        indices, residual = split_steady(od_spec)
        return _hybrid_ondemand_aggregate(od_spec, indices, residual)
    run, result = run_pinned(task.scenario, task.mode)
    return _aggregate(run, result, task.mode)


def _init_worker() -> None:
    """Pool worker start-up: import what a replay needs, then freeze
    everything alive so per-pin collections skip it."""
    from . import builder  # noqa: F401

    gc.freeze()


def _replay_chunk(chunk: Sequence[PinTask]) -> List[SweepAggregate]:
    """Worker entry point (module-level, so the pool can pickle it).
    Each replay's run is garbage once ``_replay`` returns its aggregate;
    one full collection frees it before the next pin builds."""
    out = []
    for task in chunk:
        out.append(_replay(task))
        gc.collect()
    return out


def _dispatch(tasks: List[PinTask], workers: int) -> List[SweepAggregate]:
    """Replay pins through the persistent pool, results in plan order.

    Tasks go out in :func:`_auto_chunksize` chunks, and only the
    aggregates come back: per-rack series stay in the worker, which
    frees each run before its next pin.  A worker that dies (an OOM
    kill, an ``os._exit``) breaks the pool, and the sweep fails with an
    :class:`ExecutorError` naming the first pin left unanswered instead
    of waiting forever.  Any failure shuts the pool down, so the next
    call forks a fresh one.
    """
    if not tasks:
        return []
    from concurrent.futures.process import BrokenProcessPool

    pool = _get_pool(workers)
    size = _auto_chunksize(len(tasks), workers)
    chunks = [tasks[lo:lo + size] for lo in range(0, len(tasks), size)]
    _EXECUTOR_STATS["tasks_dispatched"] += len(tasks)
    out: List[SweepAggregate] = []
    try:
        futures = [pool.submit(_replay_chunk, chunk) for chunk in chunks]
        for chunk, future in zip(chunks, futures):
            try:
                out.extend(future.result())
            except BrokenProcessPool as exc:
                task = chunk[0]
                raise ExecutorError(
                    f"a sweep worker process died; the first pin left "
                    f"unanswered is grid point {task.params} ({task.mode} "
                    f"pin, seed {task.scenario.seed}); the pool was shut "
                    "down"
                ) from exc
    except BaseException:
        shutdown_executor()
        raise
    return out


def _execute(
    plan: Iterable[PinTask], workers: Optional[int]
) -> Tuple[_Answers, Set[Tuple[int, int]]]:
    """The executor: answer every pinned evaluation of a plan.

    Analytic pins never enter the pool.  The parent answers them with
    one ``steady_grid`` call per pin per slice of at most
    :data:`_ANALYTIC_SLICE` grid points, as the plan streams in.  DES and
    hybrid pins replay one per task: in-process and in plan order (a
    point's pins back to back) when ``workers`` is None or 1, else
    through the persistent pool (:func:`_dispatch`).

    Returns the aggregates by ``(replicate, grid point)`` key and pin,
    plus the keys whose static pins replayed the DES.
    """
    results: _Answers = {}
    slices: Dict[str, List[PinTask]] = {mode: [] for mode in _STATIC_PINS}
    replays: List[PinTask] = []
    for task in plan:
        results.setdefault(task.key, {})
        if task.evaluator != "analytic":
            replays.append(task)
            continue
        pending = slices[task.mode]
        pending.append(task)
        if len(pending) == _ANALYTIC_SLICE:
            _answer_analytic(pending, results)
    for pending in slices.values():
        _answer_analytic(pending, results)
    if workers is None or workers == 1:
        aggregates = [_replay(task) for task in replays]
    else:
        aggregates = _dispatch(replays, workers)
    for task, agg in zip(replays, aggregates):
        results[task.key][task.mode] = agg
    return results, {t.key for t in replays if t.mode == "software"}


_SEARCH_MODES = ("exhaustive", "adaptive")


def _validate_anchors(
    spec: ScenarioSweepSpec, anchors: Sequence[Dict[str, object]]
) -> None:
    axis_params = {a.param for a in spec.axes}
    for anchor in anchors:
        if not anchor:
            raise ConfigurationError(
                "an empty anchor matches every grid point; give axis=value "
                "pairs to pin the points that must replay the DES"
            )
        unknown = sorted(set(anchor) - axis_params)
        if unknown:
            raise ConfigurationError(
                f"anchor keys {unknown} are not axes of sweep {spec.name!r} "
                f"(axes: {sorted(axis_params)})"
            )


def _matches_anchors(
    params: Dict[str, object], anchors: Sequence[Dict[str, object]]
) -> bool:
    return any(
        all(params.get(key) == value for key, value in anchor.items())
        for anchor in anchors
    )


def _bracket_first_win(flags: Sequence[bool]) -> Optional[int]:
    """Position of the first analytic win along one ramp group.

    Bisection over the (assumed monotone lose→win) analytic flags — the
    crossover bracket refined to axis resolution — verified against the
    prefix so a non-monotone analytic curve falls back to the exact
    linear scan instead of returning a wrong bracket.
    """
    if not any(flags):
        return None
    lo, hi = 0, len(flags) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if flags[mid]:
            hi = mid
        else:
            lo = mid + 1
    if any(flags[pos] for pos in range(lo)):  # non-monotone analytics
        return list(flags).index(True)
    return lo


def _linear_fill(
    xs: Sequence[int], ys: Sequence[float], n: int
) -> List[float]:
    """Piecewise-linear interpolation of samples ``(xs, ys)`` over
    ``range(n)``, linearly extrapolated from the two nearest samples past
    each end (flat when only one sample exists).  ``xs`` is sorted."""
    out = []
    for x in range(n):
        if len(xs) == 1:
            out.append(ys[0])
            continue
        if x <= xs[0]:
            j = 1
        elif x >= xs[-1]:
            j = len(xs) - 1
        else:
            j = next(k for k in range(1, len(xs)) if xs[k] >= x)
        x0, x1, y0, y1 = xs[j - 1], xs[j], ys[j - 1], ys[j]
        out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def _scan_tipping_group(
    fixed: Dict[str, object],
    axis: str,
    pts: Sequence[SweepPointResult],
) -> TippingPoint:
    """The crossover scan over one ramp group's measured points, in ramp
    order (:meth:`ScenarioSweepResult.tipping_points` runs it per group)."""
    crossover = None
    sw_opw = hw_opw = od_opw = None
    monotone = True
    seen_win = False
    for pt in pts:
        if pt.hardware_wins:
            if not seen_win:
                seen_win = True
                crossover = pt.params[axis]
                sw_opw = pt.software.ops_per_watt
                hw_opw = pt.hardware.ops_per_watt
                if pt.ondemand is not None:
                    od_opw = pt.ondemand.ops_per_watt
        elif seen_win:
            monotone = False
    return TippingPoint(
        fixed=dict(fixed),
        axis=axis,
        crossover=crossover,
        sw_ops_per_watt=sw_opw,
        hw_ops_per_watt=hw_opw,
        od_ops_per_watt=od_opw,
        monotone=monotone,
    )


def _adapt(
    sweep: ScenarioSweepSpec,
    grid: Sequence[Dict[str, object]],
    workers: Optional[int],
    anchors: Sequence[Dict[str, object]],
    hints: Optional[Dict[int, Optional[int]]],
) -> Tuple[ScenarioSweepResult, Dict[int, Optional[int]]]:
    """The adaptive crossover search: the incremental planner that adds
    DES probes until each ramp group's crossover is confirmed.

    Its analytic pass is the analytic pins of the fastpath plan
    (:func:`_plan`): one batched
    :func:`repro.scenarios.fastpath.steady_grid` call per pin answers the
    analytic ops/W margin ``hw − sw`` at every eligible grid point.  The
    analytic margin has the right *shape* but a finite-replay bias
    against the DES (the fast-path tolerance, a few percent — enough to
    flip the winner where the pins are close), so each ramp group's
    crossover is located on the **calibrated** margin: every DES probe
    contributes a bias sample ``margin_DES − margin_analytic`` at its ramp
    position, pooled across groups (the grid is a full product, so groups
    share ramp positions) and interpolated linearly across positions.  A
    group converges when its first predicted win is DES-confirmed **and**
    the preceding ramp value is a DES-confirmed loss — so the result's
    tipping scan over the probed points reports the exhaustive row under
    the paper's monotone-crossover premise (§8: once hardware wins it
    keeps winning along the ramp).  Any probe that contradicts that
    premise (a DES loss above a DES-confirmed win) demotes its whole
    group to exhaustive DES, which reproduces the non-monotone row
    exactly.  Never-tipping groups DES-confirm only the last ramp value;
    groups with ineligible points (and anchored points) replay the DES
    outright.

    Unprobed points carry the analytic aggregates, flagged
    ``estimated=True`` (the on-demand column is filled only where nothing
    could shift), so the tipping scan never consults them.

    ``hints`` seeds each group's initial probe position
    (:func:`run_replicated` brackets once on seed 0 and DES-validates the
    bracket per replicate seed).  Returns the result plus this run's
    confirmed crossover positions, in the same shape.
    """
    scenarios = [_materialize(sweep, params) for params in grid]
    analytic, _ = _execute(
        (
            task
            for task in _plan([sweep], grid, fastpath=True)
            if task.evaluator == "analytic"
        ),
        workers,
    )
    margin_a = {
        i: pins["hardware"].ops_per_watt - pins["software"].ops_per_watt
        for (_, i), pins in analytic.items()
    }
    groups = sweep.ramp_groups()
    adaptive_groups = [
        (g, indices)
        for g, (_, indices) in enumerate(groups)
        if all(i in margin_a for i in indices)
    ]
    demoted: set = set()  # groups that fell back to exhaustive DES
    pending = {
        i
        for _, indices in groups
        if not all(j in margin_a for j in indices)
        for i in indices
    }
    pending.update(
        i
        for i, params in enumerate(grid)
        if _matches_anchors(params, anchors)
    )
    for g, indices in adaptive_groups:
        if hints is not None and g in hints:
            k = hints[g]
        elif (g, indices) == adaptive_groups[0]:
            # seed only the first group: its ramp endpoints calibrate the
            # pooled bias across the whole ramp (linear in position), and
            # its analytic bracket lands the first crossover candidate —
            # the remaining groups then bracket off the calibrated
            # margins, which beat the raw analytic flags by construction
            pending.add(indices[0])
            pending.add(indices[-1])
            k = _bracket_first_win([margin_a[i] > 0.0 for i in indices])
        else:
            continue
        if k is None:
            pending.add(indices[-1])
        else:
            k = min(k, len(indices) - 1)
            pending.add(indices[k])
            if k > 0:
                pending.add(indices[k - 1])
    probed: Dict[int, SweepPointResult] = {}

    def _margin_des(i: int) -> float:
        pt = probed[i]
        return pt.hardware.ops_per_watt - pt.software.ops_per_watt

    def _first_win(g: int, indices: Sequence[int]) -> Optional[int]:
        """First effective win: DES flags where probed, calibrated
        analytic margins elsewhere.

        The bias (DES margin − analytic margin) is estimated local-first:
        a group with two or more of its own probes gets a linear fit of
        its own samples (bias drifts near-linearly along the ramp); with
        exactly one it borrows the *shape* pooled across every group's
        samples, re-anchored through its own point; with none it takes
        the pooled shape as-is.  Local-first matters because groups can
        sit a few ops/W apart (host counts) or on entirely different
        scales (device kinds) — one group's raw samples must not poison
        another's bracket.
        """
        n = len(indices)
        per_group: Dict[int, Dict[int, float]] = {}
        by_pos: Dict[int, List[float]] = {}
        for h, h_indices in adaptive_groups:
            samples = {
                pos: _margin_des(i) - margin_a[i]
                for pos, i in enumerate(h_indices)
                if i in probed
            }
            per_group[h] = samples
            for pos, v in samples.items():
                by_pos.setdefault(pos, []).append(v)
        xs = sorted(by_pos)
        ys = [sum(by_pos[x]) / len(by_pos[x]) for x in xs]
        shape = _linear_fill(xs, ys, n) if xs else [0.0] * n
        own = per_group.get(g, {})
        if len(own) >= 2:
            xs_own = sorted(own)
            bias = _linear_fill(xs_own, [own[p] for p in xs_own], n)
        elif len(own) == 1:
            (p0, s0), = own.items()
            bias = [shape[pos] + (s0 - shape[p0]) for pos in range(n)]
        else:
            bias = shape
        for pos, i in enumerate(indices):
            if i in probed:
                won = probed[i].hardware_wins
            else:
                won = margin_a[i] + bias[pos] > 0.0
            if won:
                return pos
        return None

    while True:
        todo = sorted(i for i in pending if i not in probed)
        pending.clear()
        if todo:
            # one probe wave: every pin of every point replays the DES
            fresh, _ = _execute(
                (
                    task
                    for i in todo
                    for task in _pin_tasks((0, i), grid[i], scenarios[i])
                ),
                workers,
            )
            probed.update(
                (i, _point_result(grid[i], fresh[(0, i)])) for i in todo
            )
        for g, indices in adaptive_groups:
            if g in demoted:
                pending.update(i for i in indices if i not in probed)
                continue
            k_eff = _first_win(g, indices)
            if k_eff is None:
                # never tips (so far): the last ramp value must be a
                # DES-confirmed loss
                if indices[-1] not in probed:
                    pending.add(indices[-1])
                continue
            # a DES loss above a DES-confirmed win breaks the monotone
            # premise — this group needs the full exhaustive scan
            if any(
                indices[q] in probed and not probed[indices[q]].hardware_wins
                for q in range(k_eff + 1, len(indices))
            ) and indices[k_eff] in probed:
                demoted.add(g)
                pending.update(i for i in indices if i not in probed)
                continue
            if indices[k_eff] not in probed:
                pending.add(indices[k_eff])
            elif k_eff > 0 and indices[k_eff - 1] not in probed:
                pending.add(indices[k_eff - 1])
        if not pending:
            break
    points = []
    for i, params in enumerate(grid):
        if i in probed:
            points.append(probed[i])
            continue
        pins = analytic[(0, i)]
        points.append(
            SweepPointResult(
                params=params,
                software=pins["software"],
                hardware=pins["hardware"],
                # the controllers never ran at this point; leave the column
                # empty rather than substitute a curve for live behavior
                ondemand=(
                    None
                    if _has_ondemand_drive(scenarios[i])
                    else _as_ondemand(pins["software"])
                ),
                estimated=True,
            )
        )
    # each group's first DES win: where later seeds start their walk
    found = {}
    for g, indices in adaptive_groups:
        wins = [
            pos for pos, i in enumerate(indices)
            if i in probed and probed[i].hardware_wins
        ]
        found[g] = wins[0] if wins else None
    result = ScenarioSweepResult(
        spec=sweep, points=points, search="adaptive", des_points_run=len(probed)
    )
    return result, found


def _run(
    sweeps: Sequence[ScenarioSweepSpec],
    workers: Optional[int],
    fastpath: bool,
    search: str,
    anchors: Sequence[Dict[str, object]],
) -> List[ScenarioSweepResult]:
    """The one sweep pipeline: plan, execute, reduce — one result per
    replicate sweep of the seed axis (:func:`run_sweep` is K=1).

    The exhaustive search executes one :func:`_plan` over every
    replicate.  The adaptive search implies ``fastpath`` and runs the
    incremental planner :func:`_adapt` seed by seed: seed 0 brackets on
    its analytic grid, and every later seed starts its walk from seed 0's
    confirmed crossovers.  Anchored points replay the DES under either
    search.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if search not in _SEARCH_MODES:
        raise ConfigurationError(
            f"unknown search mode {search!r}; choose "
            f"{', '.join(_SEARCH_MODES)}"
        )
    _validate_anchors(sweeps[0], anchors)
    grid = sweeps[0].points()
    if search == "adaptive":
        runs: List[ScenarioSweepResult] = []
        hints = None
        for sweep in sweeps:
            run, found = _adapt(sweep, grid, workers, anchors, hints)
            runs.append(run)
            if hints is None:
                hints = found
        return runs
    results, replayed = _execute(
        _plan(sweeps, grid, fastpath, anchors), workers
    )
    return [
        ScenarioSweepResult(
            spec=sweep,
            points=[
                _point_result(params, results[(rep, i)])
                for i, params in enumerate(grid)
            ],
            des_points_run=sum(1 for r, _ in replayed if r == rep),
        )
        for rep, sweep in enumerate(sweeps)
    ]


def _resolve(
    sweep: Union[str, ScenarioSweepSpec], overrides: Dict[str, object]
) -> ScenarioSweepSpec:
    """A named sweep built with its factory ``overrides``, or an explicit
    spec (which takes none), validated."""
    if isinstance(sweep, ScenarioSweepSpec):
        if overrides:
            raise ConfigurationError(
                "overrides apply to named sweeps; pass an adjusted spec instead"
            )
        return sweep.validate()
    return build_sweep_spec(sweep, **overrides).validate()


def run_sweep(
    sweep: Union[str, ScenarioSweepSpec],
    workers: Optional[int] = None,
    fastpath: bool = False,
    search: str = "exhaustive",
    anchors: Sequence[Dict[str, object]] = (),
    **overrides,
) -> ScenarioSweepResult:
    """Execute a sweep (named, or an explicit spec) over its whole grid.

    The sweep is planned as one pinned evaluation per (grid point, pin),
    and ``workers`` > 1 fans its DES replays out over the persistent
    process pool, one pinned replay per task (dispatched in auto-sized
    chunks; only aggregates come back).  Every replay seeds its own
    simulator and RNGs and results reassemble in grid order, so the
    parallel result — down to the rendered tables — is identical to the
    serial one.  The default replays in-process, a point's pins back to
    back.  Analytic pins never enter the pool (see ``fastpath``).

    ``fastpath=True`` answers the software and hardware pins of
    steady-state-eligible grid points (see
    :func:`repro.scenarios.fastpath.pinned_steady_eligible`) from the
    analytic models instead of replaying the DES: in the parent, one batched
    ``steady_grid`` call per pin per slice of grid points.  An on-demand
    pin that can shift still replays, as a hybrid on mixed racks.  It is
    opt-in because the numbers are the infinite-horizon limit rather than
    the finite replay (held within tolerance by the fastpath validation
    gate, but not byte-identical).
    Raises :class:`ConfigurationError` when *no* grid point qualifies —
    a fastpath request that would silently run the full DES everywhere
    is a misconfiguration, not a slow success.

    ``search="adaptive"`` brackets each ramp group's sw/hw crossover on
    the batched analytic grid and replays the full DES only at the
    bracketing points, walking the bracket until the crossover is
    DES-confirmed on both sides; every other point carries analytic
    aggregates flagged ``estimated``.  It implies ``fastpath``.  The
    tipping rows are the ones the exhaustive search reports whenever the
    analytic win flags agree with the DES away from the bracket (the walk
    re-probes every disagreement it meets), and
    ``result.des_points_run / result.grid_points_total`` is the savings
    counter.

    ``anchors`` — mappings of axis values — name grid points that always
    replay the full DES, under either search.
    """
    return _run(
        [_resolve(sweep, overrides)], workers, fastpath, search, anchors
    )[0]


# ---------------------------------------------------------------------------
# Replication: K seeds per grid point (statistical weight at sweep scale).
# ---------------------------------------------------------------------------


def replication_seeds(base_seed: int, k: int) -> List[int]:
    """K deterministic, independent seeds derived from ``base_seed``.

    ``seeds[0]`` **is** ``base_seed``, so a K=1 replication reproduces the
    single-seed sweep byte-for-byte; the rest hash the base through
    sha256, the same namespacing discipline :class:`repro.sim.rng.RngStreams`
    uses, so replicate streams never collide with each other or with any
    in-run stream.
    """
    if k < 1:
        raise ConfigurationError(f"replication needs >= 1 seed, got {k}")
    seeds = [int(base_seed)]
    for i in range(1, k):
        digest = hashlib.sha256(f"{base_seed}:replicate:{i}".encode()).digest()
        seeds.append(int.from_bytes(digest[:8], "big"))
    return seeds


#: two-sided 95% t critical values keyed by sample count (df = n-1);
#: larger replications fall back to the normal 1.96.
_T95_BY_N = {
    2: 12.706, 3: 4.303, 4: 3.182, 5: 2.776, 6: 2.571,
    7: 2.447, 8: 2.365, 9: 2.306, 10: 2.262,
}


@dataclass(frozen=True)
class ReplicateStats:
    """Mean ± 95% CI of one metric across the replicate seeds."""

    mean: float
    ci95: float
    n: int
    values: Tuple[float, ...] = ()


def replicate_stats(values: Sequence[float]) -> ReplicateStats:
    """Small-n t-interval summary of per-seed metric values."""
    n = len(values)
    if n == 0:
        raise ConfigurationError("no replicate values to summarize")
    mean = sum(values) / n
    if n == 1:
        return ReplicateStats(mean=mean, ci95=0.0, n=1, values=tuple(values))
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    t = _T95_BY_N.get(n, 1.96)
    return ReplicateStats(
        mean=mean,
        ci95=t * math.sqrt(var / n),
        n=n,
        values=tuple(values),
    )


def _with_seed(spec: ScenarioSweepSpec, seed: int) -> ScenarioSweepSpec:
    """The sweep spec with its fixed ``seed`` override replaced."""
    return dataclasses.replace(
        spec, fixed={**spec.fixed_dict(), "seed": seed}
    )


@dataclass
class ReplicatedSweepResult:
    """K seeded repetitions of a sweep, with cross-seed reductions.

    ``runs[0]`` used the sweep's own base seed, so it is byte-identical to
    the unreplicated :func:`run_sweep` result; the rest used derived
    seeds (:func:`replication_seeds`).
    """

    spec: ScenarioSweepSpec
    seeds: List[int]
    runs: List[ScenarioSweepResult]

    @property
    def base_run(self) -> ScenarioSweepResult:
        return self.runs[0]

    def point_stats(
        self, metric: str = "ops_per_watt"
    ) -> List[Dict[str, object]]:
        """Per grid point: mean ± CI of ``metric`` for each pinned mode."""
        out: List[Dict[str, object]] = []
        for i, base_pt in enumerate(self.runs[0].points):
            row: Dict[str, object] = {"params": dict(base_pt.params)}
            for mode in ("software", "hardware", "ondemand"):
                values = []
                for run in self.runs:
                    agg = getattr(run.points[i], mode)
                    if agg is None:
                        break
                    values.append(getattr(agg, metric))
                row[mode] = (
                    replicate_stats(values)
                    if len(values) == len(self.runs)
                    else None
                )
            out.append(row)
        return out

    def tipping_stats(self) -> List[Dict[str, object]]:
        """Per tipping group: how often the rack tipped across seeds, and
        the crossover's mean ± CI over the seeds where it did."""
        per_run = [run.tipping_points() for run in self.runs]
        out: List[Dict[str, object]] = []
        for group in zip(*per_run):
            first = group[0]
            crossings = [tip.crossover for tip in group]
            tipped = [c for c in crossings if c is not None]
            numeric = all(isinstance(c, (int, float)) for c in tipped)
            stats = (
                replicate_stats([float(c) for c in tipped])
                if tipped and numeric
                else None
            )
            out.append(
                {
                    "fixed": dict(first.fixed),
                    "axis": first.axis,
                    "tip_count": len(tipped),
                    "tip_fraction": len(tipped) / len(crossings),
                    "crossover": stats,
                    "crossovers": tuple(crossings),
                }
            )
        return out

    # -- reporting -----------------------------------------------------------

    def render(self) -> str:
        """Point and tipping tables with mean ± 95% CI error bars."""
        from ..experiments.reporting import format_table

        k = len(self.seeds)
        axis_params = [a.param for a in self.spec.axes]
        base_points = self.runs[0].points
        with_od = any(pt.ondemand is not None for pt in base_points)
        lines = [
            f"Replicated sweep: {self.spec.name} over {self.spec.base!r} — "
            f"{len(base_points)} points × K={k} seeds (mean ± 95% CI)",
        ]
        modes = ("software", "hardware") + (("ondemand",) if with_od else ())
        short = {"software": "sw", "hardware": "hw", "ondemand": "od"}
        headers = list(axis_params)
        for mode in modes:
            headers += [f"{short[mode]} ops/W", f"{short[mode]} ±"]
        headers += ["hw wins"]
        stats = self.point_stats("ops_per_watt")
        rows = []
        for i, row_stats in enumerate(stats):
            row: List[object] = [
                base_points[i].params[p] for p in axis_params
            ]
            for mode in modes:
                st = row_stats[mode]
                row += [st.mean, st.ci95] if st is not None else ["-", "-"]
            wins = sum(1 for run in self.runs if run.points[i].hardware_wins)
            # an estimate in any seed makes the count partly analytic
            estimated = any(run.points[i].estimated for run in self.runs)
            row.append(f"{'~' if estimated else ''}{wins}/{k}")
            rows.append(row)
        lines.append(format_table(headers, rows))
        if any(pt.estimated for run in self.runs for pt in run.points):
            lines.append(_ESTIMATE_NOTE)
        lines.append("")
        axis = self.spec.resolved_tip_axis()
        lines.append(
            f"Tipping points across seeds: first {axis} where the hardware "
            "rack wins on ops/W"
        )
        other = [p for p in axis_params if p != axis]
        tip_headers = (other or ["rack"]) + [
            "tipped", f"crossover {axis}", "±",
        ]
        tip_rows = []
        for group in self.tipping_stats():
            prefix = (
                [group["fixed"][p] for p in other] if other else ["(all)"]
            )
            st = group["crossover"]
            tip_rows.append(
                prefix
                + [
                    f"{group['tip_count']}/{k}",
                    st.mean if st is not None else "-",
                    st.ci95 if st is not None else "-",
                ]
            )
        lines.append(format_table(tip_headers, tip_rows))
        return "\n".join(lines)


def run_replicated(
    sweep: Union[str, ScenarioSweepSpec],
    seeds: int = 8,
    workers: Optional[int] = None,
    fastpath: bool = False,
    search: str = "exhaustive",
    anchors: Sequence[Dict[str, object]] = (),
    **overrides,
) -> ReplicatedSweepResult:
    """Run a sweep ``seeds`` times with independent seeds (§9.4 with
    error bars): :func:`run_sweep`'s pipeline with a seed axis on top of
    the grid, taking the same ``workers``, ``fastpath``, ``search``,
    ``anchors`` and ``**overrides``.

    With ``workers`` > 1 every pinned DES replay of every seed is one
    pool task, so a slow grid point on one seed does not serialize the
    other seeds, and each task ships back only its aggregate, never raw
    series.  Per-seed results reassemble deterministically by (seed,
    point) index: ``result.runs[i]`` is byte-identical to running
    ``run_sweep`` serially with seed ``result.seeds[i]``, regardless of
    worker count or completion order.

    ``search="adaptive"`` brackets the crossovers once, on seed 0's
    analytic grid, and reuses the confirmed bracket as every later
    seed's starting probe — each seed still DES-validates its own
    crossover rows (the rows are per-seed DES facts; only the *starting
    point* of the walk is shared), so ``runs[i].tipping_points()``
    matches a standalone adaptive run of seed ``i``, while the probe
    *set* — and therefore which fill points are analytic estimates —
    may differ from the standalone run's.
    """
    spec = _resolve(sweep, overrides)
    base_seed = spec.fixed_dict().get("seed")
    if base_seed is None:
        # the sweep does not pin a seed: replicate around the scenario's
        # own default (read off the first materialized point)
        base_seed = _materialize(spec, spec.points()[0]).seed
    seed_list = replication_seeds(int(base_seed), seeds)
    sweeps = [_with_seed(spec, s) for s in seed_list]
    runs = _run(sweeps, workers, fastpath, search, anchors)
    return ReplicatedSweepResult(spec=spec, seeds=seed_list, runs=runs)


def _has_ondemand_drive(spec: ScenarioSpec) -> bool:
    """Can anything in this scenario actually shift under its declared
    on-demand drive?  False when every host controller is ``none`` and no
    Paxos group has a rate controller or a shift schedule — then the
    on-demand variant is the software variant by construction."""
    if spec.fabric_controller is not None:
        return True
    if any(
        host.controller.kind != "none"
        for host in (*spec.kvs_hosts, *spec.dns_hosts)
    ):
        return True
    return any(
        group.controller.kind == "rate" or group.shifts
        for group in spec.paxos_groups
    )


# ---------------------------------------------------------------------------
# The sweep registry.
# ---------------------------------------------------------------------------

SweepFactory = Callable[..., ScenarioSweepSpec]

_SWEEPS: Dict[str, SweepFactory] = {}


def register_sweep(name: str) -> Callable[[SweepFactory], SweepFactory]:
    """Decorator: add a sweep factory to the catalogue under ``name``."""

    def wrap(factory: SweepFactory) -> SweepFactory:
        if name in _SWEEPS:
            raise ConfigurationError(f"duplicate sweep name {name!r}")
        _SWEEPS[name] = factory
        return factory

    return wrap


def sweep_names() -> List[str]:
    return sorted(_SWEEPS)


def sweep_descriptions() -> Dict[str, str]:
    """Name → one-line description for every registered sweep."""
    return {name: _SWEEPS[name]().description for name in sweep_names()}


def closest_sweep(name: str) -> Optional[str]:
    """The registered sweep most similar to ``name`` (case-insensitive)."""
    from .registry import closest_name

    return closest_name(name, sweep_names())


def build_sweep_spec(name: str, **overrides) -> ScenarioSweepSpec:
    """Instantiate a named sweep's spec (factory overrides applied).

    Exact case-insensitive spellings (``SWEEP-RACK-KVS``) resolve
    directly, mirroring :func:`repro.scenarios.registry.build_spec`.
    """
    from .registry import resolve_factory

    factory = resolve_factory(_SWEEPS, name, "sweep")
    try:
        return factory(**overrides)
    except TypeError as exc:
        raise ConfigurationError(
            f"sweep {name!r} rejected overrides {sorted(overrides)} ({exc})"
        ) from None


def sweep_fastpath_eligibility(
    sweep: Union[str, ScenarioSweepSpec], **overrides
) -> str:
    """Classify a sweep's grid for the analytic fast path.

    ``"eligible"`` — every grid point is steady-state eligible (the
    batched grid kernel and the adaptive search cover the whole
    grid); ``"partial"`` — only some points are; ``"DES-only"`` — none
    are (``fastpath=True`` and ``search="adaptive"`` both refuse).
    Shown per sweep by ``python -m repro --list``.
    """
    from .fastpath import pinned_steady_eligible

    spec = _resolve(sweep, overrides)
    flags = [
        pinned_steady_eligible(_materialize(spec, params))
        for params in spec.points()
    ]
    if all(flags):
        return "eligible"
    if any(flags):
        return "partial"
    return "DES-only"


# ---------------------------------------------------------------------------
# The catalogue.
# ---------------------------------------------------------------------------


@register_sweep("sweep-rack-kvs")
def sweep_rack_kvs(
    hosts: Tuple[int, ...] = (1, 2, 4, 8),
    rates_kpps: Tuple[float, ...] = (8.0, 16.0, 24.0, 32.0),
    duration_s: float = 0.5,
    keyspace: int = 8_000,
    seed: int = 11,
) -> ScenarioSweepSpec:
    """§9.4 flagship: a key-sharded memcached rack swept 1→8 hosts × a
    per-host ETC rate ramp, charting where the rack tips from software to
    hardware on ops/W."""
    return ScenarioSweepSpec(
        name="sweep-rack-kvs",
        base="rack-kvs",
        description=(
            "§9.4 tipping sweep: KVS rack, 1→8 hosts × per-host rate ramp "
            "(software vs hardware ops/W crossover)"
        ),
        axes=(
            SweepAxis("n_hosts", hosts),
            SweepAxis("rate_per_host_kpps", rates_kpps),
        ),
        fixed=dict(duration_s=duration_s, keyspace=keyspace, seed=seed),
        tip_axis="rate_per_host_kpps",
    )


@register_sweep("sweep-rack-hetero")
def sweep_rack_hetero(
    device_kinds: Tuple[str, ...] = ("netfpga-sume", "asic-nic", "none"),
    rates_kpps: Tuple[float, ...] = (8.0, 16.0, 24.0, 32.0),
    duration_s: float = 0.5,
    keyspace: int = 8_000,
    seed: int = 11,
) -> ScenarioSweepSpec:
    """The device axis made sweepable: homogeneous ``rack-hetero`` racks,
    one grid row per **device kind** × a per-host rate ramp, so the
    tipping table reports each device's own rack-scale crossover — the
    ASIC SmartNIC tips at a lower rate than the NetFPGA, and the NIC-only
    row never tips (there is no hardware to win)."""
    return ScenarioSweepSpec(
        name="sweep-rack-hetero",
        base="rack-hetero",
        description=(
            "per-device tipping sweep: homogeneous racks per offload "
            "device kind × per-host rate ramp (incl. NIC-only)"
        ),
        axes=(
            SweepAxis("device_kind", device_kinds),
            SweepAxis("rate_per_host_kpps", rates_kpps),
        ),
        fixed=dict(
            duration_s=duration_s,
            keyspace=keyspace,
            seed=seed,
            # steady grid points: the ramp is the mixed showcase's drive
            ramp=False,
            # controllers must fit the short horizon for the on-demand pin
            ctl_window_s=0.15,
        ),
        tip_axis="rate_per_host_kpps",
    )


@register_sweep("sweep-fabric-scale")
def sweep_fabric_scale(
    racks: Tuple[int, ...] = (1, 2, 4),
    rates_kpps: Tuple[float, ...] = (8.0, 16.0, 24.0, 32.0),
    hosts_per_rack: int = 2,
    oversubscription: float = 4.0,
    duration_s: float = 0.5,
    keyspace: int = 8_000,
    seed: int = 11,
) -> ScenarioSweepSpec:
    """The tipping sweep at datacenter scale: leaf-spine ``fabric-kvs``
    grids swept over the **rack count** × a per-host rate ramp.  Each rack
    row reports its own software/hardware crossover; cross-rack dispatch
    through the oversubscribed spine uplinks is what separates the
    multi-rack rows from ``sweep-rack-kvs``'s single-ToR curve."""
    return ScenarioSweepSpec(
        name="sweep-fabric-scale",
        base="fabric-kvs",
        description=(
            "fabric-scale tipping sweep: 1→4 leaf-spine racks × per-host "
            "rate ramp over oversubscribed uplinks"
        ),
        axes=(
            SweepAxis("n_racks", racks),
            SweepAxis("rate_per_host_kpps", rates_kpps),
        ),
        fixed=dict(
            hosts_per_rack=hosts_per_rack,
            oversubscription=oversubscription,
            duration_s=duration_s,
            keyspace=keyspace,
            seed=seed,
        ),
        tip_axis="rate_per_host_kpps",
    )


@register_sweep("sweep-rack-mixed")
def sweep_rack_mixed(
    groups: Tuple[int, ...] = (1, 2, 3),
    duration_s: float = 1.0,
    kvs_rate_kpps: float = 8.0,
    dns_rate_kqps: float = 6.0,
    seed: int = 23,
) -> ScenarioSweepSpec:
    """The mixed rack swept over its Paxos group count — the per-group
    power-attribution showcase (KVS shards + DNS replicas + N consensus
    groups all drawing from one rack budget)."""
    return ScenarioSweepSpec(
        name="sweep-rack-mixed",
        base="rack-mixed",
        description=(
            "mixed-rack sweep over Paxos group count (per-group/per-"
            "placement wall-power attribution)"
        ),
        axes=(SweepAxis("n_paxos_groups", groups),),
        fixed=dict(
            duration_s=duration_s,
            kvs_rate_kpps=kvs_rate_kpps,
            dns_rate_kqps=dns_rate_kqps,
            # no storm: the sweep wants the steady rate, not the phase ramp
            dns_storm_kqps=dns_rate_kqps,
            seed=seed,
        ),
        tip_axis="n_paxos_groups",
    )
