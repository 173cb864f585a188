"""The steady-grid kernels: parity of every flat kernel with its scalar
model, and byte-identity of :func:`steady_grid` against the scalar steady
model kept here as an oracle."""

import math
import random
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import pytest

from repro import calibration as cal
from repro.errors import ConfigurationError
from repro.hw.device import device_names, get_device
from repro.naming import rack_qualified
from repro.scenarios import (
    ScenarioSpec,
    build_spec,
    build_sweep_spec,
    clear_spec_cache,
    hardware_variant,
    ondemand_variant,
    software_variant,
    split_steady,
    steady_grid,
    steady_point,
)
from repro.scenarios.fastpath import (
    _FASTPATH_MODES,
    SteadyEstimate,
    _fabric_uplink_model,
    _host_layout,
    _host_racks,
    _per_host_rates,
    _rack_steady_shape,
    host_steady_eligible,
    steady_eligible,
)
from repro.scenarios.sweep import _materialize
from repro.steady import grid
from repro.steady.base import SoftwareCurveModel
from repro.steady.fabric import FabricUplinkModel
from repro.steady.kvs import memcached_model
from repro.steady.ondemand import device_hardware_model

#: Registered sweeps whose every grid point is steady-state eligible —
#: the sweeps the batched kernel (and the adaptive search) covers.
ELIGIBLE_SWEEPS = ["sweep-rack-kvs", "sweep-rack-hetero", "sweep-fabric-scale"]

#: Small but non-degenerate rates: below, at, and beyond a 66 kpps
#: capacity, plus zero rate, so the saturation branches of every kernel
#: are exercised.
_RATE = [0.0, 4_000.0, 38_000.0, 66_000.0, 250_000.0]


def _left_sum(values: Iterable[float]) -> float:
    """Add left to right from 0.0: the grid's per-spec fold, and what
    ``sum()`` gives before Python 3.12 (3.12 compensates)."""
    return reduce(add, values, 0.0)


def _eligible_grid(name):
    sweep = build_sweep_spec(name)
    return [_materialize(sweep, params) for params in sweep.points()]


# ---------------------------------------------------------------------------
# The oracle: the scalar, one-host-at-a-time steady model.
# ---------------------------------------------------------------------------


def _host_models(host, mode: str):
    """(power_at(pps), capacity_pps, latency_at(pps)) for one host+mode."""
    software = memcached_model()
    if mode == "software" or not host.device.is_offload:
        # the software pin (and a NIC-only host under the hardware pin,
        # which has nothing to shift to).  power_save holds a present card
        # in its standby configuration: the card replaces the NIC, so the
        # host curve loses the NIC idle share and gains the standby draw.
        if host.device.is_offload and host.power_save:
            profile = get_device(host.device.kind)
            standby_w = profile.standby_power_w("kvs")

            def power_at(pps: float) -> float:
                return (
                    software.power_at(pps)
                    - cal.NIC_MELLANOX_CX311A_IDLE_W
                    + standby_w
                )

            return power_at, software.capacity_pps, software.latency_at
        return software.power_at, software.capacity_pps, software.latency_at
    hardware = device_hardware_model("kvs", host.device.kind)
    return hardware.power_at, hardware.capacity_pps, hardware.latency_at


def _uplink_direction_loads(
    rack_names: Sequence[str],
    racks: Sequence[Tuple[str, str]],
    rates: Sequence[float],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Offered pps on each uplink direction: ``(up[rack], down[rack])``,
    from every host's ``(host rack, client rack)`` pair and offered rate,
    in host order: a cross-rack host's requests leave the client's rack
    (up) and enter the host's rack (down), and its responses make the
    reverse trip.  Loads cover the **whole** fleet: the FIFO uplinks
    queue everyone's packets together."""
    up = {rack: 0.0 for rack in rack_names}
    down = {rack: 0.0 for rack in rack_names}
    for (host_rack, client_rack), rate in zip(racks, rates):
        if client_rack == host_rack:
            continue
        up[client_rack] += rate
        down[host_rack] += rate
        up[host_rack] += rate
        down[client_rack] += rate
    return up, down


def scalar_steady_point(
    spec: ScenarioSpec,
    mode: str,
    host_indices: Optional[Sequence[int]] = None,
) -> SteadyEstimate:
    """Analytic aggregate for one pinned mode of an eligible scenario.

    ``host_indices`` restricts the estimate to a subset of the rack's
    hosts (the per-placement fast path: analytics for the pinned hosts of
    a mixed rack while the shifting ones run DES).  Rates always come from
    the **full** rack's shard split, so the subset estimate composes
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
    if host_indices is None:
        if not steady_eligible(spec):
            raise ConfigurationError(
                f"scenario {spec.name!r} is not steady-state eligible "
                "(see scenarios.fastpath.steady_eligible)"
            )
        host_indices = range(len(spec.kvs_hosts))
    else:
        if not _rack_steady_shape(spec):
            raise ConfigurationError(
                f"scenario {spec.name!r} is not a rate-constant KVS rack"
            )
        for i in host_indices:
            if not host_steady_eligible(spec.kvs_hosts[i]):
                raise ConfigurationError(
                    f"host {spec.kvs_hosts[i].name!r} is not steady-state "
                    "eligible (live controller or co-located job)"
                )
    rates = _per_host_rates(spec)
    selected = [(spec.kvs_hosts[i], rates[i]) for i in host_indices]
    total_offered = _left_sum(rate for _, rate in selected)
    fabric = spec.fabric
    if fabric is not None:
        uplink = _fabric_uplink_model(fabric)
        racks = [_host_racks(fabric, host) for host in spec.kvs_hosts]
        up_loads, down_loads = _uplink_direction_loads(
            fabric.rack_names(), racks, rates
        )
    achieved = 0.0
    power_by_placement: Dict[str, float] = {}
    latencies: List[Tuple[float, float]] = []  # (served share, latency)
    for host, rate in selected:
        power_at, capacity, latency_at = _host_models(host, mode)
        served = min(rate, capacity)
        latency = latency_at(rate)
        key = host.name
        if fabric is not None:
            host_rack, client_rack = _host_racks(fabric, host)
            key = rack_qualified(host_rack, host.name)
            if client_rack != host_rack:
                # request: client-rack up, host-rack down; response:
                # host-rack up, client-rack down — four traversals, each
                # at its own direction's offered load
                directions = (
                    up_loads[client_rack],
                    down_loads[host_rack],
                    up_loads[host_rack],
                    down_loads[client_rack],
                )
                latency += _left_sum(uplink.crossing_us(load) for load in directions)
                served *= min(
                    uplink.throughput_factor(load) for load in directions
                )
        achieved += served
        power_by_placement[key] = power_at(rate)
        latencies.append((served, latency))
    total_power = _left_sum(power_by_placement.values())
    total_served = _left_sum(share for share, _ in latencies) or 1.0
    # the rack-level "median" of per-host flat medians: served-weighted
    p50 = _left_sum(share * lat for share, lat in latencies) / total_served
    return SteadyEstimate(
        mode=mode,
        offered_pps=total_offered,
        achieved_pps=achieved,
        total_power_w=total_power,
        p50_latency_us=p50,
        p99_latency_us=p50,  # steady curves model medians only
        ops_per_watt=achieved / total_power if total_power > 0 else 0.0,
        power_by_placement=power_by_placement,
    )


# ---------------------------------------------------------------------------
# Kernel-level parity: each flat kernel vs. its scalar model, same inputs.
# ---------------------------------------------------------------------------


def _kvs_hardware_models():
    """The KVS card line of every registered offload device."""
    return [
        device_hardware_model("kvs", kind)
        for kind in device_names()
        if get_device(kind).is_offload
    ]


class TestKernelParity:
    """Each kernel must equal its scalar model method exactly (``==`` on
    floats, not approx) — that is what makes the grid fast path
    byte-identical rather than merely close."""

    def test_software_power(self):
        n = len(_RATE)
        for model in (
            memcached_model(),
            SoftwareCurveModel("frac", 66_000.0, 35.0, 90.0, alpha=0.53),
            SoftwareCurveModel(
                "poly", 66_000.0, 35.0, 90.0, alpha=2.0, poly_w=3.0,
                poly_exp=2.0,
            ),
        ):
            span = model.peak_w - model.idle_w - model.poly_w
            columns = (
                [model.capacity_pps] * n,
                [model.idle_w] * n,
                [span] * n,
                [model.alpha] * n,
                [model.poly_w] * n,
                [model.poly_exp] * n,
            )
            plain = grid.software_power(_RATE, *columns, [0.0] * n, [0.0] * n)
            assert plain == [model.power_at(r) for r in _RATE], model.name
            # the power-save swap: NIC idle out, card standby in
            swapped = grid.software_power(
                _RATE, *columns, [4.1] * n, [1.2] * n
            )
            assert swapped == [
                (model.power_at(r) - 4.1) + 1.2 for r in _RATE
            ], model.name

    def test_pow_elementwise_is_python_pow(self):
        """The α-curve raises each utilization with python's float pow,
        the operation the scalar curve uses (an array pow may differ in
        the last ulp)."""
        us = [0.0, 0.25, 0.5, 0.997, 1.0]
        n = len(us)
        # capacity 1, idle 0, span 1, no poly term, no swap: p = u ** α
        out = grid.software_power(
            us, [1.0] * n, [0.0] * n, [1.0] * n, [0.53] * n, [0.0] * n,
            [2.0] * n, [0.0] * n, [0.0] * n,
        )
        assert out == [u ** 0.53 for u in us]

    def test_software_latency(self):
        model = memcached_model()
        n = len(_RATE)
        assert grid.software_latency(
            _RATE, [model.capacity_pps] * n, [model.base_latency_us()] * n
        ) == [model.latency_at(r) for r in _RATE]

    def test_hardware_power(self):
        n = len(_RATE)
        for model in _kvs_hardware_models():
            assert grid.hardware_power(
                _RATE,
                [model.capacity_pps] * n,
                [model.power_at(0.0)] * n,
                [model.card_dynamic_max_w] * n,
            ) == [model.power_at(r) for r in _RATE], model.name

    def test_served_pps(self):
        for model in (memcached_model(), *_kvs_hardware_models()):
            assert grid.served_pps(
                _RATE, [model.capacity_pps] * len(_RATE)
            ) == [model.achieved_pps(r) for r in _RATE], model.name

    def test_crossing_us(self):
        uplink = FabricUplinkModel(latency_us=1.5, effective_bps=2.5e9)
        loads = [0.0, 10_000.0, 900_000.0, 2_000_000.0, 5_000_000.0]
        n = len(loads)
        assert grid.crossing_us(
            loads, [uplink.latency_us] * n, [uplink.serialization_us] * n
        ) == [uplink.crossing_us(load) for load in loads]

    def test_throughput_factor(self):
        uplink = FabricUplinkModel(latency_us=1.5, effective_bps=1.024e8)
        loads = [0.0, 50_000.0, 100_000.0, 150_000.0, 400_000.0]
        assert uplink.capacity_pps == 100_000.0
        assert grid.throughput_factor(
            loads, [uplink.capacity_pps] * len(loads)
        ) == [uplink.throughput_factor(load) for load in loads]


# ---------------------------------------------------------------------------
# Grid-level identity: steady_grid == the scalar oracle, on real sweeps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ELIGIBLE_SWEEPS)
@pytest.mark.parametrize("mode", ["software", "hardware"])
def test_steady_grid_matches_steady_point(name, mode):
    variant = software_variant if mode == "software" else hardware_variant
    specs = [variant(spec) for spec in _eligible_grid(name)]
    assert all(steady_eligible(spec) for spec in specs)
    want = [scalar_steady_point(spec, mode) for spec in specs]
    # exact equality, field for field — byte-identical, not approx
    assert steady_grid(specs, mode) == want


@pytest.mark.parametrize("name", ELIGIBLE_SWEEPS)
def test_steady_point_applies_the_pin(name):
    """``steady_point(spec, mode)`` answers ``run_pinned(spec, mode)``:
    a grid point's own spec and its pinned variant get the same estimate,
    for both pins of every point."""
    for spec in _eligible_grid(name):
        for mode, variant in (
            ("software", software_variant),
            ("hardware", hardware_variant),
        ):
            assert repr(steady_point(spec, mode)) == repr(
                steady_point(variant(spec), mode)
            ), (spec.name, mode)


@pytest.mark.parametrize("rate", [8.0, 16.0, 24.0, 32.0])
def test_steady_grid_subset_matches_steady_point(rate):
    """The per-placement subset: the NIC-only host of a NetFPGA +
    NIC-only rack's on-demand pin, rated off the full rack's split."""
    od = ondemand_variant(
        build_spec(
            "rack-hetero",
            device_kinds=("netfpga-sume", "none"),
            rate_per_host_kpps=rate,
            ramp=False,
            keyspace=4_000,
        )
    )
    indices, residual = split_steady(od)
    assert indices == (1,) and residual is not None
    want = [scalar_steady_point(od, "software", host_indices=indices)]
    assert steady_grid([od], "software", indices) == want


def test_steady_grid_totals_add_left_to_right():
    """A spec's totals fold its hosts left to right, in host order.  On
    this 8-host rack the per-host power, served rate and offered rate
    each round differently under a compensated sum (``sum()`` on 3.12)."""
    sweep = build_sweep_spec("sweep-rack-kvs")
    spec = software_variant(
        _materialize(sweep, {"n_hosts": 8, "rate_per_host_kpps": 16.0})
    )
    (est,) = steady_grid([spec], "software")
    hosts = [
        steady_grid([spec], "software", host_indices=[i])[0] for i in range(8)
    ]
    powers = list(est.power_by_placement.values())
    served = [host.achieved_pps for host in hosts]
    offered = [host.offered_pps for host in hosts]
    for values in (powers, served, offered):
        assert math.fsum(values) != _left_sum(values)  # the orders differ
    assert est.total_power_w == _left_sum(powers)
    assert est.achieved_pps == _left_sum(served)
    assert est.offered_pps == _left_sum(offered)
    assert est == scalar_steady_point(spec, "software")


def test_steady_grid_rejects_unknown_mode():
    specs = [software_variant(_eligible_grid("sweep-rack-kvs")[0])]
    with pytest.raises(ConfigurationError, match="fast path answers"):
        steady_grid(specs, "turbo")


def test_steady_grid_rejects_ineligible_spec():
    sweep = build_sweep_spec("sweep-rack-mixed")
    spec = software_variant(_materialize(sweep, sweep.points()[0]))
    assert not steady_eligible(spec)
    with pytest.raises(ConfigurationError, match="not steady-state eligible"):
        steady_grid([spec], "software")


def test_steady_grid_empty_input():
    assert steady_grid([], "software") == []


# ---------------------------------------------------------------------------
# The host-layout memo: keyed by value, cold or warm, in a mixed batch.
# ---------------------------------------------------------------------------


def _mixed_batch() -> List[ScenarioSpec]:
    """Both pins of every point of every eligible sweep, shuffled: ramp
    groups, host counts, device kinds, single-ToR racks and fabrics
    interleaved in one batch."""
    specs = [
        variant(spec)
        for name in ELIGIBLE_SWEEPS
        for spec in _eligible_grid(name)
        for variant in (software_variant, hardware_variant)
    ]
    random.Random(16).shuffle(specs)
    return specs


def test_steady_grid_memo_matches_oracle_on_a_mixed_batch():
    """Every (mode, host subset) call over one shuffled batch equals the
    scalar oracle by ``repr``: first on an empty layout memo, then on the
    memo the first pass filled.  The calls ask about the same host tuples
    under both modes and with and without a subset, so a layout key that
    dropped either would serve another call's layout."""
    specs = _mixed_batch()
    calls = [
        (mode, indices) for mode in _FASTPATH_MODES for indices in (None, (0,))
    ]
    want = {
        call: [repr(scalar_steady_point(spec, *call)) for spec in specs]
        for call in calls
    }
    clear_spec_cache()
    assert _host_layout.cache_info().currsize == 0
    for memo in ("cold", "warm"):
        for mode, indices in calls:
            got = steady_grid(specs, mode, indices)
            assert [repr(est) for est in got] == want[(mode, indices)], memo
    assert _host_layout.cache_info().hits > 0
