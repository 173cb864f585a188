"""The fabric generalization of the steady-state fast path.

Every ``fabric-*`` registry scenario gets an explicit eligible/ineligible
verdict, the analytic uplink model gets unit coverage, and the DES-vs-
analytic tolerance gate is held at both a 1:1 and the default 4:1
oversubscription ratio.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.naming import rack_qualified
from repro.net.link import fifo_wait_us, serialization_time_us
from repro.net.topology import uplink_effective_bps
from repro.scenarios import (
    build_spec,
    software_variant,
    split_steady,
    steady_eligible,
    steady_point,
    validate_fastpath,
)
from repro.scenarios.fastpath import DEFAULT_REL_TOL
from repro.scenarios.spec import UplinkSpec
from repro.steady import NOMINAL_KVS_PACKET_BYTES, FabricUplinkModel
from repro.units import gbit_per_s


def small_fabric(oversubscription=4.0, n_racks=2, **overrides):
    """A reduced ``fabric-kvs``: short horizon, small keyspace, clients
    entering at the next rack's ToR (all load crosses the spine)."""
    overrides.setdefault("duration_s", 0.5)
    overrides.setdefault("keyspace", 8_000)
    return build_spec(
        "fabric-kvs",
        n_racks=n_racks,
        oversubscription=oversubscription,
        **overrides,
    )


# -- eligibility: every fabric-* registry scenario --------------------------


def test_fabric_kvs_is_eligible():
    # pinned placements, no controllers anywhere, rate-constant workload
    assert steady_eligible(small_fabric())
    assert steady_eligible(software_variant(small_fabric()))


def test_fabric_kvs_crossrack_is_not_eligible():
    # a live centralized controller AND a served_by donation: serving
    # assignments can move mid-run, so the DES must replay it
    spec = build_spec("fabric-kvs-crossrack")
    assert not steady_eligible(spec)
    # the sweep's software pin strips the fabric controller but keeps the
    # donated shard — still ineligible
    assert not steady_eligible(software_variant(spec))


def test_fabric_paxos_split_is_not_eligible():
    # Paxos groups are closed-loop; the steady curves do not model them
    assert not steady_eligible(build_spec("fabric-paxos-split"))


def test_split_steady_on_fabric_is_all_or_nothing():
    import dataclasses

    from repro.scenarios import ControllerSpec

    spec = small_fabric()
    indices, residual = split_steady(spec)
    assert indices == tuple(range(len(spec.kvs_hosts)))
    assert residual is None

    # give one host a live controller: eligible and residual hosts would
    # share uplink FIFO queues, so no partial split — full DES instead
    host = dataclasses.replace(
        spec.kvs_hosts[0], controller=ControllerSpec(kind="ondemand")
    )
    mixed = dataclasses.replace(spec, kvs_hosts=(host,) + spec.kvs_hosts[1:])
    assert split_steady(mixed) == ((), mixed)


# -- the analytic uplink model ----------------------------------------------


def test_serialization_time_matches_wire_math():
    # 128 B at 10G: 1024 bits / 1e10 bps = 0.1024 us
    assert serialization_time_us(128.0, 10e9) == pytest.approx(0.1024)
    with pytest.raises(ConfigurationError):
        serialization_time_us(128.0, 0.0)


def test_fifo_wait_grows_with_load_and_stays_finite():
    assert fifo_wait_us(0.0, 128.0, 10e9) == 0.0
    light = fifo_wait_us(1e5, 128.0, 10e9)
    heavy = fifo_wait_us(5e6, 128.0, 10e9)
    assert 0.0 < light < heavy
    # utilization is clamped below 1: even an absurd offered load yields a
    # finite wait instead of a division blow-up
    assert math.isfinite(fifo_wait_us(1e12, 128.0, 10e9))
    with pytest.raises(ConfigurationError):
        fifo_wait_us(-1.0, 128.0, 10e9)


def test_uplink_effective_bps_divides_by_oversubscription():
    assert uplink_effective_bps(40e9, 4.0) == pytest.approx(10e9)
    assert uplink_effective_bps(40e9, 1.0) == pytest.approx(40e9)
    with pytest.raises(ConfigurationError):
        uplink_effective_bps(40e9, 0.5)
    with pytest.raises(ConfigurationError):
        uplink_effective_bps(0.0, 4.0)


def test_uplink_spec_effective_bandwidth_matches_builder_arithmetic():
    uplink = UplinkSpec(bandwidth_gbps=40.0, oversubscription=4.0)
    assert uplink.effective_bandwidth_bps() == pytest.approx(
        uplink_effective_bps(gbit_per_s(40.0), 4.0)
    )


def test_fabric_uplink_model_composition():
    model = FabricUplinkModel(latency_us=5.0, effective_bps=10e9)
    assert model.packet_bytes == NOMINAL_KVS_PACKET_BYTES
    assert model.capacity_pps == pytest.approx(
        10e9 / (NOMINAL_KVS_PACKET_BYTES * 8.0)
    )
    assert model.utilization(model.capacity_pps / 2) == pytest.approx(0.5)
    # one crossing = propagation + serialization + the FIFO wait at load
    load = model.capacity_pps / 2
    assert model.crossing_us(load) == pytest.approx(
        5.0 + model.serialization_us + model.wait_us(load)
    )
    # below capacity the link is fluid; above it throughput scales down
    assert model.throughput_factor(load) == 1.0
    assert model.throughput_factor(2 * model.capacity_pps) == pytest.approx(
        0.5
    )


# -- the fabric steady point ------------------------------------------------


def test_fabric_steady_point_uses_rack_qualified_keys():
    spec = small_fabric()
    estimate = steady_point(spec, "software")
    expected = {
        rack_qualified(spec.host_rack(host), host.name)
        for host in spec.kvs_hosts
    }
    assert set(estimate.power_by_placement) == expected
    assert all("/" in key for key in estimate.power_by_placement)
    assert sum(estimate.power_by_placement.values()) == pytest.approx(
        estimate.total_power_w
    )


def test_cross_rack_latency_pays_the_uplink_adder():
    """Same fleet, same rates: the 2-rack spec (every request and response
    crossing the spine) must answer slower than the 1-rack spec (all
    traffic under one ToR) by at least four propagation delays."""
    single = steady_point(small_fabric(n_racks=1), "software")
    crossed = steady_point(small_fabric(n_racks=2), "software")
    uplink_latency_us = 5.0  # fabric-kvs default
    assert crossed.p50_latency_us >= (
        single.p50_latency_us + 4 * uplink_latency_us
    )


def test_oversubscription_raises_the_analytic_latency():
    flat = steady_point(small_fabric(oversubscription=1.0), "software")
    squeezed = steady_point(small_fabric(oversubscription=4.0), "software")
    # same offered load through a 4x narrower pipe: longer serialization
    # and a busier FIFO, never faster
    assert squeezed.p50_latency_us > flat.p50_latency_us
    assert squeezed.achieved_pps <= flat.achieved_pps


# -- the tolerance gate at both oversubscription ratios ---------------------


@pytest.mark.parametrize("oversubscription", [1.0, 4.0])
def test_fabric_fastpath_gate_holds_against_des(oversubscription):
    """The ISSUE 9 satellite: DES-vs-analytic relative error on achieved
    pps, total wall W and ops/W stays inside DEFAULT_REL_TOL on a 2-rack
    fabric at 1:1 and 4:1 uplink oversubscription.  The gate takes the
    sweep's *pinned* variant — the shape ``run_sweep(fastpath=True)``
    actually answers (``power_save`` standby cards and all)."""
    gates = validate_fastpath(
        software_variant(small_fabric(oversubscription=oversubscription))
    )
    assert {g.mode for g in gates} == {"software", "hardware"}
    for gate in gates:
        assert gate.ok, (
            f"oversubscription {oversubscription}: {gate.mode} drifted — "
            f"achieved err {gate.achieved_rel_err:.3f}, "
            f"power err {gate.power_rel_err:.3f}, "
            f"ops/W err {gate.ops_per_watt_rel_err:.3f} "
            f"(tol {DEFAULT_REL_TOL})"
        )


def test_validate_fastpath_pins_both_sides():
    """The gate replays ``run_pinned(spec, mode)`` and asks the steady
    model about the same spec, and both sides apply the pin: a grid
    point's own spec (cards without ``power_save``) gives the same gates
    as its software variant, and they pass.  A model that answered the
    unpinned hosts would miss the pinned run's standby cards by over 20%
    of wall power."""
    plain = validate_fastpath(small_fabric())
    pinned = validate_fastpath(software_variant(small_fabric()))
    assert plain == pinned
    assert all(gate.ok for gate in plain)
