"""The steady-state fast path and its DES-vs-analytic tolerance gate."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ControllerSpec,
    build_spec,
    build_sweep_spec,
    host_steady_eligible,
    run_sweep,
    software_variant,
    steady_eligible,
    steady_point,
    validate_fastpath,
)
from repro.scenarios.fastpath import DEFAULT_REL_TOL, pinned_steady_eligible


def small_rack(n_hosts=2, rate_per_host_kpps=12.0):
    """The sweep's software pin of a reduced rack-kvs: controllers pinned
    to ``none``, which is the form the fast path answers."""
    return software_variant(
        build_spec(
            "rack-kvs",
            n_hosts=n_hosts,
            rate_per_host_kpps=rate_per_host_kpps,
            duration_s=0.3,
            keyspace=4_000,
        )
    )


# -- eligibility ------------------------------------------------------------


def test_pinned_kvs_rack_is_eligible():
    assert steady_eligible(small_rack())


def test_live_controllers_are_not_eligible():
    # the raw rack-kvs spec keeps its default host-driven controllers;
    # only the sweep's pinned variants qualify
    assert not steady_eligible(build_spec("rack-kvs"))


def test_paxos_scenario_is_not_eligible():
    assert not steady_eligible(build_spec("fig7-paxos-transition"))


def test_colocated_jobs_are_not_eligible():
    # the sharded racks schedule co-located jobs that shift placements
    assert not steady_eligible(build_spec("rack8-kvs-sharded"))


def test_replaced_controller_breaks_eligibility():
    spec = small_rack()
    host = dataclasses.replace(
        spec.kvs_hosts[0], controller=ControllerSpec(kind="ondemand")
    )
    spec = dataclasses.replace(spec, kvs_hosts=(host,) + spec.kvs_hosts[1:])
    assert not steady_eligible(spec)


# -- the analytic point -----------------------------------------------------


def test_steady_point_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        steady_point(small_rack(), "ondemand")


def test_steady_point_rejects_ineligible_spec():
    with pytest.raises(ConfigurationError):
        steady_point(build_spec("fig7-paxos-transition"), "software")


def test_steady_point_shape():
    spec = small_rack()
    estimate = steady_point(spec, "software")
    assert estimate.mode == "software"
    assert estimate.offered_pps == pytest.approx(24_000.0)
    assert 0.0 < estimate.achieved_pps <= estimate.offered_pps
    assert estimate.total_power_w > 0.0
    assert estimate.ops_per_watt > 0.0
    assert set(estimate.power_by_placement) == {h.name for h in spec.kvs_hosts}
    assert sum(estimate.power_by_placement.values()) == pytest.approx(
        estimate.total_power_w
    )


def test_hardware_pin_beats_software_on_ops_per_watt():
    spec = small_rack()
    software = steady_point(spec, "software")
    hardware = steady_point(spec, "hardware")
    assert hardware.ops_per_watt > software.ops_per_watt


# -- the tolerance gate -----------------------------------------------------


def test_fastpath_gate_holds_against_des():
    """Both pins of a small rack agree with the analytic curves within
    DEFAULT_REL_TOL — the contract run_sweep(fastpath=True) relies on."""
    gates = validate_fastpath(small_rack())
    assert {g.mode for g in gates} == {"software", "hardware"}
    for gate in gates:
        assert gate.ok, (
            f"{gate.mode}: achieved err {gate.achieved_rel_err:.3f}, "
            f"power err {gate.power_rel_err:.3f}, "
            f"ops/W err {gate.ops_per_watt_rel_err:.3f} "
            f"(tol {DEFAULT_REL_TOL})"
        )


@pytest.mark.parametrize(
    "base, overrides",
    [
        ("rack-mixed", {"duration_s": 0.5}),  # Paxos and DNS beside KVS
        ("fig6-kvs-netctl", {}),  # a phased workload
        ("fabric-kvs-crossrack", {}),  # a served_by shard donation
    ],
)
def test_fastpath_gate_refuses_before_any_replay(monkeypatch, base, overrides):
    """An ineligible spec fails at once, with the steady model's error,
    instead of after replaying a pin's whole DES."""
    from repro.scenarios import sweep

    def no_replay(spec, mode):
        raise AssertionError(f"replayed the {mode} pin")

    monkeypatch.setattr(sweep, "run_pinned", no_replay)
    spec = build_spec(base, **overrides)
    assert not pinned_steady_eligible(spec)
    with pytest.raises(ConfigurationError, match="not steady-state eligible"):
        validate_fastpath(spec)


# -- the sweep integration --------------------------------------------------


def test_run_sweep_fastpath_smoke():
    spec = build_sweep_spec(
        "sweep-rack-kvs",
        hosts=(1, 2),
        rates_kpps=(8.0, 32.0),
        duration_s=0.2,
        keyspace=4_000,
    )
    result = run_sweep(spec, fastpath=True)
    assert len(result.points) == 4
    for point in result.points:
        assert point.software.achieved_pps > 0.0
        assert point.hardware.total_power_w > 0.0
        assert point.hardware.ops_per_watt > point.software.ops_per_watt
    # the fast path must still drive the tipping-point reduction + report
    assert result.tipping_points()
    assert "sweep-rack-kvs" in result.render()


# -- per-placement eligibility (split_steady) --------------------------------


def hetero_rack(rate_per_host_kpps=24.0, duration_s=0.25):
    """A mixed rack: one NetFPGA host (can shift) + one NIC-only host.
    ``ramp=False`` keeps the workload rate-constant (phase-free), the
    shape the per-placement fast path requires."""
    return build_spec(
        "rack-hetero",
        device_kinds=("netfpga-sume", "none"),
        rate_per_host_kpps=rate_per_host_kpps,
        ramp=False,
        duration_s=duration_s,
        keyspace=4_000,
    )


def test_host_steady_eligible_per_host():
    from repro.scenarios import ondemand_variant

    od = ondemand_variant(hetero_rack())
    # the offload host keeps a live on-demand controller; the NIC-only
    # host has nothing to shift to and sits pinned
    assert not host_steady_eligible(od.kvs_hosts[0])
    assert host_steady_eligible(od.kvs_hosts[1])


def test_split_steady_fully_eligible_rack():
    from repro.scenarios import split_steady

    spec = small_rack()
    indices, residual = split_steady(spec)
    assert indices == tuple(range(len(spec.kvs_hosts)))
    assert residual is None


def test_split_steady_wrong_shape_returns_spec_unchanged():
    from repro.scenarios import split_steady

    paxos = build_spec("fig7-paxos-transition")
    assert split_steady(paxos) == ((), paxos)


def test_split_steady_mixed_rack_builds_residual_subrack():
    from repro.scenarios import ondemand_variant, split_steady

    od = ondemand_variant(hetero_rack())
    indices, residual = split_steady(od)
    assert indices == (1,)  # the NIC-only host answers analytically
    assert residual is not None
    assert [h.name for h in residual.kvs_hosts] == [od.kvs_hosts[0].name]
    # the residual keeps the full rack's shard space: same n_shards, and
    # the surviving host pinned to its original shard
    assert residual.kvs_workload.n_shards == len(od.kvs_hosts)
    assert residual.kvs_hosts[0].shard_index == 0
    assert residual.sharded


def test_subset_steady_points_compose_to_the_full_estimate():
    from repro.scenarios import split_steady

    spec = small_rack(n_hosts=3)
    full = steady_point(spec, "software")
    parts = [
        steady_point(spec, "software", host_indices=[i])
        for i in range(len(spec.kvs_hosts))
    ]
    assert sum(p.offered_pps for p in parts) == pytest.approx(
        full.offered_pps
    )
    assert sum(p.achieved_pps for p in parts) == pytest.approx(
        full.achieved_pps
    )
    assert sum(p.total_power_w for p in parts) == pytest.approx(
        full.total_power_w
    )


def test_subset_steady_point_answers_a_live_host_as_its_pin():
    """The steady model applies the pin itself: a host with a live
    controller is answered as ``run_pinned`` would replay it (controller
    stripped), the same estimate its pinned variant gets."""
    from repro.scenarios import hardware_variant, ondemand_variant

    od = ondemand_variant(hetero_rack())
    assert not host_steady_eligible(od.kvs_hosts[0])  # live controller
    for mode, variant in (
        ("software", software_variant),
        ("hardware", hardware_variant),
    ):
        got = steady_point(od, mode, host_indices=[0])
        assert repr(got) == repr(
            steady_point(variant(od), mode, host_indices=[0])
        )


def test_subset_steady_point_rejects_a_shard_donation():
    """What a pin keeps still decides: a rack whose host donates its
    shard (``served_by``) is rejected, pinned or not."""
    spec = small_rack(n_hosts=2)
    donor = dataclasses.replace(spec.kvs_hosts[1], served_by="kvs0")
    spec = dataclasses.replace(spec, kvs_hosts=(spec.kvs_hosts[0], donor))
    assert not pinned_steady_eligible(spec)
    for indices in (None, [0]):
        with pytest.raises(ConfigurationError, match="not steady-state"):
            steady_point(spec, "software", host_indices=indices)


def test_hybrid_ondemand_matches_full_des_within_tolerance():
    """The per-placement fast path (analytics for the pinned half, DES
    sub-rack for the shifting half) tracks the full DES on-demand run
    within the fast-path gate tolerance."""
    from repro.scenarios import ondemand_variant, split_steady
    from repro.scenarios.builder import ScenarioBuilder
    from repro.scenarios.sweep import _aggregate, _hybrid_ondemand_aggregate

    od = ondemand_variant(hetero_rack())
    indices, residual = split_steady(od)
    assert indices and residual is not None
    hybrid = _hybrid_ondemand_aggregate(od, indices, residual)

    run = ScenarioBuilder(od).build()
    des = _aggregate(run, run.execute(), "ondemand")
    for attr in ("achieved_pps", "total_power_w", "ops_per_watt"):
        got, want = getattr(hybrid, attr), getattr(des, attr)
        assert abs(got - want) / want <= DEFAULT_REL_TOL, (
            f"{attr}: hybrid {got:.1f} vs DES {want:.1f}"
        )
    # every host is attributed power by exactly one half
    assert set(hybrid.power_by_placement) == set(des.power_by_placement)


def test_run_sweep_fastpath_covers_ondemand_on_mixed_racks():
    """run_sweep(fastpath=True) on the hetero sweep answers the pins
    analytically and the on-demand column hybrid — and still renders an
    on-demand column."""
    result = run_sweep(
        build_sweep_spec(
            "sweep-rack-hetero",
            device_kinds=("netfpga-sume",),
            rates_kpps=(24.0,),
            duration_s=0.1,
            keyspace=4_000,
        ),
        fastpath=True,
    )
    assert all(pt.ondemand is not None for pt in result.points)


def test_residual_subrack_host_series_byte_identical_to_full_rack():
    """The shifting host simulated alone (as the residual sub-rack, full
    shard space retained) reproduces the exact series it shows in the
    complete rack: name-keyed RNG streams, shard-keyed workload streams
    and per-pair ToR links make hosts independent subsystems."""
    from repro.scenarios import ondemand_variant, split_steady
    from repro.scenarios.builder import ScenarioBuilder

    od = ondemand_variant(hetero_rack())
    _, residual = split_steady(od)
    full = ScenarioBuilder(od).build().execute()
    sub = ScenarioBuilder(residual).build().execute()
    name = residual.kvs_hosts[0].name
    a, b = full.host(name), sub.host(name)
    assert a.throughput_series == b.throughput_series
    assert a.latency_series == b.latency_series
    assert a.power_series == b.power_series
    assert a.shift_times_us == b.shift_times_us
    assert (a.responses, a.hw_hits) == (b.responses, b.hw_hits)


class TestSubRackSpecValidation:
    """n_shards/shard_index declare a sub-rack of a larger shard space."""

    def _hosts(self, spec):
        return spec.kvs_hosts

    def test_shard_index_requires_n_shards(self):
        spec = hetero_rack()
        hosts = (
            dataclasses.replace(spec.kvs_hosts[0], shard_index=0),
        ) + spec.kvs_hosts[1:]
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, kvs_hosts=hosts).validate()

    def test_n_shards_must_cover_the_hosts(self):
        spec = hetero_rack()
        with pytest.raises(ConfigurationError):
            dataclasses.replace(
                spec,
                kvs_workload=dataclasses.replace(
                    spec.kvs_workload, n_shards=1
                ),
            ).validate()

    def test_shard_indices_must_be_distinct_and_in_range(self):
        spec = hetero_rack()
        workload = dataclasses.replace(spec.kvs_workload, n_shards=4)
        dup = tuple(
            dataclasses.replace(h, shard_index=2) for h in spec.kvs_hosts
        )
        with pytest.raises(ConfigurationError):
            dataclasses.replace(
                spec, kvs_hosts=dup, kvs_workload=workload
            ).validate()
        oob = (
            dataclasses.replace(spec.kvs_hosts[0], shard_index=4),
            dataclasses.replace(spec.kvs_hosts[1], shard_index=0),
        )
        with pytest.raises(ConfigurationError):
            dataclasses.replace(
                spec, kvs_hosts=oob, kvs_workload=workload
            ).validate()

    def test_single_host_subrack_is_sharded(self):
        """One host owning one shard of a 2-shard space still routes and
        weighs as a sharded rack (the residual sub-rack shape)."""
        spec = hetero_rack()
        sub = dataclasses.replace(
            spec,
            kvs_hosts=(
                dataclasses.replace(spec.kvs_hosts[0], shard_index=0),
            ),
            kvs_workload=dataclasses.replace(spec.kvs_workload, n_shards=2),
        )
        sub.validate()
        assert sub.sharded
