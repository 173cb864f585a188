"""Heterogeneous offload racks: DeviceSpec validation, NIC-only hosts,
the on-demand sweep pin, per-device tipping points, and Paxos groups
sharing acceptor boxes."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    NO_CONTROLLER,
    NO_DEVICE,
    ControllerSpec,
    DeviceSpec,
    DnsHostSpec,
    DnsWorkloadSpec,
    KvsHostSpec,
    KvsWorkloadSpec,
    PaxosSpec,
    ScenarioBuilder,
    ScenarioSpec,
    build_spec,
    build_sweep_spec,
    hardware_variant,
    ondemand_variant,
    run_scenario,
    run_sweep,
    software_variant,
)


def _kvs_spec(**host_kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        name="t",
        duration_s=0.3,
        kvs_hosts=(KvsHostSpec(name="h0", **host_kwargs),),
        kvs_workload=KvsWorkloadSpec(keyspace=500, rate_kpps=2.0),
    )


# ---------------------------------------------------------------------------
# DeviceSpec validation.
# ---------------------------------------------------------------------------


class TestDeviceSpecValidation:
    def test_default_is_the_netfpga(self):
        assert KvsHostSpec(name="h").device.kind == "netfpga-sume"

    def test_unknown_kind_suggests_closest(self):
        spec = _kvs_spec(device=DeviceSpec(kind="netfga-sume"))
        with pytest.raises(ConfigurationError, match="did you mean 'netfpga-sume'"):
            spec.validate()

    def test_exact_case_insensitive_kind_resolves(self):
        _kvs_spec(
            device=DeviceSpec(kind="ASIC-NIC"),
            controller=ControllerSpec(kind="network"),
        ).validate()

    def test_unknown_device_param_rejected(self):
        spec = _kvs_spec(device=DeviceSpec(kind="netfpga-sume", params=dict(pes=9)))
        with pytest.raises(ConfigurationError, match="device param 'pes'"):
            spec.validate()

    def test_params_reach_the_card_factory(self):
        spec = _kvs_spec(
            device=DeviceSpec(kind="netfpga-sume", params=dict(pe_count=2))
        )
        run = ScenarioBuilder(spec).build()
        card = run.kvs_hosts[0].card
        assert sum(1 for m in card.modules if m.startswith("pe")) == 2

    def test_none_device_rejects_start_in_hardware(self):
        spec = _kvs_spec(
            device=NO_DEVICE, controller=NO_CONTROLLER, start_in_hardware=True
        )
        with pytest.raises(ConfigurationError, match="cannot start_in_hardware"):
            spec.validate()

    @pytest.mark.parametrize("kind", ["host", "network", "predictive"])
    def test_none_device_rejects_shifting_controllers(self, kind):
        spec = _kvs_spec(device=NO_DEVICE, controller=ControllerSpec(kind=kind))
        with pytest.raises(ConfigurationError, match="NIC-only"):
            spec.validate()

    def test_none_device_dns_rules_apply_too(self):
        spec = ScenarioSpec(
            name="t",
            duration_s=0.3,
            dns_hosts=(
                DnsHostSpec(name="d0", device=NO_DEVICE, start_in_hardware=True,
                            controller=NO_CONTROLLER),
            ),
            dns_workload=DnsWorkloadSpec(n_names=50, rate_kpps=2.0),
        )
        with pytest.raises(ConfigurationError, match="cannot start_in_hardware"):
            spec.validate()

    def test_paxos_group_rejects_none_device(self):
        spec = ScenarioSpec(
            name="t",
            duration_s=0.3,
            paxos_groups=(PaxosSpec(name="px", device=NO_DEVICE),),
        )
        with pytest.raises(ConfigurationError, match="cannot host paxos"):
            spec.validate()

    def test_paxos_group_rejects_fixed_function_nic(self):
        spec = ScenarioSpec(
            name="t",
            duration_s=0.3,
            paxos_groups=(PaxosSpec(name="px", device=DeviceSpec(kind="asic-nic")),),
        )
        with pytest.raises(ConfigurationError, match="cannot host paxos"):
            spec.validate()


# ---------------------------------------------------------------------------
# NIC-only hosts at runtime.
# ---------------------------------------------------------------------------


class TestNicOnlyHost:
    def test_builds_without_card_or_classifier(self):
        spec = _kvs_spec(device=NO_DEVICE, controller=NO_CONTROLLER)
        run = ScenarioBuilder(spec).build()
        host = run.kvs_hosts[0]
        assert host.card is None
        assert host.hardware is None
        assert host.classifier is None
        assert host.server.nic is not None  # the NIC stays in
        result = run.execute()
        assert result.host("h0").responses > 0
        assert result.host("h0").device_kind == "none"
        assert result.host("h0").hw_hits == 0
        assert result.host("h0").shift_times_us == []

    def test_wall_power_includes_the_nic_not_a_card(self):
        """A NIC-only host's wall draw is platform + 3W NIC — below any
        host carrying a standby card."""
        carded = ScenarioBuilder(_kvs_spec(controller=NO_CONTROLLER)).build()
        nic_only = ScenarioBuilder(
            _kvs_spec(device=NO_DEVICE, controller=NO_CONTROLLER)
        ).build()
        carded.execute()
        nic_only.execute()
        card_w = carded.kvs_hosts[0].wall_sampler.series.values[0]
        nic_w = nic_only.kvs_hosts[0].wall_sampler.series.values[0]
        assert nic_w < card_w


# ---------------------------------------------------------------------------
# Pinned variants on heterogeneous racks.
# ---------------------------------------------------------------------------


class TestHeteroPins:
    def test_hardware_pin_skips_nic_only_hosts(self):
        spec = build_spec("rack-hetero")
        hw = hardware_variant(spec)
        by_kind = {h.device.kind: h for h in hw.kvs_hosts}
        assert by_kind["netfpga-sume"].start_in_hardware
        assert by_kind["asic-nic"].start_in_hardware
        assert not by_kind["none"].start_in_hardware
        hw.validate()  # the pin never violates the NIC-only rules

    def test_software_pin_validates_too(self):
        software_variant(build_spec("rack-hetero")).validate()

    def test_ondemand_variant_keeps_controllers_drops_triggers(self):
        spec = build_spec("rack-mixed")
        od = ondemand_variant(spec)
        assert od.name == "rack-mixed[od]"
        assert od.kvs_hosts[0].colocated == ()
        assert od.kvs_hosts[0].controller == spec.kvs_hosts[0].controller
        for host in (*od.kvs_hosts, *od.dns_hosts):
            assert host.power_save
            assert not host.start_in_hardware
        for group in od.paxos_groups:
            assert group.shifts == spec.paxos_groups[0].shifts or group.shifts
            assert not group.start_in_hardware


# ---------------------------------------------------------------------------
# The hetero scenario and sweep end to end (tiny horizons).
# ---------------------------------------------------------------------------


class TestRackHetero:
    def test_mixed_rack_runs_and_labels_devices(self):
        result = run_scenario(
            "rack-hetero",
            duration_s=1.0,
            rate_per_host_kpps=4.0,
            mid_rate_per_host_kpps=5.0,
            peak_rate_per_host_kpps=6.0,
            keyspace=2_000,
        )
        kinds = {h.name: h.device_kind for h in result.hosts}
        assert kinds == {
            "kvs0": "netfpga-sume", "kvs1": "asic-nic", "kvs2": "none",
        }
        assert all(h.responses > 0 for h in result.hosts)
        # the device column appears for heterogeneous racks only
        assert "asic-nic" in result.render()

    def test_homogeneous_override(self):
        spec = build_spec("rack-hetero", device_kind="asic-nic", ramp=False)
        assert {h.device.kind for h in spec.kvs_hosts} == {"asic-nic"}
        assert spec.kvs_workload.phases == ()

    def test_sweep_reports_per_device_tipping_points(self):
        spec = build_sweep_spec(
            "sweep-rack-hetero",
            device_kinds=("netfpga-sume", "asic-nic", "none"),
            rates_kpps=(8.0, 32.0),
            duration_s=0.3,
            keyspace=1_000,
        )
        result = run_sweep(spec)
        tips = {t.fixed["device_kind"]: t for t in result.tipping_points()}
        assert set(tips) == {"netfpga-sume", "asic-nic", "none"}
        # the NIC-only rack never tips: hardware == software there
        assert tips["none"].crossover is None
        for pt in result.points:
            if pt.params["device_kind"] == "none":
                assert pt.hardware.ops_per_watt == pytest.approx(
                    pt.software.ops_per_watt
                )
            assert pt.ondemand is not None
            assert pt.ondemand.achieved_pps > 0
        # the cheaper card tips no later than the NetFPGA
        asic_tip = tips["asic-nic"].crossover
        netfpga_tip = tips["netfpga-sume"].crossover
        if asic_tip is not None and netfpga_tip is not None:
            assert asic_tip <= netfpga_tip
        text = result.render()
        assert "od ops/W" in text
        assert "ondemand ops/W @ tip" in text


# ---------------------------------------------------------------------------
# Shared acceptor boxes.
# ---------------------------------------------------------------------------


class TestSharedAcceptors:
    def test_acceptor_hosts_length_must_match(self):
        spec = ScenarioSpec(
            name="t",
            duration_s=0.3,
            paxos_groups=(
                PaxosSpec(name="px", n_acceptors=3, acceptor_hosts=("a", "b")),
            ),
        )
        with pytest.raises(ConfigurationError, match="2 acceptor hosts for 3"):
            spec.validate()

    def test_shared_names_collide_only_with_non_acceptors(self):
        spec = ScenarioSpec(
            name="t",
            duration_s=0.3,
            kvs_hosts=(KvsHostSpec(name="box0"),),
            kvs_workload=KvsWorkloadSpec(),
            paxos_groups=(
                PaxosSpec(name="px", n_acceptors=1, acceptor_hosts=("box0",)),
            ),
        )
        with pytest.raises(ConfigurationError, match="box0"):
            spec.validate()

    def test_two_groups_share_boxes_and_split_power(self):
        result = run_scenario("rack-paxos-shared", duration_s=1.2)
        assert all(g.decided > 0 for g in result.paxos_groups)
        assert result.attributed_power_w() == pytest.approx(
            result.total_wall_power_w, abs=1e-6
        )
        # px0 drives 3 clients, px1 one: the busier group owns the larger
        # share of the shared boxes (proportional, not equal, split)
        assert (
            result.power_by_placement["px0"] > result.power_by_placement["px1"]
        )

    def test_shared_boxes_are_sampled_once(self):
        spec = build_spec("rack-paxos-shared", duration_s=0.5)
        run = ScenarioBuilder(spec).build()
        g0, g1 = run.paxos_groups
        for name in spec.paxos_groups[0].acceptor_hosts:
            assert g0.wall_samplers[name] is g1.wall_samplers[name]

    def test_disjoint_groups_still_lay_out_disjointly(self):
        spec = build_spec("rack-mixed")
        names = [
            node for g in spec.paxos_groups for node in g.node_names()
        ]
        assert len(names) == len(set(names))
