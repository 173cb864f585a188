"""The unified controller plane: every ControllerSpec kind builds, runs,
and shifts on an appropriate trigger, for every application family.

The matrix is the tentpole contract of the scenario engine: *who decides*
to shift (§9) is a pluggable policy, so host-driven, network-driven and
predictive controllers must all be reachable from a spec and actually
drive transitions — plus the validation error paths for the new specs.
"""

import pytest

from repro.core import (
    CONTROLLER_KINDS,
    PAXOS_CONTROLLER_KINDS,
    HostController,
    NetworkController,
    PredictiveController,
    ShiftController,
)
from repro.core.paxos_controller import PaxosShiftController
from repro.errors import ConfigurationError
from repro.scenarios import (
    NO_CONTROLLER,
    ColocatedJobSpec,
    ControllerSpec,
    DnsHostSpec,
    DnsWorkloadSpec,
    KvsHostSpec,
    KvsWorkloadSpec,
    PaxosSpec,
    SamplingSpec,
    ScenarioBuilder,
    ScenarioSpec,
    hardware_variant,
    software_variant,
)
from repro.units import msec, sec


def test_kind_registries_cover_the_paper_controllers():
    assert set(CONTROLLER_KINDS) == {"host", "network", "predictive", "none"}
    assert set(PAXOS_CONTROLLER_KINDS) == {"schedule", "rate"}


def test_every_concrete_controller_implements_the_protocol():
    for cls in (HostController, NetworkController, PredictiveController,
                PaxosShiftController):
        assert issubclass(cls, ShiftController)


# ---------------------------------------------------------------------------
# The KVS matrix: one host per kind, each shifting on its natural trigger.
# ---------------------------------------------------------------------------

_FAST_WINDOWS = dict(window_us=sec(0.5), tick_us=msec(50.0))

#: kind -> (ControllerSpec, colocated jobs, workload phases)
_KVS_MATRIX = {
    "host": (
        ControllerSpec(kind="host", params=_FAST_WINDOWS),
        (ColocatedJobSpec(start_s=0.5, stop_s=3.5),),
        (),
    ),
    "network": (
        ControllerSpec(
            kind="network",
            params=dict(
                up_rate_pps=6_000.0,
                down_rate_pps=2_000.0,
                up_window_us=sec(0.5),
                down_window_us=sec(0.5),
                tick_us=msec(50.0),
            ),
        ),
        (),
        ((0.5, 12.0),),  # load ramp: 2 -> 12 kpps
    ),
    "predictive": (
        ControllerSpec(kind="predictive", params=dict(window_us=sec(0.5))),
        (),
        ((0.5, 12.0),),
    ),
}


def _kvs_spec(kind: str, duration_s: float = 3.0) -> ScenarioSpec:
    controller, jobs, phases = _KVS_MATRIX[kind]
    return ScenarioSpec(
        name=f"matrix-{kind}",
        duration_s=duration_s,
        kvs_hosts=(
            KvsHostSpec(name="h0", controller=controller, colocated=jobs),
        ),
        kvs_workload=KvsWorkloadSpec(
            keyspace=3_000,
            rate_kpps=8.0 if kind == "host" else 2.0,
            phases=phases,
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=250.0),
    )


@pytest.mark.parametrize("kind", sorted(_KVS_MATRIX))
def test_kvs_controller_kind_builds_runs_and_shifts(kind):
    run = ScenarioBuilder(_kvs_spec(kind)).build()
    host = run.kvs_hosts[0]
    assert isinstance(host.controller, ShiftController)
    assert host.controller.kind == kind
    result = run.execute()
    assert result.hosts[0].responses > 0
    assert result.hosts[0].shift_times_us, f"{kind} controller never shifted"
    assert result.hosts[0].controller_kind == kind
    # the controller's own record agrees with the host timeline
    assert host.controller.shift_times_us() == result.hosts[0].shift_times_us


def test_kind_none_builds_no_controller_and_never_shifts():
    spec = ScenarioSpec(
        name="matrix-none",
        duration_s=1.0,
        kvs_hosts=(KvsHostSpec(name="h0", controller=NO_CONTROLLER),),
        kvs_workload=KvsWorkloadSpec(keyspace=2_000, rate_kpps=4.0),
    )
    run = ScenarioBuilder(spec).build()
    assert run.kvs_hosts[0].controller is None
    result = run.execute()
    assert result.hosts[0].shift_times_us == []
    assert result.hosts[0].controller_kind == "none"


# ---------------------------------------------------------------------------
# DNS: the network-controlled query storm, and the host kind on DNS.
# ---------------------------------------------------------------------------


def _dns_spec(controller: ControllerSpec, duration_s: float = 3.0) -> ScenarioSpec:
    return ScenarioSpec(
        name="matrix-dns",
        duration_s=duration_s,
        dns_hosts=(DnsHostSpec(name="ns0", controller=controller),),
        dns_workload=DnsWorkloadSpec(
            n_names=400, rate_kpps=2.0, phases=((0.5, 12.0),)
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=250.0),
    )


def test_dns_network_controller_shifts_on_query_storm():
    spec = _dns_spec(
        ControllerSpec(
            kind="network",
            params=dict(
                up_rate_pps=6_000.0,
                down_rate_pps=2_000.0,
                up_window_us=sec(0.5),
                down_window_us=sec(0.5),
                tick_us=msec(50.0),
            ),
        )
    )
    result = ScenarioBuilder(spec).run()
    host = result.dns_hosts[0]
    assert host.app == "dns"
    assert host.responses > 0
    assert host.shift_times_us, "query storm never triggered the shift"
    # after the shift Emu serves queries in hardware
    assert host.hw_hits > 0


def test_dns_predictive_controller_shifts_on_query_storm():
    spec = _dns_spec(
        ControllerSpec(kind="predictive", params=dict(window_us=sec(0.5)))
    )
    result = ScenarioBuilder(spec).run()
    assert result.dns_hosts[0].shift_times_us


# ---------------------------------------------------------------------------
# Paxos: the rate-driven centralized controller (§9.2) on a closed loop.
# ---------------------------------------------------------------------------


def test_paxos_rate_controller_shifts_autonomously():
    spec = ScenarioSpec(
        name="matrix-paxos-rate",
        duration_s=1.5,
        paxos_groups=(
            PaxosSpec(
                name="grp",
                controller=ControllerSpec(
                    kind="rate",
                    params=dict(
                        up_rate_pps=3_000.0,
                        down_rate_pps=1_000.0,
                        window_us=sec(0.3),
                        tick_us=msec(50.0),
                    ),
                ),
            ),
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=50.0),
    )
    run = ScenarioBuilder(spec).build()
    assert run.paxos_groups[0].controller.kind == "rate"
    result = run.execute()
    group = result.paxos_groups[0]
    assert group.decided > 0
    assert group.shift_times_us, "sustained decision rate never shifted the leader"
    # the shift moved the leader to the hardware candidate
    assert (
        run.paxos_groups[0].deployment.active_leader_node == "grp-hw-leader"
    )


# ---------------------------------------------------------------------------
# Validation error paths for the new specs.
# ---------------------------------------------------------------------------


class TestControllerSpecValidation:
    def test_unknown_kind_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(
                KvsHostSpec(name="h0", controller=ControllerSpec(kind="psychic")),
            ),
            kvs_workload=KvsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="psychic"):
            spec.validate()

    def test_paxos_kind_rejected_on_kvs_host(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(
                KvsHostSpec(name="h0", controller=ControllerSpec(kind="schedule")),
            ),
            kvs_workload=KvsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="schedule"):
            spec.validate()

    def test_host_kind_rejected_on_paxos_group(self):
        spec = ScenarioSpec(
            name="x",
            paxos_groups=(
                PaxosSpec(name="g", controller=ControllerSpec(kind="host")),
            ),
        )
        with pytest.raises(ConfigurationError, match="host"):
            spec.validate()

    def test_misspelled_param_rejected_at_validate_time(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(
                KvsHostSpec(
                    name="h0",
                    controller=ControllerSpec(
                        kind="network", params=dict(up_rate_ppss=6_000.0)
                    ),
                ),
            ),
            kvs_workload=KvsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="up_rate_ppss"):
            spec.validate()

    def test_params_rejected_on_kind_none(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(
                KvsHostSpec(
                    name="h0",
                    controller=ControllerSpec(
                        kind="none", params=dict(window_us=1.0)
                    ),
                ),
            ),
            kvs_workload=KvsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="window_us"):
            spec.validate()

    def test_predictive_accepts_standby_card_override(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(
                KvsHostSpec(
                    name="h0",
                    controller=ControllerSpec(
                        kind="predictive", params=dict(standby_card_w=5.0)
                    ),
                ),
            ),
            kvs_workload=KvsWorkloadSpec(),
        )
        spec.validate()

    def test_params_normalized_to_hashable_pairs(self):
        spec = ControllerSpec(kind="network", params=dict(b=2.0, a=1.0))
        assert spec.params == (("a", 1.0), ("b", 2.0))
        assert spec.as_dict() == {"a": 1.0, "b": 2.0}
        hash(spec)  # usable in sets / as dataclass default

    def test_list_valued_params_normalized_to_tuples(self):
        spec = ControllerSpec(kind="host", params={"b": [1.0, [2.0]], "a": 3})
        assert spec.params == (("a", 3), ("b", (1.0, (2.0,))))
        pairs = ControllerSpec(kind="host", params=[["a", [1.0]]])
        assert pairs.params == (("a", (1.0,)),)
        hash(spec), hash(pairs)


class TestSpecsHash:
    """Every spec hashes, whatever sequence type its tuple fields were
    given as: the sweep engine memoizes pinned placements by value."""

    def test_list_given_colocated_jobs_and_placements(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=[KvsHostSpec(name="h0", colocated=[])],
            kvs_workload=KvsWorkloadSpec(),
        )
        assert spec.kvs_hosts == (KvsHostSpec(name="h0"),)
        assert spec.validate() is spec
        hash(spec)
        assert software_variant(spec).kvs_hosts[0].colocated == ()

    def test_list_valued_controller_param(self):
        host = KvsHostSpec(
            name="h0",
            controller=ControllerSpec(kind="host", params={"window_us": [1.0]}),
        )
        spec = ScenarioSpec(
            name="x", kvs_hosts=(host,), kvs_workload=KvsWorkloadSpec()
        )
        hash(spec)
        assert hardware_variant(spec).kvs_hosts[0].controller == NO_CONTROLLER

    def test_list_given_paxos_shifts_and_acceptors(self):
        group = PaxosSpec(
            shifts=[[0.5, True]], acceptor_hosts=["a0", "a1", "a2"]
        )
        assert group.shifts == ((0.5, True),)
        assert group.acceptor_hosts == ("a0", "a1", "a2")
        hash(group)


class TestSamplingValidation:
    def test_nonpositive_scenario_interval_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(KvsHostSpec(name="h0"),),
            kvs_workload=KvsWorkloadSpec(),
            sampling=SamplingSpec(power_interval_ms=0.0),
        )
        with pytest.raises(ConfigurationError, match="power_interval_ms"):
            spec.validate()

    def test_nonpositive_per_host_bucket_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(
                KvsHostSpec(name="h0", sampling=SamplingSpec(bucket_ms=-1.0)),
            ),
            kvs_workload=KvsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="bucket_ms"):
            spec.validate()

    def test_nonpositive_dns_host_interval_rejected(self):
        spec = ScenarioSpec(
            name="x",
            dns_hosts=(
                DnsHostSpec(
                    name="ns0", sampling=SamplingSpec(power_interval_ms=-5.0)
                ),
            ),
            dns_workload=DnsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="power_interval_ms"):
            spec.validate()


class TestCrossAppValidation:
    def test_kvs_host_colliding_with_paxos_node_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(KvsHostSpec(name="grp-acceptor0"),),
            kvs_workload=KvsWorkloadSpec(),
            paxos_groups=(PaxosSpec(name="grp"),),
        )
        with pytest.raises(ConfigurationError, match="grp-acceptor0"):
            spec.validate()

    def test_dns_host_colliding_with_kvs_client_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(KvsHostSpec(name="h0", client_name="gen"),),
            kvs_workload=KvsWorkloadSpec(),
            dns_hosts=(DnsHostSpec(name="gen"),),
            dns_workload=DnsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="gen"):
            spec.validate()

    def test_node_colliding_with_logical_leader_address_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(KvsHostSpec(name="grp-leader"),),
            kvs_workload=KvsWorkloadSpec(),
            paxos_groups=(PaxosSpec(name="grp"),),
        )
        with pytest.raises(ConfigurationError, match="grp-leader"):
            spec.validate()

    def test_duplicate_paxos_group_names_rejected(self):
        spec = ScenarioSpec(
            name="x",
            paxos_groups=(PaxosSpec(name="g"), PaxosSpec(name="g")),
        )
        with pytest.raises(ConfigurationError, match="duplicate"):
            spec.validate()

    def test_switch_name_collision_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(KvsHostSpec(name="tor"),),
            kvs_workload=KvsWorkloadSpec(),
        )
        with pytest.raises(ConfigurationError, match="tor"):
            spec.validate()


class TestWorkloadValidation:
    def test_dns_hosts_without_workload_rejected(self):
        spec = ScenarioSpec(name="x", dns_hosts=(DnsHostSpec(name="ns0"),))
        with pytest.raises(ConfigurationError, match="no workload"):
            spec.validate()

    def test_dns_workload_without_hosts_rejected(self):
        spec = ScenarioSpec(name="x", dns_workload=DnsWorkloadSpec())
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_dns_zone_beyond_emu_capacity_rejected_at_validate(self):
        from repro.apps.dns.emu import EMU_ZONE_CAPACITY

        spec = ScenarioSpec(
            name="x",
            dns_hosts=(DnsHostSpec(name="ns0"),),
            dns_workload=DnsWorkloadSpec(n_names=EMU_ZONE_CAPACITY + 1),
        )
        with pytest.raises(ConfigurationError, match="capacity"):
            spec.validate()

    def test_dns_miss_fraction_out_of_range_rejected(self):
        spec = ScenarioSpec(
            name="x",
            dns_hosts=(DnsHostSpec(name="ns0"),),
            dns_workload=DnsWorkloadSpec(miss_fraction=1.0),
        )
        with pytest.raises(ConfigurationError, match="miss_fraction"):
            spec.validate()

    def test_phases_must_increase(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(KvsHostSpec(name="h0"),),
            kvs_workload=KvsWorkloadSpec(phases=((1.0, 4.0), (0.5, 8.0))),
        )
        with pytest.raises(ConfigurationError, match="increasing"):
            spec.validate()

    def test_negative_phase_rate_rejected(self):
        spec = ScenarioSpec(
            name="x",
            kvs_hosts=(KvsHostSpec(name="h0"),),
            kvs_workload=KvsWorkloadSpec(phases=((1.0, -4.0),)),
        )
        with pytest.raises(ConfigurationError, match="rate"):
            spec.validate()

    def test_paxos_group_without_clients_rejected(self):
        spec = ScenarioSpec(
            name="x", paxos_groups=(PaxosSpec(name="g", n_clients=0),)
        )
        with pytest.raises(ConfigurationError, match="client"):
            spec.validate()
