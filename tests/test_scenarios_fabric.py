"""Fabric scenarios end to end: spec validation, rack-qualified naming,
the single-ToR sentinel, and the two showcase scenarios (cross-rack shard
steering, rack-split Paxos quorum)."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    NO_CONTROLLER,
    ControllerSpec,
    FabricSpec,
    KvsHostSpec,
    KvsWorkloadSpec,
    PaxosSpec,
    ScenarioBuilder,
    ScenarioSpec,
    UplinkSpec,
    build_spec,
    run_scenario,
    scenario_names,
)


def _fabric_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t",
        duration_s=0.1,
        fabric=FabricSpec(racks=2),
        kvs_hosts=(
            KvsHostSpec(name="kvs0", rack="rack0", controller=NO_CONTROLLER),
            KvsHostSpec(name="kvs1", rack="rack1", controller=NO_CONTROLLER),
        ),
        kvs_workload=KvsWorkloadSpec(keyspace=500, rate_kpps=2.0),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# -- declaration errors ------------------------------------------------------


def test_fabric_needs_at_least_one_rack():
    with pytest.raises(ConfigurationError):
        _fabric_spec(fabric=FabricSpec(racks=0)).validate()


def test_uplink_oversubscription_below_one_rejected():
    with pytest.raises(ConfigurationError):
        _fabric_spec(
            fabric=FabricSpec(uplink=UplinkSpec(oversubscription=0.5))
        ).validate()


def test_unknown_rack_on_host_rejected():
    spec = _fabric_spec(
        kvs_hosts=(
            KvsHostSpec(name="kvs0", rack="rack7", controller=NO_CONTROLLER),
            KvsHostSpec(name="kvs1", rack="rack1", controller=NO_CONTROLLER),
        )
    )
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_rack_without_fabric_rejected():
    spec = _fabric_spec(fabric=None)
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_fabric_controller_without_fabric_rejected():
    spec = dataclasses.replace(
        build_spec("fabric-kvs-crossrack"), fabric=None, kvs_hosts=()
    )
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_fabric_controller_without_kvs_host_fails_at_validate():
    spec = dataclasses.replace(
        build_spec("fabric-kvs-crossrack"),
        kvs_hosts=(),
        kvs_workload=None,
        paxos_groups=(PaxosSpec(name="px"),),
    )
    with pytest.raises(ConfigurationError, match="needs at least one KVS host"):
        spec.validate()


def test_hosts_per_rack_cap_enforced():
    spec = _fabric_spec(
        fabric=FabricSpec(racks=2, hosts_per_rack=1),
        kvs_hosts=(
            KvsHostSpec(name="kvs0", rack="rack0", controller=NO_CONTROLLER),
            KvsHostSpec(name="kvs1", rack="rack0", controller=NO_CONTROLLER),
        ),
    )
    with pytest.raises(ConfigurationError):
        spec.validate()


def test_served_by_must_name_a_real_other_host():
    with pytest.raises(ConfigurationError):
        _fabric_spec(
            kvs_hosts=(
                KvsHostSpec(
                    name="kvs0", rack="rack0", controller=NO_CONTROLLER,
                    served_by="rack9/ghost",
                ),
                KvsHostSpec(name="kvs1", rack="rack1", controller=NO_CONTROLLER),
            )
        ).validate()
    with pytest.raises(ConfigurationError):
        _fabric_spec(
            kvs_hosts=(
                KvsHostSpec(
                    name="kvs0", rack="rack0", controller=NO_CONTROLLER,
                    served_by="rack0/kvs0",
                ),
                KvsHostSpec(name="kvs1", rack="rack1", controller=NO_CONTROLLER),
            )
        ).validate()


# -- rack-qualified naming ---------------------------------------------------


def test_host_names_are_reused_across_racks():
    """Two racks both declare ``kvs0``/``kvs1``; the fabric namespace keeps
    them apart and every host serves traffic."""
    result = run_scenario("fabric-kvs", duration_s=0.3)
    names = sorted(h.name for h in result.hosts)
    assert names == [
        "rack0/kvs0", "rack0/kvs1", "rack1/kvs0", "rack1/kvs1",
    ]
    assert set(result.routed_per_host) == set(names)
    assert all(count > 0 for count in result.routed_per_host.values())
    assert result.fabric_racks == ("rack0", "rack1")
    assert result.spine_crossrack_packets > 0


def test_same_spelling_different_rack_hosts_diverge():
    """Per-host RNG streams hang off the fully-qualified name, so twin
    hosts in different racks do not mirror each other's series."""
    result = run_scenario("fabric-kvs", duration_s=0.3)
    by_name = {h.name: h for h in result.hosts}
    assert (
        by_name["rack0/kvs0"].responses != by_name["rack1/kvs0"].responses
        or result.routed_per_host["rack0/kvs0"]
        != result.routed_per_host["rack1/kvs0"]
    )


def test_single_tor_results_carry_no_fabric_block():
    result = run_scenario("fig6-kvs-transition", duration_s=0.3)
    assert result.fabric_racks == ()
    assert "fabric:" not in result.render()


# -- the showcases -----------------------------------------------------------


def test_crossrack_scenario_steers_across_racks():
    """The §9.1 centralized controller moves the consolidated shard from
    the hot rack0 host back across the spine to its rack1 home."""
    result = run_scenario("fabric-kvs-crossrack", duration_s=2.0)
    assert len(result.cross_rack_steers()) >= 1
    steer = result.cross_rack_steers()[0]
    assert steer.from_host == "rack0/kvs0"
    assert steer.to_host == "rack1/kvs1"
    assert steer.from_rack == "rack0"
    assert steer.to_rack == "rack1"
    # the donated shard's traffic lands on the steered-to host afterwards
    assert result.routed_per_host["rack1/kvs1"] > 0
    # the centralized placement policy also shifted the hot host
    by_name = {h.name: h for h in result.hosts}
    assert by_name["rack0/kvs0"].shift_times_us
    rendered = result.render()
    assert "fabricctl steer" in rendered and "cross-rack" in rendered


def test_fabric_paxos_split_quorum_crosses_the_spine():
    result = run_scenario(
        "fabric-paxos-split",
        duration_s=1.0,
        shift_to_hw_s=0.3,
        shift_to_sw_s=0.6,
    )
    assert len(result.paxos_groups) == 1
    group = result.paxos_groups[0]
    assert group.name == "rack0/paxos"
    assert group.responses > 0
    assert len(group.shift_times_us) == 2
    # the rack1 acceptor's 2A/2B round-trips transit the spine
    assert result.spine_crossrack_packets > 0


@pytest.mark.parametrize(
    "name", [n for n in scenario_names() if build_spec(n).fabric is not None]
)
def test_cli_list_counts_every_server_box(name):
    """``python -m repro list`` counts the servers the build wires: every
    KVS and DNS host plus each group's software leader, learner and
    acceptor boxes, a shared box once (its hardware leader is a card)."""
    from repro.__main__ import _fabric_topologies
    from repro.host.server import Server

    row = _fabric_topologies()[name]
    topology = ScenarioBuilder(build_spec(name)).build().topology
    servers = [n for n in topology.nodes.values() if isinstance(n, Server)]
    assert f", {len(servers)} server host(s)," in row


def test_fabric_controller_spec_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        _fabric_spec(
            fabric_controller=ControllerSpec(kind="loadbalance")
        ).validate()
