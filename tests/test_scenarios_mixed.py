"""Heterogeneous racks: Paxos multi-group, anycast DNS, mixed apps, and
per-host sampling overrides."""

import dataclasses

import pytest

from repro.net.packet import TrafficClass
from repro.scenarios import (
    NO_CONTROLLER,
    ControllerSpec,
    DnsHostSpec,
    DnsWorkloadSpec,
    KvsHostSpec,
    KvsWorkloadSpec,
    PaxosSpec,
    SamplingSpec,
    ScenarioBuilder,
    ScenarioSpec,
    build_spec,
    run_scenario,
)
from repro.units import msec, sec


# ---------------------------------------------------------------------------
# Paxos multi-group.
# ---------------------------------------------------------------------------


def _two_group_spec(duration_s=1.5):
    return ScenarioSpec(
        name="two-groups",
        duration_s=duration_s,
        paxos_groups=(
            PaxosSpec(name="g0", shifts=((0.4, True),)),
            PaxosSpec(name="g1", shifts=((0.9, True),)),
        ),
        sampling=SamplingSpec(power_interval_ms=50.0, bucket_ms=50.0),
    )


class TestPaxosMultiGroup:
    def test_groups_decide_and_shift_independently(self):
        result = ScenarioBuilder(_two_group_spec()).run()
        assert len(result.paxos_groups) == 2
        for group in result.paxos_groups:
            assert group.decided > 0
            assert len(group.shift_times_us) == 1
        firsts = result.paxos_distinct_first_shift_times()
        assert len(firsts) == 2  # distinct moments: independent schedules
        assert firsts == [sec(0.4), sec(0.9)]

    def test_groups_have_distinct_logical_leaders(self):
        run = ScenarioBuilder(_two_group_spec()).build()
        addresses = {g.deployment.logical_leader for g in run.paxos_groups}
        assert addresses == {"g0-leader", "g1-leader"}
        # each group's switch rule routes its own address
        for group in run.paxos_groups:
            rule = run.switch.rule_for(
                TrafficClass.PAXOS, group.deployment.logical_leader
            )
            assert rule is not None
            assert rule.next_hop == f"{group.spec.name}-sw-leader"

    def test_one_group_shifting_leaves_the_other_in_software(self):
        spec = dataclasses.replace(
            _two_group_spec(),
            paxos_groups=(
                PaxosSpec(name="g0", shifts=((0.4, True),)),
                PaxosSpec(name="g1"),  # no schedule: stays in software
            ),
        )
        run = ScenarioBuilder(spec).build()
        result = run.execute()
        assert result.paxos_group("g0").shift_times_us == [sec(0.4)]
        assert result.paxos_group("g1").shift_times_us == []
        leaders = {
            g.spec.name: g.deployment.active_leader_node for g in run.paxos_groups
        }
        assert leaders == {"g0": "g0-hw-leader", "g1": "g1-sw-leader"}


# ---------------------------------------------------------------------------
# Anycast DNS.
# ---------------------------------------------------------------------------


def _dns_rack_spec(n_hosts=2, duration_s=1.0, rate_kqps=6.0, n_names=300):
    return ScenarioSpec(
        name="dns-rack",
        duration_s=duration_s,
        dns_hosts=tuple(
            DnsHostSpec(name=f"ns{i}", controller=ControllerSpec(kind="none"))
            for i in range(n_hosts)
        ),
        dns_workload=DnsWorkloadSpec(n_names=n_names, rate_kpps=rate_kqps),
        sampling=SamplingSpec(power_interval_ms=100.0, bucket_ms=250.0),
    )


class TestAnycastDns:
    def test_queries_steered_by_qname_hash_across_hosts(self):
        result = ScenarioBuilder(_dns_rack_spec()).run()
        assert len(result.dns_hosts) == 2
        routed = result.dns_routed_per_host
        assert set(routed) == {"ns0", "ns1"}
        assert all(count > 0 for count in routed.values())
        for host in result.dns_hosts:
            assert host.responses > 0

    def test_every_query_lands_on_its_qname_shard(self):
        run = ScenarioBuilder(_dns_rack_spec()).build()
        run.execute()
        # the router's per-host counts must equal what each host received:
        # the per-shard client streams only generate names the qname hash
        # routes to their host, so nothing is cross-routed
        for index, host in enumerate(run.dns_hosts):
            assert host.software.rx + host.hardware.rx > 0
        assert run.dns_router.keyless == 0

    def test_replicas_answer_authoritatively_for_the_whole_zone(self):
        run = ScenarioBuilder(_dns_rack_spec()).build()
        for host in run.dns_hosts:
            assert len(host.software.zone) == 300
            assert len(host.hardware.zone) == 300
        result = run.execute()
        for host in result.dns_hosts:
            assert host.responses > 0
        # every response resolved (no NXDOMAIN: the zone covers all names)
        for built in run.dns_hosts:
            assert built.client.nxdomain == 0
            assert built.client.resolved == built.client.responses

    def test_single_dns_host_addresses_host_directly(self):
        result = ScenarioBuilder(_dns_rack_spec(n_hosts=1)).run()
        assert result.dns_routed_per_host == {}
        assert result.dns_hosts[0].responses > 0


# ---------------------------------------------------------------------------
# The registry's mixed rack, end to end.
# ---------------------------------------------------------------------------


class TestRackMixed:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(
            "rack-mixed",
            duration_s=3.0,
            kvs_rate_kpps=10.0,
            dns_rate_kqps=6.0,
            dns_storm_kqps=14.0,
            keyspace=6_000,
            n_names=400,
        )

    def test_all_three_apps_serve(self, result):
        assert len(result.hosts) == 2
        assert len(result.dns_hosts) == 2
        assert len(result.paxos_groups) == 2
        assert all(h.responses > 0 for h in result.all_hosts)
        assert all(g.decided > 0 for g in result.paxos_groups)

    def test_paxos_groups_shift_independently(self, result):
        firsts = result.paxos_distinct_first_shift_times()
        assert len(firsts) >= 2

    def test_dns_steered_across_replicas(self, result):
        assert len([c for c in result.dns_routed_per_host.values() if c > 0]) >= 2

    def test_mixed_controller_kinds_materialized(self, result):
        kinds = {h.name: h.controller_kind for h in result.all_hosts}
        assert kinds["kvs0"] == "host"
        assert kinds["kvs1"] == "network"
        assert kinds["dns0"] == kinds["dns1"] == "network"

    def test_aggregate_series_covers_kvs_and_dns(self, result):
        agg = result.aggregate_mean_throughput_pps(0.0, result.duration_us)
        kvs = sum(h.offered_pps for h in result.hosts)
        dns = sum(h.offered_pps for h in result.dns_hosts)
        assert agg > kvs  # more than KVS alone: DNS rides along
        assert agg <= (kvs + dns) * 1.8  # sanity (storm raises DNS rate)

    def test_short_horizon_drops_the_unfittable_colocated_job(self):
        # duration <= job start: the spec must still validate and run
        spec = build_spec("rack-mixed", duration_s=0.6)
        assert spec.kvs_hosts[0].colocated == ()
        spec.validate()

    def test_render_mentions_every_app(self, result):
        text = result.render()
        assert "KVS host(s)" in text
        assert "anycast DNS" in text
        assert "paxos[px0]" in text and "paxos[px1]" in text
        assert "qname-hash routing" in text


# ---------------------------------------------------------------------------
# Per-host sampling overrides.
# ---------------------------------------------------------------------------


class TestSamplingOverrides:
    def test_per_host_bucket_overrides_host_series_only(self):
        spec = build_spec(
            "fig6-kvs-transition", duration_s=1.0, rate_kpps=4.0, keyspace=2_000
        )
        fine = dataclasses.replace(
            spec,
            kvs_hosts=(
                dataclasses.replace(
                    spec.kvs_hosts[0],
                    sampling=SamplingSpec(power_interval_ms=25.0, bucket_ms=125.0),
                ),
            ),
        )
        result = ScenarioBuilder(fine).run()
        host = result.hosts[0]
        # host series bucketed at the override (125ms -> ~8 buckets over 1s)
        host_buckets = [t for t, _ in host.throughput_series]
        assert host_buckets[1] - host_buckets[0] == pytest.approx(msec(125.0))
        # aggregates stay on the scenario bucket (250ms) so racks mixing
        # overrides still sum onto aligned buckets
        agg_buckets = [t for t, _ in result.aggregate_throughput_series]
        assert agg_buckets[1] - agg_buckets[0] == pytest.approx(msec(250.0))

    def test_default_falls_back_to_scenario_sampling(self):
        result = run_scenario(
            "fig6-kvs-transition", duration_s=1.0, rate_kpps=4.0, keyspace=2_000
        )
        host_buckets = [t for t, _ in result.hosts[0].throughput_series]
        assert host_buckets[1] - host_buckets[0] == pytest.approx(msec(250.0))


# ---------------------------------------------------------------------------
# The one host path: per-host values bound per host.
# ---------------------------------------------------------------------------


def test_shift_back_keeps_each_hosts_own_power_save():
    """Every host of a rack is wired by the same code, so its shift-back
    hook must carry that host's own ``power_save``: after a round trip to
    hardware only the power-saving cards sit in their low-power state."""
    spec = ScenarioSpec(
        name="power-save",
        duration_s=0.01,
        kvs_hosts=(
            KvsHostSpec(name="k0", power_save=True, controller=NO_CONTROLLER),
            KvsHostSpec(name="k1", power_save=False, controller=NO_CONTROLLER),
        ),
        kvs_workload=KvsWorkloadSpec(keyspace=500, rate_kpps=2.0),
        dns_hosts=(
            DnsHostSpec(name="d0", power_save=False, controller=NO_CONTROLLER),
            DnsHostSpec(name="d1", power_save=True, controller=NO_CONTROLLER),
        ),
        dns_workload=DnsWorkloadSpec(n_names=100, rate_kpps=2.0),
    )
    run = ScenarioBuilder(spec).build()
    hosts = {host.spec.name: host for host in (*run.kvs_hosts, *run.dns_hosts)}
    idle_w = {}
    for name, host in hosts.items():
        host.service.shift_to_hardware("test", immediate=True)
        host.service.shift_to_software("test")
        idle_w[name] = host.card.power_w()
    assert idle_w["k0"] < idle_w["k1"]
    assert idle_w["d1"] < idle_w["d0"]


def test_collect_reads_the_recorders_in_place(monkeypatch):
    """A short rack-mixed run keeps one copy of each sample: after
    execute(), every TimeSeries holds its name and two columns and
    nothing else, and the clients' time views equal the lists the
    clients used to append on every counted reply."""
    import gc

    from repro.apps.dns.client import DnsClient
    from repro.apps.kvs.client import KvsClient
    from repro.apps.paxos.client import PaxosClient
    from repro.sim import TimeSeries

    appended = {}  # client name -> the times its old list held

    def tap(cls, counter):
        receive = cls.receive

        def tapped(self, packet):
            before = getattr(self, counter)
            receive(self, packet)
            if getattr(self, counter) > before:
                appended.setdefault(self.name, []).append(self.sim.now)

        monkeypatch.setattr(cls, "receive", tapped)

    tap(KvsClient, "responses")
    tap(DnsClient, "responses")
    tap(PaxosClient, "decided")
    run = ScenarioBuilder(build_spec("rack-mixed", duration_s=0.5)).build()
    run.execute()

    hosts = (*run.kvs_hosts, *run.dns_hosts)
    for client in (host.client for host in hosts):
        assert appended[client.name]
        assert list(client.response_times_us) == appended[client.name]
    for client in (c for group in run.paxos_groups for c in group.clients):
        assert appended[client.name]
        assert list(client.decision_times_us) == appended[client.name]
    series = [obj for obj in gc.get_objects() if isinstance(obj, TimeSeries)]
    assert len(series) > len(hosts)
    for one in series:
        held = [obj for obj in gc.get_referents(one) if obj is not TimeSeries]
        assert sorted(type(obj).__name__ for obj in held) == [
            "array",
            "array",
            "str",
        ], one.name


def test_each_client_stores_its_latencies_once():
    """``client.latency`` reads the latency series' value column: every
    client type keeps one copy of each latency, and its statistics are
    the series' own."""
    from repro.sim import percentile

    run = ScenarioBuilder(build_spec("rack-mixed", duration_s=0.1)).build()
    run.execute()
    clients = [host.client for host in (*run.kvs_hosts, *run.dns_hosts)]
    clients += [c for group in run.paxos_groups for c in group.clients]
    assert {type(c).__name__ for c in clients} == {
        "KvsClient",
        "DnsClient",
        "PaxosClient",
    }
    for client in clients:
        values = list(client.latency_series.values)
        assert len(client.latency) == len(values) > 0
        assert client.latency._samples is client.latency_series._values
        assert client.latency.median() == percentile(values, 50.0)
        assert client.latency.p99() == percentile(values, 99.0)


def test_cancelled_paxos_timeouts_leave_the_heap():
    """Each Paxos request arms a 100 ms retry timeout and its decision
    cancels it about 0.4 ms later.  The bulk purge keeps those dead entries
    from filling the heap: after a replay it holds at most twice its live
    entries plus the purge floor (lazy cancellation alone left ~1,500
    entries for ~70 live ones here)."""
    from repro.sim.kernel import _PURGE_FLOOR

    run = ScenarioBuilder(build_spec("rack-mixed", duration_s=0.3)).build()
    run.execute()
    sim = run.sim
    assert sum(c.decided for g in run.paxos_groups for c in g.clients) > 1000
    assert len(sim._heap) <= 2 * sim.pending + _PURGE_FLOOR
