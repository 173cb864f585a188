"""Multi-rack fabric acceptance: the ``make fabric-smoke`` CI gate.

Three claims, each an assertion over the leaf-spine scenarios:

* **steering asymmetry** — the centralized controller commits a same-rack
  steer after the shorter sustain, so giving the hot rack a cold neighbor
  makes the steer land strictly earlier than the cross-rack fallback;
* **oversubscription shows up in the tail** — the same fabric-kvs grid
  with its uplinks oversubscribed queues on the spine path and raises the
  client p99 versus the 1:1 fabric;
* **attribution stays airtight at fabric scale** — per-placement wall
  power sums to the scenario total within 1e-6, racks or not.

Rendered tables land in ``benchmarks/results/`` (CI artifacts).
"""

import dataclasses

from repro.scenarios import (
    NO_CONTROLLER,
    KvsHostSpec,
    ScenarioBuilder,
    UplinkSpec,
    build_spec,
    build_sweep_spec,
    run_scenario,
    run_sweep,
)


def _p99(values):
    ordered = sorted(values)
    assert ordered, "no latency samples"
    return ordered[int(0.99 * (len(ordered) - 1))]


def _client_p99_us(spec):
    run = ScenarioBuilder(spec).build()
    result = run.execute()
    samples = []
    for (client,) in (p.clients for p in run.placements if p.app == "kvs"):
        samples.extend(v for v in client.latency_series.values if v is not None)
    return _p99(samples), result


def test_same_rack_steer_lands_before_cross_rack(save_result):
    """fabric-kvs-crossrack's hot host has no cold neighbor, so its steer
    waits out the longer cross-rack sustain; adding a cold host to rack0
    turns the same decision into the earlier same-rack move."""
    cross = run_scenario("fabric-kvs-crossrack", duration_s=2.0, rate_kpps=20.0)
    save_result("fabric_kvs_crossrack", cross.render())
    assert len(cross.cross_rack_steers()) >= 1
    assert cross.same_rack_steers() == []
    cross_steer = cross.cross_rack_steers()[0]
    assert cross_steer.from_rack == "rack0" and cross_steer.to_rack == "rack1"

    spec = build_spec("fabric-kvs-crossrack", duration_s=2.0, rate_kpps=20.0)
    spec = dataclasses.replace(
        spec,
        name="fabric-kvs-samerack",
        kvs_hosts=(
            *spec.kvs_hosts,
            KvsHostSpec(name="kvs3", rack="rack0", controller=NO_CONTROLLER),
        ),
    )
    same = ScenarioBuilder(spec).run()
    save_result("fabric_kvs_samerack", same.render())
    assert len(same.same_rack_steers()) >= 1
    same_steer = same.same_rack_steers()[0]
    assert same_steer.from_rack == same_steer.to_rack == "rack0"
    assert same_steer.time_us < cross_steer.time_us

    # the hot host also got its centralized placement shift in both runs
    for result in (cross, same):
        host = {h.name: h for h in result.hosts}["rack0/kvs0"]
        assert host.shift_times_us, "centralized placement shift missing"


def test_oversubscribed_uplink_raises_cross_rack_p99(save_result):
    """fabric-kvs routes every request and response over the spine, so
    oversubscribing the uplinks queues the cross-rack path and lifts the
    client p99 above the 1:1 fabric's."""

    def fabric_at(oversubscription):
        spec = build_spec(
            "fabric-kvs",
            n_racks=2,
            hosts_per_rack=2,
            rate_per_host_kpps=24.0,
            duration_s=1.0,
        )
        return dataclasses.replace(
            spec,
            fabric=dataclasses.replace(
                spec.fabric,
                uplink=UplinkSpec(
                    bandwidth_gbps=1.0, oversubscription=oversubscription
                ),
            ),
        )

    flat_p99, flat = _client_p99_us(fabric_at(1.0))
    oversub_p99, oversub = _client_p99_us(fabric_at(8.0))
    save_result(
        "fabric_oversubscription_p99",
        "\n".join(
            [
                "fabric-kvs client p99 vs uplink oversubscription",
                f"  1:1  p99 {flat_p99:8.2f} us  "
                f"(uplink queueing {flat.uplink_queued_us / 1e3:.2f} ms)",
                f"  8:1  p99 {oversub_p99:8.2f} us  "
                f"(uplink queueing {oversub.uplink_queued_us / 1e3:.2f} ms)",
            ]
        ),
    )
    assert flat.spine_crossrack_packets > 0
    assert oversub.uplink_queued_us > flat.uplink_queued_us
    assert oversub_p99 > flat_p99


def test_fabric_power_attribution_sums_to_totals(save_result):
    """Per-placement wall power must account for every watt the fabric
    scenario reports — the §9.4 attribution invariant at rack count > 1."""
    lines = ["scenario                 placements      sum [W]    total [W]"]
    for name, overrides in (
        ("fabric-kvs", dict(duration_s=0.5)),
        ("fabric-kvs-crossrack", dict(duration_s=1.0)),
        ("fabric-paxos-split", dict(duration_s=1.0)),
    ):
        result = run_scenario(name, **overrides)
        attributed = sum(result.power_by_placement.values())
        assert result.total_wall_power_w > 0.0
        assert abs(attributed - result.total_wall_power_w) <= 1e-6, (
            f"{name}: attributed {attributed!r} != "
            f"total {result.total_wall_power_w!r}"
        )
        lines.append(
            f"{name:<24} {len(result.power_by_placement):>10} "
            f"{attributed:>12.6f} {result.total_wall_power_w:>12.6f}"
        )
    save_result("fabric_power_attribution", "\n".join(lines))


def test_sweep_fabric_scale_reduced(save_result):
    """A reduced sweep-fabric-scale grid: per-rack-count tipping rows
    exist and every rack count reaches its crossover."""
    spec = build_sweep_spec(
        "sweep-fabric-scale",
        racks=(1, 2),
        rates_kpps=(8.0, 32.0),
        duration_s=0.3,
        keyspace=4_000,
    )
    result = run_sweep(spec)
    save_result("sweep_fabric_scale", result.render())
    tips = {t.fixed["n_racks"]: t for t in result.tipping_points()}
    assert set(tips) == {1, 2}
    assert all(t.crossover is not None for t in tips.values())
