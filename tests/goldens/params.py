"""Shared parameters for the byte-identity golden fixtures.

The golden files in this directory were captured from the revision
*before* the performance-kernel PR (pooled packets, tuple-entry heap,
parallel sweep executor).  ``capture.py`` regenerates them; the
determinism tests re-run the exact same reduced experiments and compare
the rendered text byte-for-byte, proving the fast kernel preserves event
ordering and RNG draw sequences.

Keep the parameters here small: these runs execute inside tier-1 tests.
"""

FIG6_PARAMS = dict(
    duration_s=2.0,
    rate_kpps=8.0,
    chainer_start_s=0.5,
    chainer_stop_s=1.2,
    keyspace=4_000,
)

FIG7_PARAMS = dict(
    duration_s=1.5,
    shift_to_hw_s=0.5,
    shift_to_sw_s=1.0,
)

SWEEP_KVS_PARAMS = dict(
    hosts=(1, 2),
    rates_kpps=(8.0, 32.0),
    duration_s=0.2,
    keyspace=4_000,
)

SWEEP_HETERO_PARAMS = dict(
    device_kinds=("netfpga-sume", "none"),
    rates_kpps=(8.0, 32.0),
    duration_s=0.2,
    keyspace=4_000,
)

#: Two-rack leaf-spine grid: queueing uplinks, spine routes and per-ToR
#: shard dispatch, which the single-ToR fixtures above never exercise.
SWEEP_FABRIC_PARAMS = dict(
    racks=(1, 2),
    hosts_per_rack=1,
    rates_kpps=(16.0, 48.0),
    duration_s=0.05,
)

#: Full-precision results of every KVS/DNS host shape the scenario builder
#: wires, which the rendered goldens above (rounded to 0.1, KVS-only) never
#: show: a NIC-only DNS replica, per-host sampling, a hardware start, a
#: non-default card, a heterogeneous rack, a consolidated fabric under the
#: centralized controller and the Figure 6 co-located job.  Captured before
#: the KVS and DNS host paths of the builder were merged into one, so it
#: pins the behaviour of both old paths.  Each case is
#: ``(registered scenario, builder overrides, {host: spec edits})``; an
#: edit's ``device``/``controller`` name a kind and ``sampling`` is a
#: ``(power_interval_ms, bucket_ms)`` pair.
SCENARIO_RESULTS_PARAMS = dict(
    cases=(
        (
            "rack-mixed",
            dict(duration_s=0.4),
            {
                "kvs1": dict(sampling=(20.0, 100.0)),
                "dns1": dict(
                    device="none", controller="none", sampling=(25.0, 100.0)
                ),
            },
        ),
        (
            "rack-mixed",
            dict(duration_s=0.3, n_paxos_groups=1),
            {"dns1": dict(start_in_hardware=True)},
        ),
        ("rack-mixed", dict(duration_s=0.3), {"dns0": dict(device="asic-nic")}),
        ("rack-hetero", dict(duration_s=0.2), {}),
        ("fabric-kvs-crossrack", dict(duration_s=0.3), {}),
        (
            "fig6-kvs-transition",
            dict(duration_s=1.0, chainer_start_s=0.3, chainer_stop_s=0.8),
            {},
        ),
    ),
)

#: Full-precision fast-path aggregates (``run_sweep(..., fastpath=True)``):
#: the rendered tables round to 0-3 decimals and would hide a low-bit change
#: in the steady model.  Each case is ``(registered sweep, overrides,
#: fixed)``; a non-empty ``fixed`` replaces every axis but the ramp with
#: those factory overrides.  The last case is a NetFPGA + NIC-only rack,
#: whose on-demand pin is a hybrid: analytic NIC-only host plus a residual
#: DES sub-rack.
SWEEP_FASTPATH_PARAMS = dict(
    cases=(
        (
            "sweep-fabric-scale",
            dict(
                racks=(1, 2, 4),
                rates_kpps=(8.0, 24.0, 40.0, 56.0),
                duration_s=0.1,
                keyspace=4_000,
            ),
            {},
        ),
        (
            "sweep-rack-kvs",
            dict(rates_kpps=(8.0, 32.0), duration_s=0.1, keyspace=4_000),
            {},
        ),
        (
            "sweep-rack-hetero",
            dict(rates_kpps=(8.0, 32.0), duration_s=0.1, keyspace=4_000),
            {},
        ),
        (
            "sweep-rack-hetero",
            dict(rates_kpps=(8.0, 32.0), duration_s=0.1, keyspace=4_000),
            dict(device_kinds=("netfpga-sume", "none")),
        ),
    ),
)

GOLDENS = {
    "fig6_kvs_transition.txt": ("fig6", FIG6_PARAMS),
    "fig7_paxos_transition.txt": ("fig7", FIG7_PARAMS),
    "sweep_rack_kvs.txt": ("sweep-rack-kvs", SWEEP_KVS_PARAMS),
    "sweep_rack_hetero.txt": ("sweep-rack-hetero", SWEEP_HETERO_PARAMS),
    "sweep_fabric_aggregates.txt": (
        "sweep-fabric-aggregates",
        SWEEP_FABRIC_PARAMS,
    ),
    "scenario_results.txt": ("scenario-results", SCENARIO_RESULTS_PARAMS),
    "sweep_fastpath_aggregates.txt": (
        "sweep-fastpath-aggregates",
        SWEEP_FASTPATH_PARAMS,
    ),
}


def _edited_spec(name: str, overrides: dict, edits: dict):
    """A registered scenario with per-host field edits applied."""
    import dataclasses

    from repro.scenarios import (
        ControllerSpec,
        DeviceSpec,
        SamplingSpec,
        build_spec,
    )

    def edit(host):
        fields = dict(edits.get(host.name, {}))
        if "device" in fields:
            fields["device"] = DeviceSpec(kind=fields["device"])
        if "controller" in fields:
            fields["controller"] = ControllerSpec(kind=fields["controller"])
        if "sampling" in fields:
            fields["sampling"] = SamplingSpec(*fields["sampling"])
        return dataclasses.replace(host, **fields)

    spec = build_spec(name, **overrides)
    return dataclasses.replace(
        spec,
        kvs_hosts=tuple(edit(h) for h in spec.kvs_hosts),
        dns_hosts=tuple(edit(h) for h in spec.dns_hosts),
    )


def generate(kind: str, params: dict) -> str:
    """Render one golden experiment (used by capture.py and the tests)."""
    if kind == "fig6":
        from repro.experiments import run_figure6

        return run_figure6(**params).render()
    if kind == "fig7":
        from repro.experiments import run_figure7

        return run_figure7(**params).render()
    if kind == "scenario-results":
        # The executed event count, then the full-precision repr of every
        # host, group and aggregate series the run collected.
        from repro.scenarios import ScenarioBuilder

        lines = []
        for name, overrides, edits in params["cases"]:
            run = ScenarioBuilder(_edited_spec(name, overrides, edits)).build()
            result = run.execute()
            lines.append(f"{name} {overrides!r} {edits!r}")
            lines.append(f"  events: {run.sim.events_executed}")
            lines.append(f"  {result!r}")
        return "\n".join(lines) + "\n"
    from repro.scenarios import build_sweep_spec, run_sweep

    if kind == "sweep-fabric-aggregates":
        # The full-precision repr of every pinned aggregate: the rendered
        # table rounds to 0.1 and would hide two equal-time events
        # running in a different order.
        result = run_sweep(build_sweep_spec("sweep-fabric-scale", **params))
        lines = []
        for pt in result.points:
            lines.append(f"{pt.params!r}")
            for mode in ("software", "hardware", "ondemand"):
                lines.append(f"  {mode}: {getattr(pt, mode)!r}")
        return "\n".join(lines) + "\n"
    if kind == "sweep-fastpath-aggregates":
        import dataclasses

        lines = []
        for name, overrides, fixed in params["cases"]:
            sweep = build_sweep_spec(name, **overrides)
            if fixed:
                ramp = sweep.resolved_tip_axis()
                sweep = dataclasses.replace(
                    sweep,
                    axes=tuple(a for a in sweep.axes if a.param == ramp),
                    fixed={**sweep.fixed_dict(), **fixed},
                )
            result = run_sweep(sweep, fastpath=True)
            lines.append(f"{name} {overrides!r} {fixed!r}")
            for pt in result.points:
                lines.append(f"  {pt.params!r}")
                for mode in ("software", "hardware", "ondemand"):
                    lines.append(f"    {mode}: {getattr(pt, mode)!r}")
        return "\n".join(lines) + "\n"
    return run_sweep(build_sweep_spec(kind, **params)).render()
