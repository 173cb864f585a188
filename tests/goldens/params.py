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

GOLDENS = {
    "fig6_kvs_transition.txt": ("fig6", FIG6_PARAMS),
    "fig7_paxos_transition.txt": ("fig7", FIG7_PARAMS),
    "sweep_rack_kvs.txt": ("sweep-rack-kvs", SWEEP_KVS_PARAMS),
    "sweep_rack_hetero.txt": ("sweep-rack-hetero", SWEEP_HETERO_PARAMS),
    "sweep_fabric_aggregates.txt": (
        "sweep-fabric-aggregates",
        SWEEP_FABRIC_PARAMS,
    ),
}


def generate(kind: str, params: dict) -> str:
    """Render one golden experiment (used by capture.py and the tests)."""
    if kind == "fig6":
        from repro.experiments import run_figure6

        return run_figure6(**params).render()
    if kind == "fig7":
        from repro.experiments import run_figure7

        return run_figure7(**params).render()
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
    return run_sweep(build_sweep_spec(kind, **params)).render()
