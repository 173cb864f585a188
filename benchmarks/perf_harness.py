"""Shared measurement core for the perf trajectory (``BENCH_perf.json``).

Measures what the bench-perf make target and the CI perf-smoke leg track:

* DES throughput (executed events per wall-clock second) and wall seconds
  per registered scenario;
* sweep wall time, serial vs parallel executor.

Kept separate from ``bench_perf.py`` so a plain ``python
benchmarks/perf_harness.py`` run (no pytest) can emit the JSON too.
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from typing import Dict, List, Optional

#: Scenario grid: (scenario name, factory overrides).  Durations are cut
#: far below the registry defaults so the whole suite stays CI-sized; the
#: events/sec figure is duration-independent enough for trend tracking.
PERF_SCENARIOS = [
    ("rack8-kvs-sharded", dict(duration_s=0.3)),
    ("rack-kvs", dict(duration_s=0.3)),
    ("rack-mixed", dict(duration_s=0.3)),
    ("fig7-paxos-transition", dict(duration_s=1.0)),
]

#: Reduced sweep used for the serial-vs-parallel wall-time comparison.
PERF_SWEEP = dict(
    name="sweep-rack-kvs",
    overrides=dict(hosts=(1, 2), rates_kpps=(8.0, 32.0), duration_s=0.2,
                   keyspace=4_000),
)

#: Replication leg: K seeds of the reduced sweep through run_replicated,
#: serial vs a small worker pool (ISSUE 7's replication-scale executor).
PERF_REPLICATION = dict(seeds=4, workers=2)

#: Fabric leg (ISSUE 9): DES throughput on the leaf-spine scenario, the
#: fastpath-vs-DES wall clock of a reduced ``sweep-fabric-scale`` at its
#: largest rack count, and the replicated executor's speedup at 2/4
#: workers on a small fabric grid.
PERF_FABRIC_SCENARIO = ("fabric-kvs", dict(n_racks=2, duration_s=0.3,
                                           keyspace=4_000))
PERF_FABRIC_SWEEP = dict(
    name="sweep-fabric-scale",
    overrides=dict(racks=(4,), rates_kpps=(8.0, 24.0), hosts_per_rack=2,
                   duration_s=0.2, keyspace=4_000),
)
PERF_FABRIC_REPLICATION = dict(
    overrides=dict(racks=(2,), rates_kpps=(8.0, 16.0), hosts_per_rack=2,
                   duration_s=0.1, keyspace=4_000),
    seeds=2,
    workers=(2, 4),
)

#: Grid leg: the batched steady-grid kernel's points/sec
#: (the gated trend figure) and the adaptive-vs-exhaustive wall clock of
#: a reduced ``sweep-fabric-scale`` ramp — long enough (16 rate steps x
#: 2 rack counts) that the bracketed search's handful of DES probes pays
#: for itself well past the >=5x acceptance floor in
#: ``bench_grid_perf.py``.
PERF_GRID = dict(
    name="sweep-fabric-scale",
    overrides=dict(
        racks=(1, 2),
        rates_kpps=tuple(6.0 + 3.0 * i for i in range(16)),
        hosts_per_rack=2,
        duration_s=0.15,
        keyspace=4_000,
    ),
)

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_perf.json"
BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_perf_baseline.json"

#: CI regression gate: fail when events/sec drops more than this fraction
#: below the committed baseline (ISSUE: >30%).
REGRESSION_TOLERANCE = 0.30


def measure_scenario(name: str, overrides: dict) -> Dict[str, float]:
    """One scenario run -> events executed, wall seconds, events/sec."""
    from repro.scenarios.builder import ScenarioBuilder
    from repro.scenarios.registry import build_spec

    run = ScenarioBuilder(build_spec(name, **overrides)).build()
    start = time.perf_counter()
    run.execute()
    wall_s = time.perf_counter() - start
    events = run.sim.events_executed
    return {
        "events": events,
        "wall_s": round(wall_s, 4),
        "events_per_sec": round(events / wall_s, 1) if wall_s > 0 else 0.0,
    }


def measure_sweep(workers: Optional[int] = None) -> Dict[str, float]:
    """One reduced sweep run -> wall seconds (serial or parallel)."""
    from repro.scenarios import build_sweep_spec, run_sweep

    spec = build_sweep_spec(PERF_SWEEP["name"], **PERF_SWEEP["overrides"])
    start = time.perf_counter()
    kwargs = {} if workers is None else {"workers": workers}
    run_sweep(spec, **kwargs)
    return {"wall_s": round(time.perf_counter() - start, 4)}


def measure_replication(
    seeds: int = 4, workers: int = 2
) -> Dict[str, object]:
    """K-seed replicated sweep -> serial and pooled wall seconds.

    ``points_per_sec`` (completed seedxgrid-point tasks per wall second,
    pooled) is the gated trend figure; ``speedup`` is informational — it
    tracks the machine's core count as much as the code.
    """
    from repro.scenarios import build_sweep_spec, run_replicated

    spec = build_sweep_spec(PERF_SWEEP["name"], **PERF_SWEEP["overrides"])
    n_tasks = seeds * len(spec.points())
    start = time.perf_counter()
    run_replicated(spec, seeds=seeds, workers=1)
    serial_wall_s = time.perf_counter() - start
    start = time.perf_counter()
    run_replicated(spec, seeds=seeds, workers=workers)
    wall_s = time.perf_counter() - start
    return {
        "seeds": seeds,
        "workers": workers,
        "tasks": n_tasks,
        "serial_wall_s": round(serial_wall_s, 4),
        "wall_s": round(wall_s, 4),
        "speedup": round(serial_wall_s / wall_s, 3) if wall_s > 0 else 0.0,
        "points_per_sec": round(n_tasks / wall_s, 3) if wall_s > 0 else 0.0,
    }


def measure_fabric() -> Dict[str, object]:
    """The ``fabric`` record section (ISSUE 9).

    ``scenario`` is the gated trend figure (DES events/sec on the
    leaf-spine ``fabric-kvs``); ``sweep_fastpath`` compares the full-DES
    and analytic-fastpath wall clock of the reduced ``sweep-fabric-scale``
    at 4 racks (the >= 3x acceptance criterion lives in
    ``bench_fabric_perf.py``); ``replication`` reports the replicated
    executor's speedup at 2 and 4 workers on a small fabric grid —
    informational, like the single-rack replication speedup, because it
    tracks the machine's core count as much as the code.
    """
    from repro.scenarios import build_sweep_spec, run_replicated, run_sweep

    name, overrides = PERF_FABRIC_SCENARIO
    scenario = {"name": name, **measure_scenario(name, overrides)}

    sweep_spec = build_sweep_spec(
        PERF_FABRIC_SWEEP["name"], **PERF_FABRIC_SWEEP["overrides"]
    )
    start = time.perf_counter()
    run_sweep(sweep_spec)
    des_wall_s = time.perf_counter() - start
    start = time.perf_counter()
    run_sweep(sweep_spec, fastpath=True)
    fastpath_wall_s = time.perf_counter() - start
    sweep_fastpath = {
        "name": PERF_FABRIC_SWEEP["name"],
        "n_racks": max(PERF_FABRIC_SWEEP["overrides"]["racks"]),
        "points": len(sweep_spec.points()),
        "des_wall_s": round(des_wall_s, 4),
        "fastpath_wall_s": round(fastpath_wall_s, 4),
        "speedup": (
            round(des_wall_s / fastpath_wall_s, 1)
            if fastpath_wall_s > 0 else 0.0
        ),
    }

    rep_cfg = PERF_FABRIC_REPLICATION
    rep_spec = build_sweep_spec(
        PERF_FABRIC_SWEEP["name"], **rep_cfg["overrides"]
    )
    seeds = rep_cfg["seeds"]
    n_tasks = seeds * len(rep_spec.points())
    start = time.perf_counter()
    run_replicated(rep_spec, seeds=seeds, workers=1)
    serial_wall_s = time.perf_counter() - start
    replication: Dict[str, object] = {
        "name": PERF_FABRIC_SWEEP["name"],
        "seeds": seeds,
        "tasks": n_tasks,
        "serial_wall_s": round(serial_wall_s, 4),
    }
    for workers in rep_cfg["workers"]:
        start = time.perf_counter()
        run_replicated(rep_spec, seeds=seeds, workers=workers)
        wall_s = time.perf_counter() - start
        replication[f"workers{workers}"] = {
            "wall_s": round(wall_s, 4),
            "speedup": round(serial_wall_s / wall_s, 3) if wall_s > 0 else 0.0,
        }
    return {
        "scenario": scenario,
        "sweep_fastpath": sweep_fastpath,
        "replication": replication,
    }


def measure_grid() -> Dict[str, object]:
    """The ``grid`` record section (ISSUE 10).

    ``kernel`` is the gated trend figure: grid points answered per wall
    second by one batched :func:`steady_grid` pass over the reduced
    ``sweep-fabric-scale`` grid (repeated until the wall clock is
    measurable).  ``search`` compares the exhaustive and adaptive sweep
    wall clock on the same grid and reports the DES savings counters;
    ``rows_match`` records whether the two searches produced identical
    tipping rows (asserted, with the >=5x speedup floor, in
    ``bench_grid_perf.py``).
    """
    from repro.scenarios import (
        build_sweep_spec,
        run_sweep,
        software_variant,
        steady_grid,
    )
    from repro.scenarios.sweep import _materialize

    spec = build_sweep_spec(PERF_GRID["name"], **PERF_GRID["overrides"])
    specs = [
        software_variant(_materialize(spec, params))
        for params in spec.points()
    ]
    steady_grid(specs, "software")  # warm the memoized model constants
    passes = 0
    start = time.perf_counter()
    while True:
        steady_grid(specs, "software")
        passes += 1
        kernel_wall_s = time.perf_counter() - start
        if kernel_wall_s >= 0.2 and passes >= 3:
            break
    kernel = {
        "points": len(specs),
        "passes": passes,
        "wall_s": round(kernel_wall_s, 4),
        "points_per_sec": (
            round(len(specs) * passes / kernel_wall_s, 1)
            if kernel_wall_s > 0 else 0.0
        ),
    }

    start = time.perf_counter()
    exhaustive = run_sweep(spec)
    exhaustive_wall_s = time.perf_counter() - start
    start = time.perf_counter()
    adaptive = run_sweep(spec, search="adaptive")
    adaptive_wall_s = time.perf_counter() - start
    search = {
        "name": PERF_GRID["name"],
        "points": adaptive.grid_points_total,
        "exhaustive_wall_s": round(exhaustive_wall_s, 4),
        "adaptive_wall_s": round(adaptive_wall_s, 4),
        "speedup": (
            round(exhaustive_wall_s / adaptive_wall_s, 2)
            if adaptive_wall_s > 0 else 0.0
        ),
        "des_points_run": adaptive.des_points_run,
        "des_points_saved": (
            adaptive.grid_points_total - adaptive.des_points_run
        ),
        "rows_match": (
            adaptive.tipping_points() == exhaustive.tipping_points()
        ),
    }
    return {"kernel": kernel, "search": search}


def collect(parallel_workers: int = 2, include_sweep: bool = True,
            include_fabric: bool = True, include_grid: bool = True) -> dict:
    """The full perf record written to ``BENCH_perf.json``."""
    scenarios = {}
    for name, overrides in PERF_SCENARIOS:
        scenarios[name] = measure_scenario(name, overrides)
    record = {
        "schema": 1,
        "python": platform.python_version(),
        "scenarios": scenarios,
    }
    if include_sweep:
        record["sweep"] = {
            "name": PERF_SWEEP["name"],
            "serial": measure_sweep(),
            "parallel": {
                "workers": parallel_workers,
                **measure_sweep(workers=parallel_workers),
            },
        }
        record["replication"] = {
            "name": PERF_SWEEP["name"],
            **measure_replication(**PERF_REPLICATION),
        }
    if include_fabric:
        record["fabric"] = measure_fabric()
    if include_grid:
        record["grid"] = measure_grid()
    return record


def write_results(record: dict, path: pathlib.Path = RESULTS_PATH) -> pathlib.Path:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def check_regression(record: dict, baseline: dict) -> List[str]:
    """Events/sec regressions beyond the tolerance, as human messages.

    Only scenarios present in both records are compared, so adding or
    retiring a perf scenario does not break the gate mid-transition.
    """
    failures = []
    base_scenarios = baseline.get("scenarios", {})
    for name, measured in record["scenarios"].items():
        base = base_scenarios.get(name)
        if not base:
            continue
        floor = base["events_per_sec"] * (1.0 - REGRESSION_TOLERANCE)
        if measured["events_per_sec"] < floor:
            failures.append(
                f"{name}: {measured['events_per_sec']:.0f} events/sec is "
                f">{REGRESSION_TOLERANCE:.0%} below the baseline "
                f"{base['events_per_sec']:.0f}"
            )
    base_rep = baseline.get("replication")
    rep = record.get("replication")
    if base_rep and rep and rep.get("seeds") == base_rep.get("seeds"):
        floor = base_rep["points_per_sec"] * (1.0 - REGRESSION_TOLERANCE)
        if rep["points_per_sec"] < floor:
            failures.append(
                f"replication: {rep['points_per_sec']:.2f} points/sec is "
                f">{REGRESSION_TOLERANCE:.0%} below the baseline "
                f"{base_rep['points_per_sec']:.2f}"
            )
    base_kernel = (baseline.get("grid") or {}).get("kernel")
    kernel = (record.get("grid") or {}).get("kernel")
    if (
        base_kernel
        and kernel
        and kernel.get("points") == base_kernel.get("points")
    ):
        floor = base_kernel["points_per_sec"] * (1.0 - REGRESSION_TOLERANCE)
        if kernel["points_per_sec"] < floor:
            failures.append(
                f"grid kernel: {kernel['points_per_sec']:.0f} points/sec is "
                f">{REGRESSION_TOLERANCE:.0%} below the baseline "
                f"{base_kernel['points_per_sec']:.0f}"
            )
    base_fabric = (baseline.get("fabric") or {}).get("scenario")
    fabric = (record.get("fabric") or {}).get("scenario")
    if base_fabric and fabric and fabric.get("name") == base_fabric.get("name"):
        floor = base_fabric["events_per_sec"] * (1.0 - REGRESSION_TOLERANCE)
        if fabric["events_per_sec"] < floor:
            failures.append(
                f"fabric {fabric['name']}: {fabric['events_per_sec']:.0f} "
                f"events/sec is >{REGRESSION_TOLERANCE:.0%} below the "
                f"baseline {base_fabric['events_per_sec']:.0f}"
            )
    return failures


def main(argv=None) -> int:
    record = collect()
    path = write_results(record)
    print(f"wrote {path}")
    for name, row in record["scenarios"].items():
        print(f"  {name}: {row['events_per_sec']:.0f} events/sec "
              f"({row['events']} events in {row['wall_s']:.2f}s)")
    if "sweep" in record:
        sweep = record["sweep"]
        print(f"  {sweep['name']}: serial {sweep['serial']['wall_s']:.2f}s, "
              f"parallel(x{sweep['parallel']['workers']}) "
              f"{sweep['parallel']['wall_s']:.2f}s")
    if "replication" in record:
        rep = record["replication"]
        print(f"  replication K={rep['seeds']}: serial "
              f"{rep['serial_wall_s']:.2f}s, pooled(x{rep['workers']}) "
              f"{rep['wall_s']:.2f}s (speedup {rep['speedup']:.2f}x, "
              f"{rep['points_per_sec']:.2f} points/sec)")
    if "fabric" in record:
        fabric = record["fabric"]
        scen = fabric["scenario"]
        fast = fabric["sweep_fastpath"]
        print(f"  fabric {scen['name']}: {scen['events_per_sec']:.0f} "
              f"events/sec ({scen['events']} events in {scen['wall_s']:.2f}s)")
        print(f"  fabric {fast['name']} @ {fast['n_racks']} racks: DES "
              f"{fast['des_wall_s']:.2f}s vs fastpath "
              f"{fast['fastpath_wall_s']:.3f}s ({fast['speedup']:.0f}x)")
        rep = fabric["replication"]
        pooled = ", ".join(
            f"x{w[len('workers'):]} {rep[w]['speedup']:.2f}x"
            for w in sorted(rep) if w.startswith("workers")
        )
        print(f"  fabric replication K={rep['seeds']} ({rep['tasks']} tasks):"
              f" serial {rep['serial_wall_s']:.2f}s, speedup {pooled}")
    if "grid" in record:
        kernel = record["grid"]["kernel"]
        search = record["grid"]["search"]
        print(f"  grid kernel: {kernel['points_per_sec']:.0f} points/sec "
              f"({kernel['points']} points x {kernel['passes']} passes)")
        print(f"  grid {search['name']}: exhaustive "
              f"{search['exhaustive_wall_s']:.2f}s vs adaptive "
              f"{search['adaptive_wall_s']:.2f}s ({search['speedup']:.1f}x, "
              f"DES {search['des_points_run']}/{search['points']}, "
              f"{search['des_points_saved']} saved, rows_match="
              f"{search['rows_match']})")
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = check_regression(record, baseline)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
