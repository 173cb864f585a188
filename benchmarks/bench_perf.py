"""The perf trajectory benchmark — emits ``BENCH_perf.json``.

Run via ``make bench-perf`` (or the CI ``perf-smoke`` leg).  Measures DES
events/sec and wall seconds for the registered perf scenarios, the
reduced sweep's serial-vs-parallel wall time, the K-seed replication
leg (serial vs pooled wall + points/sec), the fabric leg, and the grid
leg (batched steady-grid points/sec + the adaptive-vs-exhaustive
search wall clock), writes the record to
``benchmarks/results/BENCH_perf.json``, and fails when events/sec or
replication points/sec drops more than
:data:`perf_harness.REGRESSION_TOLERANCE` below the committed
``benchmarks/BENCH_perf_baseline.json``.

The baseline is a *slow-container* measurement; the gate only fires on a
>30% drop, so faster CI runners never trip it spuriously — only a real
kernel regression does.
"""

import json

from perf_harness import (
    BASELINE_PATH,
    PERF_SCENARIOS,
    PERF_SWEEP,
    check_regression,
    collect,
    write_results,
)


def test_perf_trajectory():
    record = collect()
    path = write_results(record)
    assert path.exists()

    # every registered perf scenario produced a real measurement
    assert set(record["scenarios"]) == {name for name, _ in PERF_SCENARIOS}
    for name, row in record["scenarios"].items():
        assert row["events"] > 0, f"{name} executed no events"
        assert row["events_per_sec"] > 0, f"{name} has no throughput figure"

    # the serial-vs-parallel sweep comparison is part of the record
    sweep = record["sweep"]
    assert sweep["serial"]["wall_s"] > 0
    assert sweep["parallel"]["wall_s"] > 0
    assert sweep["parallel"]["workers"] >= 2

    # the K-seed replication leg records both wall clocks and the gated
    # throughput figure (completed seed×point tasks per second)
    rep = record["replication"]
    assert rep["seeds"] >= 2
    assert rep["workers"] >= 2
    assert rep["serial_wall_s"] > 0
    assert rep["wall_s"] > 0
    from repro.scenarios import build_sweep_spec

    spec = build_sweep_spec(PERF_SWEEP["name"], **PERF_SWEEP["overrides"])
    assert rep["tasks"] == rep["seeds"] * len(spec.points())
    assert rep["points_per_sec"] > 0

    # the fabric leg (ISSUE 9): gated DES throughput on fabric-kvs, the
    # fastpath-vs-DES wall comparison, and the replicated speedups
    fabric = record["fabric"]
    assert fabric["scenario"]["events"] > 0
    assert fabric["scenario"]["events_per_sec"] > 0
    fast = fabric["sweep_fastpath"]
    assert fast["des_wall_s"] > 0 and fast["fastpath_wall_s"] > 0
    assert fast["speedup"] > 0
    frep = fabric["replication"]
    assert frep["serial_wall_s"] > 0
    for key in ("workers2", "workers4"):
        assert frep[key]["wall_s"] > 0
        assert frep[key]["speedup"] > 0

    # the grid leg: gated batched-kernel points/sec plus
    # the adaptive-vs-exhaustive wall comparison and savings counters
    grid = record["grid"]
    assert grid["kernel"]["points"] > 0
    assert grid["kernel"]["points_per_sec"] > 0
    search = grid["search"]
    assert search["exhaustive_wall_s"] > 0 and search["adaptive_wall_s"] > 0
    assert search["speedup"] > 0
    assert search["des_points_run"] + search["des_points_saved"] == \
        search["points"]
    assert search["rows_match"] is True

    # the committed-baseline regression gate (>30% events/sec drop fails)
    assert BASELINE_PATH.exists(), (
        "no committed perf baseline; regenerate with "
        "`python benchmarks/perf_harness.py` and copy "
        "results/BENCH_perf.json to BENCH_perf_baseline.json"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = check_regression(record, baseline)
    assert not failures, "; ".join(failures)
