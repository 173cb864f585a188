"""Grid-kernel / adaptive-search benchmark — the ISSUE 10 acceptance
criteria.

``sweep-fabric-scale`` on a 32-point grid (16 rate steps x 2 rack
counts): the adaptive crossover search must beat the exhaustive DES
sweep by >= 5x wall-clock while reporting the *identical*
``TippingPoint`` rows and replaying at most a quarter of the grid —
speed bought by changing the answer is a search bug, not a win.  The
gated trend figure (batched steady-grid points/sec against the
committed baseline) rides in ``BENCH_perf.json``'s ``grid`` section via
``bench_perf.py``; this module re-checks just the grid gate so ``make
bench-grid-perf`` fails standalone when the kernel or the search
regresses.

Artifact: ``benchmarks/results/grid_adaptive.txt``.
"""

import json
import pathlib

import pytest

from perf_harness import (
    BASELINE_PATH,
    PERF_GRID,
    check_regression,
    measure_grid,
)

RESULTS = pathlib.Path(__file__).parent / "results"

SPEEDUP_FLOOR = 5.0

#: The adaptive search must answer at least this fraction of the grid
#: analytically (DES on <= 1/4 of the points — the ISSUE acceptance bar).
MAX_DES_FRACTION = 0.25


@pytest.fixture(scope="module")
def grid_record():
    """One shared measurement: the exhaustive leg alone replays the full
    32-point DES grid, so both tests read the same record."""
    return measure_grid()


def test_adaptive_speedup_floor_and_row_identity(grid_record):
    """adaptive >= 5x faster than exhaustive on sweep-fabric-scale, with
    byte-identical tipping rows and DES on <= 25% of the grid."""
    kernel = grid_record["kernel"]
    search = grid_record["search"]

    RESULTS.mkdir(exist_ok=True)
    lines = [
        f"{search['name']} adaptive vs exhaustive "
        f"({search['points']} grid points)",
        f"kernel     {kernel['points_per_sec']:.0f} points/sec "
        f"({kernel['points']} points x {kernel['passes']} passes)",
        f"exhaustive {search['exhaustive_wall_s']:.2f}s",
        f"adaptive   {search['adaptive_wall_s']:.2f}s",
        f"speedup    {search['speedup']:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)",
        f"DES points {search['des_points_run']}/{search['points']} "
        f"({search['des_points_saved']} answered analytically)",
        f"rows_match {search['rows_match']}",
    ]
    (RESULTS / "grid_adaptive.txt").write_text("\n".join(lines) + "\n")

    assert search["name"] == PERF_GRID["name"] == "sweep-fabric-scale"
    assert kernel["points_per_sec"] > 0
    assert search["rows_match"], (
        "adaptive search reported different tipping rows than the "
        "exhaustive sweep — the savings are not free"
    )
    assert search["des_points_run"] <= MAX_DES_FRACTION * search["points"], (
        f"adaptive replayed {search['des_points_run']}/{search['points']} "
        f"grid points; the acceptance bar is {MAX_DES_FRACTION:.0%}"
    )
    assert search["speedup"] >= SPEEDUP_FLOOR, (
        f"adaptive speedup {search['speedup']:.1f}x < "
        f"{SPEEDUP_FLOOR:.0f}x (exhaustive "
        f"{search['exhaustive_wall_s']:.2f}s, adaptive "
        f"{search['adaptive_wall_s']:.2f}s)"
    )


def test_grid_perf_section_gate(grid_record):
    """The grid record section measures real work and holds the >30%
    kernel points/sec regression gate against the committed baseline."""
    assert grid_record["kernel"]["points_per_sec"] > 0
    assert grid_record["search"]["speedup"] > 0
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        failures = check_regression(
            {"scenarios": {}, "grid": grid_record}, baseline
        )
        assert not failures, "; ".join(failures)
