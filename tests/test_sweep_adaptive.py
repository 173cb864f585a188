"""The adaptive crossover search: exhaustive-equivalence of the tipping
rows on the three fastpath-eligible registered sweeps (with the DES
savings floor), the estimate-blind tipping scan, anchors under every
search, replication bracket reuse, and the error paths.

The equivalence configs are trimmed (two-value outer axes, shortened
durations) to keep the DES cost down while still crossing a real
sw/hw tipping point on ``sweep-rack-kvs`` and ``sweep-rack-hetero``.
"""

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import build_sweep_spec, run_replicated, run_sweep
from repro.scenarios.spec import ScenarioSweepSpec, SweepAxis
from repro.scenarios.sweep import (
    ScenarioSweepResult,
    SweepAggregate,
    SweepPointResult,
    _bracket_first_win,
    _linear_fill,
    _with_seed,
)

#: (sweep name, overrides) — each grid crosses (or provably never
#: crosses) the sw/hw tipping point within a ramp cheap enough to replay
#: exhaustively in-test.
EQUIVALENCE_CONFIGS = [
    (
        "sweep-rack-kvs",
        dict(
            hosts=(1, 2),
            rates_kpps=tuple(46.0 + 2.0 * i for i in range(14)),
            duration_s=0.15,
            keyspace=4_000,
        ),
    ),
    (
        "sweep-rack-hetero",
        dict(
            rates_kpps=tuple(6.0 + 4.0 * i for i in range(12)),
            duration_s=0.2,
            keyspace=4_000,
        ),
    ),
    (
        "sweep-fabric-scale",
        dict(
            racks=(1, 2),
            rates_kpps=tuple(6.0 + 4.0 * i for i in range(12)),
            duration_s=0.15,
            keyspace=4_000,
        ),
    ),
]


# ---------------------------------------------------------------------------
# The pure helpers.
# ---------------------------------------------------------------------------


class TestBracketFirstWin:
    def test_monotone_flags(self):
        assert _bracket_first_win([False, False, True, True]) == 2
        assert _bracket_first_win([True, True]) == 0
        assert _bracket_first_win([False, False]) is None
        assert _bracket_first_win([]) is None

    def test_non_monotone_falls_back_to_first_true(self):
        # bisection assumes monotone; a lone early win must still be found
        assert _bracket_first_win([False, True, False, False]) == 1


class TestLinearFill:
    def test_interpolates_between_samples(self):
        assert _linear_fill([0, 2], [0.0, 4.0], 3) == [0.0, 2.0, 4.0]

    def test_extrapolates_past_the_ends(self):
        assert _linear_fill([1, 2], [1.0, 2.0], 4) == [0.0, 1.0, 2.0, 3.0]

    def test_single_sample_is_flat(self):
        assert _linear_fill([1], [3.5], 3) == [3.5, 3.5, 3.5]


# ---------------------------------------------------------------------------
# Adaptive == exhaustive on the registered eligible sweeps.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,overrides",
    EQUIVALENCE_CONFIGS,
    ids=[name for name, _ in EQUIVALENCE_CONFIGS],
)
def test_adaptive_matches_exhaustive(name, overrides):
    exhaustive = run_sweep(name, **overrides)
    adaptive = run_sweep(name, search="adaptive", **overrides)

    assert exhaustive.search == "exhaustive"
    assert adaptive.search == "adaptive"
    total = adaptive.grid_points_total
    assert total == exhaustive.grid_points_total == len(exhaustive.points)

    # The contract: identical TippingPoint rows...
    assert adaptive.tipping_points() == exhaustive.tipping_points()
    # ...from at most a quarter of the DES replays (the ISSUE floor).
    assert exhaustive.des_points_run == total
    assert adaptive.des_points_run * 4 <= total

    # Probed points are byte-identical to the exhaustive replays; the
    # rest are flagged analytic estimates.
    assert sum(
        1 for pt in adaptive.points if not pt.estimated
    ) == adaptive.des_points_run
    for pt_ex, pt_ad in zip(exhaustive.points, adaptive.points):
        assert pt_ad.params == pt_ex.params
        assert not pt_ex.estimated
        if not pt_ad.estimated:
            assert pt_ad.software == pt_ex.software
            assert pt_ad.hardware == pt_ex.hardware
            assert pt_ad.ondemand == pt_ex.ondemand

    # The savings counter and the estimate footnote surface in render().
    text = adaptive.render()
    assert f"adaptive search: DES on {adaptive.des_points_run}/{total}" in text
    if adaptive.des_points_run < total:
        assert "~ analytic steady-state estimate" in text
    assert "adaptive search" not in exhaustive.render()

    if name in ("sweep-rack-kvs", "sweep-rack-hetero"):
        # these grids are chosen to cross for real — the equivalence is
        # only interesting if at least one row has a confirmed crossover
        assert any(
            row.crossover is not None for row in adaptive.tipping_points()
        )


# ---------------------------------------------------------------------------
# The reduce: estimates never vote in the tipping scan.
# ---------------------------------------------------------------------------


def _opw(ops_per_watt):
    return SweepAggregate(
        mode="x",
        offered_pps=1.0,
        achieved_pps=1.0,
        total_power_w=1.0,
        p50_latency_us=1.0,
        p99_latency_us=1.0,
        ops_per_watt=ops_per_watt,
    )


def test_tipping_scan_skips_estimated_points():
    """An estimated hardware win before the DES crossover and an
    estimated loss after it change neither the crossover nor the
    monotone flag: the row is the measured points' row."""
    rates = (10.0, 20.0, 30.0, 40.0, 50.0)
    spec = ScenarioSweepSpec(
        name="s",
        base="rack-kvs",
        axes=(SweepAxis("rate_per_host_kpps", rates),),
    )
    # (hardware ops/W vs software 100, estimated?) per ramp value
    cells = [
        (150.0, True),   # estimated win before the crossover
        (90.0, False),   # DES loss
        (120.0, False),  # DES win: the crossover
        (80.0, True),    # estimated loss after it
        (130.0, False),  # DES win
    ]
    result = ScenarioSweepResult(
        spec=spec,
        points=[
            SweepPointResult(
                params={"rate_per_host_kpps": rate},
                software=_opw(100.0),
                hardware=_opw(hw),
                estimated=estimated,
            )
            for rate, (hw, estimated) in zip(rates, cells)
        ],
        search="adaptive",
    )
    (tip,) = result.tipping_points()
    assert tip.crossover == 30.0
    assert tip.hw_ops_per_watt == 120.0
    assert tip.monotone


# ---------------------------------------------------------------------------
# Anchors: user-pinned points always replay the DES, under every search.
# ---------------------------------------------------------------------------

#: A six-point ramp whose adaptive walk leaves 16 kpps unprobed.
ANCHOR_RAMP = dict(
    hosts=(1,),
    rates_kpps=(8.0, 12.0, 16.0, 20.0, 24.0, 28.0),
    duration_s=0.05,
    keyspace=4_000,
)
ANCHOR = {"rate_per_host_kpps": 16.0}


def test_anchored_points_are_des_replayed():
    plain = run_sweep("sweep-rack-kvs", search="adaptive", **ANCHOR_RAMP)
    anchored = run_sweep(
        "sweep-rack-kvs", search="adaptive", anchors=(ANCHOR,), **ANCHOR_RAMP
    )
    assert plain.point(n_hosts=1, **ANCHOR).estimated is True
    assert anchored.point(n_hosts=1, **ANCHOR).estimated is False
    assert anchored.des_points_run >= plain.des_points_run
    assert anchored.tipping_points() == plain.tipping_points()


#: A three-point ramp cheap enough to replay exhaustively.
ANCHOR_GRID = dict(
    hosts=(1,), rates_kpps=(8.0, 16.0, 24.0), duration_s=0.05, keyspace=4_000
)


@pytest.fixture(scope="module")
def exhaustive_anchor_grid():
    return run_sweep("sweep-rack-kvs", **ANCHOR_GRID)


def test_fastpath_replays_anchored_points(exhaustive_anchor_grid):
    result = run_sweep(
        "sweep-rack-kvs", fastpath=True, anchors=(ANCHOR,), **ANCHOR_GRID
    )
    assert result.des_points_run == 1
    point = result.point(n_hosts=1, **ANCHOR)
    want = exhaustive_anchor_grid.point(n_hosts=1, **ANCHOR)
    assert point.software == want.software
    assert point.hardware == want.hardware
    assert point.ondemand == want.ondemand


def test_exhaustive_anchors_change_nothing(exhaustive_anchor_grid):
    anchored = run_sweep("sweep-rack-kvs", anchors=(ANCHOR,), **ANCHOR_GRID)
    assert anchored.render() == exhaustive_anchor_grid.render()


def test_adaptive_implies_fastpath():
    adaptive = run_sweep("sweep-rack-kvs", search="adaptive", **ANCHOR_RAMP)
    both = run_sweep(
        "sweep-rack-kvs", search="adaptive", fastpath=True, **ANCHOR_RAMP
    )
    assert both.render() == adaptive.render()


# ---------------------------------------------------------------------------
# Replication: seed 0 brackets, later seeds start from its hints.
# ---------------------------------------------------------------------------


def test_replicated_adaptive_rows_match_standalone_runs():
    overrides = dict(
        hosts=(1, 2),
        rates_kpps=(46.0, 54.0, 62.0, 70.0),
        duration_s=0.12,
        keyspace=4_000,
    )
    result = run_replicated(
        "sweep-rack-kvs", seeds=3, search="adaptive", **overrides
    )
    assert len(result.runs) == len(result.seeds) == 3
    for seed, run in zip(result.seeds, result.runs):
        assert run.search == "adaptive"
        spec = _with_seed(build_sweep_spec("sweep-rack-kvs", **overrides), seed)
        standalone = run_sweep(spec, search="adaptive")
        # per-seed rows are that seed's own DES facts — identical to a
        # standalone adaptive run of the same seed (the shared hints only
        # move the walk's starting probe, never the confirmed rows)
        assert run.tipping_points() == standalone.tipping_points()
    # the reused bracket means later seeds never probe more than seed 0,
    # which pays for the endpoint calibration probes
    for run in result.runs[1:]:
        assert run.des_points_run <= result.runs[0].des_points_run


def test_replicated_adaptive_replays_anchors_in_every_seed():
    result = run_replicated(
        "sweep-rack-kvs",
        seeds=2,
        search="adaptive",
        anchors=(ANCHOR,),
        **ANCHOR_RAMP,
    )
    for run in result.runs:
        assert run.point(n_hosts=1, **ANCHOR).estimated is False


def test_replicated_adaptive_render_marks_estimates():
    """A point that is an analytic estimate in any seed carries ``~`` on
    its win count, with the estimate footnote under the table."""
    result = run_replicated(
        "sweep-rack-kvs",
        seeds=2,
        search="adaptive",
        hosts=(1,),
        rates_kpps=(46.0, 54.0, 62.0, 70.0, 78.0),
        duration_s=0.08,
        keyspace=4_000,
    )
    lines = result.render().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("---"))
    n = len(result.runs[0].points)
    cells = [line.split()[-1] for line in lines[first + 1:first + 1 + n]]
    estimated = [
        any(run.points[i].estimated for run in result.runs) for i in range(n)
    ]
    assert any(estimated) and not all(estimated)
    for cell, est in zip(cells, estimated):
        assert cell.startswith("~") == est
    assert lines[first + 1 + n].startswith("~ analytic steady-state estimate")


def test_replication_spec_validates_search():
    """``run_replicated`` takes the search mode as a keyword and rejects
    an unknown one."""
    with pytest.raises(ConfigurationError, match="search"):
        run_replicated("sweep-rack-kvs", seeds=1, search="bogus")


# ---------------------------------------------------------------------------
# Error paths.
# ---------------------------------------------------------------------------


class TestAdaptiveErrors:
    def test_unknown_search_mode(self):
        with pytest.raises(ConfigurationError, match="unknown search mode"):
            run_sweep("sweep-rack-kvs", search="dowsing")

    def test_adaptive_needs_an_eligible_point(self):
        with pytest.raises(
            ConfigurationError, match="no grid point is steady-state eligible"
        ):
            run_sweep("sweep-rack-mixed", search="adaptive")

    def test_empty_anchor_rejected(self):
        with pytest.raises(ConfigurationError, match="anchor"):
            run_sweep("sweep-rack-kvs", search="adaptive", anchors=({},))

    def test_unknown_anchor_key_rejected(self):
        with pytest.raises(ConfigurationError, match="anchor"):
            run_sweep(
                "sweep-rack-kvs",
                search="adaptive",
                anchors=({"warp_factor": 9},),
            )
