"""The K-seed replication executor (``run_replicated``).

The contract under test: replication is *exact* — ``runs[0]`` is
byte-identical to the unreplicated sweep, every ``runs[i]`` is
byte-identical to a serial ``run_sweep`` with that seed pinned, and the
worker count does not change a single rendered byte.  On top of that sit the cross-seed reductions
(mean ± 95% CI, tipping fractions) and their rendering.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ReplicationSpec,
    build_sweep_spec,
    replicate_stats,
    replication_seeds,
    run_replicated,
    run_sweep,
)

#: one grid point, short horizon: the cheapest real replicated DES run.
TINY = dict(hosts=(1,), rates_kpps=(24.0,), duration_s=0.05, keyspace=2_000)
#: two points on the rate axis so tipping tables have something to cross.
SMALL = dict(hosts=(1,), rates_kpps=(8.0, 32.0), duration_s=0.05,
             keyspace=2_000)


def _spec(params=TINY, **extra):
    return build_sweep_spec("sweep-rack-kvs", **{**params, **extra})


# -- seed derivation ---------------------------------------------------------


def test_replication_seeds_deterministic_and_distinct():
    seeds = replication_seeds(42, 8)
    assert seeds == replication_seeds(42, 8)
    assert seeds[0] == 42
    assert len(set(seeds)) == 8
    # prefix-stable: growing K keeps the earlier seeds
    assert replication_seeds(42, 3) == seeds[:3]


def test_replication_seeds_differ_by_base():
    assert replication_seeds(1, 4)[1:] != replication_seeds(2, 4)[1:]


def test_replication_seeds_rejects_zero():
    with pytest.raises(ConfigurationError):
        replication_seeds(42, 0)


def test_replication_spec_validation():
    with pytest.raises(ConfigurationError):
        ReplicationSpec(seeds=0).validate()
    with pytest.raises(ConfigurationError):
        ReplicationSpec(workers=0).validate()
    assert ReplicationSpec().validate().seeds == 8


# -- cross-seed statistics ---------------------------------------------------


def test_replicate_stats_single_value():
    st = replicate_stats([3.5])
    assert st.mean == 3.5
    assert st.ci95 == 0.0
    assert st.n == 1


def test_replicate_stats_known_interval():
    # n=2: mean 10, sample sd sqrt(2), t=12.706 -> ci = 12.706 * 1
    st = replicate_stats([9.0, 11.0])
    assert st.mean == pytest.approx(10.0)
    assert st.ci95 == pytest.approx(12.706 * math.sqrt(2.0 / 2))
    assert st.values == (9.0, 11.0)


def test_replicate_stats_empty_rejected():
    with pytest.raises(ConfigurationError):
        replicate_stats([])


# -- byte identity -----------------------------------------------------------


def test_k1_matches_unreplicated_sweep():
    spec = _spec()
    replicated = run_replicated(spec, seeds=1)
    assert replicated.base_run.render() == run_sweep(spec).render()


def test_each_seed_matches_serial_run_sweep():
    replicated = run_replicated(_spec(), seeds=2)
    for seed, run in zip(replicated.seeds, replicated.runs):
        serial = run_sweep(_spec(seed=seed))
        assert run.render() == serial.render()


def test_worker_count_and_chunksize_do_not_change_bytes():
    serial = run_replicated(_spec(), seeds=2)
    pooled = run_replicated(_spec(), seeds=2, workers=2)
    want = [run.render() for run in serial.runs]
    assert [run.render() for run in pooled.runs] == want


# -- reductions and rendering ------------------------------------------------


def test_point_stats_mean_and_ci():
    replicated = run_replicated(_spec(), seeds=2)
    stats = replicated.point_stats("ops_per_watt")
    assert len(stats) == 1
    for mode in ("software", "hardware", "ondemand"):
        st = stats[0][mode]
        assert st is not None and st.n == 2
        values = [
            getattr(getattr(run.points[0], mode), "ops_per_watt")
            for run in replicated.runs
        ]
        assert st.mean == pytest.approx(sum(values) / 2)


def test_tipping_stats_counts_seeds():
    replicated = run_replicated(
        build_sweep_spec("sweep-rack-kvs", **SMALL), seeds=2
    )
    groups = replicated.tipping_stats()
    assert len(groups) == 1
    g = groups[0]
    assert g["axis"] == replicated.spec.resolved_tip_axis()
    assert len(g["crossovers"]) == 2
    assert 0.0 <= g["tip_fraction"] <= 1.0
    if g["tip_count"]:
        assert g["crossover"] is not None


def test_render_shows_error_bars_and_win_counts():
    replicated = run_replicated(
        build_sweep_spec("sweep-rack-kvs", **SMALL), seeds=2
    )
    text = replicated.render()
    assert "K=2 seeds" in text
    assert "sw ±" in text and "hw ±" in text
    assert "hw wins" in text
    assert "Tipping points across seeds" in text
    assert "/2" in text


def test_named_sweep_with_overrides():
    replicated = run_replicated("sweep-rack-kvs", seeds=1, **TINY)
    assert len(replicated.runs) == 1


def test_spec_plus_overrides_rejected():
    with pytest.raises(ConfigurationError):
        run_replicated(_spec(), seeds=1, duration_s=0.1)


def test_cli_seeds_flag_renders_replicated_tables(capsys):
    from repro.__main__ import main

    assert main([
        "--sweep", "sweep-rack-kvs", "--seeds", "2", "--duration", "0.05",
    ]) == 0
    out = capsys.readouterr().out
    assert "K=2 seeds" in out
    assert "hw wins" in out
