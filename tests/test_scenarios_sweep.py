"""The scenario sweep engine: specs, pinned variants, the runner, the
tipping-point reduction, power attribution, and the sweep registry."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    NO_CONTROLLER,
    ScenarioSweepSpec,
    SweepAxis,
    attribute_power,
    build_spec,
    build_sweep_spec,
    closest_sweep,
    hardware_variant,
    run_sweep,
    software_variant,
    sweep_descriptions,
    sweep_names,
)
from repro.scenarios.sweep import _SWEEPS, register_sweep


# ---------------------------------------------------------------------------
# Spec validation and the grid.
# ---------------------------------------------------------------------------


class TestSweepSpec:
    def test_no_axes_rejected(self):
        with pytest.raises(ConfigurationError, match="no axes"):
            ScenarioSweepSpec(name="s", base="rack-kvs").validate()

    def test_empty_axis_values_rejected(self):
        with pytest.raises(ConfigurationError, match="no values"):
            ScenarioSweepSpec(
                name="s", base="rack-kvs", axes=(SweepAxis("n_hosts"),)
            ).validate()

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ScenarioSweepSpec(
                name="s",
                base="rack-kvs",
                axes=(SweepAxis("a", (1,)), SweepAxis("a", (2,))),
            ).validate()

    def test_unknown_tip_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="tip_axis"):
            ScenarioSweepSpec(
                name="s",
                base="rack-kvs",
                axes=(SweepAxis("a", (1,)),),
                tip_axis="b",
            ).validate()

    def test_fixed_colliding_with_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="collides"):
            ScenarioSweepSpec(
                name="s",
                base="rack-kvs",
                axes=(SweepAxis("n_hosts", (1,)),),
                fixed=dict(n_hosts=2),
            ).validate()

    def test_points_cross_product_last_axis_fastest(self):
        spec = ScenarioSweepSpec(
            name="s",
            base="rack-kvs",
            axes=(SweepAxis("a", (1, 2)), SweepAxis("b", (10, 20))),
        )
        assert spec.points() == [
            {"a": 1, "b": 10},
            {"a": 1, "b": 20},
            {"a": 2, "b": 10},
            {"a": 2, "b": 20},
        ]

    def test_tip_axis_defaults_to_last(self):
        spec = ScenarioSweepSpec(
            name="s",
            base="rack-kvs",
            axes=(SweepAxis("a", (1,)), SweepAxis("b", (1,))),
        )
        assert spec.resolved_tip_axis() == "b"

    def test_specs_are_replace_derivable(self):
        spec = build_sweep_spec("sweep-rack-kvs")
        small = dataclasses.replace(
            spec, axes=(SweepAxis("n_hosts", (1,)),), tip_axis="n_hosts"
        )
        assert small.validate().points() == [{"n_hosts": 1}]


# ---------------------------------------------------------------------------
# Pinned variants.
# ---------------------------------------------------------------------------


class TestPinnedVariants:
    def test_software_variant_strips_triggers(self):
        spec = build_spec("rack-mixed")
        sw = software_variant(spec)
        assert sw.name == "rack-mixed[sw]"
        for host in (*sw.kvs_hosts, *sw.dns_hosts):
            assert host.controller == NO_CONTROLLER
            assert host.power_save is True
        for host in sw.kvs_hosts:
            assert host.colocated == ()
        for group in sw.paxos_groups:
            assert group.shifts == ()
            assert group.controller.kind == "schedule"
            assert not group.start_in_hardware

    def test_hardware_variant_starts_every_placement_in_hardware(self):
        spec = build_spec("rack-mixed")
        hw = hardware_variant(spec)
        assert hw.name == "rack-mixed[hw]"
        for placement in (*hw.kvs_hosts, *hw.dns_hosts, *hw.paxos_groups):
            assert placement.start_in_hardware
        for group in hw.paxos_groups:
            assert group.shifts == ()

    def test_variants_leave_the_original_untouched(self):
        spec = build_spec("rack-mixed")
        software_variant(spec)
        hardware_variant(spec)
        assert spec.kvs_hosts[0].colocated  # kvs0's ChainerMN job survives

    def test_start_in_hardware_applies_before_instrumentation(self):
        """The hardware pin is active for the t=0 power sample: the very
        first wall-power reading already includes the un-gated card."""
        from repro.scenarios import ScenarioBuilder

        base = build_spec(
            "rack-kvs", n_hosts=1, rate_per_host_kpps=2.0,
            duration_s=0.2, keyspace=500,
        )
        hw_run = ScenarioBuilder(hardware_variant(base)).build()
        sw_run = ScenarioBuilder(software_variant(base)).build()
        hw_host, sw_host = hw_run.placements[0], sw_run.placements[0]
        hw_first = hw_host.wall_samplers[hw_host.spec.name].series.values[0]
        sw_first = sw_host.wall_samplers[sw_host.spec.name].series.values[0]
        assert hw_first > sw_first  # active card vs §9.2 standby at t=0
        assert hw_host.service.shift_times_us() == [0.0]


# ---------------------------------------------------------------------------
# Power attribution.
# ---------------------------------------------------------------------------


class TestAttributePower:
    def test_disjoint_servers(self):
        attribution, total = attribute_power(
            {"a": [10.0, 20.0], "b": [30.0, 30.0]},
            {"a": ("p0",), "b": ("p1",)},
        )
        assert attribution == {"p0": 15.0, "p1": 30.0}
        assert total == pytest.approx(45.0)

    def test_shared_server_split_between_claimants(self):
        """The §9.4 shared-host case: two Paxos groups on one acceptor box
        each get an equal share of its draw, and nothing is lost."""
        attribution, total = attribute_power(
            {"shared": [40.0, 40.0], "own": [10.0, 10.0]},
            {"shared": ("px0", "px1"), "own": ("px0",)},
        )
        assert attribution == {"px0": 30.0, "px1": 20.0}
        assert sum(attribution.values()) == pytest.approx(total)

    def test_totals_add_left_to_right(self):
        """Every total is a left-to-right fold, the same bits on every
        Python: a compensated sum (``sum()`` on 3.12) would give the mean
        and the total 1/3 here, and the busy total 1 + 2**-52."""
        attribution, total = attribute_power(
            {"a": [1e16, 1.0, -1e16]}, {"a": ("p",)}
        )
        assert attribution == {"p": 0.0}
        assert total == 0.0
        attribution, _ = attribute_power(
            {"a": [3.0]},
            {"a": ("p", "q", "r")},
            {"a": {"p": 1.0, "q": 1e-16, "r": 1e-16}},
        )
        assert attribution["p"] == 3.0

    def test_unclaimed_server_rejected(self):
        with pytest.raises(ConfigurationError, match="claimed by no placement"):
            attribute_power({"a": [1.0]}, {})

    def test_ragged_sample_series_rejected(self):
        """Misaligned cadences would make the independent total silently
        disagree with the attribution sum; refuse rather than approximate."""
        with pytest.raises(ConfigurationError, match="aligned sample series"):
            attribute_power(
                {"a": [10.0, 10.0], "b": [4.0]},
                {"a": ("p0",), "b": ("p1",)},
            )

    def test_empty_samples_are_skipped(self):
        attribution, total = attribute_power(
            {"a": [], "b": [5.0]}, {"a": ("p0",), "b": ("p1",)}
        )
        assert attribution == {"p1": 5.0}
        assert total == pytest.approx(5.0)

    def test_merge_power_claims_accumulates_shared_owners(self):
        """The builder-side fold: a node claimed by two placements keeps
        one sample set and both owners (reaching attribute_power's split
        path instead of the last claimant absorbing the whole draw)."""
        from repro.scenarios.builder import merge_power_claims

        samples, claims, busy = merge_power_claims(
            [
                ("shared-box", [40.0], "px0", 0.0),
                ("shared-box", [40.0], "px1", 0.0),
                ("own-box", [10.0], "px0", 1.0),
                ("own-box", [10.0], "px0", 1.0),  # duplicate claim collapses
            ]
        )
        assert samples == {"shared-box": [40.0], "own-box": [10.0]}
        assert claims == {"shared-box": ("px0", "px1"), "own-box": ("px0",)}
        assert busy == {
            "shared-box": {"px0": 0.0, "px1": 0.0},
            "own-box": {"px0": 2.0},
        }
        # no busy time recorded on the shared box -> equal-split fallback
        attribution, total = attribute_power(samples, claims, busy)
        assert attribution == {"px0": 30.0, "px1": 20.0}
        assert total == pytest.approx(50.0)

    def test_proportional_split_follows_busy_time(self):
        """The §9.4 proportional split: a shared box's draw divides by each
        claimant's busy time, and the sum-equals-total invariant holds."""
        samples = {"shared": [40.0, 40.0], "own": [10.0, 10.0]}
        claims = {"shared": ("px0", "px1"), "own": ("px0",)}
        busy = {"shared": {"px0": 3.0, "px1": 1.0}, "own": {"px0": 5.0}}
        attribution, total = attribute_power(samples, claims, busy)
        assert attribution == {"px0": 30.0 + 10.0, "px1": 10.0}
        assert sum(attribution.values()) == pytest.approx(total, abs=1e-6)

    def test_proportional_split_ignores_negative_and_missing_busy(self):
        """A claimant with no recorded busy time weighs zero; all-zero
        weights fall back to the equal split rather than dividing by 0."""
        attribution, _ = attribute_power(
            {"shared": [30.0]},
            {"shared": ("a", "b", "c")},
            {"shared": {"a": 2.0, "b": -5.0}},
        )
        assert attribution == {"a": 30.0, "b": 0.0, "c": 0.0}
        attribution, _ = attribute_power(
            {"shared": [30.0]},
            {"shared": ("a", "b", "c")},
            {"shared": {"a": -1.0}},
        )
        assert attribution == pytest.approx({"a": 10.0, "b": 10.0, "c": 10.0})


# ---------------------------------------------------------------------------
# End-to-end runs (small horizons).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_kvs_sweep():
    spec = build_sweep_spec(
        "sweep-rack-kvs",
        hosts=(1,),
        rates_kpps=(2.0, 4.0),
        duration_s=0.4,
        keyspace=1_000,
    )
    return run_sweep(spec)


class TestRunSweep:
    def test_grid_is_covered(self, tiny_kvs_sweep):
        assert [pt.params for pt in tiny_kvs_sweep.points] == [
            {"n_hosts": 1, "rate_per_host_kpps": 2.0},
            {"n_hosts": 1, "rate_per_host_kpps": 4.0},
        ]

    def test_aggregates_are_populated(self, tiny_kvs_sweep):
        for pt in tiny_kvs_sweep.points:
            for agg in (pt.software, pt.hardware):
                assert agg.achieved_pps > 0
                assert agg.total_power_w > 0
                assert agg.ops_per_watt > 0
                assert 0 < agg.p50_latency_us <= agg.p99_latency_us
                assert agg.power_by_placement

    def test_attribution_sums_to_total(self, tiny_kvs_sweep):
        for pt in tiny_kvs_sweep.points:
            for agg in (pt.software, pt.hardware):
                assert agg.attributed_power_w == pytest.approx(
                    agg.total_power_w, abs=1e-6
                )

    def test_point_lookup(self, tiny_kvs_sweep):
        pt = tiny_kvs_sweep.point(rate_per_host_kpps=4.0)
        assert pt.params["rate_per_host_kpps"] == 4.0
        with pytest.raises(KeyError):
            tiny_kvs_sweep.point(rate_per_host_kpps=99.0)

    def test_render_has_both_tables(self, tiny_kvs_sweep):
        text = tiny_kvs_sweep.render()
        assert "Sweep: sweep-rack-kvs" in text
        assert "Tipping points" in text
        assert "per-placement wall power" in text
        assert "ops/W" in text

    def test_tipping_scan_sorts_a_descending_ramp(self):
        """A ramp declared high-to-low still yields the true crossover and
        monotone=True (the scan sorts by ramp value, not declaration)."""
        from repro.scenarios.sweep import (
            ScenarioSweepResult,
            SweepAggregate,
            SweepPointResult,
        )

        spec = ScenarioSweepSpec(
            name="s",
            base="rack-kvs",
            axes=(SweepAxis("rate_per_host_kpps", (32.0, 8.0)),),
        )

        def aggregate(ops_per_watt):
            return SweepAggregate(
                mode="x",
                offered_pps=1.0,
                achieved_pps=1.0,
                total_power_w=1.0,
                p50_latency_us=1.0,
                p99_latency_us=1.0,
                ops_per_watt=ops_per_watt,
            )

        result = ScenarioSweepResult(
            spec=spec,
            points=[
                SweepPointResult(  # declared first: the high-rate hw win
                    params={"rate_per_host_kpps": 32.0},
                    software=aggregate(100.0),
                    hardware=aggregate(200.0),
                ),
                SweepPointResult(
                    params={"rate_per_host_kpps": 8.0},
                    software=aggregate(100.0),
                    hardware=aggregate(50.0),
                ),
            ],
        )
        (tip,) = result.tipping_points()
        assert tip.crossover == 32.0
        assert tip.monotone

    def test_low_rates_stay_on_software(self, tiny_kvs_sweep):
        """At 2-4 kpps/host the card's active draw cannot pay for itself:
        the §8 crossover lives far above this range."""
        for pt in tiny_kvs_sweep.points:
            assert not pt.hardware_wins

    def test_mixed_sweep_attributes_per_group(self):
        result = run_sweep(
            "sweep-rack-mixed",
            groups=(1,),
            duration_s=0.5,
            kvs_rate_kpps=4.0,
            dns_rate_kqps=3.0,
        )
        (pt,) = result.points
        for agg in (pt.software, pt.hardware):
            assert "px0" in agg.power_by_placement
            assert agg.power_by_placement["px0"] > 0
            # 2 KVS shards + 2 DNS replicas + 1 Paxos group
            assert set(agg.power_by_placement) == {
                "kvs0", "kvs1", "dns0", "dns1", "px0",
            }
            assert agg.attributed_power_w == pytest.approx(
                agg.total_power_w, abs=1e-6
            )


# ---------------------------------------------------------------------------
# The sweep registry.
# ---------------------------------------------------------------------------


class TestSweepRegistry:
    def test_catalogue(self):
        assert "sweep-rack-kvs" in sweep_names()
        assert "sweep-rack-mixed" in sweep_names()
        descriptions = sweep_descriptions()
        assert all(descriptions.values())

    def test_unknown_sweep_suggests_closest(self):
        with pytest.raises(ConfigurationError, match="sweep-rack-kvs"):
            build_sweep_spec("swep-rack-kvs")

    def test_closest_sweep_is_case_insensitive(self):
        assert closest_sweep("SWEEP-RACK-KVS") == "sweep-rack-kvs"
        assert closest_sweep("Sweep-Rack-Mixd") == "sweep-rack-mixed"
        assert closest_sweep("zzzzzz") is None

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            register_sweep("sweep-rack-kvs")(lambda: None)

    def test_run_sweep_rejects_overrides_on_spec(self):
        spec = build_sweep_spec("sweep-rack-kvs")
        with pytest.raises(ConfigurationError, match="overrides"):
            run_sweep(spec, duration_s=0.1)

    def test_bad_override_names_fail_cleanly(self):
        spec = ScenarioSweepSpec(
            name="s", base="rack-kvs", axes=(SweepAxis("no_such_param", (1,)),)
        )
        with pytest.raises(ConfigurationError, match="no_such_param"):
            run_sweep(spec)

    def test_bad_factory_overrides_fail_cleanly(self):
        """A factory kwarg typo surfaces as ConfigurationError, not a raw
        TypeError escaping through the CLI."""
        with pytest.raises(ConfigurationError, match="rejected overrides"):
            build_sweep_spec("sweep-rack-kvs", no_such_kwarg=1)


# ---------------------------------------------------------------------------
# CLI integration.
# ---------------------------------------------------------------------------


@pytest.fixture
def tiny_registered_sweep():
    name = "sweep-tiny-test"

    @register_sweep(name)
    def _tiny():
        return ScenarioSweepSpec(
            name=name,
            base="rack-kvs",
            description="tiny test sweep",
            axes=(SweepAxis("rate_per_host_kpps", (2.0,)),),
            fixed=dict(n_hosts=1, duration_s=0.3, keyspace=500),
        )

    yield name
    del _SWEEPS[name]


class TestCli:
    def test_sweep_runs_from_cli(self, capsys, tiny_registered_sweep):
        from repro.__main__ import main

        assert main(["--sweep", tiny_registered_sweep]) == 0
        out = capsys.readouterr().out
        assert "Tipping points" in out

    def test_sweep_accepts_case_insensitive_name(self, capsys, tiny_registered_sweep):
        from repro.__main__ import main

        assert main(["--sweep", tiny_registered_sweep.upper()]) == 0
        assert "Tipping points" in capsys.readouterr().out

    def test_unknown_sweep_suggests(self, capsys):
        from repro.__main__ import main

        assert main(["--sweep", "sweep-rack-kv"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'sweep-rack-kvs'?" in err

    def test_sweep_conflicts_with_positional_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["figure6", "--sweep", "sweep-rack-kvs"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_positional_sweep_name_points_at_the_flag(self, capsys):
        """A sweep name without --sweep hints at the flag, not at the
        similarly-named base scenario."""
        from repro.__main__ import main

        assert main(["sweep-rack-kvs"]) == 2
        err = capsys.readouterr().err
        assert "--sweep sweep-rack-kvs" in err

    def test_sweep_conflicts_with_list(self, capsys):
        from repro.__main__ import main

        assert main(["--list", "--sweep", "sweep-rack-kvs"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sweep_png_flag_degrades_gracefully(
        self, capsys, tmp_path, tiny_registered_sweep
    ):
        """--png never fails a sweep run: without matplotlib it warns."""
        from repro.__main__ import main
        from repro.experiments import matplotlib_available

        assert main(["--sweep", tiny_registered_sweep, "--png", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "Tipping points" in captured.out
        if matplotlib_available():
            assert (tmp_path / f"{tiny_registered_sweep}.png").exists()
        else:
            assert "matplotlib not importable" in captured.err
