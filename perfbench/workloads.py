"""The benchmark's three workloads: what each one times and how its output
is checked.

Every workload is a cold start: a fresh interpreter imports ``repro``,
materializes its inputs from the seed, and times one operation.  Nothing
here imports ``repro`` at module level, so the child can time the import
itself as part of set-up.  Why each workload exists is in ``README.md``.
"""

import hashlib

#: ``rack-mixed`` horizon: long enough for the DNS storm and the first
#: scheduled Paxos shift (1.2 s) to act, short enough for several cold
#: repetitions per run.
DES_HORIZON_S = 1.25

#: The §9.4 question on a small fabric: the per-host ramp brackets the DES
#: crossover of both rows (48 kpps/host at one rack, 40 at two) with at
#: least one DES-lost ramp value below it, for every seed tried.  One host
#: per rack keeps the profiled serial replay inside the per-run time limit.
ADAPTIVE_GRID = dict(
    racks=(1, 2),
    hosts_per_rack=1,
    rates_kpps=(16.0, 24.0, 32.0, 40.0, 48.0, 56.0),
    duration_s=0.3,
)

#: 4 rack counts × 512 rates = 2048 analytic points: four times the
#: 512-entry materialized-spec cache, so its LRU thrashes.
DENSE_GRID = dict(
    racks=(1, 2, 4, 8),
    rates_kpps=tuple(4.0 + 0.25 * i for i in range(512)),
)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def row_record(row):
    """A tipping row as plain JSON data (floats round-trip exactly)."""
    return {
        "fixed": dict(row.fixed),
        "crossover": row.crossover,
        "sw_ops_per_watt": row.sw_ops_per_watt,
        "hw_ops_per_watt": row.hw_ops_per_watt,
        "monotone": row.monotone,
    }


class Workload:
    """One named workload.  ``load`` imports what the workload needs,
    ``setup`` builds its inputs from the seed, ``run`` is the timed
    operation, and ``outputs`` checks and summarizes the result after the
    clock has stopped."""

    name = ""
    #: the registered scenario whose factory builds the inputs
    base_scenario = ""
    #: the registry factory's own default seed
    default_seed = 0
    #: True when the timed operation may use the sweep executor's pool
    pooled = False
    #: operations one repetition attempts (scenario runs or grid points)
    operations = 1

    def load(self):
        import repro.scenarios  # noqa: F401

    def setup(self, seed):
        raise NotImplementedError

    def run(self, state, workers):
        raise NotImplementedError

    def reduce(self, result):
        """The reporting step after the timed operation (traced runs span it)."""

    def outputs(self, state, result, reference, seed):
        """Return ``(operations, failed, notes, summary)``: how many
        operations the run attempted, how many failed a check, one line
        per failed check, and the result data the parent compares across
        repetitions."""
        raise NotImplementedError


class DesRackMixed(Workload):
    name = "des-rack-mixed"
    base_scenario = "rack-mixed"
    default_seed = 23

    def setup(self, seed):
        from repro.scenarios import ScenarioBuilder, build_spec

        spec = build_spec("rack-mixed", duration_s=DES_HORIZON_S, seed=seed)
        return ScenarioBuilder(spec).build()

    def run(self, state, workers):
        return state.execute()

    def outputs(self, state, result, reference, seed):
        notes = []
        gap = abs(sum(result.power_by_placement.values()) - result.total_wall_power_w)
        if gap > 1e-6:
            notes.append(f"power attribution off by {gap:.3g} W")
        render_digest = digest(result.render())
        if seed == self.default_seed and render_digest != reference["render_digest"]:
            notes.append("render digest differs from the committed reference")
        return 1, 1 if notes else 0, notes, {"digest": render_digest}


class SweepWorkload(Workload):
    base_scenario = "fabric-kvs"
    pooled = True
    default_seed = 11
    #: ``sweep-fabric-scale`` factory overrides
    grid = {}

    @property
    def operations(self):
        return len(self.grid["racks"]) * len(self.grid["rates_kpps"])

    def setup(self, seed):
        from repro.scenarios import build_sweep_spec

        return build_sweep_spec("sweep-fabric-scale", seed=seed, **self.grid)

    def run(self, state, workers):
        result = self.sweep(state, workers)
        return result, result.tipping_points()

    def reduce(self, result):
        result[0].render()

    @staticmethod
    def summary(spec, sweep, rows):
        """Grid size, DES replays, and how many of those replays are the
        crossover or predecessor of a reported row."""
        useful = sum(
            not point.estimated for row in rows for point in bracket(spec, sweep, row)
        )
        return {
            "digest": digest(sweep.render()),
            "points": sweep.grid_points_total,
            "des_points": sweep.des_points_run,
            "des_useful": useful if sweep.des_points_run else 0,
        }


class SweepFabricAdaptive(SweepWorkload):
    name = "sweep-fabric-adaptive"
    grid = ADAPTIVE_GRID

    def sweep(self, spec, workers):
        from repro.scenarios import run_sweep

        return run_sweep(spec, search="adaptive", workers=workers)

    def outputs(self, state, result, reference, seed):
        sweep, rows = result
        summary = self.summary(state, sweep, rows)
        summary["analytic_err_pct"] = analytic_error_pct(state, sweep, rows)
        groups = state.ramp_groups()
        # the committed rows come from an exhaustive search at the default seed
        expected = reference["rows"] if seed == self.default_seed else [None] * len(groups)
        if not len(rows) == len(groups) == len(expected):
            notes = [f"{len(rows)} tipping rows for {len(groups)} ramp groups"]
            return len(sweep.points), len(sweep.points), notes, summary
        notes = []
        failed = 0
        for row, (_, indices), want in zip(rows, groups, expected):
            problem = self._row_problem(bracket(state, sweep, row))
            if problem is None and want is not None and want != row_record(row):
                problem = "differs from the committed exhaustive row"
            if problem is not None:
                notes.append(f"row {dict(row.fixed)}: {problem}")
                failed += len(indices)
        return len(sweep.points), failed, notes, summary

    @staticmethod
    def _row_problem(points):
        if not points:
            return "no crossover on the ramp"
        if len(points) == 1:
            return "crossover at the first ramp value (no predecessor)"
        before, tip = points
        if tip.estimated or before.estimated:
            return "crossover or predecessor not replayed by the DES"
        if not tip.hardware_wins or before.hardware_wins:
            return "crossover is not a DES win after a DES loss"
        return None


class SweepFabricDense(SweepWorkload):
    name = "sweep-fabric-dense"
    # the fast path is analytic: the seed reaches the factories but cannot
    # change a single number of the result
    grid = DENSE_GRID

    def sweep(self, spec, workers):
        from repro.scenarios import run_sweep

        return run_sweep(spec, fastpath=True, workers=workers)

    def outputs(self, state, result, reference, seed):
        sweep, rows = result
        summary = self.summary(state, sweep, rows)
        notes = []
        if summary["digest"] != reference["render_digest"]:
            notes.append("result digest differs from the committed reference")
        failed = len(sweep.points) if notes else 0
        return len(sweep.points), failed, notes, summary


def bracket(spec, sweep, row):
    """The predecessor (if any) and crossover points of a tipping row, in
    ramp order; empty when the row never tips."""
    if row.crossover is None:
        return []
    axis = spec.resolved_tip_axis()
    ramp = sorted(
        pt.params[axis]
        for pt in sweep.points
        if all(pt.params[key] == value for key, value in row.fixed.items())
    )
    pos = ramp.index(row.crossover)
    return [sweep.point(**row.fixed, **{axis: value}) for value in ramp[max(0, pos - 1) : pos + 1]]


def analytic_error_pct(spec, sweep, rows):
    """Largest relative ops/W gap between ``steady_point`` and the DES over
    the DES-replayed crossover and predecessor points of the reported rows,
    both pins."""
    from repro.scenarios import (
        build_spec,
        hardware_variant,
        software_variant,
        steady_point,
    )

    worst = 0.0
    for row in rows:
        for point in bracket(spec, sweep, row):
            if point.estimated:
                continue
            scenario = build_spec(spec.base, **spec.fixed_dict(), **point.params)
            for mode, variant in (("software", software_variant), ("hardware", hardware_variant)):
                des = getattr(point, mode).ops_per_watt
                est = steady_point(variant(scenario), mode).ops_per_watt
                worst = max(worst, abs(est - des) / des * 100.0)
    return worst


WORKLOADS = {
    wl.name: wl
    for wl in (DesRackMixed(), SweepFabricAdaptive(), SweepFabricDense())
}
