"""Cold-start benchmark of the simulator: a DES rack replay, an adaptive
fabric sweep and a dense analytic grid.

Run from the root of a checkout::

    python3 perfbench/run.py --workload des-rack-mixed --seed 23 --seconds 30 --trace 0
    python3 perfbench/run.py              # every workload, untraced then traced

Each repetition is a fresh interpreter (``child.py``) with an empty spec
cache and no worker pool, like a CLI invocation.  ``--trace 0`` repeats
the workload for ``--seconds`` and reports the median of each end-to-end
metric; ``--trace 1`` makes one untraced, one span-traced and one
profiled repetition and reports the per-layer metrics.  The last line of
standard output is one JSON object; see ``README.md``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracing import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: at least this many repetitions per untraced run, whatever --seconds says
MIN_REPS = 3
#: every run must end well inside the 180 s a run may take
RUN_DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def _share_name(layer):
    return f"{layer}_pct" if "." in layer else f"{layer}.pct"


PER_LAYER = {
    "scenarios.materialize_s": "s",
    "scenarios.build_s": "s",
    "scenarios.collect_s": "s",
    "sim.events": "count",
    "sim.run_s": "s",
    "sim.ns_per_event": "ns",
    "net.forwarded": "count",
    "apps.requests": "count",
    "core.decisions": "count",
    **{_share_name(layer): "%" for layer in LAYERS},
    "steady.points": "count",
    "steady.s": "s",
    "steady.us_per_point": "us",
    "steady.analytic_err_pct": "%",
    "fastpath.eligibility_s": "s",
    "sweep.points": "count",
    "sweep.des_points": "count",
    "sweep.des_useful_ratio": "ratio",
    "sweep.des_point_s_p50": "s",
    "sweep.des_point_s_max": "s",
    "sweep.spec_cache_hit_ratio": "ratio",
    "sweep.reduce_s": "s",
    "executor.tasks": "count",
    "executor.pool_creates": "count",
    "executor.busy_frac": "ratio",
    "executor.idle_s": "s",
    "trace.overhead_pct": "%",
    "trace.profile_overhead_pct": "%",
}


def nproc():
    return len(os.sched_getaffinity(0))


class Runner:
    """Starts the cold children of one benchmark invocation and tallies
    the operations they attempted and failed."""

    def __init__(self, workload, seed, workers):
        self.workload = workload
        self.seed = seed
        self.workers = workers
        self.started = monotonic()
        self.attempted = 0
        self.failed = 0
        self.records = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )

    def elapsed(self):
        return monotonic() - self.started

    def child(self, mode, workers):
        """One cold repetition; None when the child did not finish."""
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload.name,
            "--seed", str(self.seed),
            "--workers", str(workers),
            "--mode", mode,
        ]
        timeout = max(1.0, RUN_DEADLINE_S - self.elapsed())
        # its own process group, so a timeout also stops the child's pool workers
        with subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                return self._lost(f"{mode} repetition timed out after {timeout:.0f} s")
        lines = stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(stderr[-2000:])
            return self._lost(f"{mode} repetition exited with code {proc.returncode}")
        record = json.loads(lines[-1])
        self.attempted += record["operations"]
        self.failed += record["failed"]
        for note in record["notes"]:
            print(f"  check failed ({mode}): {note}")
        self._check_repeatable(record)
        self.records.append(record)
        return record

    def _lost(self, why):
        """A repetition that did not finish fails every operation it had."""
        print(f"  {why}", file=sys.stderr)
        self.attempted += self.workload.operations
        self.failed += self.workload.operations
        return None

    def _check_repeatable(self, record):
        """The same seed must give the same result in every repetition."""
        if not self.records or record["failed"]:
            return
        if record["summary"]["digest"] != self.records[0]["summary"]["digest"]:
            print(f"  check failed ({record['mode']}): result differs from the first repetition")
            self.failed += record["operations"]


def stamp(runner, have_numpy):
    return (
        f"env: nproc={nproc()} python={platform.python_version()} "
        f"numpy={have_numpy} REPRO_PURE_PYTHON={os.environ.get('REPRO_PURE_PYTHON', 'unset')} "
        f"workers={runner.workers} seed={runner.seed}"
    )


def untraced(runner, seconds):
    """Cold repetitions for ``seconds``; medians of the end-to-end metrics."""
    reps = []
    while True:
        started = monotonic()
        record = runner.child("plain", runner.workers)
        took = monotonic() - started
        if record is not None:
            reps.append(record)
            print(
                f"  rep {len(reps)}: wall {record['wall_s']:.3f} s  setup {record['setup_s']:.3f} s  "
                f"cpu {record['cpu_s']:.3f} s  rss {record['peak_rss_mb']:.1f} MiB"
            )
        if record is None and not reps:
            return None
        done = len(reps) >= MIN_REPS and runner.elapsed() + took > seconds
        if done or runner.elapsed() + took > RUN_DEADLINE_S:
            break
    metrics = {name: statistics.median(r[name] for r in reps) for name in END_TO_END}
    return metrics, len(reps)


def traced(runner):
    """One untraced, one span-traced and one profiled repetition (serial,
    so every span stays in one process); the per-layer metrics."""
    pooled = runner.child("plain", runner.workers)
    serial = pooled if runner.workers == 1 else runner.child("plain", 1)
    spans = runner.child("spans", 1)
    profile = runner.child("profile", 1)
    if None in (pooled, serial, spans, profile):
        return None
    summary = spans["summary"]
    metrics = dict(spans["spans"])
    metrics.update({_share_name(layer): share for layer, share in profile["shares"].items()})
    cache = spans["spec_cache"]
    lookups = cache["hits"] + cache["misses"]
    des_points = summary.get("des_points", 0)
    tasks = pooled["executor"]["tasks_dispatched"]
    metrics.update({
        "steady.analytic_err_pct": pooled["summary"].get("analytic_err_pct", 0.0),
        "sweep.points": summary.get("points", 0),
        "sweep.des_points": des_points,
        "sweep.des_useful_ratio": summary.get("des_useful", 0) / des_points if des_points else 0.0,
        "sweep.spec_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "executor.tasks": tasks,
        "executor.pool_creates": pooled["executor"]["pool_creates"],
        # serial time over the pool's capacity while the pooled run lasted
        "executor.busy_frac": serial["wall_s"] / (runner.workers * pooled["wall_s"]) if tasks else 0.0,
        "executor.idle_s": runner.workers * pooled["wall_s"] - serial["wall_s"] if tasks else 0.0,
        "trace.overhead_pct": 100.0 * (spans["wall_s"] / serial["wall_s"] - 1.0),
        "trace.profile_overhead_pct": 100.0 * (profile["wall_s"] / serial["wall_s"] - 1.0),
    })
    return metrics, 1


def benchmark(workload, seed, seconds, trace, workers):
    """Run one workload; returns ``(runner, metrics)`` or None."""
    runner = Runner(workload, seed, workers)
    print(f"perfbench {workload.name}: {'traced' if trace else 'untraced'}")
    measured = traced(runner) if trace else untraced(runner, seconds)
    if measured is None:
        return None
    metrics, samples = measured
    print("  " + stamp(runner, runner.records[-1]["have_numpy"]))
    units = PER_LAYER if trace else END_TO_END
    source = "traced run" if trace else f"median of {samples}"
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<28} {shown} {unit:<6} ({source})")
    frac = runner.failed / runner.attempted
    print(f"  {'failed_frac':<28} {frac:>16.6g} ratio  ({runner.failed} of {runner.attempted} operations)")
    return runner, {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, help="default: the registry's seed of each workload")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default with --workload all: both")
    parser.add_argument("--workers", type=int, default=min(2, nproc()), help="pool workers of the sweeps")
    args = parser.parse_args(argv)
    if not 1 <= args.workers <= nproc():
        parser.error(f"--workers {args.workers}: this machine has {nproc()} usable cores")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 1
    # compile once, so no repetition pays for byte-compiling the package
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "repro")], check=False)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [args.trace] if args.trace is not None else [0, 1]
    attempted = failed = 0
    metrics = {}
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        workers = args.workers if workload.pooled else 1
        for trace in traces:
            outcome = benchmark(workload, seed, args.seconds, trace, workers)
            if outcome is None:
                print(f"perfbench: {name} produced no measurement", file=sys.stderr)
                return 1
            runner, measured = outcome
            attempted += runner.attempted
            failed += runner.failed
            if len(names) == 1:
                metrics.update(measured)
            else:
                metrics.update({f"{name}/{key}": value for key, value in measured.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
