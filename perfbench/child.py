"""One cold repetition of a workload, in a fresh interpreter.

``run.py`` starts it as::

    PYTHONPATH=src python3 perfbench/child.py --workload NAME --seed N \
        --workers W --mode plain|spans|profile

``plain`` times the operation untraced; ``spans`` wraps the public calls
into ``repro`` with spans and reads the run counters; ``profile`` runs the
operation under :mod:`cProfile` for the per-layer shares.  The last line
of standard output is one JSON record.
"""

import argparse
import cProfile
import json
import multiprocessing
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing
from workloads import WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def pool_usage():
    """CPU seconds and the largest peak RSS (KiB) of the live pool workers.

    The sweep executor's pool outlives ``run_sweep``, so its workers are
    not yet in ``RUSAGE_CHILDREN``; read them from ``/proc`` before the
    pool is shut down.
    """
    tick = os.sysconf("SC_CLK_TCK")
    cpu_s = 0.0
    peak_kib = 0
    for proc in multiprocessing.active_children():
        stat = Path(f"/proc/{proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        cpu_s += (int(fields[11]) + int(fields[12])) / tick
        for line in Path(f"/proc/{proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                peak_kib = max(peak_kib, int(line.split()[1]))
    return cpu_s, peak_kib


def cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"), default="plain")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    t0 = perf_counter()
    workload.load()
    load_s = perf_counter() - t0
    tracer = None
    if args.mode == "spans":
        tracer = tracing.Tracer()
        tracing.install(tracer, base_scenario=workload.base_scenario)
    t1 = perf_counter()
    state = workload.setup(args.seed)
    setup_s = load_s + perf_counter() - t1

    profiler = cProfile.Profile() if args.mode == "profile" else None
    cpu0 = cpu_seconds()
    t2 = perf_counter()
    if profiler is None:
        result = workload.run(state, args.workers)
    else:
        result = profiler.runcall(workload.run, state, args.workers)
    wall_s = perf_counter() - t2
    parent_cpu_s = cpu_seconds() - cpu0
    workers_cpu_s, workers_peak_kib = pool_usage()

    from repro.scenarios import executor_stats, shutdown_executor, spec_cache_stats

    shutdown_executor()
    record = {
        "workload": workload.name,
        "mode": args.mode,
        "seed": args.seed,
        "workers": args.workers,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "parent_cpu_s": parent_cpu_s,
        "cpu_s": parent_cpu_s + workers_cpu_s,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers_peak_kib) / 1024.0,
        "executor": executor_stats(),
        "spec_cache": spec_cache_stats(),
    }
    if tracer is not None:
        # the reduction is part of what the spans measure
        workload.reduce(result)
        tracer.uninstall()
        record["spans"] = tracing.span_metrics(tracer)
    if profiler is not None:
        import repro

        record["shares"] = tracing.layer_shares(profiler, os.path.dirname(repro.__file__))

    from repro.steady.grid import have_numpy

    reference = json.loads(REFERENCE.read_text())[workload.name]
    operations, failed, notes, summary = workload.outputs(state, result, reference, args.seed)
    if record["executor"]["tasks_dispatched"] and not record["cpu_s"] > parent_cpu_s:
        notes.append("the pool workers' CPU time was not counted")
        failed = operations
    record.update(
        operations=operations,
        failed=failed,
        notes=notes,
        summary=summary,
        have_numpy=have_numpy(),
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
