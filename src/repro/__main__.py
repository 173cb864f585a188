"""Command-line entry point: regenerate any paper figure/table, or run a
named cluster scenario from the registry.

Usage::

    python -m repro --list
    python -m repro figure3a
    python -m repro figure7 --duration 5
    python -m repro figure6 --png out/
    python -m repro rack-mixed --duration 5
    python -m repro --sweep sweep-rack-kvs
    python -m repro all
"""

from __future__ import annotations

import argparse
import ast
import difflib
import pathlib
import sys

from .errors import ConfigurationError
from .experiments import figures
from .hw.device import device_descriptions
from .naming import rack_qualified
from .scenarios import (
    closest_scenario,
    closest_sweep,
    run_replicated,
    run_scenario,
    run_sweep,
    scenario_descriptions,
    scenario_names,
    sweep_descriptions,
)
from .scenarios.registry import closest_name


def _analytic(runner):
    return lambda args: runner().render()


def _scenario(name):
    def run(args):
        overrides = {}
        if args.duration is not None:
            overrides["duration_s"] = args.duration
        return run_scenario(name, **overrides).render()

    return run


def _figure6(args):
    # the replaying figures import on use: an analytic command loads no DES
    from .experiments import run_figure6

    result = run_figure6(duration_s=args.duration or 10.0)
    _maybe_png(args, "figure6", result)
    return result.render()


def _figure7(args):
    from .experiments import run_figure7

    result = run_figure7(duration_s=args.duration or 5.0)
    _maybe_png(args, "figure7", result)
    return result.render()


def _maybe_png(args, name: str, result) -> None:
    if not getattr(args, "png", None):
        return
    from .experiments.plots import matplotlib_available

    if not matplotlib_available():
        print(f"[{name}] matplotlib not importable; skipping PNG", file=sys.stderr)
        return
    out = pathlib.Path(args.png)
    out.mkdir(parents=True, exist_ok=True)
    path = result.save_png(out / f"{name}.png")
    print(f"[{name}] wrote {path}", file=sys.stderr)


_EXPERIMENTS = {
    "figure3a": _analytic(figures.figure3a),
    "figure3b": _analytic(figures.figure3b),
    "figure3c": _analytic(figures.figure3c),
    "figure4": _analytic(figures.figure4),
    "figure5": _analytic(figures.figure5),
    "figure6": _figure6,
    "figure7": _figure7,
    "section5": _analytic(figures.section5_memories),
    "section6": _analytic(figures.section6_asic),
    "section7": _analytic(figures.section7_server),
    "section8": _analytic(figures.section8_tipping),
    "section9.3": _analytic(figures.section93_traces),
    "section10": _analytic(figures.section10_platforms),
}

#: Named cluster scenarios (the rack-scale compositions) are exposed
#: alongside the figures; ``all`` runs only the figure catalogue.
_SCENARIOS = {name: _scenario(name) for name in scenario_names()}


def _render_catalogue() -> str:
    lines = ["experiments:"]
    lines.extend(f"  {name}" for name in sorted(_EXPERIMENTS))
    lines.append("scenarios:")
    descriptions = scenario_descriptions()
    width = max(len(name) for name in descriptions)
    lines.extend(
        f"  {name:<{width}}  {descriptions[name]}"
        for name in sorted(descriptions)
    )
    lines.append("sweeps (run with --sweep):")
    sweeps = sweep_descriptions()
    if sweeps:
        from .scenarios import sweep_fastpath_eligibility

        # eligible → the whole grid has analytic steady-state answers
        # (--search adaptive and fastpath work); DES-only → every point
        # replays the event simulation
        tags = {
            name: f"[{sweep_fastpath_eligibility(name)}]" for name in sweeps
        }
        width = max(len(name) for name in sweeps)
        tag_width = max(len(tag) for tag in tags.values())
        lines.extend(
            f"  {name:<{width}}  {tags[name]:<{tag_width}}  {sweeps[name]}"
            for name in sorted(sweeps)
        )
    fabrics = _fabric_topologies()
    if fabrics:
        lines.append("fabric topologies (multi-rack scenarios):")
        width = max(len(name) for name in fabrics)
        lines.extend(
            f"  {name:<{width}}  {fabrics[name]}" for name in sorted(fabrics)
        )
    lines.append("offload devices (DeviceSpec kinds):")
    devices = device_descriptions()
    width = max(len(name) for name in devices)
    lines.extend(
        f"  {name:<{width}}  {devices[name]}" for name in sorted(devices)
    )
    return "\n".join(lines)


def _fabric_topologies() -> dict:
    """name -> one-line leaf-spine shape summary for every catalogue
    scenario declaring a :class:`FabricSpec` (spec factories are cheap;
    nothing is simulated here)."""
    from .scenarios import build_spec

    rows = {}
    for name in scenario_names():
        spec = build_spec(name)
        fabric = spec.fabric
        if fabric is None:
            continue
        # a group's software leader, learner and acceptor boxes are
        # servers (its hardware leader is a card); a shared box is one
        paxos_boxes = {
            rack_qualified(spec.host_rack(px), name)
            for px in spec.paxos_groups
            for name in (
                px.software_leader_name,
                px.learner_name,
                *px.acceptor_names(),
            )
        }
        n_hosts = len(spec.kvs_hosts) + len(spec.dns_hosts) + len(paxos_boxes)
        uplink = fabric.uplink
        rows[name] = (
            f"{fabric.racks} racks x 1 ToR + spine {fabric.spine.name!r}, "
            f"{n_hosts} server host(s), uplinks {uplink.bandwidth_gbps:g} Gb/s "
            f"/ {uplink.oversubscription:g}:1 oversubscribed"
        )
    return rows


def _resolve_case_insensitive(name: str) -> str:
    """Map ``Rack-Mixed``-style spellings onto the canonical catalogue name."""
    lowered = {c.lower(): c for c in (*_EXPERIMENTS, *_SCENARIOS, "all", "list")}
    return lowered.get(name.lower(), name)


def _suggestion(name: str) -> str:
    experiment = closest_name(name, sorted(_EXPERIMENTS) + ["all", "list"])
    scenario = closest_scenario(name)
    best = experiment or scenario
    if scenario and experiment:
        # prefer whichever is more similar
        best = max(
            (experiment, scenario),
            key=lambda c: difflib.SequenceMatcher(None, name.lower(), c).ratio(),
        )
    return f"; did you mean {best!r}?" if best else ""


def _parse_anchor(text: str) -> dict:
    """``--anchor "axis=value[,axis2=value2]"`` → a params mapping;
    values parse as python literals, falling back to the raw string."""
    anchor = {}
    for part in text.split(","):
        key, sep, raw = part.partition("=")
        if not sep or not key.strip():
            raise ConfigurationError(
                f"anchor {text!r} must be comma-separated axis=value pairs"
            )
        try:
            value = ast.literal_eval(raw.strip())
        except (ValueError, SyntaxError):
            value = raw.strip()
        anchor[key.strip()] = value
    return anchor


def _print_perf_stats(result) -> None:
    """The ``--perf-stats`` diagnostics block (stderr, after the tables)."""
    from .scenarios import executor_stats, spec_cache_stats

    runs = result.runs if hasattr(result, "runs") else [result]
    total = sum(run.grid_points_total for run in runs)
    des = sum(run.des_points_run for run in runs)
    cache = spec_cache_stats()
    pool = executor_stats()
    lines = [
        "perf stats:",
        f"  grid points: {total} total, {des} DES-replayed, "
        f"{total - des} answered by the analytic grid kernel",
        f"  spec cache: {cache['hits']} hits, {cache['misses']} misses, "
        f"{cache['size']} cached",
        f"  executor: {pool['pool_creates']} pool created, "
        f"{pool['pool_reuses']} warm reuses, "
        f"{pool['tasks_dispatched']} pinned replays dispatched",
    ]
    print("\n".join(lines), file=sys.stderr)


def _run_sweep_command(args) -> int:
    name = args.sweep
    overrides = {}
    if args.duration is not None:
        overrides["duration_s"] = args.duration
    try:
        anchors = [_parse_anchor(text) for text in (args.anchor or [])]
        # run_sweep resolves exact case-insensitive spellings itself;
        # unknown names and rejected overrides raise with the full message
        if args.seeds is not None and args.seeds != 1:
            replicated = run_replicated(
                name,
                seeds=args.seeds,
                workers=args.workers,
                search=args.search,
                anchors=anchors,
                **overrides,
            )
            print(replicated.render())
            if args.perf_stats:
                _print_perf_stats(replicated)
            return 0
        result = run_sweep(
            name,
            workers=args.workers,
            search=args.search,
            anchors=anchors,
            **overrides,
        )
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(result.render())
    if args.perf_stats:
        _print_perf_stats(result)
    _maybe_png(args, result.spec.name, result)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures and tables, or run a "
        "named cluster scenario.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default=None,
        help="which experiment or scenario to run ('list' or --list prints "
        "the catalogue; 'all' runs every figure/table)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the experiment and scenario catalogue with descriptions",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="simulated seconds for the DES experiments and scenarios",
    )
    parser.add_argument(
        "--png",
        metavar="DIR",
        default=None,
        help="also write matplotlib PNGs for figure6/figure7/sweeps into DIR "
        "(skipped when matplotlib is not importable)",
    )
    parser.add_argument(
        "--sweep",
        metavar="NAME",
        default=None,
        help="run a named scenario sweep (§9.4 tipping points) and print "
        "its per-point and tipping-point tables",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run --sweep's pinned DES replays on N worker processes "
        "(results are identical to the serial default; only the wall "
        "clock changes)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        metavar="K",
        help="replicate --sweep over K seeds and print mean ± 95%% CI "
        "tables (every seed's pinned replays share the --workers pool; "
        "seed 1 of K is the sweep's own seed)",
    )
    parser.add_argument(
        "--search",
        choices=("exhaustive", "adaptive"),
        default="exhaustive",
        help="how --sweep walks its grid: 'exhaustive' replays every "
        "point; 'adaptive' brackets each crossover on the batched "
        "analytic grid and replays the DES only at the bracketing points",
    )
    parser.add_argument(
        "--anchor",
        action="append",
        metavar="AXIS=VALUE[,AXIS=VALUE]",
        default=None,
        help="grid points of --sweep matching these axis values always "
        "replay the DES, under either --search and with --seeds "
        "(repeatable)",
    )
    parser.add_argument(
        "--perf-stats",
        action="store_true",
        help="after the tables, print spec-cache, executor-pool, and "
        "grid-kernel vs DES point counters to stderr",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.sweep is not None:
        if args.experiment is not None or args.list:
            print(
                "--sweep is mutually exclusive with --list and positional "
                "experiments; run them as separate invocations",
                file=sys.stderr,
            )
            return 2
        return _run_sweep_command(args)
    if args.list or args.experiment in (None, "list"):
        if args.experiment is None and not args.list:
            parser.print_usage(sys.stderr)
            return 2
        print(_render_catalogue())
        return 0
    args.experiment = _resolve_case_insensitive(args.experiment)
    if args.experiment == "list":
        print(_render_catalogue())
        return 0
    if (
        args.experiment != "all"
        and args.experiment not in _EXPERIMENTS
        and args.experiment not in _SCENARIOS
    ):
        sweep = closest_sweep(args.experiment)
        if sweep is not None and sweep.lower() == args.experiment.lower():
            # a sweep name given positionally: point at the right flag
            print(
                f"{args.experiment!r} is a sweep; run it with: "
                f"python -m repro --sweep {sweep}",
                file=sys.stderr,
            )
            return 2
        print(
            f"unknown experiment or scenario {args.experiment!r}"
            f"{_suggestion(args.experiment)}",
            file=sys.stderr,
        )
        return 2
    names = sorted(_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        runner = _EXPERIMENTS.get(name) or _SCENARIOS[name]
        print(runner(args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
