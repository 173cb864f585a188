"""Spans and profiler shares for the traced runs.

Spans wrap the public calls a workload makes into ``repro`` and are kept
in memory; nothing inside ``src/repro`` is instrumented.  The profiler
shares come from :mod:`cProfile`: self time is charged to the ``repro``
layer whose module defines the function, and a C builtin's time to the
layer of the function that called it.
"""

import functools
import os
import statistics
from time import perf_counter

#: Profiler buckets, in report order.  ``sim.kernel`` is all of
#: ``repro.sim`` but the queues and recorders.  ``other`` is everything
#: outside the layers named here: the top-level ``repro`` modules (units,
#: calibration, naming), ``repro.power``, ``repro.experiments``, the
#: standard library's and numpy's Python code, and the benchmark itself.
LAYERS = (
    "sim.kernel",
    "sim.queues",
    "sim.recorder",
    "net",
    "apps.kvs",
    "apps.paxos",
    "apps.dns",
    "apps.common",
    "workloads",
    "host",
    "hw",
    "core",
    "steady",
    "scenarios",
    "other",
)

_SIM_FILES = {"queues.py": "sim.queues", "recorder.py": "sim.recorder"}
_APPS_DIRS = {"kvs": "apps.kvs", "paxos": "apps.paxos", "dns": "apps.dns"}
_FLAT = {"net", "workloads", "host", "hw", "core", "steady", "scenarios"}


def layer_of(filename, repro_dir):
    """The bucket of a source file (``repro_dir`` is the package root)."""
    if not filename.startswith(repro_dir + os.sep):
        return "other"
    parts = filename[len(repro_dir) + 1 :].split(os.sep)
    top = parts[0]
    if top == "sim":
        return _SIM_FILES.get(parts[-1], "sim.kernel")
    if top == "apps":
        return _APPS_DIRS.get(parts[1], "apps.common") if len(parts) > 2 else "apps.common"
    return top if top in _FLAT else "other"


def layer_shares(profiler, repro_dir):
    """Per-layer percentage of the profiled self time (sums to 100)."""
    import pstats

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_, _, self_time, _, callers) in pstats.Stats(profiler).stats.items():
        if func[0] != "~":
            totals[layer_of(func[0], repro_dir)] += self_time
            continue
        # a C builtin: its time belongs to whoever called it
        charged = 0.0
        for caller, edge in callers.items():
            totals[layer_of(caller[0], repro_dir)] += edge[2]
            charged += edge[2]
        totals["other"] += self_time - charged
    total = sum(totals.values()) or 1.0
    return {layer: 100.0 * t / total for layer, t in totals.items()}


class Span:
    __slots__ = ("name", "start", "end", "parent", "data")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.data = None
        self.start = perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; :meth:`uninstall` restores
    every original."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, record=None):
        """``fn`` wrapped in a span; ``record(args, result)``, if given,
        returns data kept on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else None)
            tracer._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if record is not None:
                span.data = record(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, record=None):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, record))
        self._restore.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping, key, name):
        original = mapping[key]
        mapping[key] = self.wrap(name, original)
        self._restore.append(lambda: mapping.__setitem__(key, original))

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- reductions --------------------------------------------------------

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def outermost(self, *names):
        """Spans of ``names`` not nested inside another span of ``names``
        (so nested calls are not counted twice)."""
        out = []
        for span in self.named(*names):
            parent = span.parent
            while parent is not None and parent.name not in names:
                parent = parent.parent
            if parent is None:
                out.append(span)
        return out

    def total(self, *names):
        return sum(s.duration for s in self.outermost(*names))

    def self_time(self, name):
        """Time in spans of ``name`` minus the part their child spans cover."""
        covered = sum(s.duration for s in self.spans if s.parent is not None and s.parent.name == name)
        return sum(s.duration for s in self.named(name)) - covered


def install(tracer, base_scenario):
    """Wrap the public calls a workload makes into ``repro``."""
    from repro.scenarios import ScenarioBuilder, ScenarioRun, ScenarioSpec, ScenarioSweepResult
    from repro.scenarios import fastpath, registry, sweep
    from repro.sim import Simulator

    # every scenario factory call resolves through the registry
    tracer.patch_item(registry._REGISTRY, base_scenario, "scenarios.factory")
    tracer.patch(ScenarioSpec, "validate", "scenarios.validate")
    tracer.patch(ScenarioBuilder, "build", "scenarios.build")
    tracer.patch(ScenarioRun, "execute", "scenarios.execute", record=_run_counters)
    tracer.patch(Simulator, "run_until", "sim.run_until")
    # run_sweep resolves these module attributes at call time
    tracer.patch(fastpath, "steady_point", "steady.point", record=lambda args, result: 1)
    tracer.patch(fastpath, "steady_grid", "steady.grid", record=lambda args, result: len(args[0]))
    tracer.patch(fastpath, "steady_eligible", "fastpath.eligible")
    # one span per pinned DES run; its data is the grid point's spec
    tracer.patch(sweep, "run_pinned", "sweep.run_pinned", record=lambda args, result: args[0])
    tracer.patch(ScenarioSweepResult, "tipping_points", "sweep.tipping_points")
    tracer.patch(ScenarioSweepResult, "render", "sweep.render")


def _run_counters(args, result):
    run = args[0]
    switches = run.fabric.switches if run.fabric is not None else [run.switch]
    shifts = sum(len(h.shift_times_us) for h in result.all_hosts)
    shifts += sum(len(g.shift_times_us) for g in result.paxos_groups)
    return {
        "events": run.sim.events_executed,
        "forwarded": sum(sw.forwarded for sw in switches),
        "requests": result.total_responses + sum(g.decided for g in result.paxos_groups),
        "decisions": shifts + len(result.fabric_steers),
    }


def span_metrics(tracer):
    """The per-layer numbers the spans and the run counters give."""
    runs = [s.data for s in tracer.named("scenarios.execute")]
    events = sum(r["events"] for r in runs)
    run_s = tracer.total("sim.run_until")
    steady = tracer.outermost("steady.point", "steady.grid")
    steady_points = sum(s.data for s in steady)
    steady_s = sum(s.duration for s in steady)
    # consecutive pinned runs of one grid point share its spec object
    point_s = []
    previous = None
    for span in tracer.named("sweep.run_pinned"):
        if span.data is previous:
            point_s[-1] += span.duration
        else:
            point_s.append(span.duration)
        previous = span.data
    return {
        "scenarios.materialize_s": tracer.total("scenarios.factory", "scenarios.validate"),
        "scenarios.build_s": tracer.total("scenarios.build"),
        "scenarios.collect_s": tracer.self_time("scenarios.execute"),
        "sim.events": events,
        "sim.run_s": run_s,
        "sim.ns_per_event": run_s / events * 1e9 if events else 0.0,
        "net.forwarded": sum(r["forwarded"] for r in runs),
        "apps.requests": sum(r["requests"] for r in runs),
        "core.decisions": sum(r["decisions"] for r in runs),
        "steady.points": steady_points,
        "steady.s": steady_s,
        "steady.us_per_point": steady_s / steady_points * 1e6 if steady_points else 0.0,
        "fastpath.eligibility_s": tracer.total("fastpath.eligible"),
        "sweep.des_point_s_p50": statistics.median(point_s) if point_s else 0.0,
        "sweep.des_point_s_max": max(point_s, default=0.0),
        "sweep.reduce_s": tracer.total("sweep.tipping_points", "sweep.render"),
    }
