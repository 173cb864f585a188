"""The sweep executor internals: spec-materialization cache, the by-value
memos of pinned placements and steady host layouts, persistent worker
pool, chunked pin-level dispatch through the pool, a dead worker, and the
fastpath eligibility precheck."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.errors import ConfigurationError, ExecutorError
from repro.scenarios import (
    NO_CONTROLLER,
    KvsHostSpec,
    KvsWorkloadSpec,
    ScenarioSpec,
    ScenarioSweepSpec,
    SweepAxis,
    build_spec,
    build_sweep_spec,
    clear_spec_cache,
    executor_stats,
    hardware_variant,
    reset_executor_stats,
    run_replicated,
    run_sweep,
    scenario_names,
    shutdown_executor,
    software_variant,
    spec_cache_stats,
    spec_hash,
    steady_grid,
)
from repro.scenarios import fastpath as fastpath_module
from repro.scenarios import sweep as sweep_module
from repro.scenarios.fastpath import _host_layout
from repro.scenarios.sweep import (
    _auto_chunksize,
    _get_pool,
    _materialize,
    _pinned_placements,
)


@pytest.fixture
def fresh_cache():
    clear_spec_cache()
    yield
    clear_spec_cache()


def tiny_sweep():
    return build_sweep_spec(
        "sweep-rack-kvs",
        hosts=(1, 2),
        rates_kpps=(8.0,),
        duration_s=0.1,
        keyspace=4_000,
    )


# -- spec_hash --------------------------------------------------------------


def test_spec_hash_is_order_insensitive():
    a = spec_hash("rack-kvs", {"n_hosts": 2, "rate_per_host_kpps": 8.0})
    b = spec_hash("rack-kvs", {"rate_per_host_kpps": 8.0, "n_hosts": 2})
    assert a == b


def test_spec_hash_separates_points_and_bases():
    base = spec_hash("rack-kvs", {"n_hosts": 2})
    assert spec_hash("rack-kvs", {"n_hosts": 3}) != base
    assert spec_hash("fabric-kvs", {"n_hosts": 2}) != base


# -- the materialization cache ----------------------------------------------


def test_materialize_returns_the_cached_instance(fresh_cache):
    sweep = tiny_sweep()
    point = sweep.points()[0]
    first = _materialize(sweep, point)
    assert spec_cache_stats()["misses"] >= 1
    hits_before = spec_cache_stats()["hits"]
    second = _materialize(sweep, point)
    # frozen dataclass, same instance: no re-run of the factory
    assert second is first
    assert spec_cache_stats()["hits"] == hits_before + 1


def test_cache_pins_the_factory_identity(fresh_cache):
    """A re-registered scenario name must miss, not serve the old spec."""
    from repro.scenarios.registry import _REGISTRY

    sweep = tiny_sweep()
    point = sweep.points()[0]
    original = _REGISTRY[sweep.base]
    stale = _materialize(sweep, point)
    try:
        _REGISTRY[sweep.base] = lambda **kw: original(**kw)
        fresh = _materialize(sweep, point)
        assert fresh is not stale
    finally:
        _REGISTRY[sweep.base] = original


def test_clear_spec_cache_resets_counters(fresh_cache):
    sweep = tiny_sweep()
    _materialize(sweep, sweep.points()[0])
    clear_spec_cache()
    assert spec_cache_stats() == {"hits": 0, "misses": 0, "size": 0}


# -- the by-value memos of pinned placements and steady host layouts ---------


def _one_host_rack(host_name: str) -> ScenarioSpec:
    return ScenarioSpec(
        name="memo-probe",
        kvs_hosts=(KvsHostSpec(name=host_name, controller=NO_CONTROLLER),),
        kvs_workload=KvsWorkloadSpec(keyspace=1_000),
    )


@pytest.mark.parametrize("hardware", [False, True])
def test_pinned_memo_matches_a_fresh_construction(fresh_cache, hardware):
    """Every registered scenario's pin equals the unmemoized construction
    by ``repr``: first from an empty memo, then from the memo the first
    pass filled, for scenarios materialized afresh (equal by value, not
    the same objects)."""
    variant, suffix = (
        (hardware_variant, "hw") if hardware else (software_variant, "sw")
    )
    names = scenario_names()
    for memo in ("cold", "warm"):
        for name in names:
            spec = build_spec(name)
            kvs_hosts, dns_hosts, paxos_groups = _pinned_placements.__wrapped__(
                spec.kvs_hosts, spec.dns_hosts, spec.paxos_groups, hardware
            )
            fresh = dataclasses.replace(
                spec,
                name=f"{spec.name}[{suffix}]",
                kvs_hosts=kvs_hosts,
                dns_hosts=dns_hosts,
                paxos_groups=paxos_groups,
                fabric_controller=None,
            )
            assert repr(variant(spec)) == repr(fresh), (memo, name)
    assert _pinned_placements.cache_info().hits >= len(names)


def test_pinned_memo_follows_a_re_registered_factory(fresh_cache):
    """Keyed by value: a factory re-registered under the same name with
    other placements gets its own pins, never the old factory's."""
    from repro.scenarios.registry import _REGISTRY

    original = _REGISTRY["rack-kvs"]
    before = software_variant(build_spec("rack-kvs"))
    try:
        _REGISTRY["rack-kvs"] = lambda **kw: dataclasses.replace(
            original(**kw), kvs_hosts=(KvsHostSpec(name="other"),)
        )
        after = software_variant(build_spec("rack-kvs"))
    finally:
        _REGISTRY["rack-kvs"] = original
    assert [h.name for h in after.kvs_hosts] == ["other"]
    assert after.kvs_hosts != before.kvs_hosts


def test_clear_spec_cache_empties_the_memos(fresh_cache):
    steady_grid([software_variant(_one_host_rack("h0"))], "software")
    assert _pinned_placements.cache_info().currsize == 1
    assert _host_layout.cache_info().currsize == 1
    clear_spec_cache()
    assert _pinned_placements.cache_info().currsize == 0
    assert _host_layout.cache_info().currsize == 0


def test_memos_never_grow_past_their_bound(fresh_cache):
    memos = (_pinned_placements, _host_layout)
    bound = max(memo.cache_info().maxsize for memo in memos)
    for i in range(bound + 8):
        steady_grid([software_variant(_one_host_rack(f"h{i}"))], "software")
        for memo in memos:
            assert memo.cache_info().currsize <= memo.cache_info().maxsize
    for memo in memos:
        assert memo.cache_info().currsize == memo.cache_info().maxsize


# -- chunked dispatch -------------------------------------------------------


def test_auto_chunksize_targets_four_chunks_per_worker():
    assert _auto_chunksize(32, 2) == 4
    assert _auto_chunksize(64, 4) == 4
    # small task lists degrade gracefully to per-task dispatch
    assert _auto_chunksize(4, 8) == 1
    assert _auto_chunksize(0, 2) == 1


# -- the persistent pool ----------------------------------------------------


def test_pool_is_reused_across_calls():
    try:
        first = _get_pool(2)
        assert _get_pool(2) is first
        # a different worker count retires the old pool
        resized = _get_pool(3)
        assert resized is not first
    finally:
        shutdown_executor()


def test_pool_is_rebuilt_when_the_registry_changes():
    from repro.scenarios.registry import _REGISTRY

    try:
        first = _get_pool(2)
        _REGISTRY["executor-test-probe"] = lambda: None
        try:
            assert _get_pool(2) is not first
        finally:
            del _REGISTRY["executor-test-probe"]
    finally:
        shutdown_executor()


def test_shutdown_executor_is_idempotent():
    _get_pool(2)
    shutdown_executor()
    shutdown_executor()


# -- pin-level dispatch through the pool -------------------------------------

#: One host per rack and a 0.1 s horizon: the adaptive search probes this
#: grid in two DES waves, the last of which holds a single grid point.
ADAPTIVE_FABRIC = dict(
    racks=(1, 2),
    hosts_per_rack=1,
    rates_kpps=(16.0, 24.0, 32.0, 40.0, 48.0, 56.0),
    duration_s=0.1,
    keyspace=4_000,
)


def test_adaptive_pooled_matches_serial(monkeypatch):
    spec = build_sweep_spec("sweep-fabric-scale", **ADAPTIVE_FABRIC)
    waves = []
    execute = sweep_module._execute

    def recording(plan, workers):
        results, replayed = execute(plan, workers)
        if replayed:
            waves.append(len(replayed))
        return results, replayed

    monkeypatch.setattr(sweep_module, "_execute", recording)
    serial = run_sweep(spec, search="adaptive", workers=1)
    serial_waves, waves[:] = list(waves), []
    reset_executor_stats()
    pooled = run_sweep(spec, search="adaptive", workers=2)
    assert waves == serial_waves
    assert waves[-1] == 1
    # every DES point, the one-point wave's included, went to the pool
    assert executor_stats()["tasks_dispatched"] == 2 * pooled.des_points_run
    assert pooled.des_points_run == serial.des_points_run
    assert pooled.tipping_points() == serial.tipping_points()
    assert pooled.render() == serial.render()


def hetero_sweeps():
    """``(sweep, evaluator of its on-demand pins)`` pairs."""
    registered = build_sweep_spec(
        "sweep-rack-hetero",
        rates_kpps=(8.0, 32.0),
        duration_s=0.1,
        keyspace=4_000,
    )
    # the registered grid's racks are homogeneous, so its on-demand pins
    # replay the whole rack; a NetFPGA + NIC-only rack splits into a hybrid
    mixed = ScenarioSweepSpec(
        name="rack-hetero-mixed",
        base="rack-hetero",
        axes=(SweepAxis("rate_per_host_kpps", (8.0, 32.0)),),
        fixed=dict(
            registered.fixed_dict(), device_kinds=("netfpga-sume", "none")
        ),
    )
    return [(registered, "des"), (mixed, "hybrid")]


@pytest.mark.parametrize(
    "spec,od_evaluator", hetero_sweeps(), ids=lambda v: getattr(v, "name", v)
)
def test_pooled_fastpath_renders_like_serial(spec, od_evaluator):
    evaluators = {
        task.evaluator
        for task in sweep_module._plan([spec], spec.points(), True)
        if task.mode == "ondemand"
    }
    assert evaluators == {od_evaluator}
    serial = run_sweep(spec, fastpath=True)
    pooled = run_sweep(spec, fastpath=True, workers=2)
    assert pooled.render() == serial.render()


def test_analytic_fastpath_sweep_never_touches_the_pool():
    shutdown_executor()
    reset_executor_stats()
    spec = build_sweep_spec(
        "sweep-fabric-scale", racks=(1, 2), rates_kpps=(8.0, 16.0)
    )
    result = run_sweep(spec, fastpath=True, workers=2)
    assert result.des_points_run == 0
    assert executor_stats() == {
        "pool_creates": 0,
        "pool_reuses": 0,
        "tasks_dispatched": 0,
    }


def test_analytic_pins_are_answered_in_slices(monkeypatch):
    spec = build_sweep_spec(
        "sweep-fabric-scale",
        racks=(1, 2),
        rates_kpps=tuple(8.0 + i for i in range(5)),
    )
    whole = run_sweep(spec, fastpath=True).render()
    calls = []
    steady_grid = fastpath_module.steady_grid

    def counting(specs, mode):
        calls.append((mode, len(specs)))
        return steady_grid(specs, mode)

    monkeypatch.setattr(fastpath_module, "steady_grid", counting)
    monkeypatch.setattr(sweep_module, "_ANALYTIC_SLICE", 4)
    assert run_sweep(spec, fastpath=True).render() == whole
    # one call per pin per slice of at most 4 grid points
    assert calls == [("software", 4), ("hardware", 4)] * 2 + [
        ("software", 2),
        ("hardware", 2),
    ]


@pytest.mark.parametrize(
    "name,overrides,pins",
    [
        # fabric-kvs has no on-demand drive: software + hardware
        ("sweep-fabric-scale", dict(racks=(1,), rates_kpps=(8.0, 16.0)), 2),
        # rack-kvs runs live controllers: software + hardware + on-demand
        ("sweep-rack-kvs", dict(hosts=(1,), rates_kpps=(8.0, 16.0)), 3),
    ],
)
def test_each_des_point_dispatches_one_task_per_pin(name, overrides, pins):
    spec = build_sweep_spec(name, duration_s=0.05, keyspace=2_000, **overrides)
    reset_executor_stats()
    result = run_sweep(spec, workers=2)
    assert result.des_points_run == len(spec.points())
    assert executor_stats()["tasks_dispatched"] == pins * len(spec.points())


# The sweep runs in a child interpreter: its pool forks where no other
# thread exists (the precondition _get_pool documents), the fork picks up
# the patched run_pinned, and the parent's timeout catches a hang anywhere,
# pool shutdown included.  The child reports what the test checks as JSON.
_DEAD_WORKER_CHILD = """
import json
import os
import warnings

from repro.scenarios import build_sweep_spec, run_sweep
from repro.scenarios import sweep as sweep_module

parent = os.getpid()


def exit_in_worker(spec, mode):
    assert os.getpid() != parent, "a pooled sweep replayed in the parent"
    os._exit(3)


sweep_module.run_pinned = exit_in_worker
spec = build_sweep_spec(
    "sweep-rack-kvs", hosts=(1, 2), rates_kpps=(8.0,), duration_s=0.1,
    keyspace=4_000,
)
error = None
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    try:
        run_sweep(spec, workers=2)
    except Exception as exc:
        error = exc
print(json.dumps({
    "type": type(error).__name__,
    "message": str(error),
    "pool_is_none": sweep_module._POOL is None,
    "fork_warnings": [
        str(w.message) for w in caught if "fork()" in str(w.message)
    ],
}))
"""


def test_dead_worker_fails_the_sweep_instead_of_hanging():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    try:
        out = subprocess.run(
            [sys.executable, "-c", _DEAD_WORKER_CHILD],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the sweep hung on a dead worker")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["type"] == ExecutorError.__name__, report["message"]
    assert "{'n_hosts': 1, 'rate_per_host_kpps': 8.0}" in report["message"]
    assert "software pin" in report["message"]
    assert report["pool_is_none"]
    assert report["fork_warnings"] == []


# -- the fastpath eligibility precheck (never-eligible sweeps refuse) -------


def never_eligible_sweep():
    # rack-mixed carries Paxos groups and DNS replicas at every grid
    # point: no pin is ever steady-state eligible
    return build_sweep_spec(
        "sweep-rack-mixed", groups=(1,), duration_s=0.1
    )


def test_run_sweep_refuses_fastpath_on_never_eligible_sweep():
    with pytest.raises(ConfigurationError, match="steady-state eligible"):
        run_sweep(never_eligible_sweep(), fastpath=True)


def test_run_replicated_refuses_fastpath_on_never_eligible_sweep():
    with pytest.raises(ConfigurationError, match="steady-state eligible"):
        run_replicated(
            never_eligible_sweep(), seeds=2, workers=1, fastpath=True
        )
