"""NaN timing inputs fail where they enter, never silently downstream.

A NaN compares false against everything, so a sign check written as
``x < 0`` lets it through: a NaN sampler interval breaks the event heap's
order and the replay silently skips most of its events, and a NaN bucket
width survives validation only to crash the collect step.  Every sign
check is written so that NaN fails it; each site raises the error type it
already raises for a negative or zero value.
"""

import dataclasses

import pytest

from repro.apps.dns import DnsClient
from repro.apps.kvs import KvsClient
from repro.apps.paxos import PaxosClient
from repro.errors import ConfigurationError, SimulationError
from repro.net import Link
from repro.net.node import SinkNode
from repro.scenarios import (
    NO_CONTROLLER,
    DnsHostSpec,
    DnsWorkloadSpec,
    FabricSpec,
    KvsHostSpec,
    KvsWorkloadSpec,
    PaxosSpec,
    ScenarioBuilder,
    ScenarioSpec,
    UplinkSpec,
    build_spec,
)
from repro.scenarios.spec import SamplingSpec
from repro.sim import Simulator

NAN = float("nan")


def _kvs_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t",
        duration_s=0.1,
        kvs_hosts=(KvsHostSpec(name="kvs0", controller=NO_CONTROLLER),),
        kvs_workload=KvsWorkloadSpec(keyspace=500, rate_kpps=2.0),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _dns_spec(**workload) -> ScenarioSpec:
    return ScenarioSpec(
        name="t",
        duration_s=0.1,
        dns_hosts=(DnsHostSpec(name="dns0", controller=NO_CONTROLLER),),
        dns_workload=DnsWorkloadSpec(**{"n_names": 100, "rate_kpps": 2.0, **workload}),
    )


def _kvs_workload_spec(**workload) -> ScenarioSpec:
    return _kvs_spec(
        kvs_workload=KvsWorkloadSpec(**{"keyspace": 500, "rate_kpps": 2.0, **workload})
    )


def _uplink_spec(**uplink) -> ScenarioSpec:
    return _kvs_spec(
        fabric=FabricSpec(racks=2, uplink=UplinkSpec(**uplink)),
        kvs_hosts=(
            KvsHostSpec(name="kvs0", rack="rack0", controller=NO_CONTROLLER),
            KvsHostSpec(name="kvs1", rack="rack1", controller=NO_CONTROLLER),
        ),
    )


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: _kvs_spec(duration_s=NAN), "duration_s"),
        (lambda: _uplink_spec(latency_us=NAN), "latency_us"),
        (lambda: _uplink_spec(bandwidth_gbps=NAN), "bandwidth_gbps"),
        (lambda: _uplink_spec(oversubscription=NAN), "oversubscription"),
        (
            lambda: _kvs_spec(sampling=SamplingSpec(power_interval_ms=NAN)),
            "power_interval_ms",
        ),
        (lambda: _kvs_spec(sampling=SamplingSpec(bucket_ms=NAN)), "bucket_ms"),
        (
            lambda: _kvs_spec(
                kvs_workload=KvsWorkloadSpec(phases=((NAN, 2.0),))
            ),
            "before t=0",
        ),
        (
            lambda: _kvs_spec(
                kvs_workload=KvsWorkloadSpec(phases=((0.0, 2.0), (0.1, NAN)))
            ),
            "rate must be >= 0",
        ),
        (
            lambda: ScenarioSpec(
                name="t", paxos_groups=(PaxosSpec(shifts=((NAN, True),)),)
            ),
            "before t=0",
        ),
        (lambda: _kvs_workload_spec(rate_kpps=NAN), "rate_kpps"),
        (lambda: _kvs_workload_spec(zipf_s=NAN), "zipf_s"),
        (lambda: _kvs_workload_spec(keyspace=NAN), "keyspace"),
        (lambda: _dns_spec(rate_kpps=NAN), "rate_kpps"),
        (lambda: _dns_spec(zipf_s=NAN), "zipf_s"),
    ],
    ids=[
        "duration_s",
        "uplink-latency",
        "uplink-bandwidth",
        "uplink-oversubscription",
        "power-interval",
        "bucket",
        "phase-time",
        "phase-rate",
        "paxos-shift-time",
        "kvs-rate",
        "kvs-zipf",
        "kvs-keyspace",
        "dns-rate",
        "dns-zipf",
    ],
)
def test_validate_rejects_nan(make, match):
    with pytest.raises(ConfigurationError, match=match):
        make().validate()


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: _kvs_workload_spec(rate_kpps=-5.0), "rate_kpps"),
        (lambda: _kvs_workload_spec(zipf_s=-1.0), "zipf_s"),
        (lambda: _kvs_workload_spec(zipf_s=0.0), "zipf_s"),
        (lambda: _kvs_workload_spec(keyspace=0), "keyspace"),
        (lambda: _kvs_workload_spec(keyspace=-3), "keyspace"),
        (lambda: _dns_spec(rate_kpps=-3.0), "rate_kpps"),
        (lambda: _dns_spec(zipf_s=-1.0), "zipf_s"),
        (lambda: _dns_spec(zipf_s=0.0), "zipf_s"),
    ],
    ids=[
        "kvs-rate-negative",
        "kvs-zipf-negative",
        "kvs-zipf-zero",
        "kvs-keyspace-zero",
        "kvs-keyspace-negative",
        "dns-rate-negative",
        "dns-zipf-negative",
        "dns-zipf-zero",
    ],
)
def test_validate_rejects_negative_and_zero_workload_numbers(make, match):
    """Workload numbers out of range fail at ``validate()``, not as a
    client or sampler error deep inside the build."""
    with pytest.raises(ConfigurationError, match=match):
        make().validate()


@pytest.mark.parametrize(
    "make",
    [
        lambda sim: KvsClient(sim, "c", "s", key_sampler=str, value_sampler=bytes),
        lambda sim: DnsClient(sim, "c", "s", name_sampler=str),
        lambda sim: PaxosClient(sim, "c"),
    ],
    ids=["kvs", "dns", "paxos"],
)
def test_client_set_rate_rejects_nan(make):
    sim = Simulator()
    with pytest.raises(ConfigurationError, match="rate must be >= 0"):
        make(sim).set_rate(NAN)
    assert sim.pending == 0


@pytest.mark.parametrize(
    "sampling",
    [SamplingSpec(power_interval_ms=NAN), SamplingSpec(bucket_ms=NAN)],
    ids=["power-interval", "bucket"],
)
def test_nan_sampling_fails_before_the_replay(sampling):
    """The two defects end to end: a short ``rack-kvs`` with a NaN sampler
    interval or bucket width is refused before any event runs."""
    spec = dataclasses.replace(
        build_spec("rack-kvs", duration_s=0.05), sampling=sampling
    )
    with pytest.raises(ConfigurationError, match="must be positive"):
        ScenarioBuilder(spec).build()


def _noop(*_args):
    pass


@pytest.mark.parametrize(
    "call",
    [
        lambda sim: sim.schedule(NAN, _noop),
        lambda sim: sim.schedule_at(NAN, _noop),
        lambda sim: sim.schedule_fast(NAN, _noop),
        lambda sim: sim.schedule_call(NAN, _noop, None),
        lambda sim: sim.call_every(NAN, _noop),
        lambda sim: sim.call_every_fast(NAN, _noop),
        lambda sim: sim.run_until(NAN),
    ],
    ids=[
        "schedule",
        "schedule_at",
        "schedule_fast",
        "schedule_call",
        "call_every",
        "call_every_fast",
        "run_until",
    ],
)
def test_kernel_rejects_nan_times(call):
    sim = Simulator()
    with pytest.raises(SimulationError):
        call(sim)
    assert sim.pending == 0


def test_reschedule_rejects_nan_delay():
    sim = Simulator()
    event = sim.schedule(1.0, _noop)
    sim.run()
    with pytest.raises(SimulationError, match="into the past"):
        sim.reschedule(event, NAN)


@pytest.mark.parametrize(
    "kwargs",
    [{"latency_us": NAN}, {"bandwidth_bps": NAN}],
    ids=["latency", "bandwidth"],
)
def test_link_rejects_nan(kwargs):
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Link(sim, SinkNode(sim), **kwargs)
