"""The heterogeneous rack: 2 KVS shards + 2 Paxos groups + 2 anycast DNS
replicas behind one ToR, per-host controller kinds (§9.4 at rack scale).

Checks the mixed-rack acceptance end to end: both consensus groups shift
independently (own logical leader addresses, distinct shift times), DNS
queries are steered across replicas by qname hash, and every placement
serves throughout.  A full DES run, so the benchmark runs a single round.
"""

import pytest

from repro.__main__ import main
from repro.scenarios import run_scenario


def _run():
    return run_scenario("rack-mixed")


def test_rack_mixed(benchmark, save_result):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    save_result("rack_mixed", result.render())

    # every app serves
    assert len(result.hosts) == 2
    assert len(result.dns_hosts) == 2
    assert len(result.paxos_groups) == 2
    assert all(p.responses > 0 for p in result.placements)

    # >=2 Paxos groups shift independently: distinct first-shift moments
    firsts = result.paxos_distinct_first_shift_times()
    assert len(firsts) >= 2

    # DNS queries steered by qname hash across >=2 replicas
    steered = [c for c in result.dns_routed_per_host.values() if c > 0]
    assert len(steered) >= 2

    # mixed controller kinds all shifted on their own triggers
    shifted = {h.name for h in result.hosts_with_shifts()}
    assert {"kvs0", "kvs1"} <= shifted


def test_rack_mixed_runs_from_cli(capsys):
    assert main(["rack-mixed", "--duration", "2.5"]) == 0
    out = capsys.readouterr().out
    assert "paxos[px0]" in out and "paxos[px1]" in out
    assert "qname-hash routing" in out
