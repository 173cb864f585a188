# Repro tooling. `make test` is the tier-1 verification command.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench-smoke sweep-smoke hetero-smoke fabric-smoke bench-perf bench-fabric-perf bench-grid-perf perfbench-smoke bench-replication bench examples

# Tier-1; --durations prints the ten slowest tests, so every log carries
# the suite's slowest DES replays as a perf number.
test:
	$(PYTHON) -m pytest -x -q --durations=10

# One fast benchmark per application (KVS / Paxos / DNS): the analytic
# Figure 3 sweeps, which regenerate their panels in seconds.
bench-smoke:
	$(PYTHON) -m pytest -q \
		benchmarks/bench_fig3a_kvs.py \
		benchmarks/bench_fig3b_paxos.py \
		benchmarks/bench_fig3c_dns.py

# The §9.4 scenario sweep on a reduced 2-point rate ramp: asserts the
# software->hardware ops/W crossover and writes the tipping-point table
# to benchmarks/results/sweep_rack_kvs_tipping.txt (a CI artifact).
sweep-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_sweep_tipping.py

# The heterogeneous-device rack: asserts the SmartNIC host tips before the
# NetFPGA host on one shared ramp (NIC-only host never shifts) and that
# the per-device-kind sweep orders the crossovers the same way.  Tables
# land in benchmarks/results/ (CI artifacts).
hetero-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_rack_hetero.py

# The multi-rack leaf-spine fabric: asserts the centralized controller's
# same-rack steer lands before the cross-rack one, that oversubscribed
# uplinks raise the cross-rack client p99, and that per-placement power
# attribution sums to the scenario totals within 1e-6.  Tables land in
# benchmarks/results/ (CI artifacts).
fabric-smoke:
	$(PYTHON) -m pytest -q benchmarks/bench_fabric_scale.py

# The perf trajectory: DES events/sec + wall seconds per scenario, the
# serial-vs-parallel sweep wall time, and the K=4 replicated-sweep leg
# (serial vs pooled wall + points/sec), written to
# benchmarks/results/BENCH_perf.json (a CI artifact) and gated against the
# committed benchmarks/BENCH_perf_baseline.json (>30% drop in events/sec
# or replication points/sec fails).
bench-perf:
	$(PYTHON) -m pytest -q benchmarks/bench_perf.py

# The fabric fast-path criteria: sweep-fabric-scale with fastpath=True
# must be >=3x faster wall-clock than the full DES at n_racks=4 while
# staying inside the validate_fastpath tolerance gate (achieved pps,
# total wall W, ops/W), plus the fabric events/sec regression gate.
# Artifact: benchmarks/results/fabric_fastpath.txt.
bench-fabric-perf:
	$(PYTHON) -m pytest -q benchmarks/bench_fabric_perf.py

# The grid/adaptive criteria (ISSUE 10): the adaptive crossover search
# must be >=5x faster wall-clock than the exhaustive DES sweep on the
# reduced sweep-fabric-scale grid while reporting identical tipping rows
# from <=25% of the DES replays, plus the vectorized steady-grid kernel's
# points/sec regression gate.  Artifact: benchmarks/results/grid_adaptive.txt.
bench-grid-perf:
	$(PYTHON) -m pytest -q benchmarks/bench_grid_perf.py

# The cold-start benchmark's correctness smoke: one short untraced pass
# over every perfbench workload, each checked against its committed
# reference (rack-mixed render digest, adaptive tipping rows, dense grid
# digest).  run.py exits 0 even when a check fails, so this target also
# requires its last output line (the summary JSON) to report
# "correct": true with "failed": 0.
perfbench-smoke:
	@out=$$($(PYTHON) perfbench/run.py --trace 0 --seconds 1) || { echo "$$out"; exit 1; }; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | $(PYTHON) -c 'import json, sys; r = json.loads(sys.stdin.read()); sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else "perfbench-smoke: a workload failed its reference check")'

# The replication acceptance benchmark: K=8 seeds of the reduced
# sweep-rack-kvs, per-seed byte-identity vs serial run_sweep everywhere,
# and the >=3x workers=4 speedup criterion on machines with >=4 cores.
bench-replication:
	$(PYTHON) -m pytest -q benchmarks/bench_replication.py

# The full paper-vs-measured record (slow: includes the DES transitions
# and the rack-scale scenario).  Explicit file list: bench_*.py does not
# match pytest's default test-file pattern, keeping benchmarks out of
# `make test`.
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done
