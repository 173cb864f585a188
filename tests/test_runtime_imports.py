"""The runtime never imports numpy.

The check needs a fresh interpreter: this test process may already hold
numpy through the test modules that use it as a reference.  The child
drives every reduction and kernel that once had a numpy twin — a short
DES replay with its collect step and render, a fast-path sweep grid with
its tipping points, and ``percentiles`` — then reports which numpy
modules it loaded.
"""

import os
import subprocess
import sys

import repro

_CHILD = """
import sys

import repro.scenarios
from repro.scenarios import (
    ScenarioBuilder, build_spec, build_sweep_spec, run_sweep,
)
from repro.sim.recorder import percentiles

ScenarioBuilder(build_spec("rack-mixed", duration_s=0.05)).run().render()
run_sweep(build_sweep_spec("sweep-fabric-scale"), fastpath=True).tipping_points()
percentiles([float(i) for i in range(100)], (50.0, 99.0))
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_runtime_never_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
