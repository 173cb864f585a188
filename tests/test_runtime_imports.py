"""What the runtime imports, checked in fresh interpreters.

The checks need a fresh interpreter: this test process may hold numpy
(through the test modules that use it as a reference) and holds every
``repro`` module.

* The runtime never imports numpy.  The child drives every reduction and
  kernel that once had a numpy twin — a short DES replay with its collect
  step and render, a fast-path sweep grid with its tipping points, and
  ``percentiles`` — then reports which numpy modules it loaded.
* An analytic sweep imports no DES: planning and answering a fast-path
  sweep loads no builder, app or experiment module, and the first replay
  loads the builder.  Nor does the CLI's analytic command: the figure
  runners that replay load on first use.
* Every package that re-exports its submodules lazily
  (:func:`repro.lazy.lazy_exports`) still exports every ``__all__`` name:
  it resolves, ``dir()`` lists it, and ``from pkg import *`` binds it.
"""

import json
import os
import subprocess
import sys

import pytest

import repro


def run_child(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return out.stdout.strip().splitlines()[-1]


_NUMPY_CHILD = """
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
    assert run_child(_NUMPY_CHILD) == "[]"


_ANALYTIC_CHILD = """
import json
import sys

DES = ("repro.scenarios.builder", "repro.apps", "repro.experiments.")


def des_modules():
    return sorted(m for m in sys.modules if m.startswith(DES))


import repro.scenarios
from repro.scenarios import build_spec, build_sweep_spec, run_pinned, run_sweep

sweep = run_sweep(build_sweep_spec("sweep-fabric-scale"), fastpath=True)
sweep.tipping_points()
analytic = des_modules()
run_pinned(build_spec("rack-kvs", n_hosts=1, duration_s=0.01), "software")
print(json.dumps({"analytic": analytic, "replay": des_modules()}))
"""


def test_an_analytic_sweep_imports_no_des():
    loaded = json.loads(run_child(_ANALYTIC_CHILD))
    assert loaded["analytic"] == []
    assert "repro.scenarios.builder" in loaded["replay"]
    assert "repro.apps.kvs.client" in loaded["replay"]


_CLI_CHILD = """
import contextlib
import io
import json
import sys

from repro.__main__ import main

with contextlib.redirect_stdout(io.StringIO()) as out:
    status = main(["figure3a"])
DES = ("repro.scenarios.builder", "repro.experiments.transitions")
print(json.dumps({
    "status": status,
    "rendered": len(out.getvalue()),
    "des": sorted(m for m in sys.modules if m in DES),
}))
"""


def test_an_analytic_cli_command_imports_no_des():
    report = json.loads(run_child(_CLI_CHILD))
    assert report["status"] == 0
    assert report["rendered"] > 0
    assert report["des"] == []


#: Each lazily re-exporting package, with one submodule that importing
#: the package alone must not load.
LAZY_PACKAGES = {
    "repro": "repro.steady",
    "repro.core": "repro.core.placement",
    "repro.experiments": "repro.experiments.transitions",
    "repro.host": "repro.host.server",
    "repro.hw": "repro.hw.asic",
    "repro.net": "repro.net.topology",
    "repro.scenarios": "repro.scenarios.builder",
    "repro.sim": "repro.sim.queues",
    "repro.workloads": "repro.workloads.google_trace",
}

_EXPORTS_CHILD = """
import json
import sys

import {package} as pkg

deferred = {deferred!r} in sys.modules
listed = dir(pkg)
missing_from_dir = [name for name in pkg.__all__ if name not in listed]
namespace = {{}}
exec("from {package} import *", namespace)
unbound = [name for name in pkg.__all__ if name not in namespace]
unresolved = [name for name in pkg.__all__ if not hasattr(pkg, name)]
print(json.dumps({{
    "loaded_early": deferred,
    "missing_from_dir": missing_from_dir,
    "unbound": unbound,
    "unresolved": unresolved,
    "exports": len(pkg.__all__),
}}))
"""


@pytest.mark.parametrize("package", sorted(LAZY_PACKAGES))
def test_lazy_package_exports_every_name(package):
    report = json.loads(
        run_child(
            _EXPORTS_CHILD.format(package=package, deferred=LAZY_PACKAGES[package])
        )
    )
    assert not report["loaded_early"]
    assert report["exports"] > 0
    assert report["missing_from_dir"] == []
    assert report["unbound"] == []
    assert report["unresolved"] == []
