"""Regenerate ``reference.json``, the committed outputs the benchmark's
checks compare against.  Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_reference.py

Only a change that is meant to move the simulated results should need
this; say why in the change that commits the new file.
"""

import json
from pathlib import Path

from workloads import WORKLOADS, digest, row_record


def main():
    from repro.scenarios import run_sweep, shutdown_executor

    reference = {}
    des = WORKLOADS["des-rack-mixed"]
    result = des.run(des.setup(des.default_seed), workers=1)
    reference[des.name] = {"seed": des.default_seed, "render_digest": digest(result.render())}

    # the adaptive workload must report the exhaustive search's rows
    adaptive = WORKLOADS["sweep-fabric-adaptive"]
    spec = adaptive.setup(adaptive.default_seed)
    rows = run_sweep(spec, workers=2).tipping_points()
    reference[adaptive.name] = {
        "seed": adaptive.default_seed,
        "rows": [row_record(row) for row in rows],
    }

    dense = WORKLOADS["sweep-fabric-dense"]
    sweep, _ = dense.run(dense.setup(dense.default_seed), workers=1)
    reference[dense.name] = {"render_digest": digest(sweep.render())}
    shutdown_executor()

    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
