"""Writes a workload's model file, and the exact marginals an MC check needs.

    PYTHONPATH=src python3 perfbench/inputs.py '<json request>'

The request names a zoo model and the output directory; see
`run.build_case`.  Runs in its own interpreter so that run.py itself never
holds scipy or a dense kernel: a child's peak RSS as reported by wait4
includes its parent's peak RSS at the time of the fork.

Prints one JSON object with the numpy and scipy versions.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy
import scipy

from occupancy import exact, save_model, zoo


def main(request: dict) -> dict:
    out = Path(request["dir"])
    if request["model"] == "random_certified_model":
        spec = zoo.random_certified_model(request["n"], request["seed"])
    else:
        spec = zoo.contact_ring(request["n"], beta=request["beta"])
    save_model(spec, out / "model.json")
    if "exact_steps" in request:
        rows = exact.marginal_trajectory(spec, 0, request["exact_steps"])
        (out / "exact.json").write_text(json.dumps(rows.tolist()))
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
