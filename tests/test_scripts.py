"""The survey scripts run end to end on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, argv, header", [
    ("margin_survey.py", ["--n", "2", "--seeds", "2", "--steps", "3", "--m", "2"],
     "n,seed,x0,certified,marginal_bound,single_time_orthant,path_orthant,"
     "positive_correlations"),
    ("bridge_convergence.py", ["--sites", "2", "--deltas", "0.0625", "0.03125"],
     "delta,metric,value"),
])
def test_script_runs(script, argv, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
