"""The survey scripts run end to end on tiny inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(script, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, argv", [
    ("bridge_convergence.py", ["--sites", "2", "--deltas", "2.0", "0.5"]),
    ("bridge_convergence.py", ["--sites", "two"]),
    ("margin_survey.py", ["--n", "x"]),
    ("margin_survey.py", ["--steps"]),
])
def test_refused_flags_exit_one(script, argv):
    # a refused run exits 1, as the CLI's malformed flags do, never the
    # failed check's 2
    proc = run_script(script, argv)
    assert proc.returncode == 1
    assert proc.stdout == "" and "error: " in proc.stderr


@pytest.mark.parametrize("script, argv", [
    ("bridge_convergence.py", ["--sites", "0"]),
    ("bridge_convergence.py", ["--deltas", "-0.1"]),
    # a demand at t / 2 = 0.15 is no whole number of steps of 0.0625
    ("bridge_convergence.py", ["--t", "0.3"]),
    ("margin_survey.py", ["--seeds", "0"]),
    ("margin_survey.py", ["--n", "0"]),
    ("margin_survey.py", ["--steps", "-1"]),
    ("margin_survey.py", ["--m", "0"]),
])
def test_refused_inputs_exit_one_through_the_parser(script, argv):
    # refused before any output, with the parser's usage and error lines,
    # never a traceback
    proc = run_script(script, argv)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith(f"{script}: error: ")


@pytest.mark.parametrize("script, argv", [
    # 10^8 reference ODE steps: over the work budget
    ("bridge_convergence.py", ["--t", "100000"]),
    # a 30-site kernel: over the byte budget
    ("margin_survey.py", ["--n", "30", "--seeds", "1"]),
])
def test_capacity_refusals_exit_four(script, argv):
    proc = run_script(script, argv)
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert " bytes and " in proc.stderr and " work, over the " in proc.stderr


def test_failed_orderings_exit_two(monkeypatch, capsys):
    survey = load_script("margin_survey")
    row = {"n": 2, "seed": 0, "x0": 0, "certified": True, "marginal_bound": 0.0,
           "single_time_orthant": -1e-3, "path_orthant": 0.0, "positive_correlations": 0.0}
    monkeypatch.setattr(survey, "survey_row", lambda *args: row)
    assert survey.main(["--n", "2", "--seeds", "1"]) == 2
    study = load_script("bridge_convergence")
    monkeypatch.setattr(study, "ordering_margins",
                        lambda spec, x0, demands, deltas: [(d, -1e-3) for d in deltas])
    assert study.main(["--sites", "2", "--deltas", "0.0625", "0.03125"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("script, argv, header", [
    ("margin_survey.py", ["--n", "2", "--seeds", "2", "--steps", "3", "--m", "2"],
     "n,seed,x0,certified,marginal_bound,single_time_orthant,path_orthant,"
     "positive_correlations"),
    ("bridge_convergence.py", ["--sites", "2", "--deltas", "0.0625", "0.03125"],
     "delta,metric,value"),
])
def test_script_runs(script, argv, header):
    proc = run_script(script, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header
