import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import pytest

from occupancy import bridge, cli, exact, indep, lattice, order, zoo
from occupancy.model import load_model, model_to_dict, save_model

from conftest import random_model


@pytest.fixture()
def model_dir(tmp_path):
    save_model(zoo.constant_pair(1, 0.3, 0.8), tmp_path / "single.json")
    save_model(zoo.interacting_pair(), tmp_path / "pair.json")
    save_model(zoo.non_monotone_pair(), tmp_path / "broken.json")
    save_model(zoo.contact_ring(3, 0.35, 1.0), tmp_path / "ring.json")
    save_model(zoo.random_certified_model(25, seed=0), tmp_path / "big.json")
    return tmp_path


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def test_check_passes_certified_model(model_dir, capsys):
    code = run_cli("check", "--model", model_dir / "pair.json")
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS
    assert "overall: pass" in out
    assert "colonisation-increasing" in out


def test_check_fails_non_monotone_model(model_dir, capsys):
    code = run_cli("check", "--model", model_dir / "broken.json")
    out = capsys.readouterr().out
    assert code == cli.EXIT_FAIL
    assert "overall: fail" in out


def test_check_writes_json_report(model_dir, capsys):
    out_path = model_dir / "report.json"
    code = run_cli("check", "--model", model_dir / "ring.json",
                   "--out", out_path)
    capsys.readouterr()
    assert code == cli.EXIT_PASS
    doc = json.loads(out_path.read_text())
    names = {f["hypothesis"] for f in doc["findings"]}
    assert "birth-increasing" in names and "death-convex" in names


def test_malformed_json_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1,\n  "colonisation": [}')
    code = run_cli("check", "--model", bad)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "line 2" in err


def _pair_with_intercept(path, token: str):
    """interacting_pair's file with colonisation[0]'s `a` written as `token`."""
    doc = model_to_dict(zoo.interacting_pair())
    doc["colonisation"][0]["params"]["a"] = "@"
    path.write_text(json.dumps(doc).replace('"@"', token))
    return path


@pytest.mark.parametrize("argv", [["check"], ["run", "--mode", "exact", "--t", "2"],
                                  ["verify", "--theorem", "thm1", "--t", "2"]])
@pytest.mark.parametrize("token, named", [
    ("NaN", "field 'a' holds NaN"),
    ("Infinity", "field 'a' holds Infinity"),
    ("-Infinity", "field 'a' holds -Infinity"),
    # a literal past the float range reads as inf, and the family refuses it
    ("1e999", "colonisation[0]: intercept a must be finite"),
])
def test_non_finite_model_number_is_usage_error(tmp_path, capsys, argv, token, named):
    code = run_cli(*argv, "--model", _pair_with_intercept(tmp_path / "m.json", token))
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_overflowing_weight_sum_exits_one_without_warnings(tmp_path):
    # every weight finite, their sum not: refused at load, in a fresh
    # interpreter so that no warning filter of the test run hides stderr
    doc = model_to_dict(zoo.interacting_pair())
    doc["colonisation"][0]["params"]["b"] = [1e308, 1e308]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv in (["check"], ["run", "--mode", "exact", "--t", "2"],
                 ["verify", "--theorem", "thm1", "--t", "2"]):
        done = subprocess.run([sys.executable, "-m", "occupancy.cli", *argv,
                               "--model", str(path)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == cli.EXIT_USAGE
        assert done.stdout == ""
        assert done.stderr == (f"error: {path}: colonisation[0]: a + sum(b) must be "
                               "finite: the family would overflow\n")


def _colonising_pair(family):
    doc = model_to_dict(zoo.interacting_pair())
    doc["colonisation"][0] = family
    return doc


def _fast_birth_ring(scale):
    doc = model_to_dict(zoo.contact_ring(2))
    doc["birth"][0]["scale"] = scale
    return doc


_OCC_ROUTES = (["check"], ["run", "--mode", "exact", "--t", "2"],
               ["verify", "--theorem", "thm1", "--t", "2"])
_SPIN_ROUTES = (["check"], ["run", "--mode", "meanfield", "--t", "0.5"],
                ["verify", "--theorem", "thm2", "--t", "0.5", "--grid-points", "3"])


@pytest.mark.parametrize("doc, routes, named", [
    # the value at raw 1 overflowed in the bank on every route
    (_colonising_pair({"family": "constant", "params": {"c": 0.5},
                       "offset": 1e308, "scale": 1e308}), _OCC_ROUTES,
     "colonisation[0]: offset + scale must be finite: the family would overflow"),
    # a finite rate whose sums overflowed in the hypothesis scan and RK4
    (_fast_birth_ring(1e308), _SPIN_ROUTES,
     "birth[0]: rate families need offset + scale <= 1e+200, got 1e+308"),
    # y^2 underflowed to 0, and w^2 / (w^2 + y^2) gave NaN at w = 0
    (_colonising_pair({"family": "hanski-incidence",
                       "params": {"b": [0.1, 0.2], "y": 1e-170}}), _OCC_ROUTES,
     "colonisation[0]: half-saturation y must have y^2 > 0, got y = 1e-170"),
])
def test_unsafe_finite_documents_exit_one_without_warnings(tmp_path, capsys, doc, routes,
                                                          named):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    for argv in routes:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*argv, "--model", path)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and caught == []
        assert captured.out == ""
        assert captured.err == f"error: {path}: {named}\n"


def _family_with(family, params, **fields):
    return {"family": family, "params": params, **fields}


@pytest.mark.parametrize("family, named", [
    (_family_with("affine-saturated", {"a": "0.2", "b": [0.0, 0.3]}),
     "intercept a must be a number, got '0.2'"),
    (_family_with("affine-saturated", {"a": 0.2, "b": [0.1, True]}),
     "weight vector b entry must be a number, got True"),
    (_family_with("constant", {"c": True}), "constant level c must be a number, got True"),
    (_family_with("hanski-incidence", {"b": [0.1, 0.2], "y": "0.5"}),
     "half-saturation y must be a number, got '0.5'"),
    (_family_with("product-form", {"beta": [0.5, "0.5"]}),
     "beta entry must be a number, got '0.5'"),
    (_family_with("tabulated-multilinear", {"table": [0.0, 0.5, 0.5, False]}),
     "table entry must be a number, got False"),
    (_family_with("constant", {"c": 0.2}, offset=True), "offset must be a number, got True"),
    (_family_with("constant", {"c": 0.2}, scale="1"), "scale must be a number, got '1'"),
    (_family_with("constant", {"c": 0.2}, pins={"1": "1"}),
     "pinned value at site 1 must be a number, got '1'"),
    # pin keys that are not a site number in plain decimal: int() reads the
    # first four as a site
    *[(_family_with("constant", {"c": 0.2}, pins={key: 0.5}),
       f"'pins' key must be a site number in plain decimal, got {key!r}")
      for key in (" 1", "+1", "01", "1_0", "1.5", "-1")],
])
def test_non_numbers_in_number_fields_are_usage_errors(tmp_path, capsys, family, named):
    # float() or int() would read each of these; the loader refuses them
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_colonising_pair(family)))
    for argv in _OCC_ROUTES:
        code = run_cli(*argv, "--model", path)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"error: {path}: colonisation[0]: {named}\n"


def test_unknown_field_is_usage_error(tmp_path, capsys):
    doc = {"n": 1, "colonisation": [{"family": "constant", "params": {"c": 0.3}}],
           "survival": [{"family": "constant", "params": {"c": 0.8}}],
           "bogus": 1}
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    code = run_cli("check", "--model", path)
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "bogus" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code = run_cli("check", "--model", tmp_path / "absent.json")
    capsys.readouterr()
    assert code == cli.EXIT_USAGE


def test_run_exact_two_steps(model_dir, capsys):
    code = run_cli("run", "--model", model_dir / "single.json",
                   "--mode", "exact", "--t", "2")
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "step,site_0"
    assert lines[1].startswith("0,")
    step, value = lines[-1].split(",")
    assert step == "2"
    assert float(value) == pytest.approx(0.45, abs=1e-15)


def test_run_meanfield_equals_indep_output(model_dir, capsys):
    run_cli("run", "--model", model_dir / "pair.json",
            "--mode", "meanfield", "--t", "6", "--x0", "0b01")
    field = capsys.readouterr().out
    run_cli("run", "--model", model_dir / "pair.json",
            "--mode", "indep", "--t", "6", "--x0", "1")
    sur = capsys.readouterr().out
    assert field == sur  # surrogate marginals are the deterministic rows


def test_run_mc_is_reproducible(model_dir, capsys):
    args = ("run", "--model", model_dir / "pair.json", "--mode", "mc",
            "--t", "3", "--reps", "2000", "--seed", "7")
    run_cli(*args)
    first = capsys.readouterr().out
    run_cli(*args)
    second = capsys.readouterr().out
    run_cli(*args, "--workers", "8")
    eight = capsys.readouterr().out
    assert first == second == eight
    assert first.splitlines()[0] == "step,site,mean,se"


# sha256 of the `run --mode mc` CSV, fixed once and never updated: Monte
# Carlo output stays byte-identical across refactors and worker counts
@pytest.mark.parametrize("spec, argv, digest", [
    pytest.param(zoo.random_certified_model(12, 7), ["--t", "20", "--reps", "40000"],
                 "9dab4ebf503ebb7ef11e88db889b65b2f09753c6904d94fa23aafd52f2e75585",
                 id="certified-n12"),
    pytest.param(random_model(5, 0), ["--t", "8", "--x0", "3", "--reps", "5000"],
                 "2a533d64053ca5ba5f15496863acf7beb6131c5b42fc4fe294cab072cdf072a7",
                 id="random-n5"),
])
def test_run_mc_bytes_are_frozen(tmp_path, capsys, spec, argv, digest):
    save_model(spec, tmp_path / "model.json")
    for workers in ("1", "2"):
        out_path = tmp_path / f"mc{workers}.csv"
        code = run_cli("run", "--model", tmp_path / "model.json", "--mode", "mc",
                       "--workers", workers, "--out", out_path, *argv)
        assert code == cli.EXIT_PASS
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
    capsys.readouterr()


def test_run_writes_file(model_dir, capsys):
    out_path = model_dir / "traj.csv"
    code = run_cli("run", "--model", model_dir / "single.json",
                   "--mode", "exact", "--t", "1", "--out", out_path)
    capsys.readouterr()
    assert code == cli.EXIT_PASS
    assert out_path.read_text().startswith("step,site_0\n")


@pytest.mark.parametrize("model, argv", [
    ("single.json", ["run", "--mode", "exact", "--t", "2.7"]),
    ("single.json", ["run", "--mode", "exact", "--t", "-1"]),
    ("pair.json", ["verify", "--theorem", "thm3", "--t", "2.5", "--m", "2"]),
    ("single.json", ["run", "--mode", "mc", "--t", "2", "--workers", "0"]),
    ("ring.json", ["run", "--mode", "meanfield", "--t", "inf"]),
    ("ring.json", ["verify", "--theorem", "thm2", "--t", "0.5", "--grid-points", "0"]),
    ("ring.json", ["verify", "--theorem", "thm2", "--t", "0.5", "--grid-points", "-3"]),
    ("ring.json", ["verify", "--theorem", "thm2", "--t", "0.5", "--grid-points", "1"]),
    ("pair.json", ["check", "--tol", "nan"]),
    ("pair.json", ["check", "--tol", "inf"]),
    ("pair.json", ["check", "--tol", "-1"]),
    ("pair.json", ["verify", "--theorem", "thm1", "--t", "3", "--tol", "nan"]),
    ("pair.json", ["verify", "--theorem", "thm1", "--t", "3", "--tol", "inf"]),
    ("pair.json", ["verify", "--theorem", "thm1", "--t", "3", "--tol", "-1"]),
    ("ring.json", ["verify", "--theorem", "thm4", "--t", "0.5",
                   "--delta-grid", "0.00390625,0.0625"]),
    ("ring.json", ["bridge", "--t", "0.5", "--delta-grid", "0.0625,0.0625"]),
])
def test_malformed_flag_is_usage_error(model_dir, capsys, model, argv):
    code = run_cli(*argv, "--model", model_dir / model)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.err.startswith("error: ")
    assert captured.out == ""


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("argv", [
    ["check"],
    ["run", "--mode", "mc", "--t", "2"],
    ["run", "--mode", "exact", "--t", "2"],
    ["verify", "--theorem", "thm1", "--t", "2"],
])
def test_seed_out_of_range_is_usage_error(model_dir, capsys, argv, seed):
    # seeds are 64-bit words; one outside them is refused, never wrapped
    code = run_cli(*argv, "--model", model_dir / "pair.json", "--seed", seed)
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.err == f"error: --seed must be in [0, 2^64), got {seed}\n"
    assert captured.out == ""


def test_largest_seed_is_accepted(model_dir, capsys):
    code = run_cli("run", "--model", model_dir / "pair.json", "--mode", "mc",
                   "--t", "2", "--reps", "10", "--seed", 2 ** 64 - 1)
    assert code == cli.EXIT_PASS
    assert capsys.readouterr().out.startswith("step,site,mean,se\n")


def test_unparseable_flag_is_usage_error(model_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--model", model_dir / "single.json", "--t", "2",
                "--reps", "many")
    assert exc.value.code == cli.EXIT_USAGE
    assert "error: argument --reps" in capsys.readouterr().err


def test_cli_import_leaves_scipy_out():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    probe = "import sys, occupancy.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_run_spin_model_needs_meanfield_mode(model_dir, capsys):
    code = run_cli("run", "--model", model_dir / "ring.json",
                   "--mode", "exact", "--t", "1")
    capsys.readouterr()
    assert code == cli.EXIT_USAGE
    code = run_cli("run", "--model", model_dir / "ring.json",
                   "--mode", "meanfield", "--t", "0.5", "--h", "0.1")
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS
    assert out.splitlines()[0] == "step,site_0,site_1,site_2"


def test_bad_state_word_is_usage_error(model_dir, capsys):
    code = run_cli("run", "--model", model_dir / "single.json",
                   "--mode", "exact", "--t", "1", "--x0", "9")
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "out of range" in err


def test_verify_marginal_suite(model_dir, capsys):
    out_path = model_dir / "thm1.json"
    code = run_cli("verify", "--model", model_dir / "pair.json",
                   "--theorem", "thm1", "--t", "8", "--out", out_path)
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS
    assert "marginal-bound" in out and "positive-correlations" in out
    doc = json.loads(out_path.read_text())
    assert doc["theorem"] == "thm1"
    assert {r["check"] for r in doc["reports"]} == {
        "marginal-bound", "positive-correlations"}
    assert all(r["verdict"] == "pass" for r in doc["reports"])
    assert doc["hypotheses"]["verdict"] == "pass"


def test_thm1_report_is_counted_before_the_propagation(model_dir, capsys, monkeypatch):
    # every per-step row and report entry is counted: one byte short of the
    # count exits 4 before any law exists, the count itself runs
    steps, n = 50, 2
    count = (steps + 1) * (24 * n + 8 + order.REPORT_STEP_BYTES)
    argv = ["verify", "--model", model_dir / "pair.json", "--theorem", "thm1",
            "--t", steps, "--samples", "1"]
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", count)
    assert run_cli(*argv) == cli.EXIT_PASS
    capsys.readouterr()
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", count - 1)
    monkeypatch.setattr(exact, "point_mass", lambda *args: pytest.fail("propagated"))
    assert run_cli(*argv) == cli.EXIT_CAPACITY
    assert capsys.readouterr().err == (
        f"error: 50 steps: the marginal bound's tables and per-step report needs {count} "
        f"bytes, over the dense budget of {count - 1} bytes\n")


def test_thm1_report_entry_is_within_its_count(tmp_path, capsys):
    # the per-step count covers what a long run adds per step, --out
    # included, at the longest float repr and at the smallest n
    save_model(zoo.interacting_pair(), tmp_path / "pair.json")
    peaks = []
    for steps in (2000, 6000):
        tracemalloc.start()
        run_cli("verify", "--model", tmp_path / "pair.json", "--theorem", "thm1",
                "--t", steps, "--out", tmp_path / "thm1.json")
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    capsys.readouterr()
    assert (peaks[1] - peaks[0]) / 4000 <= 24 * 2 + 8 + order.REPORT_STEP_BYTES


@pytest.mark.parametrize("argv", [["bridge"], ["verify", "--theorem", "thm4"]])
def test_reference_ode_is_counted_before_the_spin_law(model_dir, capsys, monkeypatch, argv):
    # 10^8 reference steps at t = 10^5: refused before the spin law's
    # Poisson mixture, which would take seconds
    monkeypatch.setattr(exact, "spin_law", lambda *args: pytest.fail("spin law built"))
    start = time.perf_counter()
    code = run_cli(*argv, "--model", model_dir / "ring.json", "--t", "100000")
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == cli.EXIT_CAPACITY and elapsed < 1.0
    assert err.startswith("error: n = 3, t = 100000.0: a kernel, the spin tables and "
                          "the reference ODE trajectory needs ")


@pytest.mark.parametrize("argv, line", [
    (["bridge", "--t", "100000"],
     "error: n = 3, t = 100000.0: a kernel, the spin tables and the reference ODE "
     "trajectory needs 3200004992 bytes, over the dense budget of 2147483648 bytes\n"),
    (["run", "--mode", "meanfield", "--t", "1e9"],
     "error: t = 1000000000.0, h = 0.001: a trajectory of times and states needs "
     "32000000000064 bytes, over the dense budget of 2147483648 bytes\n"),
], ids=["bridge", "integrate_ode"])
def test_float_byte_counts_print_as_integers(model_dir, capsys, argv, line):
    # counts from t / h are floats; they print as the integer above them
    code = run_cli(*argv, "--model", model_dir / "ring.json")
    assert code == cli.EXIT_CAPACITY
    assert capsys.readouterr().err == line


def _fresh_interpreter(probe: str) -> str:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("spec, argv", [
    (zoo.random_certified_model(6, 0), ["verify", "--theorem", "thm1", "--t", "4"]),
    (zoo.random_certified_model(6, 0), ["verify", "--theorem", "thm3", "--t", "4", "--m", "2"]),
    (zoo.contact_ring(4), ["verify", "--theorem", "thm2", "--t", "0.5"]),
    (zoo.contact_ring(4), ["verify", "--theorem", "thm4", "--t", "0.5", "--x0", "1"]),
    (zoo.contact_ring(4), ["check"]),
], ids=["thm1", "thm3", "thm2", "thm4", "check"])
def test_proven_verify_leaves_the_rng_unloaded(tmp_path, spec, argv):
    # every hypothesis of an unsaturated affine model, Lipschitz constants
    # included, is decided in closed form, so no sample is drawn and
    # numpy.random (with OpenSSL) is never imported
    save_model(spec, tmp_path / "model.json")
    argv = argv + ["--model", str(tmp_path / "model.json")]
    probe = ("import sys\n"
             "from occupancy import cli\n"
             f"code = cli.main({argv!r})\n"
             "print(code, 'numpy.random' in sys.modules)\n")
    assert _fresh_interpreter(probe).splitlines()[-1] == "0 False"


def test_check_labels_every_proven_finding(tmp_path, capsys):
    save_model(zoo.random_certified_model(12, 0), tmp_path / "model.json")
    out_path = tmp_path / "check.json"
    code = run_cli("check", "--model", tmp_path / "model.json", "--out", out_path)
    lines = capsys.readouterr().out.splitlines()
    assert code == cli.EXIT_PASS
    assert len(lines) == 8 and lines[-1] == "overall: pass"
    assert all(line.endswith("  certified_by=proof") for line in lines[:-1])
    doc = json.loads(out_path.read_text())
    assert [f["certified_by"] for f in doc["findings"]] == ["proof"] * 7


@pytest.mark.parametrize("spec", [
    zoo.contact_ring(10),
    # the model the exact-n12 benchmark workload runs at seed 1
    zoo.random_certified_model(12, 577090037),
], ids=["ring-n10", "certified-n12"])
def test_check_at_zero_tolerance_passes_what_is_proven(tmp_path, capsys, spec):
    # the scans see round-off margins of about -4e-16 on these exactly
    # affine families; a proof has none
    save_model(spec, tmp_path / "model.json")
    code = run_cli("check", "--model", tmp_path / "model.json", "--tol", "0")
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS and "overall: pass" in out


def test_verify_path_suite(model_dir, capsys):
    code = run_cli("verify", "--model", model_dir / "pair.json",
                   "--theorem", "thm3", "--t", "4", "--m", "3")
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS
    assert "path-orthant" in out and "single-time-orthant" in out


def test_verify_spin_suite(model_dir, capsys):
    code = run_cli("verify", "--model", model_dir / "ring.json",
                   "--theorem", "thm2", "--t", "1.0", "--grid-points", "5",
                   "--x0", "1")
    out = capsys.readouterr().out
    assert code == cli.EXIT_PASS
    assert "spin-marginal-bound" in out


def test_verify_convergence_suite(model_dir, capsys):
    out_path = model_dir / "thm4.json"
    code = run_cli("verify", "--model", model_dir / "ring.json",
                   "--theorem", "thm4", "--t", "1.0", "--x0", "1",
                   "--delta-grid", "0.0625,0.03125", "--out", out_path)
    capsys.readouterr()
    assert code == cli.EXIT_PASS
    doc = json.loads(out_path.read_text())
    assert doc["written"] == [str(out_path) + ".csv"]
    csv_text = (model_dir / "thm4.json.csv").read_text()
    assert csv_text.startswith("delta,metric,value\n")
    assert doc["reports"][0]["check"] == "discretisation-convergence"
    assert doc["reports"][0]["verdict"] == "pass"


def test_verify_uncertified_model_is_inconclusive(model_dir, capsys):
    code = run_cli("verify", "--model", model_dir / "broken.json",
                   "--theorem", "thm3", "--t", "3", "--m", "2")
    out = capsys.readouterr().out
    assert code == cli.EXIT_INCONCLUSIVE
    assert "informative" in out


def test_verify_theorem_model_kind_mismatch(model_dir, capsys):
    code = run_cli("verify", "--model", model_dir / "ring.json",
                   "--theorem", "thm1")
    capsys.readouterr()
    assert code == cli.EXIT_USAGE
    code = run_cli("verify", "--model", model_dir / "pair.json",
                   "--theorem", "thm2")
    capsys.readouterr()
    assert code == cli.EXIT_USAGE


def test_capacity_exit_code(model_dir, capsys):
    code = run_cli("run", "--model", model_dir / "big.json",
                   "--mode", "exact", "--t", "1")
    err = capsys.readouterr().err
    assert code == cli.EXIT_CAPACITY
    assert err.startswith("error: n = 25: the kernel's tables needs ")


@pytest.mark.parametrize("argv, builds", [
    (["verify", "--model", "pair.json", "--theorem", "thm1", "--t", "6"], 1),
    (["verify", "--model", "pair.json", "--theorem", "thm3", "--t", "4", "--m", "3"], 1),
    (["verify", "--model", "ring.json", "--theorem", "thm4", "--t", "0.5",
      "--delta-grid", "0.125,0.0625,0.03125"], 3),
    (["verify", "--model", "ring.json", "--theorem", "thm2", "--t", "0.5",
      "--grid-points", "5"], 0),
    (["verify", "--model", "ring.json", "--theorem", "thm2", "--t", "0.5",
      "--grid-points", "11"], 0),
    (["bridge", "--model", "ring.json", "--t", "0.5", "--delta-grid", "0.125,0.0625"], 2),
])
def test_each_kernel_is_built_once(model_dir, capsys, monkeypatch, argv, builds):
    # `builds` kernels (one per delta on the spin routes); every spin route
    # builds one rate table, and thm3 one set of surrogate schedules
    expected = {"kernel": builds, "spin_generator": int("ring.json" in argv),
                "site_schedules": int("thm3" in argv)}
    calls = dict.fromkeys(expected, 0)
    for module, name in ((exact, "kernel"), (exact, "spin_generator"),
                         (indep, "site_schedules")):
        def counted(*args, build=getattr(module, name), name=name):
            calls[name] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    argv = [str(model_dir / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == cli.EXIT_PASS
    capsys.readouterr()
    assert calls == expected


@pytest.mark.parametrize("argv, expansions", [
    (["verify", "--model", "pair.json", "--theorem", "thm1", "--t", "6"], 0),
    (["run", "--model", "pair.json", "--mode", "exact", "--t", "6"], 0),
    (["verify", "--model", "pair.json", "--theorem", "thm3", "--t", "4", "--m", "3"], 1),
    (["verify", "--model", "ring.json", "--theorem", "thm4", "--t", "0.5",
      "--delta-grid", "0.125,0.0625,0.03125"], 0),
    (["bridge", "--model", "ring.json", "--t", "0.5", "--delta-grid", "0.125,0.0625"], 0),
])
def test_dense_kernel_is_expanded_only_where_read(model_dir, capsys, monkeypatch, argv,
                                                  expansions):
    # single laws step through the two factor tables and the rate defect
    # reads the kernel's site probabilities; only the thm3 scan expands
    # the dense matrix
    calls = []

    def counted(self, dense=exact.Kernel.dense):
        calls.append(self)
        return dense(self)

    monkeypatch.setattr(exact.Kernel, "dense", counted)
    argv = [str(model_dir / a) if a.endswith(".json") else a for a in argv]
    assert cli.main(argv) == cli.EXIT_PASS
    capsys.readouterr()
    assert len(calls) == expansions


@pytest.mark.parametrize("model, argv", [
    ("pair.json", ["verify", "--theorem", "thm1", "--t", "3", "--samples", "1"]),
    ("pair.json", ["verify", "--theorem", "thm3", "--t", "3", "--m", "2", "--samples", "1"]),
    ("pair.json", ["run", "--mode", "exact", "--t", "3"]),
    ("pair.json", ["run", "--mode", "exact", "--t", "0"]),
    ("ring.json", ["verify", "--theorem", "thm2", "--t", "0.5", "--samples", "1"]),
    ("ring.json", ["verify", "--theorem", "thm4", "--t", "0.5", "--samples", "1"]),
    ("ring.json", ["bridge", "--t", "0.5"]),
    # one site: the kernel fits, the path scan's laws and tables do not
    ("single.json", ["verify", "--theorem", "thm3", "--t", "1", "--m", "2",
                     "--samples", "2"]),
])
def test_capacity_budget_exits_four(model_dir, capsys, monkeypatch, model, argv):
    # a budget one byte below the route's own first count: the default
    # grid of 11 points on thm2, the path scan on thm3, a kernel and the
    # rate tables on the other spin routes, a kernel on the rest; one
    # sample, and the shared lattice table built before the budget drops,
    # so no other array is rejected first
    n = load_model(model_dir / model).n
    if "thm2" in argv:
        budget, what = 320 * 11, "11 grid points needs"
    elif "thm3" in argv:
        counted = []
        with monkeypatch.context() as patch:
            patch.setattr(order, "check_bytes", lambda nbytes, what: counted.append(nbytes))
            order.check_scan(n, int(argv[argv.index("--m") + 1]))
        budget, what = max(counted), "the path scan needs"
    elif model == "ring.json":
        budget = (exact.kernel_bytes(n) + exact.spin_bytes(n)
                  + 8 * (n + 1) * (0.5 / bridge.REFERENCE_ODE.h + 2.0))
        what = (f"n = {n}, t = 0.5: a kernel, the spin tables and the reference ODE "
                f"trajectory needs")
    else:
        budget, what = exact.kernel_bytes(n), f"n = {n}: the kernel's tables needs"
    lattice.lattice_bits(n)
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", budget - 1)
    allocated = []
    for module, name in ((exact, "point_mass"), (indep, "vacancy_tables")):
        monkeypatch.setattr(module, name, lambda *args, name=name: allocated.append(name))
    code = run_cli(*argv, "--model", model_dir / model)
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY
    assert captured.err.startswith("error: ") and what in captured.err
    assert "budget" in captured.err and "Traceback" not in captured.err
    # rejected before any law or surrogate table exists
    assert allocated == []


@pytest.mark.parametrize("argv", [
    ["run", "--mode", "meanfield", "--t", "1e12"],
    ["run", "--mode", "exact", "--t", "1e12"],
    ["run", "--mode", "mc", "--t", "1e12"],
    ["verify", "--theorem", "thm1", "--t", "1e12"],
    # non_monotone_pair's tabulated family leaves hypotheses to the scans
    ["check", "--model", "broken.json", "--samples", "1000000000000"],
    ["run", "--model", "ring.json", "--mode", "meanfield", "--t", "1e12"],
    ["verify", "--model", "ring.json", "--theorem", "thm2", "--t", "1e12"],
    ["verify", "--model", "ring.json", "--theorem", "thm2", "--t", "1e300"],
    ["verify", "--model", "ring.json", "--theorem", "thm4", "--t", "1e10"],
    ["verify", "--model", "ring.json", "--theorem", "thm4", "--t", "1e300"],
    ["bridge", "--model", "ring.json", "--t", "1e10"],
    ["run", "--mode", "exact", "--t", "1e300"],
    ["run", "--mode", "mc", "--t", "1e300"],
])
def test_oversized_flag_exits_four(model_dir, capsys, argv):
    # on pair.json unless the row names a model; counts past 10^15 print
    # in %g form, so the line stays short
    argv = [str(model_dir / a) if a.endswith(".json") else a for a in argv]
    if "--model" not in argv:
        argv += ["--model", model_dir / "pair.json"]
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY
    assert captured.err.startswith("error: ") and "budget" in captured.err
    assert captured.err.count("\n") == 1 and len(captured.err) < 200
    assert captured.out == ""


@pytest.mark.parametrize("model", ["pair.json", "ring.json"])
def test_proven_check_counts_no_samples(model_dir, capsys, model):
    # every hypothesis is decided in closed form, so no sample point is
    # drawn and none is counted against the budget
    code = run_cli("check", "--model", model_dir / model, "--samples", "1000000000000")
    captured = capsys.readouterr()
    assert code == cli.EXIT_PASS and captured.err == ""
    assert captured.out.count("certified_by=proof") == len(captured.out.splitlines()) - 1


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "thm2", "--t", "2", "--x0", "1"],
    ["run", "--mode", "meanfield", "--t", "2"],
])
@pytest.mark.parametrize("h", ["inf", "nan", "0", "-1e-3"])
def test_ode_step_must_be_finite_and_positive(model_dir, capsys, argv, h):
    # an infinite step takes no step at all and would leave the ODE at p0
    code = run_cli(*argv, f"--h={h}", "--model", model_dir / "ring.json")
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert "step size h must be finite and > 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, what", [
    (["verify", "--theorem", "thm3", "--t", "2", "--m", "40"], "the path scan"),
    (["verify", "--theorem", "thm3", "--t", "2", "--m", "1000"], "the path scan"),
    (["run", "--mode", "mc", "--t", "2", "--reps", "1000000000000"], "count tables"),
    # 2^20000 columns: a byte count past the float range, printed in %g form
    (["verify", "--theorem", "thm3", "--t", "2", "--m", "20000"], "needs 1.27369e+6022 bytes"),
])
def test_runaway_flag_exits_four(model_dir, capsys, argv, what):
    # refused by its arrays' size before the work that would never end
    code = run_cli(*argv, "--model", model_dir / "pair.json")
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY
    assert captured.err.startswith("error: ") and what in captured.err


def test_scan_rule_rejects_thm3_before_exact_work(tmp_path, capsys, monkeypatch):
    # at n = 14 the path scan's dense kernel alone fills the budget
    save_model(zoo.random_certified_model(14, seed=0), tmp_path / "m14.json")
    calls = []
    monkeypatch.setattr(exact, "kernel", calls.append)
    monkeypatch.setattr(exact, "transition_matrix", calls.append)
    code = run_cli("verify", "--model", tmp_path / "m14.json", "--theorem", "thm3",
                   "--t", "2", "--m", "2", "--samples", "64")
    assert code == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("error: n = 14, m = 2, budget 4: the path scan needs ")
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["run", "--mode", "exact", "--t", "2"],
    ["verify", "--theorem", "thm1", "--t", "2", "--samples", "64"],
])
def test_single_law_routes_reach_n_15(tmp_path, capsys, argv):
    # past the dense matrix's n = 14: the routes hold the factor tables only
    save_model(zoo.random_certified_model(15, seed=0), tmp_path / "m15.json")
    code = run_cli(*argv, "--model", tmp_path / "m15.json")
    assert code == cli.EXIT_PASS
    assert capsys.readouterr().err == ""


def test_kernel_rule_rejects_n_18_before_any_table(tmp_path, capsys, monkeypatch):
    save_model(zoo.random_certified_model(18, seed=0), tmp_path / "m18.json")
    calls = []
    monkeypatch.setattr(exact, "lattice_bits", calls.append)
    monkeypatch.setattr(exact, "transition_values", calls.append)
    code = run_cli("run", "--model", tmp_path / "m18.json", "--mode", "exact", "--t", "2")
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY
    assert captured.err.startswith("error: n = 18: the kernel's tables needs ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert calls == []


def test_thm2_grid_is_counted_before_it_is_built(model_dir, capsys, monkeypatch):
    # the grid's times and margins, and their JSON text, count against the
    # budget: a grid past it exits 4 before any point exists
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", 20_000)
    argv = ["verify", "--model", model_dir / "ring.json", "--theorem", "thm2", "--t", "0",
            "--samples", "1", "--out", model_dir / "thm2.json"]
    assert run_cli(*argv, "--grid-points", "62") == cli.EXIT_PASS
    capsys.readouterr()
    assert run_cli(*argv, "--grid-points", "100000") == cli.EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.err.startswith("error: 100000 grid points needs 32000000 bytes")
    assert captured.out == ""


def test_zero_path_length_is_usage_error(model_dir, capsys):
    code = run_cli("verify", "--model", model_dir / "pair.json",
                   "--theorem", "thm3", "--m", "0")
    assert code == cli.EXIT_USAGE
    assert "m must be >= 1" in capsys.readouterr().err


def test_bridge_writes_table(model_dir, capsys):
    out_path = model_dir / "table.csv"
    code = run_cli("bridge", "--model", model_dir / "ring.json",
                   "--t", "0.5", "--x0", "1",
                   "--delta-grid", "0.0625,0.03125", "--out", out_path)
    capsys.readouterr()
    assert code == cli.EXIT_PASS
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "delta,metric,value"
    assert len(lines) == 9


def test_bridge_rejects_occupancy_model(model_dir, capsys):
    code = run_cli("bridge", "--model", model_dir / "pair.json")
    capsys.readouterr()
    assert code == cli.EXIT_USAGE


def test_bad_delta_grid(model_dir, capsys):
    code = run_cli("bridge", "--model", model_dir / "ring.json",
                   "--delta-grid", "0.1,-0.2")
    capsys.readouterr()
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["verify", "--theorem", "thm4", "--delta-grid", "2.0"],
    ["bridge", "--delta-grid", "2.0,1.5"],
])
def test_inadmissible_delta_is_usage_error(tmp_path, capsys, argv):
    save_model(zoo.contact_ring(10), tmp_path / "ring10.json")
    code = run_cli(*argv, "--model", tmp_path / "ring10.json")
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE == 1
    assert captured.out == ""
    assert captured.err == "error: delta=2.0 exceeds the admissibility bound 1.0\n"
