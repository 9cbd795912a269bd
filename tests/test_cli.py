import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

from occupancy import cli, exact, indep, lattice, zoo
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
])
def test_non_numbers_in_number_fields_are_usage_errors(tmp_path, capsys, family, named):
    # float() would read each of these as a number; the loader refuses them
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
    assert err.startswith("error: n = 25: 1 dense 2^25 x 2^25 array needs ")


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
    # a budget one byte below the route's own first array: the rate tables
    # on thm2, one kernel on every other route but the one-site path scan;
    # one sample, and the shared lattice table built before the budget
    # drops, so no other array is rejected first
    n = load_model(model_dir / model).n
    if "thm2" in argv:
        budget, what = exact.spin_bytes(n), f"n = {n}: the spin rate tables needs"
    elif model == "single.json":
        budget, what = lattice.dense_bytes(2), "the path scan needs"
    else:
        budget, what = lattice.dense_bytes(n), f"n = {n}: 1 dense 2^{n} x 2^{n} array needs"
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
    ["check", "--samples", "1000000000000"],
    ["run", "--model", "ring.json", "--mode", "meanfield", "--t", "1e12"],
    ["verify", "--model", "ring.json", "--theorem", "thm2", "--t", "1e12"],
    ["verify", "--model", "ring.json", "--theorem", "thm2", "--t", "1e300"],
    ["verify", "--model", "ring.json", "--theorem", "thm4", "--t", "1e10"],
    ["verify", "--model", "ring.json", "--theorem", "thm4", "--t", "1e300"],
    ["bridge", "--model", "ring.json", "--t", "1e10"],
])
def test_oversized_flag_exits_four(model_dir, capsys, argv):
    # on pair.json unless the row names a model
    argv = [str(model_dir / a) if a.endswith(".json") else a for a in argv]
    if "--model" not in argv:
        argv += ["--model", model_dir / "pair.json"]
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY
    assert captured.err.startswith("error: ") and "budget" in captured.err
    assert captured.out == ""


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
])
def test_runaway_flag_exits_four(model_dir, capsys, argv, what):
    # refused by its arrays' size before the work that would never end
    code = run_cli(*argv, "--model", model_dir / "pair.json")
    captured = capsys.readouterr()
    assert code == cli.EXIT_CAPACITY
    assert captured.err.startswith("error: ") and what in captured.err


@pytest.mark.parametrize("theorem", ["thm1", "thm3"])
def test_site_set_cap_rejects_before_exact_work(tmp_path, capsys, monkeypatch, theorem):
    save_model(zoo.random_certified_model(13, seed=0), tmp_path / "m13.json")
    calls = []
    monkeypatch.setattr(exact, "kernel", calls.append)
    monkeypatch.setattr(exact, "transition_matrix", calls.append)
    code = run_cli("verify", "--model", tmp_path / "m13.json", "--theorem", theorem,
                   "--t", "2", "--m", "2", "--samples", "64")
    assert code == cli.EXIT_CAPACITY
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


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
