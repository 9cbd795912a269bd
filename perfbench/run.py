"""Benchmark of the occupancy command line, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload exact-n12 --seed 1 --seconds 10 --trace 0

Each workload is one CLI invocation on model files generated from the seed
by the package's `zoo`.  Every invocation runs in a fresh interpreter, one
at a time, in a closed loop, and every output is checked; a failed check
counts against the run and is never retried.

--trace 0 reports the end-to-end metrics: medians over at least MIN_TIMED
invocations and at least --seconds of timed invocations, with the sample
counts in the details line.  --trace 1 times pairs of invocations, one
untraced and one under `tracer.py`, for at least --seconds, and reports
per-layer self times, counts and bytes, the `-X importtime` breakdown of
`import occupancy.cli`, and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the
provenance and every sample.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from tracer import BYTE_SPANS, FUNCTIONS, layer_table, span_name

HERE = Path(__file__).resolve().parent
SRC = Path("src")
# each CLI invocation is killed after this many seconds and counted as failed
INVOCATION_LIMIT_S = 120.0
SETUP_SAMPLES = 5
# a run times at least this many invocations, however long each one takes
MIN_TIMED = 2
# one BLAS thread: with two vCPUs shared with other machines, a second BLAS
# thread made wall time bimodal (about 2.2 s or 3.2 s on exact-n12) depending
# on whether the host ran both vCPUs at once
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
MC_SE_LIMIT = 5.0
# thm4 runs the CLI's default delta grid, which has five step sizes
DELTAS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (span name, field); values are medians over traced runs
LAYER_METRICS = {f"{span_name(e)}.{f}": (span_name(e), f)
                 for e, fields in FUNCTIONS.items() for f in fields}
LAYER_METRICS.update({metric: (span, "bytes") for span, metric in BYTE_SPANS.items()})
IMPORT_METRICS = {"import.scipy_s": "scipy", "import.numpy_s": "numpy",
                  "import.occupancy_s": "occupancy"}


def workloads() -> dict[str, str]:
    """Workload name -> the one-line reason it was chosen, from BENCHMARK.json."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {w["name"]: w["why"] for w in spec["workloads"]}


def _unit(metric: str) -> str:
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith("bytes"):
        return "B"
    return "s"


# -- workloads -----------------------------------------------------------------


@dataclass
class Case:
    """One workload instance: CLI arguments plus what a correct output is."""

    request: dict              # model to generate, see inputs.py
    args: list[str]            # CLI arguments; "{out}" marks the output path
    out_suffix: str
    reports: int = 0           # verify: number of verdict lines expected
    csv_rows: int = 0          # thm4: rows of the convergence table
    mc: dict = field(default_factory=dict)


def build_case(name: str, seed: int, small: bool, workdir: Path) -> Case:
    """The workload's inputs as a function of the seed.

    `small` gives the reduced sizes the self-test uses.
    """
    model = str(workdir / "model.json")
    # any integer seed maps to 32-bit model and MC seeds, which numpy accepts
    rng = random.Random(seed)
    request = {"dir": str(workdir), "model": "random_certified_model",
               "seed": rng.getrandbits(32)}
    if name == "exact-n12":
        n, t = (6, 5) if small else (12, 20)
        return Case(dict(request, n=n),
                    ["verify", "--model", model, "--theorem", "thm1", "--t", str(t),
                     "--out", "{out}"], ".json", reports=2)
    if name == "path-scan":
        n, m, t = (3, 2, 3) if small else (4, 4, 6)
        return Case(dict(request, n=n),
                    ["verify", "--model", model, "--theorem", "thm3", "--m", str(m),
                     "--t", str(t), "--out", "{out}"], ".json", reports=2)
    if name == "mc-n12":
        # one worker: with two on two shared vCPUs, wall time measured how
        # much of the second vCPU the host gave, and spread past any bound
        n, t, reps = (6, 5, 5000) if small else (12, 20, 400_000)
        mc_seed = rng.getrandbits(32)
        return Case(dict(request, n=n, exact_steps=t),
                    ["run", "--model", model, "--mode", "mc", "--t", str(t),
                     "--reps", str(reps), "--seed", str(mc_seed), "--workers", "1",
                     "--out", "{out}"], ".csv", mc={"n": n, "t": t})
    if name == "spin-bridge":
        n, t = (4, 0.25) if small else (10, 1.0)
        # the infection rate varies with the seed inside a range where the
        # ring keeps every spin hypothesis and the table converges
        beta = 0.3 + 0.1 * rng.random()
        return Case({"dir": str(workdir), "model": "contact_ring", "n": n,
                           "beta": beta},
                    ["verify", "--model", model, "--theorem", "thm4", "--t", repr(t),
                     "--x0", "1", "--out", "{out}"], ".json",
                    reports=1, csv_rows=4 * DELTAS)
    raise ValueError(f"unknown workload {name!r}")


# -- output checks -------------------------------------------------------------

_VERDICT_LINE = re.compile(r"^(\S+)\s+(\S+)\s+worst_margin=")


def check_verify(case: Case, code: int, stdout: str, out: Path) -> list[str]:
    """Problems with one verify invocation; empty when it is correct."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    verdicts = [m.group(2) for m in map(_VERDICT_LINE.match, stdout.splitlines()) if m]
    if len(verdicts) != case.reports or any(v != "pass" for v in verdicts):
        problems.append(f"printed verdicts {verdicts}")
    try:
        doc = json.loads(out.read_text())
        reported = [r["verdict"] for r in doc["reports"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"report unreadable: {exc}")
    else:
        if reported != verdicts:
            problems.append(f"report verdicts {reported} differ from printed ones")
    if case.csv_rows:
        problems.extend(_check_table_csv(Path(str(out) + ".csv"), case.csv_rows))
    return problems


def _check_table_csv(path: Path, rows: int) -> list[str]:
    try:
        table = list(csv.reader(io.StringIO(path.read_text())))
    except OSError as exc:
        return [f"table unreadable: {exc}"]
    if not table or table[0] != ["delta", "metric", "value"] or len(table) != rows + 1:
        return [f"table has header {table[:1]} and {len(table) - 1} rows"]
    try:
        values = [float(v) for row in table[1:] for v in (row[0], row[2])]
    except (ValueError, IndexError) as exc:
        return [f"table row does not parse: {exc}"]
    if not all(math.isfinite(v) for v in values):
        return ["table holds a non-finite value"]
    return []


def check_mc(case: Case, code: int, data: bytes, reference: bytes | None,
             exact) -> list[str]:
    """Problems with one MC invocation.

    With a reference the CSV must equal it byte for byte; without one (the
    reference run itself) every mean must lie within MC_SE_LIMIT standard
    errors of the exact marginals.
    """
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if reference is not None:
        if data != reference:
            problems.append("CSV differs from the --workers 2 reference")
        return problems
    n, t = case.mc["n"], case.mc["t"]
    try:
        rows = list(csv.reader(io.StringIO(data.decode())))
        body = [(int(s), int(i), float(m), float(e)) for s, i, m, e in rows[1:]]
    except (UnicodeDecodeError, ValueError) as exc:
        return problems + [f"CSV does not parse: {exc}"]
    cells = {(s, i) for s, i, _, _ in body}
    if (rows[:1] != [["step", "site", "mean", "se"]] or len(body) != (t + 1) * n
            or cells != {(s, i) for s in range(t + 1) for i in range(n)}):
        return problems + [f"CSV has header {rows[:1]} and {len(body)} rows"]
    worst = max(abs(m - exact[s][i]) - MC_SE_LIMIT * e for s, i, m, e in body)
    if not worst <= 1e-12:
        problems.append(f"a mean lies {worst:.3g} beyond {MC_SE_LIMIT} se of exact")
    return problems


# -- running the CLI -----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **CHILD_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.resolve())] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> dict:
    """Run argv to completion; wall time and peak RSS come from wait4."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        killer = threading.Timer(INVOCATION_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"argv": argv, "code": proc.returncode, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime}


class InputError(RuntimeError):
    """The benchmark could not generate a workload's inputs."""


class Runner:
    """Runs and checks the invocations of one workload in a work directory."""

    def __init__(self, case: Case, workdir: Path):
        self.case = case
        self.workdir = workdir
        self.samples: list[dict] = []
        self.reference: bytes | None = None
        self.exact = None
        self._count = 0

    def _paths(self, tag: str):
        self._count += 1
        stem = self.workdir / f"{self._count:03d}-{tag}"
        return (Path(f"{stem}{self.case.out_suffix}"), Path(f"{stem}.stdout"),
                Path(f"{stem}.stderr"))

    def prepare(self) -> dict:
        """Write the inputs; for MC also the exact marginals and the reference.

        Returns the numpy and scipy versions the input writer saw.
        """
        _, so, se = self._paths("inputs")
        made = spawn([sys.executable, str(HERE / "inputs.py"), json.dumps(self.case.request)],
                     so, se)
        if made["code"] != 0:
            raise InputError(f"input generation failed:\n{se.read_text()}")
        versions = json.loads(so.read_text())
        if not self.case.mc:
            return versions
        self.exact = json.loads((self.workdir / "exact.json").read_text())
        args = list(self.case.args)
        args[args.index("--workers") + 1] = "2"
        self.invoke("reference", args)
        return versions

    def invoke(self, tag: str, args: list[str] | None = None, traced: Path | None = None):
        out, so, se = self._paths(tag)
        cli = [a.replace("{out}", str(out)) for a in (args or self.case.args)]
        if traced is None:
            argv = [sys.executable, "-m", "occupancy.cli"] + cli
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(traced), "--"] + cli
        sample = spawn(argv, so, se)
        sample["tag"] = tag
        sample["problems"] = self.check(sample["code"], so, out, tag == "reference")
        self.samples.append(sample)
        for p in (out, so, se, Path(str(out) + ".csv")):
            p.unlink(missing_ok=True)
        return sample

    def check(self, code: int, stdout: Path, out: Path, is_reference: bool) -> list[str]:
        if not self.case.mc:
            return check_verify(self.case, code, stdout.read_text(), out)
        data = out.read_bytes() if out.exists() else b""
        if is_reference:
            problems = check_mc(self.case, code, data, None, self.exact)
            self.reference = data
            return problems
        if self.reference is None:
            return ["no --workers 2 reference to compare with"]
        return check_mc(self.case, code, data, self.reference, self.exact)

    def import_cli(self, tag: str, *flags: str) -> tuple[dict, Path]:
        """A fresh interpreter that only imports the CLI; returns it and its stderr."""
        _, so, se = self._paths(tag)
        sample = spawn([sys.executable, *flags, "-c", "import occupancy.cli"], so, se)
        sample["tag"] = tag
        sample["problems"] = [] if sample["code"] == 0 else [f"exit code {sample['code']}"]
        self.samples.append(sample)
        return sample, se

    def import_breakdown(self) -> dict[str, float]:
        """Self import time per top-level package from -X importtime."""
        _, stderr = self.import_cli("importtime", "-X", "importtime")
        totals = {pkg: 0.0 for pkg in IMPORT_METRICS.values()}
        for line in stderr.read_text().splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            top = parts[2].strip().split(".")[0]
            if top in totals:
                totals[top] += self_us * 1e-6
        return {metric: totals[pkg] for metric, pkg in IMPORT_METRICS.items()}


# -- provenance ----------------------------------------------------------------


def provenance(workload: str, seed: int, versions: dict) -> dict:
    try:
        commit = subprocess.run(["git", "--git-dir=.git", "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # a checkout without git metadata
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "why": workloads()[workload],
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        **versions,
        "child_env": CHILD_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# -- the two kinds of run ------------------------------------------------------


def measure_end_to_end(runner: Runner, seconds: float) -> dict:
    setup, timed = [], []
    while len(timed) < MIN_TIMED or sum(s["wall_s"] for s in timed) < seconds:
        # set-up samples alternate with the first invocations, so that both
        # see the same stretch of a machine whose speed drifts
        if len(setup) < SETUP_SAMPLES:
            setup.append(runner.import_cli("setup")[0]["wall_s"])
        timed.append(runner.invoke("timed"))
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.import_cli("setup")[0]["wall_s"])
    return {
        "wall_s": median([s["wall_s"] for s in timed]),
        "setup_s": median(setup),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in timed]),
    }, {"wall_s": len(timed), "setup_s": len(setup), "peak_rss_mb": len(timed)}


def measure_layers(runner: Runner, seconds: float) -> dict:
    metrics = runner.import_breakdown()
    plain, traced, span_files = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.invoke("untraced")["wall_s"])
        span_files.append(runner.workdir / f"spans-{len(traced)}.npz")
        traced.append(runner.invoke("traced", traced=span_files[-1])["wall_s"])
    # spans are loaded only after the last child has run: this process's
    # peak RSS at a fork shows in that child's wait4 figure
    tables = [layer_table(f) if f.exists() else {} for f in span_files]
    names = {name for t in tables for name in t}
    layers = {name: {k: median([t.get(name, {}).get(k, 0) for t in tables])
                     for k in ("calls", "self_s", "total_s", "bytes")}
              for name in names}
    for metric, (span, key) in LAYER_METRICS.items():
        metrics[metric] = layers.get(span, {}).get(key, 0)
    metrics["trace.overhead_s"] = median(traced) - median(plain)
    order = sorted(layers, key=lambda k: -layers[k]["self_s"])
    return metrics, {"traced_runs": len(traced),
                     "layers": {k: layers[k] for k in order}}


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """One benchmark run; returns (result line, details)."""
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir="."))
    try:
        case = build_case(workload, seed, small, scratch)
        runner = Runner(case, scratch)
        details = {"provenance": provenance(workload, seed, runner.prepare())}
        if trace:
            metrics, details["trace"] = measure_layers(runner, seconds)
        else:
            metrics, details["samples_per_metric"] = measure_end_to_end(runner, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(1 for s in runner.samples if s["problems"])
    details["invocations"] = [{k: s[k] for k in ("tag", "argv", "code", "wall_s",
                                                 "peak_rss_mb", "cpu_s", "problems")}
                              for s in runner.samples]
    details["error_rate"] = failed / len(runner.samples)
    result = {
        "correct": failed == 0,
        "attempted": len(runner.samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or _unit(k)}
                    for k, v in metrics.items()},
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "occupancy" / "cli.py").is_file():
        print(f"error: no occupancy sources under {SRC.resolve()}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
