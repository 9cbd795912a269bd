"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at reduced size, untraced and traced, through the
same checks as a real run; confirms that corrupted outputs count as
failures; checks the self-time arithmetic; and confirms the benchmark
refuses to run without the package sources.  Exits 0 when all hold.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from tracer import self_times


def check(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


class FlippingRunner(run.Runner):
    """Flips one byte of every timed output before it is checked."""

    def check(self, code, stdout, out, is_reference):
        if not is_reference and out.exists():
            data = bytearray(out.read_bytes())
            data[len(data) // 2] ^= 0x01
            out.write_bytes(bytes(data))
        return super().check(code, stdout, out, is_reference)


def workloads_pass():
    for name in run.workloads():
        for trace in (False, True):
            result, details = run.run(name, seed=1, seconds=0, trace=trace, small=True)
            problems = [s["problems"] for s in details["invocations"] if s["problems"]]
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace} failed: {problems}")
            wanted = (set(run.IMPORT_METRICS) | set(run.LAYER_METRICS) | {"trace.overhead_s"}
                      if trace else set(run.END_TO_END_UNITS))
            check(set(result["metrics"]) == wanted, f"{name} trace={trace} metric names")
            print(f"ok  {name} trace={trace} attempted={result['attempted']}")


def corruption_fails():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as tmp:
        case = run.build_case("mc-n12", 1, True, Path(tmp))
        runner = FlippingRunner(case, Path(tmp))
        runner.prepare()
        check(not runner.samples[-1]["problems"], "clean MC reference flagged")
        check(bool(runner.invoke("timed")["problems"]), "flipped MC byte passed")

    case = run.build_case("mc-n12", 1, True, Path("."))
    n, t = case.mc["n"], case.mc["t"]
    exact = [[0.5] * n for _ in range(t + 1)]
    rows = "".join(f"{s},{i},{0.5!r},{0.01!r}\n" for s in range(t + 1) for i in range(n))
    good = ("step,site,mean,se\n" + rows).encode()
    check(run.check_mc(case, 0, good, None, exact) == [], "clean MC CSV flagged")
    far = good.replace(b"0,0,0.5,", b"0,0,0.6,", 1)
    check(bool(run.check_mc(case, 0, far, None, exact)), "mean 10 se off passed")
    check(bool(run.check_mc(case, 0, good[:-20], None, exact)), "truncated CSV passed")
    check(bool(run.check_mc(case, 1, good, good, exact)), "exit code 1 passed")

    case = run.build_case("spin-bridge", 1, True, Path("."))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as tmp:
        report = Path(tmp) / "r.json"
        report.write_text('{"reports": [{"verdict": "pass"}]}')
        table = "delta,metric,value\n" + "0.5,m,1.0\n" * case.csv_rows
        Path(f"{report}.csv").write_text(table)
        line = "discretisation-convergence    {}  worst_margin=+1.0e-04\n"
        check(run.check_verify(case, 0, line.format("pass"), report) == [],
              "clean verify output flagged")
        check(bool(run.check_verify(case, 0, line.format("fail"), report)),
              "printed fail verdict passed")
        check(bool(run.check_verify(case, 2, line.format("pass"), report)),
              "exit code 2 passed")
        Path(f"{report}.csv").write_text(table.replace("1.0", "x", 1))
        check(bool(run.check_verify(case, 0, line.format("pass"), report)),
              "unparsable thm4 table passed")
    print("ok  corrupted outputs count as failures")


def self_time_arithmetic():
    # parent 0..100 with two overlapping children from worker threads and a
    # third child holding a grandchild: self = 100 - |[10,50] u [60,70]|
    spans = np.array([[0, 0, 0, 100, -1, 0],
                      [1, 1, 10, 30, 0, 0],
                      [2, 1, 20, 50, 0, 0],
                      [3, 1, 60, 70, 0, 0],
                      [4, 2, 62, 66, 3, 0]], dtype=np.int64)
    check(list(self_times(spans)) == [50.0, 20.0, 30.0, 6.0, 4.0], "self times")
    print("ok  self-time arithmetic")


def refuses_without_sources():
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=".") as tmp:
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                               "exact-n12", "--seed", "1", "--seconds", "1"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
    check(proc.returncode != 0 and not proc.stdout, "ran without sources")
    print("ok  refuses to run without sources")


if __name__ == "__main__":
    self_time_arithmetic()
    refuses_without_sources()
    corruption_fails()
    workloads_pass()
    print("selftest passed")
