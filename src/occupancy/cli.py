"""Command line front end.

Subcommands:
  check   hypothesis margins for a model file
  run     trajectories: exact, deterministic, surrogate, or Monte Carlo
  verify  ordering and bound checks (thm1..thm4 suites)
  bridge  discretisation convergence table for a spin model

Exit codes: 0 checks passed, 1 malformed input, 2 a check failed,
3 inconclusive / informative only, 4 capacity exceeded.
All outputs are deterministic for a given input and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import bridge, exact, meanfield, order, simulate
from .lattice import CapacityError
from .meanfield import OdeConfig
from .model import (BOUND_HYPOTHESES, ModelError, ModelSpec, SpinSpec,
                    SPIN_BOUND_HYPOTHESES, SPIN_ORDERING_HYPOTHESES,
                    check_assumptions, load_model)
from .streams import check_seed

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_CAPACITY = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _load(path):
    try:
        return load_model(path)
    except FileNotFoundError as exc:
        raise _CliError(f"cannot read model file: {exc}", EXIT_USAGE)
    except json.JSONDecodeError as exc:
        raise _CliError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
            EXIT_USAGE)
    except ModelError as exc:
        raise _CliError(f"{path}: {exc}", EXIT_USAGE)


def _parse_x0(text: str, n: int) -> int:
    try:
        word = int(text, 0)
    except ValueError:
        raise _CliError(f"cannot parse state {text!r}", EXIT_USAGE)
    if not 0 <= word < (1 << n):
        raise _CliError(f"state word {word} out of range for n={n}", EXIT_USAGE)
    return word


def _parse_t(spec, t: float):
    """--t: a whole number of steps for occupancy models, a finite end time for spin models."""
    if isinstance(spec, SpinSpec):
        if not 0 <= t < np.inf:
            raise _CliError(f"--t must be a finite end time >= 0, got {t!r}", EXIT_USAGE)
        return t
    if not (t >= 0 and float(t).is_integer()):
        raise _CliError(f"--t must be a whole number of steps >= 0 for an occupancy "
                        f"model, got {t!r}", EXIT_USAGE)
    return int(t)


def _parse_tol(tol: float) -> float:
    if not 0 <= tol < np.inf:
        raise _CliError(f"--tol must be finite and >= 0, got {tol!r}", EXIT_USAGE)
    return tol


def _parse_seed(seed: int) -> int:
    try:
        return check_seed(seed)
    except ValueError:
        raise _CliError(f"--seed must be in [0, 2^64), got {seed}", EXIT_USAGE)


def _write_out(path, text: str):
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _report_exit(verdicts) -> int:
    if any(v == "fail" for v in verdicts):
        return EXIT_FAIL
    if any(v in ("inconclusive", "informative") for v in verdicts):
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _cmd_check(args) -> int:
    spec = _load(args.model)
    tol = _parse_tol(args.tol)
    seed = _parse_seed(args.seed)
    report = check_assumptions(spec, samples=args.samples, tol=tol, seed=seed)
    for f in report.findings:
        margin = "n/a" if not np.isfinite(f.worst_margin) else f"{f.worst_margin:+.3e}"
        extra = "" if f.estimate is None else f"  estimate={f.estimate:.6g}"
        print(f"{f.hypothesis:24s}  {f.verdict:4s}  margin={margin}{extra}")
    print(f"overall: {report.verdict}")
    if args.out:
        _write_out(args.out, json.dumps(report.to_dict(), indent=2) + "\n")
    return _report_exit([report.verdict])


def _trajectory_csv(times, rows) -> str:
    n = rows.shape[1]
    header = ["step"] + [f"site_{i}" for i in range(n)]
    return _csv_text(header, [[t if isinstance(t, int) else float(t)]
                              + [float(v) for v in row]
                              for t, row in zip(times, rows)])


def _cmd_run(args) -> int:
    if args.workers < 1:
        raise _CliError(f"--workers must be >= 1, got {args.workers}", EXIT_USAGE)
    seed = _parse_seed(args.seed)
    spec = _load(args.model)
    t = _parse_t(spec, args.t)
    if isinstance(spec, SpinSpec):
        if args.mode != "meanfield":
            raise _CliError("spin models only support --mode meanfield here; "
                            "use the bridge subcommand for laws", EXIT_USAGE)
        p0 = exact.state_bits(_parse_x0(args.x0, spec.n), spec.n)
        times, states = meanfield.integrate_ode(spec, p0, t,
                                                OdeConfig(h=args.h, method="rk4"))
        _write_out(args.out, _trajectory_csv(times, states))
        return EXIT_PASS
    x0 = _parse_x0(args.x0, spec.n)
    if args.mode == "exact":
        rows = exact.marginal_trajectory(spec, x0, t)
        _write_out(args.out, _trajectory_csv(range(t + 1), rows))
    elif args.mode in ("meanfield", "indep"):
        # the surrogate's site marginals are the recursion rows
        rows = meanfield.iterate(spec, exact.state_bits(x0, spec.n), t)
        _write_out(args.out, _trajectory_csv(range(t + 1), rows))
    else:
        est = simulate.simulate_marginals(spec, x0, t, args.reps, seed,
                                          workers=args.workers)
        header = ["step", "site", "mean", "se"]
        rows = [[k, i, repr(float(est.means[k, i])), repr(float(est.ses[k, i]))]
                for k in range(t + 1) for i in range(spec.n)]
        _write_out(args.out, _csv_text(header, rows))
    return EXIT_PASS


def _default_tol(theorem: str) -> float:
    return {"thm1": 1e-10, "thm3": 1e-10, "thm2": 1e-6, "thm4": 1e-10}[theorem]


def _cmd_verify(args) -> int:
    spec = _load(args.model)
    t = _parse_t(spec, args.t)
    tol = _parse_tol(args.tol if args.tol is not None else _default_tol(args.theorem))
    seed = _parse_seed(args.seed)
    hypo = check_assumptions(spec, samples=args.samples, tol=1e-9, seed=seed)
    reports = []
    extra_files = []
    if args.theorem in ("thm1", "thm3"):
        if not isinstance(spec, ModelSpec):
            raise _CliError(f"{args.theorem} needs an occupancy model", EXIT_USAGE)
        x0 = _parse_x0(args.x0, spec.n)
        # both suites end in site-set scans; reject before any exact work
        order.check_subset_cap(spec.n)
        if args.theorem == "thm1":
            certified = hypo.passed(BOUND_HYPOTHESES)
            # one propagation: its rows feed the bound, its last law the correlations
            rows, law = exact.law_trajectory(spec, x0, t)
            reports.append(order.marginal_bound(spec, x0, rows, tol=tol,
                                                certified=certified))
            reports.append(order.positive_correlations(law, tol=tol,
                                                       certified=certified))
        else:
            certified = hypo.ordering_certified
            kernel = exact.transition_matrix(spec)
            reports.append(order.path_orthant(spec, x0, args.m, kernel, tol=tol,
                                              certified=certified))
            reports.append(order.single_time_orthant(spec, x0, t, kernel, tol=tol,
                                                     certified=certified))
    elif args.theorem == "thm2":
        if not isinstance(spec, SpinSpec):
            raise _CliError("thm2 needs a spin model", EXIT_USAGE)
        x0 = _parse_x0(args.x0, spec.n)
        if args.grid_points < 2:
            raise _CliError(f"--grid-points must be >= 2, got {args.grid_points}", EXIT_USAGE)
        certified = hypo.passed(SPIN_BOUND_HYPOTHESES)
        grid = [k * t / (args.grid_points - 1) for k in range(args.grid_points)]
        reports.append(order.spin_marginal_bound(spec, x0, grid, tol=tol,
                                                 certified=certified,
                                                 config=OdeConfig(h=args.h)))
    else:
        if not isinstance(spec, SpinSpec):
            raise _CliError("thm4 needs a spin model", EXIT_USAGE)
        x0 = _parse_x0(args.x0, spec.n)
        deltas = _parse_deltas(args.delta_grid)
        table = bridge.convergence_table(spec, x0, t, deltas=deltas)
        csv_path = (args.out + ".csv") if args.out else None
        if csv_path:
            _write_out(csv_path, table.to_csv())
            extra_files.append(csv_path)
        else:
            sys.stdout.write(table.to_csv())
        certified = hypo.passed(SPIN_ORDERING_HYPOTHESES)
        universe = {"n": spec.n, "x0": x0, "t": t, "deltas": list(deltas)}
        reports.append(bridge.convergence_report(table, universe, tol, certified))
    doc = {
        "model": args.model,
        "theorem": args.theorem,
        "hypotheses": hypo.to_dict(),
        "reports": [r.to_dict() for r in reports],
        "written": extra_files,
    }
    for r in reports:
        print(f"{r.check:28s}  {r.verdict:11s}  worst_margin={r.worst_margin:+.3e}")
    if args.out:
        _write_out(args.out, json.dumps(doc, indent=2) + "\n")
    return _report_exit([r.verdict for r in reports])


def _parse_deltas(text: str):
    try:
        deltas = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise _CliError(f"cannot parse delta grid {text!r}", EXIT_USAGE)
    if not (all(0 < d < np.inf for d in deltas)
            and all(a > b for a, b in zip(deltas, deltas[1:]))):
        raise _CliError(f"delta grid must be positive, finite and strictly "
                        f"decreasing, got {text!r}", EXIT_USAGE)
    return deltas


def _cmd_bridge(args) -> int:
    spec = _load(args.model)
    if not isinstance(spec, SpinSpec):
        raise _CliError("bridge needs a spin model", EXIT_USAGE)
    t = _parse_t(spec, args.t)
    x0 = _parse_x0(args.x0, spec.n)
    deltas = _parse_deltas(args.delta_grid)
    table = bridge.convergence_table(spec, x0, t, deltas=deltas)
    _write_out(args.out, table.to_csv())
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """Flags argparse cannot parse exit with the usage code, not its default 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="occupancy", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="hypothesis margins for a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="also write the report as JSON")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("run", help="write a trajectory as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=["exact", "meanfield", "indep", "mc"],
                   default="exact")
    p.add_argument("--t", type=float, required=True,
                   help="steps (occupancy) or end time (spin)")
    p.add_argument("--x0", default="0", help="initial state word, e.g. 5 or 0b101")
    p.add_argument("--reps", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--h", type=float, default=1e-3, help="ODE step (spin models)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="ordering and bound checks")
    p.add_argument("--model", required=True)
    p.add_argument("--theorem", choices=["thm1", "thm2", "thm3", "thm4"],
                   required=True)
    p.add_argument("--t", type=float, default=10)
    p.add_argument("--m", type=int, default=4, help="path length for thm3")
    p.add_argument("--x0", default="0")
    p.add_argument("--tol", type=float, default=None,
                   help="margin tolerance (default 1e-10; 1e-6 for thm2)")
    p.add_argument("--samples", type=int, default=4096)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--grid-points", type=int, default=11)
    p.add_argument("--delta-grid", default="0.0625,0.03125,0.015625,0.0078125,0.00390625")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bridge", help="discretisation convergence table (CSV)")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x0", default="0")
    p.add_argument("--delta-grid", default="0.0625,0.03125,0.015625,0.0078125,0.00390625")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bridge)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
