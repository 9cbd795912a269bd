"""One capacity rule: every capacity error comes from `lattice.check_plan`.

Each route plans the bytes of its own arrays and its work and hands the
plan to `check_plan`; a second rule, such as a cap on n, would raise
`CapacityError` somewhere else.
"""

import ast
import os
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import occupancy
from occupancy import bridge, cli, exact, indep, lattice, meanfield, model, order, simulate, zoo
from occupancy.meanfield import OdeConfig
from occupancy.model import check_assumptions

from conftest import random_model, random_spin_model

SRC = Path(occupancy.__file__).parent


def _raises_of_capacity_error(tree: ast.AST):
    """(enclosing function name, line) of every raise naming CapacityError."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None and any(
                isinstance(sub, ast.Name) and sub.id == "CapacityError"
                or isinstance(sub, ast.Attribute) and sub.attr == "CapacityError"
                for sub in ast.walk(node.exc)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_capacity_error_is_raised_only_in_check_bytes():
    raises = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in _raises_of_capacity_error(tree):
            raises[f"{path.name}:{line}"] = function
    assert list(raises.values()) == ["check_plan"]
    assert next(iter(raises)).startswith("lattice.py:")


def test_block_bytes_is_read_only_by_check_bytes():
    # the row-block allowance is one constant, added in one place: no
    # route's count spells out its row blocks or numpy's buffers
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                reads += [(path.name, function.name) for node in ast.walk(function)
                          if isinstance(node, (ast.Name, ast.Attribute))
                          and "BLOCK_BYTES" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert reads == [("lattice.py", "check_plan")]


def test_limits_in_n(monkeypatch):
    # at the CLI's defaults, by bytes alone: single laws and thm1 to n = 17,
    # thm2 to 22, thm3 to 13 and the bridge (and thm4) to 17; by bytes and
    # work: thm1 to 16, thm2 to 17, thm3 to 11 and the bridge to 14 (on
    # `random_certified_model` and `contact_ring`); nothing is allocated
    def largest(plan, work=True):
        with monkeypatch.context() as patch:
            if not work:
                patch.setattr(lattice, "WORK_BUDGET", float("inf"))
            return max(n for n in range(1, 30) if lattice.fits(plan(n)))

    def thm1(n):
        return order.bound_plan(zoo.random_certified_model(n, 0), 10)

    def thm2(n):
        return order.spin_bound_plan(zoo.contact_ring(n), 10.0, 11, 1.0, OdeConfig())

    def thm3(n):
        return order.scan_plan(zoo.random_certified_model(n, 0), 4, 10)

    def bridge_at(t):
        return lambda n: bridge.convergence_plan(zoo.contact_ring(n), t)

    assert largest(exact.kernel_plan, work=False) == largest(thm1, work=False) == 17
    assert largest(thm2, work=False) == 22
    assert largest(thm3, work=False) == 13
    assert largest(bridge_at(1.0), work=False) == largest(bridge_at(10.0), work=False) == 17
    assert [largest(plan) for plan in (thm1, thm2, thm3, bridge_at(1.0))] == [16, 17, 11, 14]


# -- every counted route, traced ------------------------------------------------
#
# Each route's traced peak is at most its count with the row-block allowance.
# A count is the route's count function, or the largest count the route's
# module hands to `check_bytes` while it runs.


def _traced(run, module=None) -> tuple[int, float]:
    """(traced peak of run(), the largest count `module` checked in it)."""
    counts = []
    check = lattice.check_plan

    def record(plan):
        counts.append(plan.nbytes)
        check(plan)

    with pytest.MonkeyPatch.context() as patch:
        if module is not None:
            patch.setattr(module, "check_plan", record)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak, max(counts, default=0)


def _kernel_route(n):
    # a build, three pushes and four laws' marginals
    peaks = [_traced(lambda: exact.law_trajectory(spec, 0, 3))[0]
             for spec in (random_model(n, 7 * n), zoo.random_certified_model(n, 0))]
    return max(peaks), exact.kernel_plan(n).nbytes + 8 * 4 * n


def _spin_route(n):
    peaks = [_traced(lambda: exact.spin_law(exact.spin_generator(spec), (1 << n) - 1, 0.5))[0]
             for spec in (random_spin_model(n, 100 + n, ("product-form",)),
                          zoo.contact_ring(n))]
    return max(peaks), exact.spin_plan(n).nbytes


def _convergence_route(n):
    deltas = (0.125, 0.0625)
    ring = zoo.contact_ring(n)
    peak = _traced(lambda: bridge.convergence_table(ring, 0, 0.5, deltas))[0]
    return peak, bridge.convergence_plan(ring, 0.5, deltas).nbytes


def _thm1_route(n):
    spec, steps = random_model(n, 3 * n), 6

    def run():
        rows, law = exact.law_trajectory(spec, 0, steps)
        order.marginal_bound(spec, 0, rows)
        order.positive_correlations(law)

    return _traced(run)[0], (exact.kernel_plan(n).nbytes
                             + (steps + 1) * (24 * n + 8 + order.REPORT_STEP_BYTES))


def _thm2_route(n):
    # two grid segments: the spin engine beside one ODE state
    ring = zoo.contact_ring(n)
    return _traced(lambda: order.spin_marginal_bound(ring, 0, [0.25, 0.5]), order)


def _scan_route(n):
    spec = zoo.random_certified_model(n, 2)
    return _traced(lambda: order.path_orthant(spec, 0, 4, exact.kernel(spec)), order)


def _vacancy_route(n, m):
    spec = zoo.random_certified_model(n, 3)
    schedules = indep.site_schedules(spec, 0, m)
    peak = _traced(lambda: indep.vacancy_tables(spec, 0, schedules, m))[0]
    return peak, indep.vacancy_plan(n, m).nbytes


def _check_route(n, samples):
    spec = random_model(n, 11 * n)
    return _traced(lambda: check_assumptions(spec, samples=samples), model)


def _mc_route(n, make, steps):
    # three chunks, as many threads as the count allows for; the route rule
    # reads the threshold table up to n = 16, which holds 8 MiB there
    spec = make(n)
    assert (simulate._table_plan(n, steps, 3000) is not None) == (n <= 16)
    return _traced(lambda: simulate.simulate_marginals(spec, 0, steps, 3000, 1, workers=2),
                   simulate)


ROUTES = ([pytest.param(_kernel_route, n, id=f"kernel-{n}") for n in range(1, 15)]
          + [pytest.param(_spin_route, n, id=f"spin-{n}") for n in range(1, 15)]
          + [pytest.param(_convergence_route, n, id=f"convergence-{n}") for n in range(1, 13)]
          + [pytest.param(_thm1_route, n, id=f"thm1-{n}") for n in range(1, 11)]
          + [pytest.param(_thm2_route, n, id=f"thm2-{n}") for n in range(1, 13)]
          + [pytest.param(_scan_route, n, id=f"scan-{n}") for n in range(1, 9)]
          + [pytest.param(partial(_vacancy_route, m=m), n, id=f"vacancy-{n}-{m}")
             for n in (1, 3, 16) for m in (1, 4, 12)]
          # the least n hold the largest row blocks of sample points
          + [pytest.param(partial(_check_route, samples=4096), n, id=f"check-4096-{n}")
             for n in range(1, 9)]
          + [pytest.param(partial(_check_route, samples=65536), n, id=f"check-65536-{n}")
             for n in (1, 2, 3, 4, 6)]
          # at n = 13-16, 40 steps: enough for the table's sweep to pay
          + [pytest.param(partial(_mc_route, make=make, steps=3 if n <= 12 or n > 16 else 40),
                          n, id=f"mc-{name}-{n}")
             for n in (4, 12, 13, 14, 15, 16, 64, 200)
             for name, make in (("pair", zoo.constant_pair),
                                ("certified", partial(zoo.random_certified_model, seed=4)))])


def test_ode_routes_hold_one_state_at_any_t(monkeypatch):
    # thm2's segments, the bridge's reference and its Euler paths each hold
    # one ODE state and no trajectory: a few kB at t = 0.5 as at 8, where a
    # trajectory of times and states would take 256 kB
    held = []
    flow = meanfield.flow

    def traced(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        end = flow(*args)
        held.append(tracemalloc.get_traced_memory()[1] - start)
        return end

    monkeypatch.setattr(meanfield, "flow", traced)
    ring = zoo.contact_ring(3)
    tracemalloc.start()
    try:
        for t in (0.5, 8.0):
            order.spin_marginal_bound(ring, 0, [0.0, t])
            bridge.convergence_table(ring, 0, t, (0.125, 0.0625))
    finally:
        tracemalloc.stop()
    assert len(held) == 8 and max(held) < 4096


def test_csv_text_is_within_its_count():
    # a step and the widest repr a probability prints, 23 characters, in
    # 40,000 rows: the text and the writer's buffer, then the text encoded
    rows = np.full((40000, 3), 1.2345678901234567e-100)
    tracemalloc.start()
    try:
        cli._write_out(os.devnull, cli._trajectory_csv(range(40000), rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    count = cli.TEXT_ENTRY_BYTES * 40000 * 4
    assert 0.5 * count < peak <= count


@pytest.mark.parametrize("route, n", ROUTES)
def test_traced_peak_is_within_the_count(route, n):
    peak, count = route(n)
    assert peak <= count + lattice.BLOCK_BYTES
