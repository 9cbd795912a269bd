"""One capacity rule: every capacity error comes from `lattice.check_bytes`.

Each route counts the bytes of its own arrays and hands them to
`check_bytes`; a second rule, such as a cap on n, would raise
`CapacityError` somewhere else.
"""

import ast
import tracemalloc
from functools import partial
from pathlib import Path

import pytest

import occupancy
from occupancy import bridge, exact, indep, lattice, model, order, simulate, zoo
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
    assert list(raises.values()) == ["check_bytes"]
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
    assert reads == [("lattice.py", "check_bytes")]


def _fits(check) -> bool:
    """Whether check() passes the capacity rule."""
    try:
        check()
    except lattice.CapacityError:
        return False
    return True


def test_limits_in_n():
    # at the CLI's defaults: single laws and thm1 to n = 17, thm2 to 22,
    # thm3 to 13 and the bridge (and thm4) to 17; nothing is allocated
    def largest(check):
        return max(n for n in range(1, 40) if _fits(lambda: check(n)))

    assert largest(lambda n: lattice.check_bytes(exact.kernel_bytes(n), "")) == 17
    assert largest(lambda n: order.check_spin_marginal_bound(n, 10.0, 11, 1.0, 1e-3)) == 22
    assert largest(lambda n: order.check_scan(n, 4)) == 13
    assert largest(lambda n: lattice.check_bytes(bridge.convergence_bytes(n, 1.0), "")) == 17
    assert largest(lambda n: lattice.check_bytes(bridge.convergence_bytes(n, 10.0), "")) == 17


# -- every counted route, traced ------------------------------------------------
#
# Each route's traced peak is at most its count with the row-block allowance.
# A count is the route's count function, or the largest count the route's
# module hands to `check_bytes` while it runs.


def _traced(run, module=None) -> tuple[int, float]:
    """(traced peak of run(), the largest count `module` checked in it)."""
    counts = []
    check = lattice.check_bytes

    def record(nbytes, what):
        counts.append(nbytes)
        check(nbytes, what)

    with pytest.MonkeyPatch.context() as patch:
        if module is not None:
            patch.setattr(module, "check_bytes", record)
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
    return max(peaks), exact.kernel_bytes(n) + 8 * 4 * n


def _spin_route(n):
    peaks = [_traced(lambda: exact.spin_law(exact.spin_generator(spec), (1 << n) - 1, 0.5))[0]
             for spec in (random_spin_model(n, 100 + n, ("product-form",)),
                          zoo.contact_ring(n))]
    return max(peaks), exact.spin_bytes(n)


def _convergence_route(n):
    deltas = (0.125, 0.0625)
    peak = _traced(lambda: bridge.convergence_table(zoo.contact_ring(n), 0, 0.5, deltas))[0]
    return peak, bridge.convergence_bytes(n, 0.5, deltas)


def _thm1_route(n):
    spec, steps = random_model(n, 3 * n), 6

    def run():
        rows, law = exact.law_trajectory(spec, 0, steps)
        order.marginal_bound(spec, 0, rows)
        order.positive_correlations(law)

    return _traced(run)[0], (exact.kernel_bytes(n)
                             + (steps + 1) * (24 * n + 8 + order.REPORT_STEP_BYTES))


def _thm2_route(n):
    # two grid segments: the spin engine beside one segment's ODE trajectory
    ring = zoo.contact_ring(n)
    return _traced(lambda: order.spin_marginal_bound(ring, 0, [0.25, 0.5]), order)


def _scan_route(n):
    spec = zoo.random_certified_model(n, 2)
    return _traced(lambda: order.path_orthant(spec, 0, 4, exact.kernel(spec)), order)


def _vacancy_route(n, m):
    spec = zoo.random_certified_model(n, 3)
    schedules = indep.site_schedules(spec, 0, m)
    peak = _traced(lambda: indep.vacancy_tables(spec, 0, schedules, m))[0]
    return peak, indep.vacancy_table_bytes(n, m)


def _check_route(n, samples):
    spec = random_model(n, 11 * n)
    return _traced(lambda: check_assumptions(spec, samples=samples), model)


def _mc_route(n, make):
    # three chunks, as many threads as the count allows for
    spec = make(n)
    return _traced(lambda: simulate.simulate_marginals(spec, 0, 3, 3000, 1, workers=2),
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
          + [pytest.param(partial(_mc_route, make=make), n, id=f"mc-{name}-{n}")
             for n in (4, 12, 64, 200)
             for name, make in (("pair", zoo.constant_pair),
                                ("certified", partial(zoo.random_certified_model, seed=4)))])


@pytest.mark.parametrize("route, n", ROUTES)
def test_traced_peak_is_within_the_count(route, n):
    peak, count = route(n)
    assert peak <= count + lattice.BLOCK_BYTES
