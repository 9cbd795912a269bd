import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from occupancy import exact, indep, lattice, meanfield, order, zoo
from occupancy.exact import MultiSitePattern, TimePattern, marginal_trajectory
from occupancy.lattice import CapacityError, check_plan
from occupancy.meanfield import OdeConfig
from occupancy.model import FunctionFamily, ModelSpec
from occupancy.order import (marginal_bound, path_orthant,
                             positive_correlations, single_time_orthant,
                             spin_marginal_bound, subset_products,
                             vacancy_transform)

from conftest import patterns_for_budget, per_pattern_scan, random_model, scanned_patterns


def naive_vacancy_probabilities(dist, n):
    # direct sum over states for every subset; quadratic in 2^n
    out = np.empty(1 << n)
    for mask in range(1 << n):
        acc = 0.0
        for word, w in enumerate(dist):
            if word & mask == 0:
                acc += w
        out[mask] = acc
    return out


def test_vacancy_transform_matches_naive():
    rng = np.random.default_rng(3)
    for n in (1, 3, 6):
        dist = rng.random(1 << n)
        dist /= dist.sum()
        got = vacancy_transform(dist)
        want = naive_vacancy_probabilities(dist, n)
        assert np.max(np.abs(got - want)) < 1e-14


def test_vacancy_transform_of_a_stack_is_row_by_row():
    rng = np.random.default_rng(5)
    for n in (0, 1, 4):
        laws = rng.random((7, 1 << n))
        stacked = vacancy_transform(laws)
        assert stacked.shape == laws.shape
        for row, law in zip(stacked, laws):
            assert np.array_equal(row, vacancy_transform(law))
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="power of two"):
            vacancy_transform(bad)


def test_subset_products_matches_naive():
    values = np.array([0.3, 0.8, 0.5])
    got = subset_products(values)
    for mask in range(8):
        want = 1.0
        for i in range(3):
            if mask >> i & 1:
                want *= values[i]
        assert got[mask] == pytest.approx(want, abs=1e-15)


def test_marginal_bound_constant_model_is_tight(single_site):
    report = marginal_bound(single_site, 0, marginal_trajectory(single_site, 0, 12))
    assert report.verdict == "pass"
    assert abs(report.worst_margin) < 1e-13


def test_marginal_bound_interacting(interacting):
    report = marginal_bound(interacting, 0, marginal_trajectory(interacting, 0, 10))
    assert report.verdict == "pass"
    assert report.worst_margin >= -1e-12
    # witness values reproduce from scratch
    w = report.witness
    traj = exact.marginal_trajectory(interacting, 0, 10)
    field = meanfield.iterate(interacting, exact.state_bits(0, 2), 10)
    step, site = w["step"], w["site"]
    assert w["exact"] == pytest.approx(traj[step, site], abs=1e-14)
    assert w["deterministic"] == pytest.approx(field[step, site], abs=1e-14)
    assert report.worst_margin == pytest.approx(
        w["deterministic"] - w["exact"], abs=1e-14)
    assert len(report.details["min_margin_per_step"]) == 11


def test_marginal_bound_becomes_strict(interacting):
    report = marginal_bound(interacting, 0, marginal_trajectory(interacting, 0, 3))
    per_step = report.details["min_margin_per_step"]
    assert per_step[3] > 1e-3  # the chain feels the correlations by then


def test_single_time_orthant_matches_direct_recomputation(interacting):
    kernel = exact.kernel(interacting)
    report = single_time_orthant(interacting, 0, 4, kernel)
    dist = exact.distribution(interacting, 0, 4, kernel)
    vac = vacancy_transform(dist)
    pi = exact.marginals(dist)
    field = meanfield.iterate(interacting, exact.state_bits(0, 2), 4)[-1]
    total = (vac - subset_products(1.0 - field))[1:]
    assoc = (vac - subset_products(1.0 - pi))[1:]
    chain = (subset_products(1.0 - pi) - subset_products(1.0 - field))[1:]
    assert report.worst_margin == pytest.approx(total.min(), abs=1e-15)
    got = report.details["association-step"]["worst_margin"]
    assert got == pytest.approx(assoc.min(), abs=1e-15)
    got = report.details["marginal-step"]["worst_margin"]
    assert got == pytest.approx(chain.min(), abs=1e-15)
    assert report.verdict == "pass"
    assert report.universe["site_sets"] == 3  # nonempty subsets of {0,1}


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("t", [0, 1, 4])
def test_association_step_is_the_positive_correlations_check(n, t):
    # one site-set core: on the same law both read the same margins, bit for bit
    for spec in (random_model(n, 40 + n), zoo.random_certified_model(n, n)):
        kernel = exact.kernel(spec)
        step = single_time_orthant(spec, 1, t, kernel).details["association-step"]
        report = order.positive_correlations(exact.distribution(spec, 1, t, kernel))
        assert step == {"worst_margin": report.worst_margin,
                        "sites": report.witness["sites"]}


def test_single_time_orthant_trivial_at_start(interacting):
    report = single_time_orthant(interacting, 0, 0, exact.kernel(interacting))
    assert abs(report.worst_margin) < 1e-15


def test_path_orthant_single_step_matches_marginal(interacting):
    report = path_orthant(interacting, 0, 1, exact.kernel(interacting))
    traj = exact.marginal_trajectory(interacting, 0, 1)
    field = meanfield.iterate(interacting, exact.state_bits(0, 2), 1)
    margins = [traj[1, i] - field[1, i] for i in range(2)]
    # one-step patterns demand vacancy, so margins flip sign
    assert report.worst_margin == pytest.approx(-max(margins), abs=5e-15)


def test_path_orthant_interacting(interacting):
    kernel = exact.kernel(interacting)
    report = path_orthant(interacting, 0, 4, kernel)
    assert report.verdict == "pass"
    assert report.worst_margin >= -1e-10
    # witness re-evaluates to the reported margin
    w = report.witness
    schedules = indep.site_schedules(interacting, 0, 4)
    if w["kind"] == "single-site":
        pattern = TimePattern(site=w["site"], omega=tuple(w["omega"]))
        got = exact.path_probability(interacting, 0, pattern, kernel)
        sur = indep.path_probability(interacting, 0, pattern, schedules)
    else:
        pattern = MultiSitePattern(tuple(
            (site, tuple(ts)) for site, ts in w["entries"]))
        got = exact.multisite_probability(interacting, 0, pattern, kernel)
        sur = indep.multisite_probability(interacting, 0, pattern, schedules)
    assert report.worst_margin == pytest.approx(got - sur, abs=1e-13)
    assert report.details["worst_multisite_margin"] >= -1e-10


def test_positive_correlations_product_distribution():
    probs = np.array([0.3, 0.6, 0.1])
    dist = np.ones(1)
    for p in probs:
        dist = np.concatenate([dist * (1 - p), dist * p])
    report = positive_correlations(dist)
    assert abs(report.worst_margin) < 1e-14
    assert report.verdict == "pass"


def test_positive_correlations_point_mass():
    dist = np.zeros(8)
    dist[0] = 1.0
    report = positive_correlations(dist)
    # all-vacant point mass: P(A vacant) = 1 >= product of ones
    assert abs(report.worst_margin) < 1e-15


def test_positive_correlations_occupancy_law(interacting):
    kernel = exact.kernel(interacting)
    for t in range(6):
        dist = exact.distribution(interacting, 0, t, kernel)
        assert positive_correlations(dist).worst_margin >= -1e-10


def test_uncertified_checks_are_informative(broken):
    report = marginal_bound(broken, 0, marginal_trajectory(broken, 0, 6),
                            certified=False)
    assert report.verdict == "informative"
    assert report.certified is False
    # informative even when the margin itself is fine
    good = marginal_bound(broken, 3, marginal_trajectory(broken, 3, 0), certified=False)
    assert good.worst_margin >= -1e-15
    assert good.verdict == "informative"


def test_spin_marginal_bound_two_state():
    spec = zoo.two_state_spin(0.5, 1.0)
    grid = np.linspace(0.0, 3.0, 7)
    report = spin_marginal_bound(spec, 0, grid)
    assert report.verdict == "pass"
    assert abs(report.worst_margin) < 1e-8  # single site: bound is equality


def test_spin_marginal_bound_ring(ring3):
    grid = np.linspace(0.0, 2.0, 9)
    report = spin_marginal_bound(ring3, 1, grid)
    assert report.verdict == "pass"
    assert report.worst_margin >= -1e-8
    w = report.witness
    assert 0.0 <= w["exact"] <= w["deterministic"] + 1e-8


def test_report_serializes(interacting):
    report = single_time_orthant(interacting, 0, 3, exact.kernel(interacting))
    doc = report.to_dict()
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["check"] == "single-time-orthant"
    assert back["verdict"] == "pass"
    assert isinstance(back["worst_margin"], float)


def test_subset_cap_enforced(monkeypatch):
    # the site-set checks count their law-sized arrays: seven for the
    # single-time check, five beside the law for the correlations
    spec = zoo.random_certified_model(3, seed=0)
    kernel = exact.kernel(spec)
    law = exact.distribution(spec, 0, 2, kernel)
    for laws, run in ((7, lambda k: single_time_orthant(spec, 0, 2, k)),
                      (5, lambda k: positive_correlations(law))):
        budget = laws * (8 << 3) + lattice.BLOCK_BYTES
        monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", budget)
        run(kernel)
        monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", budget - 1)
        with pytest.raises(CapacityError, match="n = 3: the site-set tables"):
            # rejected before the kernel is used, so a 1 x 1 stand-in will do
            run(np.ones((1, 1)))


def test_shared_exact_objects_give_the_same_reports():
    spec = zoo.random_certified_model(3, 9)
    rows, law = exact.law_trajectory(spec, 2, 5)
    assert (marginal_bound(spec, 2, rows).to_dict()
            == marginal_bound(spec, 2, marginal_trajectory(spec, 2, 5)).to_dict())
    assert (positive_correlations(law).to_dict()
            == positive_correlations(exact.distribution(spec, 2, 5,
                                                        exact.kernel(spec))).to_dict())
    # one kernel serves both scans and is left as it was
    kernel = exact.kernel(spec)
    kept = kernel.low.copy(), kernel.high.copy()
    scan = path_orthant(spec, 2, 3, kernel)
    orthant = single_time_orthant(spec, 2, 4, kernel)
    assert np.array_equal(kernel.low, kept[0]) and np.array_equal(kernel.high, kept[1])
    assert scan.to_dict() == path_orthant(spec, 2, 3, exact.kernel(spec)).to_dict()
    assert (orthant.to_dict()
            == single_time_orthant(spec, 2, 4, exact.kernel(spec)).to_dict())
    w = scan.witness
    pattern = TimePattern(site=w["site"], omega=tuple(w["omega"]))
    schedule = indep.site_schedules(spec, 2, 3)
    assert scan.worst_margin == pytest.approx(exact.path_probability(spec, 2, pattern, kernel)
                                              - indep.path_probability(spec, 2, pattern,
                                                                       schedule),
                                              abs=1e-15)


def test_marginal_bound_checks_the_rows_shape(interacting):
    rows = marginal_trajectory(interacting, 0, 3)
    for bad in (rows[:, :1], rows[0], rows[:0]):
        with pytest.raises(ValueError, match="shape"):
            marginal_bound(interacting, 0, bad)


def test_spin_bound_steps_each_law_from_the_previous(ring3, monkeypatch):
    # one interval of length 1 at rate 10 takes 39 powers of P; ten intervals
    # take 390, where every law from the point mass would take 1,124
    sizes = []
    weights = exact.poisson_weights

    def counted(*args):
        w = weights(*args)
        sizes.append(w.size)
        return w

    monkeypatch.setattr(exact, "poisson_weights", counted)
    spin_marginal_bound(zoo.contact_ring(10), 1, np.linspace(0.0, 10.0, 11),
                        config=OdeConfig(h=0.1))
    assert sum(sizes) - len(sizes) == 390
    # a stepped law is the law from the point mass, up to the Poisson tails
    report = spin_marginal_bound(ring3, 1, np.linspace(0.0, 2.0, 9))
    w = report.witness
    law = exact.spin_law(exact.spin_generator(ring3), 1, w["t"])
    assert w["exact"] == pytest.approx(exact.marginals(law)[w["site"]], abs=1e-12)


def test_spin_marginal_bound_counts_its_widest_segment_first(ring3, monkeypatch):
    # the rate tables, the widest segment's Poisson weights, 100 of 10^9,
    # and the four grid points are held at once: refused before the rate
    # table or any law exists
    for name in ("spin_generator", "point_mass"):
        monkeypatch.setattr(exact, name, lambda *args: pytest.fail("allocated"))
    grid = [0.0, 1.0, 101.0, 1e9]
    with pytest.raises(CapacityError, match="t = 1000000000.0 over 4 grid points"):
        spin_marginal_bound(ring3, 1, grid)
    counted = []

    def record(plan):
        counted.append(plan)
        raise CapacityError(plan.what)

    monkeypatch.setattr(order, "check_plan", record)
    with pytest.raises(CapacityError):
        spin_marginal_bound(ring3, 1, grid)
    assert counted == [order.spin_bound_plan(ring3, 1e9, 4, 1e9 - 101.0, OdeConfig())]
    weights = exact.poisson_plan((1e9 - 101.0) * exact.spin_rate_bound(ring3))
    assert counted[0].nbytes == exact.spin_plan(3).nbytes + weights.nbytes + 320 * 4


@pytest.mark.parametrize("n, nodes",[(4, 408), (10, 6054), (12, 10432)])
def test_prefix_tree_sizes(n, nodes):
    # the default scan, m = 4 and budget 4
    assert sum(order._tree_sizes(n, 4, 4)) == nodes


def _scan_depths(spec, x0, m, budget, kernel=None):
    """The scan's output gathered by depth: t -> (nodes, vacancy rows)."""
    blocks = {}
    for t, nodes, vac in order._scan((kernel or exact.kernel(spec)).dense(spec), x0, m, budget):
        blocks.setdefault(t, []).append((nodes, vac))
    return {t: (order._Nodes(*map(np.concatenate, zip(*(nodes for nodes, _ in parts)))),
                np.concatenate([vac for _, vac in parts]))
            for t, parts in blocks.items()}


def _scan_probability(depths, n):
    """A pattern's exact probability, read off the scan's per-depth output.

    The pattern's demands before its last demanded step t pick a node at
    depth t; the sites it demands at t pick the entry of its transform.
    """
    rows = {(t, tuple(steps)): row for t, (nodes, vac) in depths.items()
            for steps, row in zip(nodes.steps.tolist(), vac)}

    def probability(entries) -> float:
        last = max(times[-1] for _, times in entries)
        steps, mask = [0] * n, 0
        for site, times in entries:
            for t in times:
                if t == last:
                    mask |= 1 << site
                else:
                    steps[site] |= 1 << (t - 1)
        return rows[last, tuple(steps)][mask]

    return probability


def _entries(pattern):
    if isinstance(pattern, TimePattern):
        return ((pattern.site, tuple(t for _, t in pattern.constraints())),)
    return pattern.entries


def _time_set(times) -> int:
    return sum(1 << (t - 1) for t in times)


def test_prefix_tree_matches_its_size_formula():
    for n, m, budget in itertools.product((1, 2, 4), (1, 3, 6), (1, 2, 5)):
        depths = _scan_depths(zoo.constant_pair(n), 0, m, budget)
        assert [len(depths[t][0].parent) for t in range(1, m + 1)] == order._tree_sizes(n, m,
                                                                                       budget)
        for t, (nodes, _) in depths.items():
            # every node is one prefix, and its demands and sites are its steps'
            assert len({tuple(steps) for steps in nodes.steps.tolist()}) == len(nodes.parent)
            assert np.array_equal(nodes.demands, lattice.popcount(nodes.steps, m).sum(axis=1))
            assert np.array_equal(nodes.sites, ((nodes.steps != 0) << np.arange(n)).sum(axis=1))
            # a node is its parent with its mask demanded at step t - 1
            if t > 1:
                above = depths[t - 1][0].steps[nodes.parent]
                assert np.array_equal(nodes.steps, order._add_step(above, nodes.mask, t - 1))


# explicit examples only: drawn ones would depend on the modules loaded,
# which hypothesis mines for constants, and so would the oracle's cost
@settings(phases=(Phase.explicit,), database=None, deadline=None)
@example(n=2, m=1, budget=1, seed=0, x0=0)
@example(n=2, m=5, budget=4, seed=1, x0=3)
@example(n=3, m=2, budget=2, seed=2, x0=5)
@example(n=3, m=4, budget=3, seed=3, x0=1)
@example(n=4, m=3, budget=4, seed=4, x0=9)
@example(n=4, m=5, budget=2, seed=5, x0=6)
@example(n=5, m=5, budget=4, seed=6, x0=17)
@example(n=5, m=2, budget=3, seed=7, x0=30)
@example(n=6, m=3, budget=2, seed=8, x0=42)
@example(n=6, m=1, budget=4, seed=9, x0=63)
@given(n=st.integers(2, 6), m=st.integers(1, 5), budget=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), x0=st.integers(0, 63))
def test_scan_matches_the_per_pattern_oracle(n, m, budget, seed, x0):
    x0 %= 1 << n
    spec = random_model(n, seed)
    kernel = exact.kernel(spec)
    scan = _scan_probability(_scan_depths(spec, x0, m, budget, kernel), n)
    at_last, at_end = indep.vacancy_tables(spec, x0, indep.site_schedules(spec, x0, m), m)
    single = multi = np.inf
    margins = {}
    surrogates, oracle = [], []
    for pattern, exact_p, surrogate in per_pattern_scan(spec, x0, m, kernel, budget):
        entries = _entries(pattern)
        if isinstance(pattern, TimePattern):
            surrogates.append(at_end[pattern.site, _time_set(entries[0][1])])
            key = ("single-site", pattern.site, list(pattern.omega))
        else:
            surrogates.append(np.prod([at_last[site, _time_set(ts)] for site, ts in entries]))
            key = ("multisite", [[site, list(ts)] for site, ts in entries])
        oracle.append(surrogate)
        if any(ts for _, ts in entries):
            assert abs(scan(entries) - exact_p) <= 1e-15
        margin = exact_p - surrogate
        margins[repr(key)] = margin
        if isinstance(pattern, TimePattern):
            single = min(single, margin)
        else:
            multi = min(multi, margin)
    assert np.array_equal(surrogates, oracle)
    report = path_orthant(spec, x0, m, kernel, budget=budget)
    assert abs(report.worst_margin - min(single, multi)) <= 1e-15
    assert abs(report.details["worst_multisite_margin"] - multi) <= 1e-15
    # the witness is a pattern whose oracle margin ties the worst
    w = report.witness
    key = ((w["kind"], w["site"], w["omega"]) if w["kind"] == "single-site"
           else (w["kind"], w["entries"]))
    assert abs(margins[repr(key)] - min(single, multi)) <= 1e-15


def _repelling_pair():
    """Two mirror-image sites, each colonised less while the other is occupied.

    Patterns exchanged by the mirror tie exactly, and the worst margin is a
    multisite one.
    """
    def colonise(table):
        return FunctionFamily(variant="tabulated-multilinear", n=2, params={"table": table})

    survive = FunctionFamily(variant="constant", n=2, params={"c": 0.6})
    return ModelSpec(n=2, colonisation=(colonise([0.8, 0.8, 0.1, 0.1]),
                                        colonise([0.8, 0.1, 0.8, 0.1])),
                     survival=(survive, survive))


@pytest.mark.parametrize("spec, x0", [
    (zoo.constant_pair(4, c=0.0, s=0.0), 0),  # every margin is 0: all patterns tie
    (_repelling_pair(), 0),  # tied multisite witnesses
    (_repelling_pair(), 3),
    (zoo.constant_pair(3, c=1.0, s=1.0), 2),
    (zoo.constant_pair(3), 5),
    (zoo.interacting_pair(), 0),
    (zoo.non_monotone_pair(), 3),
    (random_model(3, 7), 1),
    (random_model(4, 2), 6),
])
@pytest.mark.parametrize("m, budget", [(1, 1), (2, 2), (3, 4), (4, 3)])
def test_witness_is_the_first_worst_pattern_in_scan_order(spec, x0, m, budget):
    # the scan's own values, taken one pattern at a time in scan order: the
    # report names the first pattern whose margin is strictly the lowest
    kernel = exact.kernel(spec)
    scan = _scan_probability(_scan_depths(spec, x0, m, budget, kernel), spec.n)
    at_last, at_end = indep.vacancy_tables(spec, x0, indep.site_schedules(spec, x0, m), m)
    worst = multi = np.inf
    witness = multi_witness = None
    for pattern in scanned_patterns(spec.n, m, budget):
        entries = _entries(pattern)
        if isinstance(pattern, TimePattern):
            times = entries[0][1]
            margin = ((scan(entries) if times else 1.0)
                      - at_end[pattern.site, _time_set(times)])
            if margin < worst:
                worst = margin
                witness = {"kind": "single-site", "site": pattern.site,
                           "omega": list(pattern.omega)}
        else:
            surrogate = 1.0
            for site, ts in entries:
                surrogate *= at_last[site, _time_set(ts)]
            margin = scan(entries) - surrogate
            if margin < multi:
                multi = margin
                multi_witness = {"kind": "multisite",
                                 "entries": [[site, list(ts)] for site, ts in entries]}
    if multi < worst:
        worst, witness = multi, multi_witness
    report = path_orthant(spec, x0, m, kernel, budget=budget)
    assert report.witness == witness
    assert report.worst_margin == worst
    assert report.details["worst_multisite_margin"] == multi


@pytest.mark.parametrize("n, m, budget", [(1, 4, 4), (3, 3, 4), (4, 2, 3), (3, 5, 2)])
def test_first_scanned_follows_the_scan_order(n, m, budget):
    # every pattern as its per-site step masks, in scan order
    steps = np.array([[_time_set(dict(entries).get(i, ())) for i in range(n)]
                      for entries in patterns_for_budget(n, m, budget)])
    rng = np.random.default_rng(n * m + budget)
    for size in (1, 2, 3, 10, len(steps)):
        rows = rng.permutation(len(steps))[:size]
        assert rows[order._first_scanned(steps[rows], m)] == rows.min()


@pytest.mark.parametrize("n, m", [(2, 14), (3, 12)])
def test_scan_holds_no_more_than_its_capacity_rule_counts(n, m, monkeypatch):
    # long paths on small lattices: the tree's nodes outweigh its laws
    counted = []

    def record(plan):
        counted.append(plan.nbytes)
        check_plan(plan)

    monkeypatch.setattr(order, "check_plan", record)
    spec = random_model(n, 1)
    kernel = exact.kernel(spec)
    tracemalloc.start()
    try:
        path_orthant(spec, 1, m, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(counted) + (1 << 19)


def test_scan_budget_must_be_positive(interacting):
    with pytest.raises(ValueError, match="budget"):
        path_orthant(interacting, 0, 2, exact.kernel(interacting), budget=0)


@pytest.mark.parametrize("grid", [[], [1.0, 0.5], [-0.5, 0.0]])
def test_spin_bound_refuses_unsorted_or_negative_grids(grid):
    with pytest.raises(ValueError, match="t_grid must be nonempty, nondecreasing"):
        spin_marginal_bound(zoo.contact_ring(2), 0, grid)
