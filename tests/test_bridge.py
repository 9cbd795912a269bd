import numpy as np
import pytest

from occupancy import bridge, exact, meanfield, zoo
from occupancy.bridge import (ConvergenceTable, DiscretisationConfig,
                              InadmissibleDelta, admissibility_bound,
                              convergence_table, discretise, euler_gap,
                              law_distance, ordering_margins, rate_defect,
                              subordinated_law)
from occupancy.meanfield import OdeConfig
from occupancy.model import check_assumptions

from conftest import hamming_rate_defect, random_spin_model

DELTAS = bridge.DEFAULT_DELTAS


def chain_kernel(spec, config):
    """The discretised chain's transition matrix, which the metrics take."""
    return exact.transition_matrix(discretise(spec, config))


def reference_end(spec, p0, t, config=bridge.REFERENCE_ODE):
    """The fine ODE reference's state at t, which `euler_gap` takes."""
    return meanfield.integrate_ode(spec, p0, t, config)[1][-1]


def test_admissibility_bound_rates():
    spec = zoo.two_state_spin(0.5, 1.0)
    assert admissibility_bound(spec) == pytest.approx(1.0, abs=1e-15)
    ring = zoo.contact_ring(3, beta=0.6, mu=0.9)
    assert admissibility_bound(ring) == pytest.approx(1.0 / 1.2, abs=1e-12)


def test_inadmissible_delta_rejected():
    spec = zoo.two_state_spin(0.5, 1.0)
    discretise(spec, DiscretisationConfig(1.0))  # boundary is allowed
    with pytest.raises(InadmissibleDelta):
        discretise(spec, DiscretisationConfig(1.01))


def test_discretised_lattice_values(ring3):
    delta = 0.125
    chain = discretise(ring3, DiscretisationConfig(delta))
    bits = exact.lattice_bits(3)
    for i in range(3):
        lam = ring3.birth[i].eval_batch(bits)
        mu = ring3.death[i].eval_batch(bits)
        c = chain.colonisation[i].eval_batch(bits)
        s = chain.survival[i].eval_batch(bits)
        assert np.allclose(c, delta * lam, atol=1e-15)
        assert np.allclose(s, 1.0 - delta * mu, atol=1e-15)


def test_discretised_chain_keeps_certification(ring3):
    assert check_assumptions(ring3, samples=512).ordering_certified
    for delta in DELTAS:
        chain = discretise(ring3, DiscretisationConfig(delta))
        report = check_assumptions(chain, samples=512)
        assert report.ordering_certified


def test_single_site_rate_defect_is_exact():
    # one site: the chain's flip probabilities are delta times the rates
    spec = zoo.two_state_spin(0.5, 1.0)
    rates = exact.spin_generator(spec)
    for delta in DELTAS:
        config = DiscretisationConfig(delta)
        single, multi = rate_defect(spec, config, chain_kernel(spec, config), rates)
        assert single <= 1e-14 and multi == 0.0


def test_rate_defect_first_order(ring3):
    singles, multis = [], []
    rates = exact.spin_generator(ring3)
    for delta in DELTAS:
        config = DiscretisationConfig(delta)
        single, multi = rate_defect(ring3, config, chain_kernel(ring3, config), rates)
        singles.append(single)
        multis.append(multi)
        assert multi <= 3.0 * delta  # multi-flip mass is O(delta)
    for a, b in zip(singles, singles[1:]):
        assert 1.5 < a / b < 2.5


@pytest.mark.parametrize("n", range(1, 6))
def test_rate_defect_matches_hamming_masks(n):
    for seed in range(3):
        spec = random_spin_model(n, seed=300 * n + seed)
        config = DiscretisationConfig(0.5 * admissibility_bound(spec))
        got = rate_defect(spec, config, chain_kernel(spec, config),
                          exact.spin_generator(spec))
        assert got == hamming_rate_defect(spec, config)


def test_shared_kernel_and_generator_are_left_unchanged(ring3):
    config = DiscretisationConfig(0.0625)
    kernel = exact.transition_matrix(discretise(ring3, config))
    rates = exact.spin_generator(ring3)
    kept = kernel.copy(), rates.copy()
    # every metric of one delta runs on the same two arrays, in any order
    first = rate_defect(ring3, config, kernel, rates)
    law = subordinated_law(ring3, config, 1, 0.5, kernel)
    assert rate_defect(ring3, config, kernel, rates) == first
    assert np.array_equal(subordinated_law(ring3, config, 1, 0.5, kernel), law)
    assert np.array_equal(kernel, kept[0]) and np.array_equal(rates, kept[1])


@pytest.mark.parametrize("n", [3, 7])
def test_rate_defect_reads_row_blocks(monkeypatch, n):
    # blocks of one row, or of a few, give the whole-kernel answer
    spec = random_spin_model(n, seed=40 + n)
    config = DiscretisationConfig(0.5 * admissibility_bound(spec))
    kernel, rates = chain_kernel(spec, config), exact.spin_generator(spec)
    whole = rate_defect(spec, config, kernel, rates)
    for entries in (1, 3 << n):
        monkeypatch.setattr(bridge, "BLOCK_ENTRIES", entries)
        assert rate_defect(spec, config, kernel, rates) == whole
    assert whole == hamming_rate_defect(spec, config)


def test_subordinated_law_at_zero_time(ring3):
    config = DiscretisationConfig(0.0625)
    law = subordinated_law(ring3, config, 5, 0.0, chain_kernel(ring3, config))
    assert law[5] == 1.0


def test_single_site_subordination_is_exact():
    # two states: (T - I)/delta equals the generator exactly, so the
    # Poisson mixture reproduces the continuous law to numerical precision
    spec = zoo.two_state_spin(0.5, 1.0)
    truth = exact.spin_law(exact.spin_generator(spec), 0, 1.0)
    for delta in DELTAS:
        config = DiscretisationConfig(delta)
        assert law_distance(spec, config, 0, 1.0, chain_kernel(spec, config), truth) < 1e-10


def test_law_distance_decreases_first_order(ring3):
    truth = exact.spin_law(exact.spin_generator(ring3), 1, 1.0)
    configs = [DiscretisationConfig(d) for d in DELTAS]
    tvs = [law_distance(ring3, c, 1, 1.0, chain_kernel(ring3, c), truth) for c in configs]
    for a, b in zip(tvs, tvs[1:]):
        assert b < a
        assert 1.5 < a / b < 2.5
    assert tvs[-1] < 1e-3


def test_euler_gap_first_order(ring3):
    p0 = exact.state_bits(1, 3)
    end = reference_end(ring3, p0, 1.0)
    gaps = [euler_gap(ring3, p0, 1.0, DiscretisationConfig(d), end) for d in DELTAS]
    for a, b in zip(gaps, gaps[1:]):
        assert 1.5 < a / b < 2.5


def test_euler_path_is_the_chain_recursion(ring3):
    delta = 0.0625
    chain = discretise(ring3, DiscretisationConfig(delta))
    p0 = exact.state_bits(1, 3)
    _, euler = meanfield.integrate_ode(ring3, p0, 1.0,
                                       OdeConfig(h=delta, method="euler"))
    recursion = meanfield.iterate(chain, p0, 16)
    assert np.max(np.abs(euler - recursion)) < 1e-12


def test_euler_gap_two_state_closed_form():
    # dp = (0.5 - 1.5 p) dt from 0: both routes are analytic
    spec = zoo.two_state_spin(0.5, 1.0)
    delta = 1.0 / 64
    got = euler_gap(spec, [0.0], 1.0, DiscretisationConfig(delta),
                    reference_end(spec, [0.0], 1.0, OdeConfig(h=1e-4, method="rk4")))
    exact_p = (1 - np.exp(-1.5)) / 3
    euler_p = (1 - (1 - 1.5 * delta) ** 64) / 3
    assert got == pytest.approx(abs(euler_p - exact_p), abs=1e-8)


def test_ordering_margins_nonnegative_and_cauchy(ring3):
    pairs = ordering_margins(ring3, 1, [(0, (0.5, 1.0)), (1, (1.0,))])
    margins = [m for _, m in pairs]
    assert all(m >= -1e-10 for m in margins)
    diffs = [abs(a - b) for a, b in zip(margins, margins[1:])]
    assert diffs == sorted(diffs, reverse=True)
    assert diffs[-1] < 1e-3


def test_ordering_margins_need_aligned_times(ring3):
    with pytest.raises(ValueError, match="multiple"):
        ordering_margins(ring3, 1, [(0, (0.3,))], deltas=(0.0625,))


def test_convergence_table_round_trip(ring3):
    table = convergence_table(ring3, 1, 1.0, deltas=DELTAS[:2])
    text = table.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "delta,metric,value"
    assert len(lines) == 1 + 2 * 4
    values = table.values("law-distance")
    assert len(values) == 2 and values[0][0] == DELTAS[0]
    # csv text parses back to the same floats
    for row, line in zip(table.rows, lines[1:]):
        d, m, v = line.split(",")
        assert float(d) == row[0] and m == row[1] and float(v) == row[2]


def test_convergence_table_rows_equal_standalone_metrics():
    spec = random_spin_model(3, seed=11)
    deltas = (0.5 * admissibility_bound(spec), 0.25 * admissibility_bound(spec))
    x0, t = 5, 0.75
    table = convergence_table(spec, x0, t, deltas=deltas)
    p0 = exact.state_bits(x0, spec.n)
    expected = []
    for delta in deltas:
        # every shared object built afresh for each metric call
        config = DiscretisationConfig(delta)
        single, multi = rate_defect(spec, config, chain_kernel(spec, config),
                                    exact.spin_generator(spec))
        tv = law_distance(spec, config, x0, t, chain_kernel(spec, config),
                          exact.spin_law(exact.spin_generator(spec), x0, t))
        gap = euler_gap(spec, p0, t, config, reference_end(spec, p0, t))
        expected += [(delta, "single-flip-rate-error", single),
                     (delta, "multi-flip-rate", multi),
                     (delta, "law-distance", tv),
                     (delta, "euler-gap", gap)]
    assert table.rows == tuple(expected)


def test_convergence_report_flags_a_growing_metric():
    table = ConvergenceTable(rows=((0.5, "law-distance", 1e-3),
                                   (0.25, "law-distance", 2e-3),
                                   (0.125, "law-distance", 1e-12),
                                   (0.0625, "law-distance", 1e-11)))
    report = bridge.convergence_report(table, {}, 1e-10, certified=True)
    assert report.verdict == "fail"
    assert report.worst_margin == pytest.approx(-1e-3, abs=1e-15)
    assert report.witness["deltas"] == [0.5, 0.25]
    informative = bridge.convergence_report(table, {}, 1e-10, certified=False)
    assert informative.verdict == "informative"
    # pairs at numerical floor are skipped
    floor = ConvergenceTable(rows=table.rows[2:])
    assert bridge.convergence_report(floor, {}, 1e-10, True).verdict == "pass"


def test_config_validation():
    with pytest.raises(ValueError):
        DiscretisationConfig(0.0)
