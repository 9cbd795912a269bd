import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from occupancy import bridge, exact, meanfield, zoo
from occupancy.bridge import (ConvergenceTable, DiscretisationConfig,
                              InadmissibleDelta, admissibility_bound,
                              convergence_table, discretise, euler_gap,
                              law_distance, rate_defect, subordinated_law)
from occupancy.cli import _csv_text
from occupancy.meanfield import OdeConfig
from occupancy.model import check_assumptions

from conftest import (dense_subordinated_law, hamming_rate_defect, lattice_bits,
                      random_spin_model)

DELTAS = bridge.DEFAULT_DELTAS


def _script(name):
    """A module of scripts/, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ordering_margins = _script("bridge_convergence").ordering_margins


def chain_kernel(spec, config):
    """The discretised chain's kernel, which the metrics take."""
    return exact.kernel(discretise(spec, config))


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
    bits = lattice_bits(3)
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
        single, multi = rate_defect(discretise(spec, config), config, rates)
        assert single <= 1e-14 and multi == 0.0


def test_rate_defect_first_order(ring3):
    singles, multis = [], []
    rates = exact.spin_generator(ring3)
    for delta in DELTAS:
        config = DiscretisationConfig(delta)
        single, multi = rate_defect(discretise(ring3, config), config, rates)
        singles.append(single)
        multis.append(multi)
        assert multi <= 3.0 * delta  # multi-flip mass is O(delta)
    for a, b in zip(singles, singles[1:]):
        assert 1.5 < a / b < 2.5


@pytest.mark.parametrize("n", range(1, 8))
def test_rate_defect_matches_hamming_masks(n):
    # at the admissibility bound some stay or flip factors are exactly 0
    for seed in range(3):
        spec = random_spin_model(n, seed=300 * n + seed)
        for share in (0.5, 1.0):
            config = DiscretisationConfig(share * admissibility_bound(spec))
            got = rate_defect(discretise(spec, config), config, exact.spin_generator(spec))
            assert got == hamming_rate_defect(spec, config)


def test_rate_defect_matches_hamming_masks_on_the_ring():
    ring = zoo.contact_ring(8)
    rates = exact.spin_generator(ring)
    for delta in DELTAS:
        config = DiscretisationConfig(delta)
        got = rate_defect(discretise(ring, config), config, rates)
        assert got == hamming_rate_defect(ring, config)


def test_rate_defect_never_holds_the_dense_kernel():
    # it reads the chain's (2^n, n) site probabilities a row block at a
    # time: at n = 10 its peak is a few such tables, far below one dense
    # 2^10 x 2^10 array (8 MB)
    ring = zoo.contact_ring(10)
    config = DiscretisationConfig(DELTAS[0])
    rates = exact.spin_generator(ring)
    tracemalloc.start()
    try:
        rate_defect(discretise(ring, config), config, rates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_shared_kernel_and_generator_are_left_unchanged(ring3):
    config = DiscretisationConfig(0.0625)
    kernel = exact.kernel(discretise(ring3, config))
    rates = exact.spin_generator(ring3)
    kept = kernel.low.copy(), kernel.high.copy(), rates.copy()
    # every metric of one delta runs on the same two arrays, in any order
    first = rate_defect(discretise(ring3, config), config, rates)
    law = subordinated_law(ring3, config, 1, 0.5, kernel)
    assert rate_defect(discretise(ring3, config), config, rates) == first
    assert np.array_equal(subordinated_law(ring3, config, 1, 0.5, kernel), law)
    assert all(np.array_equal(a, b)
               for a, b in zip((kernel.low, kernel.high, rates), kept))


def test_subordinated_law_at_zero_time(ring3):
    config = DiscretisationConfig(0.0625)
    law = subordinated_law(ring3, config, 5, 0.0, chain_kernel(ring3, config))
    assert law[5] == 1.0


def counted_pushes(monkeypatch) -> list:
    """A list that gains one entry per `Kernel.push` from here on."""
    calls = []
    push = exact.Kernel.push

    def counted(self, v):
        calls.append(self)
        return push(self, v)

    monkeypatch.setattr(exact.Kernel, "push", counted)
    return calls


@pytest.mark.parametrize("n", range(1, 7))
def test_subordinated_law_matches_the_dense_mixture(n):
    # random spin systems over all five variants with pins, at half the
    # admissibility bound and at the bound itself, where some stay or flip
    # factors are 0: the mixture thinned to the moves is the mixture of
    # every step through the dense kernel
    for seed in range(3):
        spec = random_spin_model(n, seed=700 * n + seed)
        x0 = (5 * seed) % (1 << n)
        for share in (0.5, 1.0):
            config = DiscretisationConfig(share * admissibility_bound(spec))
            kernel = chain_kernel(spec, config)
            for t in (0.4, 1.3):
                law = subordinated_law(spec, config, x0, t, kernel)
                oracle = dense_subordinated_law(spec, config, x0, t)
                assert np.max(np.abs(law - oracle)) <= 1e-11


def test_two_state_subordinated_law_matches_the_dense_mixture():
    spec = zoo.two_state_spin(0.5, 1.0)
    for delta in (admissibility_bound(spec),) + DELTAS:
        config = DiscretisationConfig(delta)
        kernel = chain_kernel(spec, config)
        for x0 in (0, 1):
            law = subordinated_law(spec, config, x0, 1.0, kernel)
            assert np.max(np.abs(law - dense_subordinated_law(spec, config, x0, 1.0))) <= 1e-11


def test_frozen_chain_and_zero_time_push_nothing(ring3, monkeypatch):
    # with every rate 0 no state is ever left (e = 0), and at t = 0 the
    # mixture is its first term: both are the point mass, with no push
    calls = counted_pushes(monkeypatch)
    frozen = zoo.contact_ring(3, beta=0.0, mu=0.0)
    config = DiscretisationConfig(0.25)
    still = chain_kernel(frozen, config)
    assert still.largest_exit == 0.0
    for spec, kernel, t in ((frozen, still, 2.0),
                            (ring3, chain_kernel(ring3, config), 0.0)):
        law = subordinated_law(spec, config, 5, t, kernel)
        assert np.array_equal(law, exact.point_mass(3, 5))
        assert np.array_equal(law, dense_subordinated_law(spec, config, 5, t))
    assert calls == []


def test_the_mixture_pushes_the_moves_only(monkeypatch):
    # a push per Poisson(e t / delta) term, e the largest exit probability:
    # about t times the largest exit rate at every step size, where a push
    # per Poisson(t / delta) term, every lazy step too, takes 849 here
    ring = zoo.contact_ring(10)
    means = [chain_kernel(ring, DiscretisationConfig(d)).largest_exit / d for d in DELTAS]
    calls = counted_pushes(monkeypatch)
    convergence_table(ring, 1, 1.0)
    assert len(calls) == sum(exact.poisson_weights(mean).size - 1 for mean in means)
    assert len(calls) <= 200


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
    text = _csv_text(table.columns, table.rows)
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
        single, multi = rate_defect(discretise(spec, config), config, exact.spin_generator(spec))
        tv = law_distance(spec, config, x0, t, chain_kernel(spec, config),
                          exact.spin_law(exact.spin_generator(spec), x0, t))
        gap = euler_gap(spec, p0, t, config, reference_end(spec, p0, t))
        expected += [(delta, "single-flip-rate-error", single),
                     (delta, "multi-flip-rate", multi),
                     (delta, "law-distance", tv),
                     (delta, "euler-gap", gap)]
    assert table.rows == tuple(expected)


def test_convergence_table_discretises_each_step_size_once(ring3, monkeypatch):
    # the rate defect reads the chain the table built for the law distance,
    # and gives the rows a freshly discretised chain gives
    calls = []
    discretise = bridge.discretise
    monkeypatch.setattr(bridge, "discretise", lambda *args: calls.append(args) or discretise(*args))
    table = convergence_table(ring3, 1, 0.5)
    assert [config.delta for _, config in calls] == list(bridge.DEFAULT_DELTAS)
    monkeypatch.undo()
    rates = exact.spin_generator(ring3)
    for delta, _, single in table.rows[::4]:
        config = DiscretisationConfig(delta)
        assert rate_defect(discretise(ring3, config), config, rates)[0] == single


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


def test_uncertified_convergence_reads_informative():
    # an uncertified table makes no claim, however well it converges
    table = ConvergenceTable(rows=((0.5, "law-distance", 2e-3),
                                   (0.25, "law-distance", 1e-3)))
    assert bridge.convergence_report(table, {}, 1e-10, certified=True).verdict == "pass"
    report = bridge.convergence_report(table, {}, 1e-10, certified=False)
    assert report.verdict == "informative"
    assert report.worst_margin == pytest.approx(1e-3, abs=1e-15)


def test_config_validation():
    with pytest.raises(ValueError):
        DiscretisationConfig(0.0)


def test_subordinated_law_refuses_negative_time():
    ring = zoo.contact_ring(2)
    config = DiscretisationConfig(0.25)
    kernel = exact.kernel(discretise(ring, config))
    with pytest.raises(ValueError, match="t must be >= 0"):
        subordinated_law(ring, config, 0, -1.0, kernel)
