"""Acceptance gate: one test per advertised guarantee.

Run with `python3 -m pytest tests/test_acceptance.py -s` to see one
PASS/FAIL line per criterion.  Each test is self-contained and builds
its own models; tolerances are stated inline next to each assertion.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np

from occupancy import bridge, exact, indep, meanfield, order, simulate, zoo
from occupancy.bridge import DiscretisationConfig
from occupancy.exact import TimePattern
from occupancy.meanfield import OdeConfig
from occupancy.model import (BOUND_HYPOTHESES, FunctionFamily, ModelSpec,
                             ORDERING_HYPOTHESES, SPIN_BOUND_HYPOTHESES,
                             check_assumptions)

from conftest import (decomposed_path_probability, enumerate_event_probability,
                      mask_self_colonisation, monotone_path_check)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def certified_sweep():
    """Fifty randomized affine specs over n in 2..6, seeds 0..49."""
    for k in range(50):
        n = 2 + k % 5
        yield k, n, zoo.random_certified_model(n, seed=k)


def test_criterion_1_marginal_bound_suite():
    with criterion(1, "marginal-bound-suite"):
        start = time.perf_counter()
        count = 0
        for k, n, spec in certified_sweep():
            report = check_assumptions(spec, samples=4096, seed=k)
            assert report.passed(BOUND_HYPOTHESES), f"spec {k} not certified"
            x0 = k % (1 << n)
            pi = exact.marginal_trajectory(spec, x0, 15)
            p = meanfield.iterate(spec, exact.state_bits(x0, n), 15)
            worst = float(np.min(p - pi))
            assert worst >= -1e-10, f"spec {k}: margin {worst}"
            count += 1
        elapsed = time.perf_counter() - start
        assert count >= 50
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_2_one_step_tightness():
    with criterion(2, "one-step-tightness"):
        for k, n, spec in certified_sweep():
            x0 = k % (1 << n)
            pi = exact.marginal_trajectory(spec, x0, 1)[1]
            p = meanfield.recursion_step(spec, exact.state_bits(x0, n))
            gap = float(np.max(np.abs(p - pi)))
            assert gap <= 1e-12, f"spec {k}: one-step gap {gap}"


def test_criterion_3_path_ordering_suite():
    with criterion(3, "path-ordering-suite"):
        specs = [zoo.interacting_pair(),
                 zoo.random_certified_model(2, seed=11),
                 zoo.random_certified_model(3, seed=12)]
        for spec in specs:
            assert check_assumptions(spec).passed(ORDERING_HYPOTHESES)
            for x0 in (0, (1 << spec.n) - 1, 1):
                # every single-site vacancy pattern up to four steps,
                # exact law by trajectory enumeration against the
                # two-state surrogate recursion
                for m in range(1, 5):
                    schedules = indep.site_schedules(spec, x0, m)
                    for site in range(spec.n):
                        for omega in itertools.product((0, 1), repeat=m):
                            pat = TimePattern(site=site, omega=omega)
                            px = enumerate_event_probability(
                                spec, x0, pat.constraints(), m)
                            pw = indep.path_probability(spec, x0, pat, schedules)
                            assert px - pw >= -1e-10, (x0, site, omega)
                            split = decomposed_path_probability(spec, x0, pat)
                            assert abs(split - pw) <= 1e-14, (x0, site, omega)
                # multisite patterns with at most four demanded vacancies
                report = order.path_orthant(spec, x0, 4, exact.kernel(spec),
                                            budget=4, certified=True)
                assert report.worst_margin >= -1e-10, (x0, report.witness)


def test_criterion_4_spin_bound_suite():
    with criterion(4, "spin-bound-suite"):
        grid = np.linspace(0.0, 5.0, 21)
        for n in (2, 3, 4, 5):
            ring = zoo.contact_ring(n, beta=0.35, mu=1.0)
            assert check_assumptions(ring).passed(SPIN_BOUND_HYPOTHESES)
            report = order.spin_marginal_bound(ring, 1, grid, tol=1e-6,
                                               certified=True,
                                               config=OdeConfig(h=1e-3))
            assert report.verdict == "pass", (n, report.witness)
        # a finer integrator tightens the tolerance two orders
        ring = zoo.contact_ring(5, beta=0.35, mu=1.0)
        report = order.spin_marginal_bound(ring, 1, grid, tol=1e-8,
                                           certified=True,
                                           config=OdeConfig(h=1e-4))
        assert report.worst_margin >= -1e-8, report.witness


def test_criterion_5_discretisation_bridge():
    with criterion(5, "discretisation-bridge"):
        ring = zoo.contact_ring(3, beta=0.35, mu=1.0)
        deltas = [2.0 ** -k for k in range(4, 9)]
        singles, tvs, gaps = [], [], []
        p0 = exact.state_bits(1, 3)
        rates = exact.spin_generator(ring)
        truth = exact.spin_law(rates, 1, 1.0)
        reference_end = meanfield.integrate_ode(ring, p0, 1.0, bridge.REFERENCE_ODE)[1][-1]
        for d in deltas:
            config = DiscretisationConfig(d)
            chain = bridge.discretise(ring, config)
            kernel = exact.kernel(chain)
            single, _ = bridge.rate_defect(chain, config, rates)
            singles.append(single)
            tvs.append(bridge.law_distance(ring, config, 1, 1.0, kernel, truth))
            gaps.append(bridge.euler_gap(ring, p0, 1.0, config, reference_end))
        for a, b in zip(singles, singles[1:]):
            assert 1.5 <= a / b <= 2.5, ("rate", singles)
        for a, b in zip(tvs, tvs[1:]):
            assert b < a, ("tv", tvs)
        assert tvs[-1] < 1e-3, tvs
        for a, b in zip(gaps, gaps[1:]):
            assert 1.5 <= a / b <= 2.5, ("euler", gaps)


def test_criterion_6_simulation_coupling():
    with criterion(6, "simulation-coupling"):
        for spec, x0, seed in ((zoo.interacting_pair(), 0, 5),
                               (zoo.random_certified_model(4, seed=21), 3, 6)):
            pi = exact.marginal_trajectory(spec, x0, 10)
            est = simulate.simulate_marginals(spec, x0, 10, reps=100_000,
                                              seed=seed)
            assert np.all(np.abs(est.means - pi) <= 4.0 * est.ses + 1e-15)
            with8 = simulate.simulate_marginals(spec, x0, 10, reps=100_000,
                                                seed=seed, workers=8)
            assert np.array_equal(est.means, with8.means)
            assert np.array_equal(est.ses, with8.ses)
        for n in (2, 3, 4):
            spec = zoo.random_certified_model(n, seed=100 + n)
            bad = monotone_path_check(spec, 0, steps=10, reps=10_000, seed=n)
            assert bad == 0, (n, bad)
        broken = zoo.non_monotone_pair()
        assert monotone_path_check(broken, 0, steps=10, reps=10_000, seed=1) > 0


def test_criterion_7_extension_transforms():
    with criterion(7, "extension-transforms"):
        specs = [zoo.interacting_pair(), zoo.random_certified_model(3, seed=8)]
        for spec in specs:
            masked = mask_self_colonisation(spec)
            gap = np.max(np.abs(exact.transition_matrix(spec)
                                - exact.transition_matrix(masked)))
            assert gap <= 1e-15, gap
            for x0 in (0, 1):
                p0 = exact.state_bits(x0, spec.n)
                orig = meanfield.iterate(spec, p0, 20)
                down = meanfield.iterate(masked, p0, 20)
                assert np.all(down <= orig + 1e-15)
            # raising colonisation intercepts raises the whole trajectory;
            # the bump is kept below the worst survival-colonisation gap so
            # the lifted map stays monotone
            ones = np.ones(spec.n)
            eps = 0.4 * min(s.eval(ones) - c.eval(ones)
                            for c, s in zip(spec.colonisation, spec.survival))
            assert eps > 1e-3
            lifted = ModelSpec(
                n=spec.n,
                colonisation=tuple(
                    FunctionFamily("affine-saturated", spec.n,
                                   {"a": fam.params["a"] + eps,
                                    "b": fam.params["b"]})
                    for fam in spec.colonisation),
                survival=spec.survival)
            assert check_assumptions(lifted).passed(
                ("colonisation-increasing", "survival-increasing",
                 "gap-nonnegative"))
            p0 = exact.state_bits(0, spec.n)
            orig = meanfield.iterate(spec, p0, 20)
            up = meanfield.iterate(lifted, p0, 20)
            assert np.all(up >= orig - 1e-15)
            assert np.max(up - orig) > 1e-4


def test_criterion_8_positive_correlations():
    with criterion(8, "positive-correlations"):
        specs = [zoo.interacting_pair()]
        specs += [zoo.random_certified_model(n, seed=100 + n)
                  for n in range(2, 7)]
        for spec in specs:
            T = exact.transition_matrix(spec)
            for x0 in (0, (1 << spec.n) - 1):
                v = np.zeros(1 << spec.n)
                v[x0] = 1.0
                for t in range(11):
                    if t:
                        v = exact.as_distribution(v @ T)
                    report = order.positive_correlations(v, certified=True)
                    assert report.worst_margin >= -1e-10, (x0, t,
                                                           report.witness)
