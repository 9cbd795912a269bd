import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy import exact, indep, meanfield, zoo
from occupancy.exact import MultiSitePattern, TimePattern
from occupancy.lattice import check_plan
from occupancy.meanfield import OdeConfig

from conftest import decomposed_path_probability, random_model, spin_path_probability


def test_schedule_matches_family_evaluations(interacting):
    colonise, survive = indep.site_schedules(interacting, 0, 4)
    traj = meanfield.iterate(interacting, [0.0, 0.0], 3)
    for t in range(4):
        assert colonise[t, 1] == interacting.colonisation[1].eval(traj[t])
        assert survive[t, 1] == interacting.survival[1].eval(traj[t])


def test_site_schedules_share_one_trajectory():
    spec = zoo.random_certified_model(3, 4)
    colonise, survive = indep.site_schedules(spec, 5, 6)
    traj = meanfield.iterate(spec, exact.state_bits(5, 3), 5)
    assert colonise.shape == survive.shape == (6, 3)
    for site in range(3):
        assert np.array_equal(colonise[:, site], spec.colonisation[site].eval_batch(traj))
        assert np.array_equal(survive[:, site], spec.survival[site].eval_batch(traj))


def test_patterns_without_schedules(interacting):
    # no demand: certain, and no schedule is read
    assert indep.multisite_probability(interacting, 0, MultiSitePattern(entries=()), ()) == 1.0
    assert indep.multisite_probability(
        interacting, 0, MultiSitePattern(entries=((0, ()), (1, ()))), ()) == 1.0
    schedules = indep.site_schedules(interacting, 0, 1)
    for site in (-1, 2):
        with pytest.raises(ValueError, match="out of range"):
            indep.path_probability(interacting, 0, TimePattern(site=site, omega=(0,)),
                                   schedules)
        with pytest.raises(ValueError, match="out of range"):
            indep.multisite_probability(interacting, 0,
                                        MultiSitePattern(entries=((site, (1,)),)), schedules)


@pytest.mark.parametrize("seed", range(4))
def test_longer_schedule_serves_shorter_patterns(seed):
    # numpy sums a one-row batch in another order than a longer one, so a
    # prefix of a longer schedule may differ from a short one by an ulp
    tol = 16 * np.finfo(float).eps
    spec = random_model(3, seed=seed)
    schedules = indep.site_schedules(spec, 2, 5)
    for omega in [(0,), (1, 0), (0, 1, 0), (1, 1, 0, 0, 1)]:
        pattern = TimePattern(site=1, omega=omega)
        own = indep.site_schedules(spec, 2, pattern.horizon)
        assert indep.path_probability(spec, 2, pattern, schedules) == pytest.approx(
            indep.path_probability(spec, 2, pattern, own), abs=tol)
    multi = MultiSitePattern(entries=((0, (2,)), (2, (1, 4))))
    own = indep.site_schedules(spec, 2, multi.horizon)
    assert indep.multisite_probability(spec, 2, multi, schedules) == pytest.approx(
        indep.multisite_probability(spec, 2, multi, own), abs=tol)
    with pytest.raises(ValueError, match="cannot serve"):
        indep.path_probability(spec, 2, TimePattern(site=0, omega=(0,)),
                               tuple(table[:, 1:] for table in schedules))
    with pytest.raises(ValueError, match="cannot serve"):
        indep.path_probability(spec, 2, TimePattern(site=1, omega=(1,) * 5 + (0,)),
                               schedules)


def test_path_probability_trivial_cases(interacting):
    schedule = indep.site_schedules(interacting, 0, 3)
    assert indep.path_probability(interacting, 0,
                                  TimePattern(site=0, omega=(1, 1, 1)), schedule) == 1.0
    one = indep.path_probability(interacting, 0, TimePattern(site=0, omega=(0,)), schedule)
    assert one == pytest.approx(1.0 - 0.2, abs=1e-15)


def test_constant_model_frozen_value(single_site):
    value = indep.path_probability(single_site, 0, TimePattern(site=0, omega=(0, 0)),
                                   indep.site_schedules(single_site, 0, 2))
    assert value == pytest.approx(0.49, abs=1e-15)


def test_constant_model_surrogate_equals_chain(single_site):
    # one independent site: the surrogate IS the chain
    schedule = indep.site_schedules(single_site, 0, 4)
    kernel = exact.kernel(single_site)
    for omega in itertools.product((0, 1), repeat=4):
        if all(omega):
            continue
        pattern = TimePattern(site=0, omega=omega)
        assert indep.path_probability(single_site, 0, pattern, schedule) == pytest.approx(
            exact.path_probability(single_site, 0, pattern, kernel), abs=1e-14)


def test_decomposition_equals_forward_recursion(interacting):
    specs = [interacting, zoo.random_certified_model(2, 5),
             zoo.random_certified_model(3, 6), zoo.non_monotone_pair()]
    for spec in specs:
        for x0 in (0, (1 << spec.n) - 1, 1):
            for m in (1, 2, 3, 4):
                schedules = indep.site_schedules(spec, x0, m)
                for omega in itertools.product((0, 1), repeat=m):
                    for site in range(spec.n):
                        pattern = TimePattern(site=site, omega=omega)
                        a = indep.path_probability(spec, x0, pattern, schedules)
                        b = decomposed_path_probability(spec, x0, pattern)
                        assert a == pytest.approx(b, abs=1e-14)


def test_multisite_factorises(interacting):
    pattern = MultiSitePattern(entries=((0, (1, 3)), (1, (2,))))
    schedules = indep.site_schedules(interacting, 0, 3)
    by_hand = (
        indep.path_probability(interacting, 0, TimePattern(site=0, omega=(0, 1, 0)),
                               schedules)
        * indep.path_probability(interacting, 0, TimePattern(site=1, omega=(1, 0)),
                                 schedules)
    )
    assert indep.multisite_probability(interacting, 0, pattern, schedules) == pytest.approx(
        by_hand, abs=1e-15)


def test_multisite_equals_exact_for_constant_models():
    spec = zoo.constant_pair(n=3, c=0.25, s=0.7)
    pattern = MultiSitePattern(entries=((0, (1, 2)), (2, (2, 4))))
    assert indep.multisite_probability(
        spec, 0, pattern, indep.site_schedules(spec, 0, 4)) == pytest.approx(
        exact.multisite_probability(spec, 0, pattern, exact.kernel(spec)),
        abs=1e-13)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_more_constraints_never_raise_probability(seed):
    rng = np.random.default_rng(seed)
    spec = zoo.random_certified_model(2, seed)
    omega = [int(b) for b in rng.integers(0, 2, size=5)]
    schedule = indep.site_schedules(spec, 0, 5)
    loose = indep.path_probability(spec, 0, TimePattern(site=0, omega=tuple(omega)), schedule)
    k = int(rng.integers(5))
    omega[k] = 0
    tight = indep.path_probability(spec, 0, TimePattern(site=0, omega=tuple(omega)), schedule)
    assert tight <= loose + 1e-15


# -- continuous time ---------------------------------------------------------


def test_spin_single_time_closed_form():
    lam, mu = 0.5, 1.0
    spec = zoo.two_state_spin(lam, mu)
    t = 2.0
    occupied = lam / (lam + mu) * (1.0 - np.exp(-(lam + mu) * t))
    got = spin_path_probability(spec, 0, 0, [t], OdeConfig(h=1e-3))
    assert got == pytest.approx(1.0 - occupied, abs=1e-9)


def test_spin_path_refines_with_step(ring3):
    coarse = spin_path_probability(ring3, 1, 0, [0.5, 1.25], OdeConfig(h=2e-3))
    fine = spin_path_probability(ring3, 1, 0, [0.5, 1.25], OdeConfig(h=1e-3))
    finer = spin_path_probability(ring3, 1, 0, [0.5, 1.25], OdeConfig(h=5e-4))
    assert abs(fine - finer) < 1e-8
    assert abs(coarse - finer) < 1e-7


def test_spin_path_monotone_in_constraints(ring3):
    one = spin_path_probability(ring3, 1, 0, [1.0])
    both = spin_path_probability(ring3, 1, 0, [0.5, 1.0])
    assert 0.0 <= both <= one <= 1.0


def test_spin_path_from_occupied_start(ring3):
    # starting occupied, immediate vacancy demands decay from survival mass
    early = spin_path_probability(ring3, 1, 0, [0.01])
    assert early == pytest.approx(0.01, abs=2e-3)


def test_spin_path_input_validation(ring3):
    with pytest.raises(ValueError):
        spin_path_probability(ring3, 1, 0, [1.0, 0.5])
    with pytest.raises(ValueError):
        spin_path_probability(ring3, 1, 0, [0.0])
    with pytest.raises(ValueError):
        spin_path_probability(ring3, 1, 5, [1.0])


def test_spin_marginal_consistency(ring3):
    # vacancy at a single time equals 1 - (ODE-driven chain occupancy), and
    # for the surrogate the chain marginal is the ODE value itself
    t = 1.5
    _, states = meanfield.integrate_ode(ring3, [1.0, 0.0, 0.0], t, OdeConfig(h=1e-3))
    got = spin_path_probability(ring3, 1, 2, [t], OdeConfig(h=1e-3))
    assert got == pytest.approx(1.0 - states[-1, 2], abs=1e-10)


def test_vacancy_tables_hold_no_more_than_they_count(monkeypatch):
    # a long path on a small lattice: the step loop's arrays are the work
    counted = []

    def record(plan):
        counted.append(plan.nbytes)
        check_plan(plan)

    monkeypatch.setattr(indep, "check_plan", record)
    n, m = 2, 14
    spec = random_model(n, 1)
    schedules = indep.site_schedules(spec, 1, m)
    tracemalloc.start()
    try:
        indep.vacancy_tables(spec, 1, schedules, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted == [indep.vacancy_plan(n, m).nbytes]
    assert peak <= counted[0]


def test_surrogate_tables_refuse_empty_horizons():
    spec = zoo.interacting_pair()
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        indep.site_schedules(spec, 0, 0)
    with pytest.raises(ValueError, match="m must be >= 1"):
        indep.vacancy_tables(spec, 0, indep.site_schedules(spec, 0, 1), 0)
