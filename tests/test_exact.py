import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from occupancy import bridge, exact, lattice, order, zoo
from occupancy.exact import (MultiSitePattern, TimePattern,
                             as_distribution, lattice_bits,
                             marginal_trajectory, marginals, path_probability,
                             poisson_mixture, poisson_weights, spin_generator,
                             spin_law, state_bits, transition_matrix,
                             validate_distribution)
from occupancy.lattice import CapacityError
from occupancy.meanfield import OdeConfig
from occupancy.model import transition_values

from conftest import (dense_spin_generator, dense_spin_law,
                      enumerate_event_probability, naive_event_probability,
                      naive_transition_probability, random_model,
                      random_spin_model, uniformised, where_transition_matrix)


def test_bit_conventions():
    assert np.array_equal(state_bits(5, 3), [1.0, 0.0, 1.0])
    assert np.array_equal(lattice_bits(2),
                          [[0, 0], [1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        state_bits(8, 3)


def test_single_site_rows(single_site):
    T = transition_matrix(single_site)
    assert np.allclose(T, [[0.7, 0.3], [0.2, 0.8]], atol=1e-15)
    assert marginal_trajectory(single_site, 0, 2)[-1, 0] == pytest.approx(0.45, abs=1e-15)


def test_transition_matrix_matches_naive_product(interacting, broken):
    for spec in (interacting, broken, zoo.random_certified_model(3, 17)):
        T = transition_matrix(spec)
        size = 1 << spec.n
        for x in range(size):
            for y in range(size):
                assert T[x, y] == pytest.approx(
                    naive_transition_probability(spec, x, y), abs=1e-14)
        assert np.allclose(T.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_kernel_build_matches_per_site_factors(n):
    # random models over all five variants with pins and clamped offsets,
    # and discretised spin systems whose survival has a negative scale
    for seed in range(3):
        spec = random_model(n, seed=1000 * n + seed)
        assert np.array_equal(transition_matrix(spec), where_transition_matrix(spec))
        chain = bridge.discretise(random_spin_model(n, seed=2000 * n + seed),
                                  bridge.DiscretisationConfig(0.25 / n))
        assert any(fam.scale < 0 for fam in chain.survival)
        assert np.array_equal(transition_matrix(chain), where_transition_matrix(chain))


def test_empty_state_absorbing_without_colonisation():
    spec = zoo.constant_pair(n=2, c=0.0, s=0.8)
    T = transition_matrix(spec)
    assert T[0, 0] == 1.0


def test_distribution_basics(interacting):
    T = transition_matrix(interacting)
    d0 = exact.distribution(interacting, 2, 0, T)
    assert d0[2] == 1.0 and d0.sum() == 1.0
    d3 = exact.distribution(interacting, 0, 3, T)
    validate_distribution(d3)
    # matches marginal_trajectory
    assert np.allclose(marginals(d3), marginal_trajectory(interacting, 0, 3)[-1],
                       atol=1e-14)


def test_start_state_is_checked(interacting):
    T = transition_matrix(interacting)
    for x0 in (-1, 1 << interacting.n):
        with pytest.raises(ValueError, match="out of range"):
            marginal_trajectory(interacting, x0, 1)
        with pytest.raises(ValueError, match="out of range"):
            marginal_trajectory(interacting, x0, 0)
        with pytest.raises(ValueError, match="out of range"):
            exact.distribution(interacting, x0, 2, T)
        with pytest.raises(ValueError, match="out of range"):
            path_probability(interacting, x0, TimePattern(site=0, omega=(0,)), T)


def test_law_trajectory_is_one_propagation(interacting):
    rows, law = exact.law_trajectory(interacting, 1, 6)
    assert np.array_equal(rows, marginal_trajectory(interacting, 1, 6))
    assert np.array_equal(law, exact.distribution(interacting, 1, 6,
                                                  transition_matrix(interacting)))


def test_given_kernel_is_used_and_kept(interacting):
    spec = random_model(3, seed=7)
    T = transition_matrix(spec)
    before = T.copy()
    # the kernel one run shares gives what a fresh kernel gives, and is kept
    assert np.array_equal(exact.distribution(spec, 5, 4, T),
                          exact.law_trajectory(spec, 5, 4)[1])
    pattern = MultiSitePattern(entries=((0, (1, 3)), (2, (2,))))
    assert (exact.multisite_probability(spec, 2, pattern, T)
            == exact.multisite_probability(spec, 2, pattern, transition_matrix(spec)))
    single = TimePattern(site=1, omega=(1, 0, 0))
    assert (path_probability(spec, 2, single, T)
            == path_probability(spec, 2, single, transition_matrix(spec)))
    assert np.array_equal(T, before)
    # a kernel handed in is used as it is, never rebuilt from the spec
    assert exact.distribution(spec, 0, 1, np.eye(8))[0] == 1.0


def test_interacting_marginals_frozen_values(interacting):
    traj = marginal_trajectory(interacting, 0, 2)
    assert np.allclose(traj[1], [0.2, 0.2], atol=1e-15)
    assert np.allclose(traj[2], [0.388, 0.388], atol=1e-15)


def test_marginals_of_simple_distributions():
    point = np.zeros(8)
    point[5] = 1.0
    assert np.array_equal(marginals(point), state_bits(5, 3))
    uniform = np.full(8, 1 / 8)
    assert np.allclose(marginals(uniform), 0.5, atol=1e-15)


def test_distribution_validation():
    with pytest.raises(ValueError):
        validate_distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        validate_distribution(np.array([0.7, -0.2, 0.5, 0.0]))
    with pytest.raises(ValueError):
        validate_distribution(np.array([0.5, 0.2, 0.3]))
    fixed = as_distribution(np.array([0.5, -1e-15, 0.5, 0.0]))
    validate_distribution(fixed)


# -- event probabilities -----------------------------------------------------


def test_pattern_validation():
    with pytest.raises(ValueError):
        TimePattern(site=0, omega=())
    with pytest.raises(ValueError):
        TimePattern(site=0, omega=(0, 2))
    with pytest.raises(ValueError):
        MultiSitePattern(entries=((0, (1, 1)),))
    with pytest.raises(ValueError):
        MultiSitePattern(entries=((0, (1,)), (0, (2,))))
    with pytest.raises(ValueError):
        MultiSitePattern(entries=((0, (0,)),))
    assert MultiSitePattern(entries=((0, (2, 1)),)).horizon == 2


def test_all_ones_pattern_is_certain(interacting):
    pattern = TimePattern(site=0, omega=(1, 1, 1))
    assert path_probability(interacting, 0, pattern, transition_matrix(interacting)) == 1.0


def test_single_step_pattern_matches_marginal(interacting):
    T = transition_matrix(interacting)
    for site in range(2):
        for x0 in range(4):
            p1 = marginal_trajectory(interacting, x0, 1)[1, site]
            value = path_probability(interacting, x0, TimePattern(site=site, omega=(0,)), T)
            assert value == pytest.approx(1.0 - p1, abs=5e-15)


def test_path_probability_against_naive_enumeration(interacting, broken):
    for spec in (interacting, broken):
        T = transition_matrix(spec)
        for site in range(spec.n):
            for omega in [(0,), (0, 0), (1, 0), (0, 1, 0), (1, 1, 0)]:
                pattern = TimePattern(site=site, omega=omega)
                cons = pattern.constraints()
                horizon = max(t for _, t in cons)
                expected = naive_event_probability(spec, 0, cons, horizon)
                got = path_probability(spec, 0, pattern, T)
                assert got == pytest.approx(expected, abs=1e-12)


def test_enumerate_and_propagate_agree(interacting):
    rng = np.random.default_rng(0)
    spec = zoo.random_certified_model(3, 23)
    T = transition_matrix(spec)
    for _ in range(10):
        site = int(rng.integers(spec.n))
        omega = tuple(int(b) for b in rng.integers(0, 2, size=4))
        if all(w == 1 for w in omega):
            continue
        pattern = TimePattern(site=site, omega=omega)
        a = enumerate_event_probability(spec, 1, pattern.constraints(), 4)
        b = path_probability(spec, 1, pattern, T)
        assert a == pytest.approx(b, abs=1e-13)


def test_trailing_ones_do_not_change_value(interacting):
    short = TimePattern(site=1, omega=(0, 1, 0))
    long = TimePattern(site=1, omega=(0, 1, 0, 1, 1, 1, 1, 1, 1, 1))
    T = transition_matrix(interacting)
    assert path_probability(interacting, 0, long, T) == pytest.approx(
        path_probability(interacting, 0, short, T), abs=1e-15)


def test_multisite_against_naive(interacting):
    pattern = MultiSitePattern(entries=((0, (1, 3)), (1, (2,))))
    expected = naive_event_probability(interacting, 0, pattern.constraints(), 3)
    got = exact.multisite_probability(interacting, 0, pattern, transition_matrix(interacting))
    assert got == pytest.approx(expected, abs=1e-12)
    oracle = enumerate_event_probability(interacting, 0, pattern.constraints(), 3)
    assert oracle == pytest.approx(expected, abs=1e-12)


def test_empty_multisite_is_certain(interacting):
    assert exact.multisite_probability(
        interacting, 0, MultiSitePattern(entries=()), transition_matrix(interacting)) == 1.0


def test_enumeration_guard():
    # 2^(5*6) literal trajectories; propagation has no horizon guard
    spec = zoo.random_certified_model(5, 3)
    pattern = TimePattern(site=0, omega=(1,) * 5 + (0,))
    value = path_probability(spec, 0, pattern, transition_matrix(spec))
    assert 0.0 < value < 1.0


def test_state_cap():
    spec = zoo.constant_pair(n=21, c=0.2, s=0.8)
    with pytest.raises(CapacityError):
        transition_matrix(spec)


def test_capacity_rule_cost_function():
    # the rule is checked through its cost function; nothing large is allocated
    assert lattice.dense_bytes(12) == 8 * 4 ** 12
    assert lattice.dense_bytes(10, 3) == 3 * 8 * 4 ** 10
    budget = lattice.DENSE_BYTES_BUDGET
    biggest = max(n for n in range(40) if lattice.dense_bytes(n) <= budget)
    lattice.check_dense(biggest)
    for n, arrays in ((biggest + 1, 1), (30, 1), (64, 1), (biggest, 2)):
        with pytest.raises(CapacityError, match=f"^n = {n}: {arrays} dense .* budget"):
            lattice.check_dense(n, arrays)
    with pytest.raises(CapacityError):
        lattice.lattice_bits(60)


def test_capacity_rule_guards_dense_builders():
    n = max(n for n in range(40) if lattice.dense_bytes(n) <= lattice.DENSE_BYTES_BUDGET) + 1
    ring = zoo.contact_ring(n)
    for build in (lambda: transition_matrix(zoo.constant_pair(n=n)),
                  lambda: bridge.convergence_table(ring, 0, 1.0),
                  lambda: exact.marginal_trajectory(zoo.constant_pair(n=n), 0, 1),
                  lambda: exact.marginal_trajectory(zoo.constant_pair(n=n), 0, 0)):
        with pytest.raises(CapacityError):
            build()


def test_capacity_rule_guards_the_spin_tables():
    # the spin engine holds (2^n, n) tables, never a dense array: it stops
    # where its own byte count does, far past the kernel's limit
    assert exact.spin_bytes(3) == 8 * (5 * 3 + 8) * 8
    budget = lattice.DENSE_BYTES_BUDGET
    n = max(n for n in range(64) if exact.spin_bytes(n) <= budget) + 1
    assert lattice.dense_bytes(n - 1) > budget
    ring = zoo.contact_ring(n)
    for build in (lambda: spin_generator(ring),
                  lambda: order.spin_marginal_bound(ring, 0, [1.0])):
        with pytest.raises(CapacityError, match=f"^n = {n}: the spin rate tables needs"):
            build()


def test_capacity_rule_counts_every_array_held(monkeypatch):
    # a budget of exactly what each holder keeps passes, one byte less fails
    ring = zoo.contact_ring(6)
    for budget, what, run in (
            # thm2 holds the spin tables and a short trajectory, no dense array
            (exact.spin_bytes(6), "n = 6: the spin rate tables",
             lambda: order.spin_marginal_bound(ring, 0, [0.5, 1.0], config=OdeConfig(h=0.1))),
            # the bridge holds one kernel at a time, its rate defect no copy of it
            (lattice.dense_bytes(6, 1), "n = 6: 1 dense",
             lambda: bridge.convergence_table(ring, 0, 0.5, deltas=(0.125, 0.0625)))):
        monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", budget)
        run()
        monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", budget - 1)
        with pytest.raises(CapacityError, match=what):
            run()


def test_bridge_counts_one_dense_array(monkeypatch):
    # so thm4 and the bridge reach n = 14 under the default budget
    counted = []
    monkeypatch.setattr(bridge, "check_dense",
                        lambda n, arrays=1: counted.append((n, arrays)))
    bridge.convergence_table(zoo.contact_ring(2), 0, 0.5, deltas=(0.125,))
    assert counted == [(2, 1)]
    lattice.check_dense(14, 1)
    with pytest.raises(CapacityError):
        lattice.check_dense(14, 2)


def test_capacity_rule_counts_the_lattice_table_build(monkeypatch):
    # the int64 bits and their float copy: one table's bytes are not enough
    n = 5
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", n * (8 << n))
    lattice.lattice_bits.cache_clear()
    with pytest.raises(CapacityError, match="n = 5: the lattice table"):
        lattice.lattice_bits(n)
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", 2 * n * (8 << n))
    assert lattice.lattice_bits(n).shape == (1 << n, n)


def test_zero_step_runs_keep_the_kernel_limit(monkeypatch):
    # a run that takes no step stops at the same n as one that does
    spec = zoo.constant_pair(n=2)
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", lattice.dense_bytes(2) - 1)
    for run in (lambda: marginal_trajectory(spec, 0, 0),
                lambda: exact.law_trajectory(spec, 0, 0)):
        with pytest.raises(CapacityError, match="n = 2: 1 dense 2\\^2 x 2\\^2 array needs"):
            run()


# -- spin systems ------------------------------------------------------------


def test_two_state_generator():
    Q = dense_spin_generator(zoo.two_state_spin(0.5, 1.0))
    assert np.allclose(Q, [[-0.5, 0.5], [1.0, -1.0]], atol=1e-15)


def test_generator_sparsity_matches_adjacency(ring3):
    Q = dense_spin_generator(ring3)
    for x in range(8):
        for y in range(8):
            flips = bin(x ^ y).count("1")
            if flips >= 2:
                assert Q[x, y] == 0.0
    assert np.allclose(Q.sum(axis=1), 0.0, atol=1e-12)


def test_spin_rates_values(ring3):
    # from state 0b001, site 1 sees one occupied neighbour
    r = spin_generator(ring3)
    assert r.shape == (8, 3)
    assert r[0b001, 1] == pytest.approx(0.35, abs=1e-15)
    assert r[0b001, 0] == pytest.approx(1.0, abs=1e-15)  # death
    assert r[0b101, 1] == pytest.approx(0.7, abs=1e-15)
    assert np.array_equal(r, transition_values(ring3, lattice_bits(3)))


def test_two_state_law_closed_form():
    lam, mu = 0.5, 1.0
    rates = spin_generator(zoo.two_state_spin(lam, mu))
    for t in (0.0, 0.3, 1.0, 2.5):
        law = spin_law(rates, 0, t)
        expected = lam / (lam + mu) * (1.0 - np.exp(-(lam + mu) * t))
        assert law[1] == pytest.approx(expected, abs=1e-12)


def test_spin_law_matches_matrix_exponential(ring3):
    Q = dense_spin_generator(ring3)
    rates = spin_generator(ring3)
    for t in (0.25, 1.0, 3.0):
        truth = np.zeros(8)
        truth[1] = 1.0
        truth = truth @ expm(Q * t)
        law = spin_law(rates, 1, t)
        assert np.allclose(law, truth, atol=1e-9)


def test_spin_semigroup_property(ring3):
    rates = spin_generator(ring3)
    one = spin_law(rates, 1, 1.5)
    two = exact.spin_law_from(rates, spin_law(rates, 1, 0.9), 0.6)
    assert np.allclose(one, two, atol=1e-11)
    # the dense oracle obeys it too, and agrees with the matrix-free laws
    P, rate = uniformised(ring3)
    dense = exact.poisson_mixture(lambda v: v @ P, dense_spin_law(ring3, 1, 0.9), 0.6 * rate)
    assert np.abs(as_distribution(dense) - two).sum() <= 1e-14


def test_generator_from_finite_difference(ring3):
    h = 1e-6
    v0 = np.zeros(8)
    v0[1] = 1.0
    approx = (spin_law(spin_generator(ring3), 1, h) - v0) / h
    assert np.allclose(approx, v0 @ dense_spin_generator(ring3), atol=1e-5)


def test_uniformised_step_matches_dense(ring3, monkeypatch):
    # each step of the Poisson mixture is v (I + Q/rate), Q the dense generator
    P, rate = uniformised(ring3)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12) and np.min(P) >= 0.0
    rates = spin_generator(ring3)
    laws = [spin_law(rates, x0, 0.7) for x0 in range(8)]
    seen = []
    monkeypatch.setattr(exact, "poisson_mixture",
                        lambda step, v0, mean, tail_tol: seen.append((step, mean)) or v0)
    spin_law(rates, 0, 1.0)
    (step, mean), = seen
    assert mean == pytest.approx(rate, rel=1e-15)
    for law in laws:
        assert np.abs(step(law) - law @ P).sum() <= 1e-15


def test_poisson_mixture_recovers_identity():
    v0 = np.array([0.2, 0.3, 0.5])
    out = poisson_mixture(lambda v: v, v0, 7.3)
    assert np.allclose(out, v0, atol=1e-12)


@pytest.mark.parametrize("mean", [0.3, 1.0, 10.0, 64.0, 256.0, 1000.0])
def test_poisson_weights_match_scipy(mean):
    w = poisson_weights(mean, 1e-12)
    expected = stats.poisson.pmf(np.arange(w.size), mean)
    assert np.max(np.abs(w - expected)) <= 1e-13
    # the cut is the first index whose cumulative mass reaches 1 - tail_tol
    assert stats.poisson.sf(w.size - 1, mean) <= 1e-12 < stats.poisson.sf(w.size - 2, mean)


@pytest.mark.parametrize("mean", [1e10, 1e300, np.inf])
def test_poisson_weights_count_their_arrays(mean):
    with pytest.raises(CapacityError, match="the Poisson weights needs"):
        poisson_weights(mean)


def test_zero_rate_spin_is_frozen():
    spec = zoo.contact_ring(2, beta=0.0, mu=0.0)
    P, rate = uniformised(spec)
    assert rate == 0.0 and not np.any(P)
    law = spin_law(spin_generator(spec), 1, 5.0)
    assert law[1] == 1.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 5000),
       t=st.floats(0.0, 3.0), ring=st.booleans())
def test_spin_law_matches_dense_oracle(n, seed, t, ring):
    spec = (zoo.contact_ring(n, beta=0.2 + seed % 5 * 0.1) if ring
            else random_spin_model(n, seed))
    x0 = seed % (1 << n)
    law = spin_law(spin_generator(spec), x0, t)
    assert np.abs(law - dense_spin_law(spec, x0, t)).sum() <= 1e-14


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 5000), steps=st.integers(0, 6))
def test_distributions_stay_normalised(seed, steps):
    spec = zoo.random_certified_model(3, seed)
    dist = exact.distribution(spec, seed % 8, steps, transition_matrix(spec))
    validate_distribution(dist)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_chapman_kolmogorov(seed):
    spec = zoo.random_certified_model(2, seed)
    T = transition_matrix(spec)
    d_direct = exact.distribution(spec, 0, 5, T)
    *_, d_chained = exact.propagate(T, exact.distribution(spec, 0, 2, T), 3)
    assert np.allclose(d_direct, d_chained, atol=1e-12)
