import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from occupancy import bridge, exact, lattice, order, zoo
from occupancy.exact import (MultiSitePattern, TimePattern,
                             as_distribution,
                             marginal_trajectory, marginals, path_probability,
                             poisson_mixture, poisson_weights, spin_generator,
                             spin_law, state_bits, transition_matrix,
                             validate_distribution)
from occupancy.lattice import CapacityError
from occupancy.meanfield import OdeConfig
from occupancy.model import VARIANTS, transition_values

from conftest import (dense_spin_generator, dense_spin_law,
                      enumerate_event_probability, lattice_bits, naive_event_probability,
                      naive_transition_probability, one_product_push, random_model,
                      random_spin_model, signed_zero_model, uniformised,
                      where_transition_matrix)


def test_bit_conventions():
    assert np.array_equal(state_bits(5, 3), [1.0, 0.0, 1.0])
    assert np.array_equal(lattice.word_bits(0, 4, 2),
                          [[0, 0], [1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        state_bits(8, 3)


@pytest.mark.parametrize("n, width", [(1, 1), (3, 1 << 20), (10, 12), (13, 13)])
def test_lattice_blocks_cover_the_words_in_order(n, width):
    # each block's bits are those of its words, and no block passes
    # BLOCK_ENTRIES // width words unless one word already does
    seen = []
    for rows, bits in lattice.lattice_blocks(n, width):
        assert rows.stop - rows.start <= max(1, lattice.BLOCK_ENTRIES // width)
        assert np.array_equal(bits, lattice.word_bits(rows.start, rows.stop, n))
        seen += range(rows.start, rows.stop)
    assert seen == list(range(1 << n))


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
    # models with -0.0 entries and offsets, and discretised spin systems
    # whose survival has a negative scale; signed zeros must agree too
    for seed in range(3):
        for spec in (random_model(n, seed=1000 * n + seed),
                     signed_zero_model(n, seed=5000 * n + seed)):
            T, oracle = transition_matrix(spec), where_transition_matrix(spec)
            assert np.array_equal(T, oracle)
            assert np.array_equal(np.signbit(T), np.signbit(oracle))
        chain = bridge.discretise(random_spin_model(n, seed=2000 * n + seed),
                                  bridge.DiscretisationConfig(0.25 / n))
        assert any(fam.scale < 0 for fam in chain.survival)
        assert np.array_equal(transition_matrix(chain), where_transition_matrix(chain))


@pytest.mark.parametrize("n", range(1, 9))
def test_push_matches_the_dense_kernel(n):
    # the same model classes: one product of the two factor tables is the
    # law's step through the dense matrix, up to round-off
    rng = np.random.default_rng(n)
    for seed in range(3):
        chain = bridge.discretise(random_spin_model(n, seed=4000 * n + seed),
                                  bridge.DiscretisationConfig(0.25 / n))
        for spec in (random_model(n, seed=3000 * n + seed), chain):
            K = exact.kernel(spec)
            T = K.dense(spec)
            assert np.array_equal(T, where_transition_matrix(spec))
            point = np.zeros(1 << n)
            point[rng.integers(1 << n)] = 1.0
            for law in (rng.dirichlet(np.ones(1 << n)), point):
                assert np.max(np.abs(K.push(law) - law @ T)) <= 1e-15


@pytest.mark.parametrize("n", range(1, 9))
def test_largest_exit_reads_the_diagonal(n, monkeypatch):
    # the largest 1 - T[w, w], against the dense kernel's diagonal, and for
    # a kernel built in row blocks of one or a few states as for one built
    # in one block of all of them
    for seed in range(3):
        for spec in (random_model(n, seed=6000 * n + seed),
                     bridge.discretise(random_spin_model(n, seed=6100 * n + seed),
                                       bridge.DiscretisationConfig(0.25 / n))):
            K = exact.kernel(spec)
            e = K.largest_exit
            assert abs(e - np.max(1.0 - np.diag(K.dense(spec)))) <= 1e-15
            words, half = np.arange(1 << n), n // 2
            stay = K.low[words, words & ((1 << half) - 1)] * K.high[words, words >> half]
            assert e == 1.0 - np.min(stay)
            read = exact.lattice_transitions
            for entries in (1, 4, 3 << half):
                with monkeypatch.context() as patch:
                    patch.setattr(lattice, "BLOCK_ENTRIES", entries)
                    blocks = []
                    patch.setattr(exact, "lattice_transitions",
                                  lambda spec, bits: blocks.append(len(bits))
                                  or read(spec, bits))
                    assert exact.kernel(spec).largest_exit == e
                    assert len(blocks) > 1


@pytest.mark.parametrize("n", [1, 2, 5, 8, 11, 12, 13])
def test_push_sums_its_row_blocks_as_the_one_product(n):
    # up to n = 11 one block covers every state, so the push is the one
    # product bit for bit; past it the blocks' sums move laws by round-off
    rng = np.random.default_rng(n)
    variants, pinned = set(), False
    for seed in range(6 if n <= 5 else 1):
        spec = random_model(n, seed=5000 * n + seed)
        fams = spec.colonisation + spec.survival
        variants |= {f.variant for f in fams}
        pinned |= any(f.pins for f in fams)
        K = exact.kernel(spec)
        point = np.zeros(1 << n)
        point[rng.integers(1 << n)] = 1.0
        for law in (rng.dirichlet(np.ones(1 << n)), point):
            pushed, oracle = K.push(law), one_product_push(K, law)
            if n <= 11:
                assert np.array_equal(pushed, oracle)
            else:
                assert np.max(np.abs(pushed - oracle)) <= 1e-15
    assert pinned and variants == set(VARIANTS)


def test_a_push_holds_one_row_block():
    # beyond its input a push at n = 12 holds one row block with numpy's
    # ufunc buffer and two laws, never a product the size of a table
    # (2 MiB here)
    spec = zoo.random_certified_model(12, 0)
    K = exact.kernel(spec)
    law = np.random.default_rng(0).dirichlet(np.ones(1 << 12))
    tracemalloc.start()
    try:
        K.push(law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = lattice.BLOCK_ENTRIES
    assert peak <= 8 * block + 8 * min(np.getbufsize(), block) + 2 * law.nbytes


def traced_peak(run) -> int:
    """Peak traced bytes of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_laws_never_hold_the_dense_kernel():
    # law_trajectory steps through the two factor tables, so at n = 10 its
    # peak stays below one dense 2^10 x 2^10 array; kernel_plan counts it,
    # neither short by more than the row-block allowance nor loose by more
    # than half
    spec = zoo.random_certified_model(10, 0)
    peak = traced_peak(lambda: exact.law_trajectory(spec, 0, 20))
    count = exact.kernel_plan(10).nbytes + 8 * 21 * 10
    assert count / 2 <= peak <= count + lattice.BLOCK_BYTES
    assert peak < 8 * 4 ** 10


def test_law_trajectory_pushes_beside_the_two_tables_only(monkeypatch):
    # at n = 12, what law_trajectory holds at each push beyond the kernel's
    # two factor tables is its laws and its table of marginals: no (2^n, n)
    # array of per-site probabilities or of lattice bits
    n, steps = 12, 5
    spec = zoo.random_certified_model(n, 0)
    held = []

    def push(self, v, push=exact.Kernel.push):
        held.append(tracemalloc.get_traced_memory()[0] - self.low.nbytes - self.high.nbytes)
        return push(self, v)

    monkeypatch.setattr(exact.Kernel, "push", push)
    tracemalloc.start()
    try:
        exact.law_trajectory(spec, 0, steps)
    finally:
        tracemalloc.stop()
    assert len(held) == steps
    assert max(held) < (8 * n) << n


def test_empty_state_absorbing_without_colonisation():
    spec = zoo.constant_pair(n=2, c=0.0, s=0.8)
    T = transition_matrix(spec)
    assert T[0, 0] == 1.0


def test_distribution_basics(interacting):
    T = exact.kernel(interacting)
    d0 = exact.distribution(interacting, 2, 0, T)
    assert d0[2] == 1.0 and d0.sum() == 1.0
    d3 = exact.distribution(interacting, 0, 3, T)
    validate_distribution(d3)
    # matches marginal_trajectory
    assert np.allclose(marginals(d3), marginal_trajectory(interacting, 0, 3)[-1],
                       atol=1e-14)


def test_start_state_is_checked(interacting):
    T = exact.kernel(interacting)
    for x0 in (-1, 1 << interacting.n):
        # one message, the lattice's, on every route
        message = f"^state word {x0} out of range for n=2$"
        with pytest.raises(ValueError, match=message):
            marginal_trajectory(interacting, x0, 1)
        with pytest.raises(ValueError, match=message):
            marginal_trajectory(interacting, x0, 0)
        with pytest.raises(ValueError, match=message):
            exact.distribution(interacting, x0, 2, T)
        with pytest.raises(ValueError, match=message):
            path_probability(interacting, x0, TimePattern(site=0, omega=(0,)), T)


def test_law_trajectory_is_one_propagation(interacting):
    rows, law = exact.law_trajectory(interacting, 1, 6)
    assert np.array_equal(rows, marginal_trajectory(interacting, 1, 6))
    assert np.array_equal(law, exact.distribution(interacting, 1, 6,
                                                  exact.kernel(interacting)))


def test_given_kernel_is_used_and_kept(interacting):
    spec = random_model(3, seed=7)
    K = exact.kernel(spec)
    before = K.low.copy(), K.high.copy()
    # the kernel one run shares gives what a fresh kernel gives, and is kept
    assert np.array_equal(exact.distribution(spec, 5, 4, K),
                          exact.law_trajectory(spec, 5, 4)[1])
    pattern = MultiSitePattern(entries=((0, (1, 3)), (2, (2,))))
    assert (exact.multisite_probability(spec, 2, pattern, K)
            == exact.multisite_probability(spec, 2, pattern, exact.kernel(spec)))
    single = TimePattern(site=1, omega=(1, 0, 0))
    assert (path_probability(spec, 2, single, K)
            == path_probability(spec, 2, single, exact.kernel(spec)))
    assert np.array_equal(K.dense(spec), transition_matrix(spec))
    assert all(np.array_equal(a, b) for a, b in zip((K.low, K.high), before))
    # a kernel handed in is used as it is, never rebuilt from the spec: the
    # chain that keeps every bit has the identity kernel
    keep = zoo.constant_pair(n=3, c=0.0, s=1.0)
    identity = exact.kernel(keep)
    assert np.array_equal(identity.dense(keep), np.eye(8))
    assert exact.distribution(spec, 0, 1, identity)[0] == 1.0


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
    assert path_probability(interacting, 0, pattern, exact.kernel(interacting)) == 1.0


def test_single_step_pattern_matches_marginal(interacting):
    T = exact.kernel(interacting)
    for site in range(2):
        for x0 in range(4):
            p1 = marginal_trajectory(interacting, x0, 1)[1, site]
            value = path_probability(interacting, x0, TimePattern(site=site, omega=(0,)), T)
            assert value == pytest.approx(1.0 - p1, abs=5e-15)


def test_path_probability_against_naive_enumeration(interacting, broken):
    for spec in (interacting, broken):
        T = exact.kernel(spec)
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
    T = exact.kernel(spec)
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
    T = exact.kernel(interacting)
    assert path_probability(interacting, 0, long, T) == pytest.approx(
        path_probability(interacting, 0, short, T), abs=1e-15)


def test_multisite_against_naive(interacting):
    pattern = MultiSitePattern(entries=((0, (1, 3)), (1, (2,))))
    expected = naive_event_probability(interacting, 0, pattern.constraints(), 3)
    got = exact.multisite_probability(interacting, 0, pattern, exact.kernel(interacting))
    assert got == pytest.approx(expected, abs=1e-12)
    oracle = enumerate_event_probability(interacting, 0, pattern.constraints(), 3)
    assert oracle == pytest.approx(expected, abs=1e-12)


def test_empty_multisite_is_certain(interacting):
    assert exact.multisite_probability(
        interacting, 0, MultiSitePattern(entries=()), exact.kernel(interacting)) == 1.0


def test_enumeration_guard():
    # 2^(5*6) literal trajectories; propagation has no horizon guard
    spec = zoo.random_certified_model(5, 3)
    pattern = TimePattern(site=0, omega=(1,) * 5 + (0,))
    value = path_probability(spec, 0, pattern, exact.kernel(spec))
    assert 0.0 < value < 1.0


def test_state_cap():
    spec = zoo.constant_pair(n=21, c=0.2, s=0.8)
    with pytest.raises(CapacityError):
        transition_matrix(spec)


def test_capacity_rule_cost_function():
    # the rule is checked through its cost function; nothing large is allocated.
    # Beside the two factor tables a push holds four laws; its row block is
    # the allowance's
    law = 8 << 16
    assert exact.kernel_plan(16).nbytes == 4 * law + 256 * law + 256 * law
    budget = lattice.DENSE_BYTES_BUDGET - lattice.BLOCK_BYTES
    biggest = max(n for n in range(40) if exact.kernel_plan(n).nbytes <= budget)
    assert biggest == 17
    for n in (biggest + 1, 30, 60, 64):
        with pytest.raises(CapacityError, match=f"^n = {n}: the kernel's tables needs .* budget"):
            exact.kernel(zoo.constant_pair(n=n))


def test_capacity_rule_guards_dense_builders():
    budget = lattice.DENSE_BYTES_BUDGET - lattice.BLOCK_BYTES
    n = max(n for n in range(40) if exact.kernel_plan(n).nbytes <= budget) + 1
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
    # the rate table's three laws, a law's five shares and its five laws
    assert exact.spin_plan(3).nbytes == 13 * 8 * 8
    budget = lattice.DENSE_BYTES_BUDGET - lattice.BLOCK_BYTES
    n = max(n for n in range(64) if exact.spin_plan(n).nbytes <= budget) + 1
    assert n == 23 and exact.kernel_plan(n - 1).nbytes > budget
    ring = zoo.contact_ring(n)
    with pytest.raises(CapacityError, match=f"^n = {n}: the spin rate tables needs"):
        spin_generator(ring)
    # thm2 counts the tables with its grid
    with pytest.raises(CapacityError, match=f"^n = {n}, t = 1.0 over 1 grid points, "
                                            f"h = 0.001: the spin laws and ODE"):
        order.spin_marginal_bound(ring, 0, [1.0])


@pytest.mark.parametrize("n", [4, 10, 12])
def test_spin_bytes_counts_what_the_spin_engine_holds(n):
    # the rate table's build and one law from it: the count with the
    # row-block allowance covers every model, and is not loose by more than
    # half where every family takes the product form, whose bank holds the most
    count = exact.spin_plan(n).nbytes
    x0 = (1 << n) - 3
    heaviest = random_spin_model(n, 100 + n, ("product-form",))
    peaks = [traced_peak(lambda: spin_law(spin_generator(spec), x0, 0.5))
             for spec in (heaviest, zoo.contact_ring(n), random_spin_model(n, n),
                          signed_zero_model(n, n, spin=True))]
    assert count / 2 <= peaks[0] and max(peaks) <= count + lattice.BLOCK_BYTES


def test_capacity_rule_counts_every_array_held(monkeypatch):
    # a budget of exactly what each holder keeps, with the row-block
    # allowance, passes; one byte less fails
    ring = zoo.contact_ring(6)
    chain = bridge.discretise(ring, bridge.DiscretisationConfig(0.125))
    kernel = exact.kernel(chain)
    for budget, what, run in (
            # thm2 holds the spin tables, one ODE state, a segment's
            # Poisson weights and its 2 grid points, no dense array
            (exact.spin_plan(6).nbytes + 320 * 2
             + exact.poisson_plan(0.5 * exact.spin_rate_bound(ring)).nbytes,
             "n = 6, t = 1.0 over 2 grid points, h = 0.1: the spin laws and ODE",
             lambda: order.spin_marginal_bound(ring, 0, [0.5, 1.0], config=OdeConfig(h=0.1))),
            # the bridge holds one kernel at a time and its rate defect no
            # copy of it; here the spin table's build holds the most
            (bridge.convergence_plan(ring, 0.5, (0.125, 0.0625)).nbytes,
             "n = 6, t = 0.5: a kernel, the spin tables and their steps",
             lambda: bridge.convergence_table(ring, 0, 0.5, deltas=(0.125, 0.0625))),
            (exact.kernel_plan(6).nbytes, "n = 6: the kernel's tables",
             lambda: exact.kernel(chain)),
            # only the path scan expands the dense kernel
            (8 * 4 ** 6, "a dense 64 x 64 kernel", lambda: kernel.dense(chain))):
        monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", budget + lattice.BLOCK_BYTES)
        run()
        monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", budget + lattice.BLOCK_BYTES - 1)
        with pytest.raises(CapacityError, match=what):
            run()


def test_bridge_counts_a_kernel_and_the_spin_tables(monkeypatch):
    # so thm4 and the bridge reach n = 17 under the default budget
    budget = lattice.DENSE_BYTES_BUDGET - lattice.BLOCK_BYTES
    assert max(n for n in range(1, 40)
               if bridge.convergence_plan(zoo.contact_ring(n), 0.5).nbytes <= budget) == 17
    # the count is neither short by more than the row-block allowance nor
    # loose by more than half; at n = 11 the kernel's tables pass its bank,
    # so a second kernel would not fit
    for n in (8, 11):
        ring = zoo.contact_ring(n)
        count = bridge.convergence_plan(ring, 0.5, (0.125, 0.0625)).nbytes
        peak = traced_peak(lambda: bridge.convergence_table(ring, 0, 0.5, deltas=(0.125, 0.0625)))
        assert count / 2 <= peak <= count + lattice.BLOCK_BYTES
    counted = []
    monkeypatch.setattr(bridge, "check_plan", lambda plan: counted.append(plan.nbytes))
    bridge.convergence_table(zoo.contact_ring(2), 0, 0.5, deltas=(0.125,))
    # the rate table, then the larger of the spin engine's laws and, beside
    # the spin law, a kernel with its mixture's sum, and the Poisson
    # weights; the ODE paths hold one state at a time, so no other count
    # grows with t
    law, table = 8 << 2, 8 * 2 << 2
    rate = exact.spin_rate_bound(zoo.contact_ring(2))
    held = table + max(exact.spin_plan(2).nbytes - table, law + exact.kernel_plan(2).nbytes + law)
    assert counted == [held + exact.poisson_plan(0.5 * rate).nbytes]
    assert (bridge.convergence_plan(zoo.contact_ring(2), 1e6, (0.125,)).nbytes
            == held + exact.poisson_plan(1e6 * rate).nbytes)


def test_capacity_rule_counts_the_lattice_table_build(monkeypatch):
    # the kernel's lattice tables are built a row block at a time, and a
    # push holds four laws beside them: the two tables' bytes with the
    # row-block allowance are not enough, with the four laws they are
    n = 5
    spec = zoo.constant_pair(n=n)
    law = 8 << n
    tables = (law << n // 2) + (law << n - n // 2)
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", tables + lattice.BLOCK_BYTES)
    with pytest.raises(CapacityError, match="n = 5: the kernel's tables"):
        exact.kernel(spec)
    assert exact.kernel_plan(n).nbytes == tables + 4 * law
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET",
                        exact.kernel_plan(n).nbytes + lattice.BLOCK_BYTES)
    assert exact.kernel(spec).low.shape == (1 << n, 1 << n // 2)


def test_zero_step_runs_keep_the_kernel_limit(monkeypatch):
    # a run that takes no step stops at the same n as one that does
    spec = zoo.constant_pair(n=2)
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET",
                        exact.kernel_plan(2).nbytes + lattice.BLOCK_BYTES - 1)
    for run in (lambda: marginal_trajectory(spec, 0, 0),
                lambda: exact.law_trajectory(spec, 0, 0)):
        with pytest.raises(CapacityError, match="n = 2: the kernel's tables needs"):
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
                        lambda step, v0, mean: seen.append((step, mean)) or v0)
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
    w = poisson_weights(mean)
    expected = stats.poisson.pmf(np.arange(w.size), mean)
    assert np.max(np.abs(w - expected)) <= 1e-13
    # the cut is the first index whose cumulative mass reaches 1 - POISSON_TAIL
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
    dist = exact.distribution(spec, seed % 8, steps, exact.kernel(spec))
    validate_distribution(dist)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 5000))
def test_chapman_kolmogorov(seed):
    spec = zoo.random_certified_model(2, seed)
    T = exact.kernel(spec)
    d_direct = exact.distribution(spec, 0, 5, T)
    *_, d_chained = exact.propagate(T, exact.distribution(spec, 0, 2, T), 3)
    assert np.allclose(d_direct, d_chained, atol=1e-12)


def test_exact_routes_refuse_out_of_range_inputs(interacting):
    K = exact.kernel(interacting)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        exact.distribution(interacting, 0, -1, K)
    with pytest.raises(ValueError, match="steps must be >= 0"):
        exact.law_trajectory(interacting, 0, -1)
    with pytest.raises(ValueError, match="power of two"):
        marginals(np.full(3, 1 / 3))
    with pytest.raises(ValueError, match="mean must be >= 0"):
        poisson_weights(-1.0)
    with pytest.raises(ValueError, match="mean must be >= 0"):
        poisson_mixture(K.push, exact.point_mass(2, 0), -1.0)
    rates = spin_generator(zoo.contact_ring(2))
    with pytest.raises(ValueError, match="t must be >= 0"):
        exact.spin_law_from(rates, exact.point_mass(2, 0), -0.5)
    with pytest.raises(ValueError, match="constrained steps must be >= 1"):
        exact.check_constraints(2, [(0, 0)])
    with pytest.raises(ValueError, match="no mass left"):
        as_distribution(np.zeros(4))
