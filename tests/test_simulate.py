from fractions import Fraction
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy import exact, simulate, zoo
from occupancy.exact import MultiSitePattern
from occupancy.simulate import (monotone_path_check, simulate_event_probability,
                                simulate_marginals, step_occupancy)
from occupancy.model import FunctionFamily, ModelSpec
from occupancy.streams import REPLICATE_CHUNK, UniformArray

from conftest import family_site_values, float_route_paths, random_model

# random models of every variant, with pins, clamps and negative scales
RANDOM_MODELS = [(n, seed) for seed, n in enumerate((1, 2, 3, 4, 5, 6, 3, 4))]


def test_step_matches_naive_thresholds(interacting, broken):
    rng = np.random.default_rng(0)
    for spec in [interacting, broken] + [random_model(*m) for m in RANDOM_MODELS]:
        states = rng.integers(0, 2, size=(64, spec.n)).astype(np.int8)
        u = rng.uniform(size=(64, spec.n))
        nxt = step_occupancy(spec, states, u, simulate._threshold_table(spec))
        for r in range(64):
            point = states[r].astype(float)
            for i in range(spec.n):
                if states[r, i]:
                    thr = spec.survival[i].eval(point)
                else:
                    thr = spec.colonisation[i].eval(point)
                assert nxt[r, i] == (1 if u[r, i] < thr else 0)


def test_step_extremes(interacting):
    states = np.array([[0, 1], [1, 0]], dtype=np.int8)
    ones = np.ones_like(states, dtype=float)
    zeros = np.zeros_like(states, dtype=float)
    table = simulate._threshold_table(interacting)
    assert np.all(step_occupancy(interacting, states, ones, table) == 0)
    assert np.all(step_occupancy(interacting, states, zeros, table) == 1)


def test_step_compares_words_with_their_thresholds(interacting):
    # a word equal to its threshold ceil(p * 2^53) stays off, one below turns on
    table = simulate._threshold_table(interacting)
    states = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
    thr = simulate._thresholds(interacting, states, table)
    for below, on in [(0, 0.0), (1, 1.0)]:
        words = thr - np.uint64(below)
        assert np.all(step_occupancy(interacting, states, words, table) == on)
        assert np.all(step_occupancy(interacting, states, words * 2.0 ** -53, table) == on)


def test_table_and_direct_threshold_routes_agree():
    # above the table cap thresholds are evaluated directly; both routes
    # must equal the per-family choice of survival (occupied) or
    # colonisation (vacant), bit for bit, as the word thresholds
    # ceil(p * 2^53) the engines compare their uniforms' words with
    rng = np.random.default_rng(1)
    for spec in [zoo.random_certified_model(3, 77)] + [random_model(*m) for m in RANDOM_MODELS]:
        states = rng.integers(0, 2, size=(200, spec.n)).astype(np.int8)
        c, s = family_site_values(spec, states.astype(float))
        oracle = np.ceil(np.where(states > 0, s, c) * 2.0 ** 53).astype(np.uint64)
        tabled = simulate._thresholds(spec, states, simulate._threshold_table(spec))
        direct = simulate._thresholds(spec, states, None)
        assert np.array_equal(tabled, oracle)
        assert np.array_equal(direct, oracle)
    big = zoo.random_certified_model(13, 78)
    assert simulate._threshold_table(big) is None


def test_marginals_match_manual_replicate_loop(interacting):
    reps, steps, seed = 5, 4, 13
    est = simulate_marginals(interacting, 1, steps, reps, seed)
    ua = UniformArray(seed=seed, n_sites=2)
    counts = np.zeros((steps + 1, 2), dtype=int)
    table = simulate._threshold_table(interacting)
    for r in range(reps):
        state = exact.state_bits(1, 2).astype(np.int8)[None, :]
        counts[0] += state[0]
        for t in range(1, steps + 1):
            u = ua.replicate_values(r, t)[None, :]
            state = step_occupancy(interacting, state, u, table)
            counts[t] += state[0]
    assert np.array_equal(est.means, counts / reps)


def test_worker_counts_do_not_change_results(interacting):
    reps = 2 * REPLICATE_CHUNK + 355
    one = simulate_marginals(interacting, 0, 6, reps, seed=3, workers=1)
    eight = simulate_marginals(interacting, 0, 6, reps, seed=3, workers=8)
    assert np.array_equal(one.means, eight.means)
    assert np.array_equal(one.ses, eight.ses)


def test_same_seed_same_output_different_seed_not(interacting):
    a = simulate_marginals(interacting, 0, 5, 4000, seed=11)
    b = simulate_marginals(interacting, 0, 5, 4000, seed=11)
    c = simulate_marginals(interacting, 0, 5, 4000, seed=12)
    assert np.array_equal(a.means, b.means)
    assert not np.array_equal(a.means, c.means)


def test_estimates_match_exact_within_sampling_error(interacting):
    est = simulate_marginals(interacting, 0, 10, 100_000, seed=7)
    truth = exact.marginal_trajectory(interacting, 0, 10)
    z = np.abs(est.means - truth) / np.where(est.ses > 0, est.ses, np.inf)
    assert z.max() < 4.0


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(1, 6), model_seed=st.integers(0, 10_000),
       x0_seed=st.integers(0, 63), seed=st.integers(0, 2 ** 32 - 1))
def test_marginals_within_five_se_of_exact(n, model_seed, x0_seed, seed):
    # random models of every variant, with pins, clamps and negative scales
    spec = random_model(n, model_seed)
    x0 = x0_seed % (1 << n)
    reps, steps = 3000, 6
    est = simulate_marginals(spec, x0, steps, reps, seed=seed)
    truth = exact.marginal_trajectory(spec, x0, steps)
    # the larger of the sample's se and the exact law's: a rare site whose
    # replicates all agree has a sample se of 0 but is still sampled
    se = np.maximum(est.ses, np.sqrt(np.maximum(truth * (1.0 - truth), 0.0) / reps))
    assert np.all(np.abs(est.means - truth) <= 5.0 * se + 1e-12)


def test_one_step_law_chi_square(interacting):
    # empirical next-state frequencies against the kernel row, each start state
    T = exact.transition_matrix(interacting)
    table = simulate._threshold_table(interacting)
    reps = 100_000
    ua = UniformArray(seed=21, n_sites=2)
    for x0 in range(4):
        states = np.tile(exact.state_bits(x0, 2).astype(np.int8), (reps, 1))
        out = np.zeros(reps, dtype=int)
        done = 0
        for chunk in range((reps + REPLICATE_CHUNK - 1) // REPLICATE_CHUNK):
            rows = min(REPLICATE_CHUNK, reps - done)
            u = ua.chunk_values(1, chunk, rows)
            nxt = step_occupancy(interacting, states[done:done + rows], u, table)
            out[done:done + rows] = nxt @ np.array([1, 2])
            done += rows
        freq = np.bincount(out, minlength=4)
        expected = T[x0] * reps
        chi2 = float(np.sum((freq - expected) ** 2 / expected))
        # df = 3; generous deterministic bound
        assert chi2 < 25.0


def test_se_formula_matches_sample_variance(interacting):
    reps, steps = 500, 3
    est = simulate_marginals(interacting, 0, steps, reps, seed=5)
    ua = UniformArray(seed=5, n_sites=2)
    rows = np.zeros((reps, 2), dtype=np.int8)
    states = np.tile(exact.state_bits(0, 2).astype(np.int8), (reps, 1))
    table = simulate._threshold_table(interacting)
    for t in range(1, steps + 1):
        done = 0
        for chunk in range((reps + REPLICATE_CHUNK - 1) // REPLICATE_CHUNK):
            n_rows = min(REPLICATE_CHUNK, reps - done)
            u = ua.chunk_values(t, chunk, n_rows)
            states[done:done + n_rows] = step_occupancy(
                interacting, states[done:done + n_rows], u, table)
            done += n_rows
    rows = states
    for i in range(2):
        sample = rows[:, i].astype(float)
        assert est.ses[steps, i] == pytest.approx(
            sample.std(ddof=1) / np.sqrt(reps), rel=1e-12)


def test_zero_step_estimates_are_exact(interacting):
    est = simulate_marginals(interacting, 2, 0, 100, seed=0)
    assert np.array_equal(est.means[0], [0.0, 1.0])
    assert np.array_equal(est.ses[0], [0.0, 0.0])


def test_event_probability_against_exact(interacting):
    pattern = MultiSitePattern(entries=((0, (1, 3)), (1, (2,))))
    truth = exact.multisite_probability(interacting, 0, pattern,
                                        exact.kernel(interacting))
    est = simulate_event_probability(interacting, 0, pattern, 100_000, seed=19)
    assert abs(est.mean - truth) < 4.0 * est.se
    est8 = simulate_event_probability(interacting, 0, pattern, 100_000, seed=19,
                                      workers=8)
    assert est.mean == est8.mean and est.se == est8.se


@pytest.mark.parametrize("site", [-1, 3])
def test_event_probability_rejects_sites_off_the_model(site):
    # as the exact engine does: site -1 is not read as the last site
    spec = zoo.random_certified_model(3, 0)
    pattern = MultiSitePattern(entries=((site, (1,)),))
    with pytest.raises(ValueError, match=f"site {site} out of range"):
        exact.multisite_probability(spec, 0, pattern, exact.kernel(spec))
    with pytest.raises(ValueError, match=f"site {site} out of range"):
        simulate_event_probability(spec, 0, pattern, 100, seed=0)


def test_monotone_check_clean_on_certified_models(certified_suite):
    for spec in certified_suite:
        assert monotone_path_check(spec, 0, 10, 10_000, seed=3) == 0


def test_monotone_check_detects_broken_model(broken):
    assert monotone_path_check(broken, 0, 10, 10_000, seed=3) > 0


def test_monotone_check_gamma_one_is_identity(interacting):
    assert monotone_path_check(interacting, 0, 10, 2000, seed=1, gamma=1.0) == 0


def test_estimate_accessor(interacting):
    est = simulate_marginals(interacting, 0, 3, 1000, seed=2)
    one = est.estimate(3, 1)
    assert one.mean == est.means[3, 1]
    assert one.reps == 1000 and one.seed == 2


def test_input_validation(interacting):
    with pytest.raises(ValueError):
        simulate_marginals(interacting, 0, -1, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_marginals(interacting, 0, 1, 0, seed=0)
    with pytest.raises(ValueError):
        monotone_path_check(interacting, 0, 5, 10, seed=0, gamma=0.0)
    with pytest.raises(ValueError):
        step_occupancy(interacting, np.zeros((4, 2), dtype=np.int8),
                       np.zeros((4, 3)), None)


def _saturating_model():
    """Three sites whose thresholds take exactly 0 and exactly 1, by level and by clamp."""
    def const(c):
        return FunctionFamily(variant="constant", n=3, params={"c": c})
    clamped = FunctionFamily(variant="affine-saturated", n=3,
                             params={"a": 0.0, "b": [0.7, 0.0, 0.7]})
    return ModelSpec(n=3, colonisation=(const(0.0), clamped, const(1.0)),
                     survival=(const(1.0), const(0.0), clamped))


# random models of every variant, the 0/1 thresholds, and one past the table cap
_BYTE_IDENTITY_MODELS = ([(random_model, m) for m in RANDOM_MODELS]
                         + [(lambda n, seed: _saturating_model(), (3, 0)),
                            (random_model, (simulate._TABLE_CAP + 1, 5))])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("build, args", _BYTE_IDENTITY_MODELS)
def test_engines_count_as_the_float_rule(build, args, workers):
    spec = build(*args)
    n, steps, x0 = spec.n, 4, (1 << spec.n) - 2
    # three chunks, the last one partial, for three workers to share
    reps, seed = 2 * REPLICATE_CHUNK + 37, 2 ** 53 + args[1]
    paths = float_route_paths(spec, x0, steps, reps, seed)
    est = simulate_marginals(spec, x0, steps, reps, seed, workers=workers)
    counts = paths.sum(axis=1, dtype=np.int64)
    assert est.means.tobytes() == (counts / reps).tobytes()
    entries = ((0, (1, steps)),) + (((n - 1, (2,)),) if n > 1 else ())
    event = simulate_event_probability(spec, x0, MultiSitePattern(entries=entries),
                                       reps, seed, workers=workers)
    vacant = [paths[t, :, site] == 0 for site, times in entries for t in times]
    assert event.mean == int(np.logical_and.reduce(vacant).sum()) / reps


def test_saturating_model_thresholds_are_zero_and_one():
    table = simulate._threshold_table(_saturating_model())
    assert table.min() == 0 and table.max() == 1 << 53


# thresholds at the edges of [0, 1] and of the 2^-53 grid
_EDGE_THRESHOLDS = (0.0, 1.0, 5e-324, 2.0 ** -1022, 2.0 ** -53, np.nextafter(2.0 ** -53, 0.0),
                    np.nextafter(2.0 ** -53, 1.0), 0.5, np.nextafter(0.5, 1.0),
                    np.nextafter(1.0, 0.0))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(p=st.one_of(st.sampled_from(_EDGE_THRESHOLDS), st.floats(0.0, 1.0)),
       k=st.integers(0, 2 ** 53 - 1), near=st.sampled_from((None, -1, 0, 1)))
def test_word_rule_is_the_float_rule(p, k, near):
    # u = k * 2^-53 < p exactly when k < ceil(p * 2^53)
    c = int(simulate._threshold_words(np.array([p]))[0])
    assert c == math.ceil(Fraction(p) * 2 ** 53)
    if near is not None:
        k = min(max(c + near, 0), 2 ** 53 - 1)
    assert (k * 2.0 ** -53 < p) == (k < c)
