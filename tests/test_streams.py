import tracemalloc

import numpy as np
import pytest

from occupancy import zoo
from occupancy.simulate import simulate_marginals
from occupancy.streams import (DOMAIN_ASSUMPTIONS, DOMAIN_SIMULATION,
                               REPLICATE_CHUNK, UniformArray,
                               assumption_uniforms, new_bit_generator,
                               uniform_stream)

from conftest import generator_stream, philox_uniforms


def test_streams_are_pure_functions_of_their_address():
    a = uniform_stream(7, DOMAIN_SIMULATION, 3, 5, 64)
    b = uniform_stream(7, DOMAIN_SIMULATION, 3, 5, 64)
    assert np.array_equal(a, b)


def test_prefixes_are_consistent():
    long = uniform_stream(7, DOMAIN_SIMULATION, 3, 5, 256)
    short = uniform_stream(7, DOMAIN_SIMULATION, 3, 5, 32)
    assert np.array_equal(long[:32], short)


@pytest.mark.parametrize("other", [
    dict(seed=8, domain=DOMAIN_SIMULATION, lane=3, block=5),
    dict(seed=7, domain=DOMAIN_ASSUMPTIONS, lane=3, block=5),
    dict(seed=7, domain=DOMAIN_SIMULATION, lane=4, block=5),
    dict(seed=7, domain=DOMAIN_SIMULATION, lane=3, block=6),
])
def test_distinct_addresses_give_distinct_streams(other):
    base = uniform_stream(7, DOMAIN_SIMULATION, 3, 5, 128)
    alt = uniform_stream(other["seed"], other["domain"], other["lane"],
                         other["block"], 128)
    assert not np.array_equal(base, alt)


def test_values_in_unit_interval():
    u = uniform_stream(0, DOMAIN_SIMULATION, 0, 0, 10_000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.02


def test_uniform_array_addressing_is_consistent():
    ua = UniformArray(seed=42, n_sites=5)
    full = ua.chunk_values(step=2, chunk_index=1)
    assert full.shape == (REPLICATE_CHUNK, 5)
    # row r of the chunk is replicate chunk*REPLICATE_CHUNK + r
    rep = REPLICATE_CHUNK + 17
    assert np.array_equal(ua.replicate_values(rep, 2), full[17])
    assert ua.value(rep, 2, 3) == full[17, 3]
    # partial chunks are prefixes
    part = ua.chunk_values(step=2, chunk_index=1, rows=18)
    assert np.array_equal(part, full[:18])


def test_uniform_array_steps_and_seeds_differ():
    ua = UniformArray(seed=42, n_sites=5)
    ub = UniformArray(seed=43, n_sites=5)
    assert not np.array_equal(ua.chunk_values(1, 0), ua.chunk_values(2, 0))
    assert not np.array_equal(ua.chunk_values(1, 0), ub.chunk_values(1, 0))


def test_assumption_lanes_are_reproducible_and_disjoint():
    a = assumption_uniforms(1, lane=0, count=100)
    b = assumption_uniforms(1, lane=1, count=100)
    assert np.array_equal(a, assumption_uniforms(1, lane=0, count=100))
    assert not np.array_equal(a, b)


def test_rejects_bad_arguments():
    ua = UniformArray(seed=0, n_sites=2)
    with pytest.raises(ValueError):
        ua.chunk_values(1, 0, rows=0)
    with pytest.raises(ValueError):
        ua.value(0, 1, site=2)
    with pytest.raises(ValueError):
        uniform_stream(0, 0, 0, 0, -1)


def test_seeds_above_float_precision_give_distinct_streams():
    # the key is a uint64 array, so seeds past float64 precision stay apart
    a = uniform_stream(2 ** 60, DOMAIN_SIMULATION, 0, 0, 64)
    b = uniform_stream(2 ** 60 + 1, DOMAIN_SIMULATION, 0, 0, 64)
    assert not np.array_equal(a, b)
    top = uniform_stream(2 ** 64 - 1, DOMAIN_SIMULATION, 0, 0, 64)
    assert not np.array_equal(top, uniform_stream(0, DOMAIN_SIMULATION, 0, 0, 64))


def test_seed_77_reproduces_the_generator_values():
    # counts short and long, multiples of four words and not
    for count in (0, 1, 3, 5, 64, 1023, 2 ** 14, 2 ** 14 + 1, 2 ** 15 + 3):
        assert np.array_equal(uniform_stream(77, DOMAIN_SIMULATION, 2, 3, count),
                              generator_stream(77, DOMAIN_SIMULATION, 2, 3, count))


def test_draw_holds_no_second_array_of_its_size():
    # the words are cast to doubles in their own buffer; a ufunc writing into
    # a view of its input would first copy it, 8 more bytes per word
    count = 1 << 17
    tracemalloc.start()
    try:
        uniform_stream(77, DOMAIN_ASSUMPTIONS, 0, 0, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * count + (64 << 10)


@pytest.mark.parametrize("seed", [0, 77, 2 ** 53 + 1, 2 ** 64 - 1])
def test_streams_follow_the_written_philox(seed):
    # the README's layout, reproduced without numpy's generators
    for domain, lane, block in [(0, 0, 0), (0, 20, 390), (1, 3, 0)]:
        assert np.array_equal(uniform_stream(seed, domain, lane, block, 9),
                              philox_uniforms(seed, domain, lane, block, 9))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, -(2 ** 64)])
def test_out_of_range_seeds_are_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        uniform_stream(seed, DOMAIN_SIMULATION, 0, 0, 4)
    with pytest.raises(ValueError, match="seed"):
        assumption_uniforms(seed, 0, 4)
    with pytest.raises(ValueError, match="seed"):
        UniformArray(seed=seed, n_sites=2)


@pytest.mark.parametrize("rows", [1, 17, REPLICATE_CHUNK])
@pytest.mark.parametrize("n", [1, 5, 12])
def test_chunk_values_match_the_generator_oracle(rows, n):
    ua = UniformArray(seed=77, n_sites=n)
    for step, chunk in [(0, 0), (1, 0), (3, 2), (20, 390)]:
        oracle = generator_stream(77, DOMAIN_SIMULATION, step, chunk, rows * n)
        assert np.array_equal(ua.chunk_values(step, chunk, rows),
                              oracle.reshape(rows, n))


@pytest.mark.parametrize("seed", [0, 7, 2 ** 53 - 1])
def test_assumption_uniforms_match_the_generator_oracle(seed):
    for lane, count in [(0, 1), (3, 17), (12, 4096 * 5)]:
        assert np.array_equal(assumption_uniforms(seed, lane, count),
                              generator_stream(seed, DOMAIN_ASSUMPTIONS, lane, 0, count))


def test_a_reused_bit_generator_draws_as_a_fresh_one():
    # every draw sets the whole Philox state, the unread words of the last
    # draw included: 5 and 17 words leave some in its buffer
    ua = UniformArray(seed=2 ** 53 + 1, n_sites=5)
    bitgen = new_bit_generator()
    for step, chunk, rows in [(1, 0, 1), (3, 2, 17), (1, 0, 1), (20, 390, REPLICATE_CHUNK)]:
        for words in (False, True):
            reused = ua.chunk_values(step, chunk, rows, words=words, bitgen=bitgen)
            assert np.array_equal(reused, ua.chunk_values(step, chunk, rows, words=words))
    oracle = generator_stream(2 ** 52, DOMAIN_SIMULATION, 3, 2, 5 * 17)
    words = UniformArray(seed=2 ** 52, n_sites=5).chunk_values(3, 2, 17, words=True,
                                                               bitgen=bitgen)
    assert words.dtype == np.uint64 and words.max() < 2 ** 53
    assert np.array_equal(words * 2.0 ** -53, oracle.reshape(17, 5))


def test_simulation_is_thread_safe():
    # three chunks, drawn by four threads at once, against one thread
    spec = zoo.random_certified_model(5, 3)
    reps = 2 * REPLICATE_CHUNK + 1
    one = simulate_marginals(spec, 0, 12, reps, seed=11, workers=1)
    four = simulate_marginals(spec, 0, 12, reps, seed=11, workers=4)
    assert one.means.tobytes() == four.means.tobytes()
    assert one.ses.tobytes() == four.ses.tobytes()
