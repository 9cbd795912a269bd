"""Monte Carlo for occupancy models, driven by addressed uniforms.

Every replicate r consumes the uniforms U[r, t, i] of a UniformArray and
nothing else, so runs are bitwise reproducible for a given seed and
independent of scheduling: workers always process whole replicate chunks
and combine exact integer counts.

A bit turns on when its uniform falls below the colonisation (if vacant)
or survival (if occupied) probability of the current state.  For models
whose survival dominates colonisation this threshold rule is monotone:
raising any uniform can only turn bits off, which is what the paired-path
check below exercises.

The engines compare integers: a uniform u = k * 2^-53 of 53-bit word k is
below p in [0, 1] exactly when k < ceil(p * 2^53), as scaling by 2^53 is
exact.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .exact import MultiSitePattern, check_constraints
from .lattice import check_bytes, lattice_bits, state_bits
from .model import ModelSpec, transition_values
from .streams import REPLICATE_CHUNK, UniformArray, new_bit_generator

# the per-word threshold table is precomputed up to this dimension
_TABLE_CAP = 12
# bit weights of the state word; a float64 gemv with them is exact to 2^53
_WORD_WEIGHTS = 2.0 ** np.arange(_TABLE_CAP)
_WORD_SCALE = 2.0 ** 53


def _threshold_words(p: np.ndarray) -> np.ndarray:
    """ceil(p * 2^53) as uint64, cast in p's buffer as streams casts its words."""
    p *= _WORD_SCALE
    np.ceil(p, out=p)
    flat = p.reshape(-1)
    words = flat.view(np.uint64)
    words[...] = flat
    return words.reshape(p.shape)


def _threshold_table(spec: ModelSpec):
    """(2^n, n) word thresholds of each bit, by state word; None past the cap."""
    if spec.n > _TABLE_CAP:
        return None
    return _threshold_words(transition_values(spec, lattice_bits(spec.n)))


def _thresholds(spec: ModelSpec, states: np.ndarray, table) -> np.ndarray:
    if table is None:
        return _threshold_words(transition_values(spec, states))
    words = (states @ _WORD_WEIGHTS[:spec.n]).astype(np.int64)
    return table.take(words, axis=0)


def step_occupancy(spec: ModelSpec, states: np.ndarray, uniforms: np.ndarray,
                   table) -> np.ndarray:
    """Advance a (B, n) batch of 0/1 states one step with given uniforms.

    `uniforms` are 53-bit words, or floats u read as floor(u * 2^53), exact
    for the streams' k * 2^-53.  `table` is `_threshold_table(spec)`; None,
    as past the cap, evaluates the thresholds at the states.  The next
    states keep the dtype of `states`; the engines carry float64 states, so
    that state words and site counts are BLAS products.
    """
    states = np.asarray(states)
    uniforms = np.asarray(uniforms)
    if states.shape != uniforms.shape or states.shape[-1] != spec.n:
        raise ValueError("states and uniforms must both have shape (B, n)")
    if uniforms.dtype != np.uint64:
        uniforms = (uniforms * _WORD_SCALE).astype(np.uint64)
    if not 5e-324 > 0.0:
        raise ArithmeticError("subnormal doubles flush to zero, so words cannot be compared")
    thr = _thresholds(spec, states, table).view(np.float64)
    # words below 2^63 read as doubles are finite, nonnegative and in the
    # same order, so the float64 compare is the integer one: it is faster,
    # and numpy's integer compare would page in 128 KB more of its code.
    # The thresholds are a fresh array, which the 0/1 outcomes overwrite
    return np.less(uniforms.view(np.float64), thr, out=thr).astype(states.dtype, copy=False)


def _initial_states(x0: int, n: int, rows: int) -> np.ndarray:
    """(rows, n) float64 copies of the bits of x0, the engines' state batch."""
    return np.tile(state_bits(x0, n).astype(float), (rows, 1))


@dataclass(frozen=True, eq=False)
class McEstimate:
    mean: float
    se: float
    reps: int
    seed: int


@dataclass(frozen=True, eq=False)
class MarginalEstimates:
    """Occupation frequencies (steps+1, n) with exact-count standard errors."""

    means: np.ndarray
    ses: np.ndarray
    reps: int
    seed: int

    def estimate(self, step: int, site: int) -> McEstimate:
        return McEstimate(mean=float(self.means[step, site]),
                          se=float(self.ses[step, site]),
                          reps=self.reps, seed=self.seed)


def _chunk_plan(reps: int):
    if reps < 1:
        raise ValueError("reps must be >= 1")
    plan = []
    for chunk in range((reps + REPLICATE_CHUNK - 1) // REPLICATE_CHUNK):
        rows = min(REPLICATE_CHUNK, reps - chunk * REPLICATE_CHUNK)
        plan.append((chunk, rows))
    return plan


def _run_chunks(plan, worker, workers: int):
    """Run per-chunk jobs and yield their results in plan order.

    One worker runs each job as its result is asked for, so a caller that
    folds the results holds one at a time.
    """
    if workers <= 1:
        for chunk, rows in plan:
            yield worker(chunk, rows)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(lambda job: worker(*job), plan)


def _bernoulli_se(count: np.ndarray, reps: int) -> np.ndarray:
    """Standard error of a mean of 0/1 replicates from the exact count."""
    if reps < 2:
        return np.zeros_like(np.asarray(count, float))
    var = (count - count * (count / reps)) / (reps - 1)
    return np.sqrt(np.maximum(var, 0.0)) / np.sqrt(reps)


def simulate_marginals(spec: ModelSpec, x0: int, steps: int, reps: int,
                       seed: int, workers: int = 1) -> MarginalEstimates:
    """Estimate occupation probabilities at steps 0..steps from reps paths."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    chunks = -(-reps // REPLICATE_CHUNK)
    # the sum, means and ses, and every chunk's counts, which a pool of
    # workers may finish before the sum reaches them; one rule for every
    # worker count, so --workers never decides whether a run is accepted
    check_bytes(8 * (chunks + 3) * (steps + 1) * spec.n,
                f"{steps} steps, {reps} replicates: {chunks + 3} ({steps + 1}, {spec.n}) "
                f"count tables")
    ua = UniformArray(seed=seed, n_sites=spec.n)
    table = _threshold_table(spec)

    def run(chunk: int, rows: int) -> np.ndarray:
        bitgen = new_bit_generator()
        states = _initial_states(x0, spec.n, rows)
        # per-site counts as a gemv; exact, as they are integers up to rows
        ones = np.ones(rows)
        counts = np.zeros((steps + 1, spec.n), dtype=np.int64)
        counts[0] = ones @ states
        for t in range(1, steps + 1):
            # the words are bound to no name, so the last step's are freed
            # before the next draw: two chunk arrays live while drawing, not three
            states = step_occupancy(
                spec, states, ua.chunk_values(t, chunk, rows, words=True, bitgen=bitgen), table)
            counts[t] = ones @ states
        return counts

    counts = sum(_run_chunks(_chunk_plan(reps), run, workers))
    return MarginalEstimates(means=counts / reps, ses=_bernoulli_se(counts, reps),
                             reps=reps, seed=seed)


def simulate_event_probability(spec: ModelSpec, x0: int, pattern: MultiSitePattern,
                               reps: int, seed: int, workers: int = 1) -> McEstimate:
    """Estimate the probability of a joint vacancy pattern."""
    check_constraints(spec.n, pattern.constraints())
    horizon = pattern.horizon
    by_time: dict[int, list[int]] = {}
    for site, t in pattern.constraints():
        by_time.setdefault(t, []).append(site)
    ua = UniformArray(seed=seed, n_sites=spec.n)
    table = _threshold_table(spec)

    def run(chunk: int, rows: int) -> np.ndarray:
        bitgen = new_bit_generator()
        states = _initial_states(x0, spec.n, rows)
        alive = np.ones(rows, dtype=bool)
        for t in range(1, horizon + 1):
            states = step_occupancy(
                spec, states, ua.chunk_values(t, chunk, rows, words=True, bitgen=bitgen), table)
            for site in by_time.get(t, ()):
                alive &= states[:, site] == 0
        return np.asarray(alive.sum(), dtype=np.int64)

    count = int(sum(_run_chunks(_chunk_plan(reps), run, workers)))
    return McEstimate(mean=count / reps, se=float(_bernoulli_se(np.asarray(count), reps)),
                      reps=reps, seed=seed)


def monotone_path_check(spec: ModelSpec, x0: int, steps: int, reps: int, seed: int,
                        gamma: float = 0.5, workers: int = 1) -> int:
    """Count order violations between paths driven by U and by U**gamma.

    U**gamma dominates U pointwise (gamma in (0,1]) and the threshold rule
    is antitone in its uniforms for survival-dominant monotone models, so
    the powered path should sit below the plain one at every site and step.
    Returns the number of (replicate, step, site) triples where it does not.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    ua = UniformArray(seed=seed, n_sites=spec.n)
    table = _threshold_table(spec)

    def run(chunk: int, rows: int) -> np.ndarray:
        bitgen = new_bit_generator()
        lo = _initial_states(x0, spec.n, rows)
        hi = lo.copy()
        bad = 0
        for t in range(1, steps + 1):
            u = ua.chunk_values(t, chunk, rows, bitgen=bitgen)
            hi = step_occupancy(spec, hi, u, table)
            lo = step_occupancy(spec, lo, u ** gamma, table)
            bad += int(np.sum(lo > hi))
        return np.asarray(bad, dtype=np.int64)

    return int(sum(_run_chunks(_chunk_plan(reps), run, workers)))
