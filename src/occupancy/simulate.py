"""Monte Carlo for occupancy models, driven by addressed uniforms.

Every replicate r consumes the uniforms U[r, t, i] of a UniformArray and
nothing else, so runs are bitwise reproducible for a given seed whatever
the scheduling: workers process whole replicate chunks and combine exact
integer counts.  A bit turns on when its uniform falls below the
colonisation (if vacant) or survival (if occupied) probability of the
current state; where survival dominates colonisation this rule is
monotone, and raising any uniform can only turn bits off.  The engines
compare integers: a uniform u = k * 2^-53 of 53-bit word k is below p in
[0, 1] exactly when k < ceil(p * 2^53), as scaling by 2^53 is exact.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .lattice import (CALL_WORK, ENTRY_WORK, Plan, check_plan, fits, lattice_blocks, shown,
                      state_bits, sweep_work)
from .model import ModelSpec, lattice_transitions
from .streams import REPLICATE_CHUNK, UniformArray, new_bit_generator

# bit weights of state words; a float64 gemv with them is exact to 2^53
_WORD_WEIGHTS = 2.0 ** np.arange(53)
_WORD_SCALE = 2.0 ** 53


def _threshold_words(p: np.ndarray) -> np.ndarray:
    """ceil(p * 2^53) as uint64, cast in p's buffer as streams casts its words."""
    p *= _WORD_SCALE
    np.ceil(p, out=p)
    flat = p.reshape(-1)
    words = flat.view(np.uint64)
    words[...] = flat
    return words.reshape(p.shape)


def _threshold_table(spec: ModelSpec) -> np.ndarray:
    """(2^n, n) word thresholds of each bit by state word, filled a row block at a time."""
    table = np.empty((1 << spec.n, spec.n), dtype=np.uint64)
    for rows, bits in lattice_blocks(spec.n, 2 * spec.n * spec.n):
        table[rows] = _threshold_words(lattice_transitions(spec, bits))
    return table


def _thresholds(spec: ModelSpec, states: np.ndarray, table) -> np.ndarray:
    if table is None:
        # the states are lattice points too
        return _threshold_words(lattice_transitions(spec, states))
    words = (states @ _WORD_WEIGHTS[:spec.n]).astype(np.int64)
    return table.take(words, axis=0)


def step_occupancy(spec: ModelSpec, states: np.ndarray, uniforms: np.ndarray,
                   table) -> np.ndarray:
    """Advance a (B, n) batch of 0/1 states, of their dtype, one step with given uniforms.

    `uniforms` are 53-bit words, or floats u read as floor(u * 2^53), exact
    for the streams' k * 2^-53.  `table` is `_threshold_table(spec)`, or
    None to evaluate the thresholds at the states.  The engines carry
    float64 states, so that state words and site counts are BLAS products.
    """
    states, uniforms = np.asarray(states), np.asarray(uniforms)
    if states.shape != uniforms.shape or states.shape[-1] != spec.n:
        raise ValueError("states and uniforms must both have shape (B, n)")
    if uniforms.dtype != np.uint64:
        uniforms = (uniforms * _WORD_SCALE).astype(np.uint64)
    if not 5e-324 > 0.0:
        raise ArithmeticError("subnormal doubles flush to zero, so words cannot be compared")
    thr = _thresholds(spec, states, table).view(np.float64)
    # words below 2^63 read as doubles are finite, nonnegative and in the
    # same order, so the float64 compare is the integer one, faster and 128 KB
    # less of numpy's code; the 0/1 outcomes overwrite the fresh thresholds
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
    return [(chunk, min(REPLICATE_CHUNK, reps - chunk * REPLICATE_CHUNK))
            for chunk in range(-(-reps // REPLICATE_CHUNK))]


def _run_chunks(plan, worker, workers: int):
    """Run per-chunk jobs and yield their results in plan order.

    One worker runs each job as its result is asked for, so a caller that
    folds the results holds one at a time.  A pool starts no more threads
    than there are chunks or CPUs, whatever `workers` asks for.
    """
    workers = min(workers, len(plan), os.cpu_count() or 1)
    if workers <= 1:
        for chunk, rows in plan:
            yield worker(chunk, rows)
        return
    # imported here, so that no single-worker or exact route loads the pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(lambda job: worker(*job), plan)


def _bernoulli_se(count: np.ndarray, reps: int) -> np.ndarray:
    """Standard error of a mean of 0/1 replicates from the exact count; 0 for one replicate."""
    var = (count - count * (count / reps)) / max(reps - 1, 1)
    return np.sqrt(np.maximum(var, 0.0)) / np.sqrt(reps)


def _table_plan(n: int, steps: int, reps: int) -> Plan | None:
    """The route rule: the threshold table's plan where the engines read the table, else None.

    They read it, its bytes and one sweep of the lattice through the bank,
    when it fits the budgets and the sweep costs less work than the direct
    route, which evaluates 2n families at each of reps * steps states.
    """
    table = Plan(f"n = {n}: the threshold table", 8 * n << n, sweep_work(n, 2 * n * n, 30))
    return table if table.work < steps * ENTRY_WORK * 2 * n * n * reps and fits(table) else None


def simulation_plan(spec: ModelSpec, steps: int, reps: int) -> Plan:
    """`simulate_marginals`'s plan, for any number of workers.

    It holds the sum, means and ses, and every chunk's counts, which a pool
    of workers may finish before the sum reaches them; and per thread six
    (REPLICATE_CHUNK, n) arrays, for as many threads as any `workers`
    starts.  A step reads about eight entries per replicate and site, beside
    the threshold table, or the direct route's 2n families a state.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n, chunks = spec.n, -(-reps // REPLICATE_CHUNK)
    threads = min(chunks, os.cpu_count() or 1)
    table = _table_plan(n, steps, reps)
    entries = reps * n * (8 + 2 * n if table is None else 8)
    plan = Plan(f"{shown(steps)} steps, {shown(reps)} replicates: {shown(chunks + 3)} "
                f"({shown(steps + 1)}, {n}) count tables",
                8 * (chunks + 3) * (steps + 1) * n + 6 * threads * 8 * REPLICATE_CHUNK * n,
                steps * (ENTRY_WORK * entries + 10 * CALL_WORK * chunks))
    return plan if table is None else plan.then(table, beside=True)


def simulate_marginals(spec: ModelSpec, x0: int, steps: int, reps: int,
                       seed: int, workers: int = 1) -> MarginalEstimates:
    """Estimate occupation probabilities at steps 0..steps from reps paths."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    check_plan(simulation_plan(spec, steps, reps))
    ua = UniformArray(seed=seed, n_sites=spec.n)
    table = None if _table_plan(spec.n, steps, reps) is None else _threshold_table(spec)

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
