"""Exact computations on the full state space {0,1}^n of `occupancy.lattice`'s words.

Everything here enumerates the 2^n states and is the ground truth the
approximate modules are checked against; each route checks its plan
(`lattice.check_plan`) before it allocates anything.

The chain's kernel is one `Kernel`, built once per run by `kernel`.  Bits
update conditionally independently given the state, so the kernel splits
exactly into two half-site factor tables, `T[w, y] = low[w, y_low] *
high[w, y_high]`.  A single law is pushed by the one loop in `propagate`
through those tables in row blocks (2 * 4^n flops), never a third
table-sized array; the per-site probabilities are read a row block at a
time, by `model.lattice_transitions`, where needed.  Only the path scan of
`occupancy.order` expands the dense 2^n x 2^n matrix, `Kernel.dense`.  A
spin generator is its (2^n, n) rate table, `spin_generator`: spin laws
take matrix-free uniformised steps, in O(n 2^n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import (CALL_WORK, ENTRY_WORK, Plan, block_count, check_plan, check_word,
                      lattice_blocks, row_blocks, shown, state_bits, sweep_work)
from .model import ModelSpec, SpinSpec, lattice_transitions

DIST_ATOL = 1e-12
# Poisson mass left out of every uniformised mixture
POISSON_TAIL = 1e-12


def validate_distribution(dist: np.ndarray, atol: float = DIST_ATOL):
    dist = np.asarray(dist, float)
    if dist.ndim != 1 or dist.size & (dist.size - 1):
        raise ValueError("distribution length must be a power of two")
    if np.any(dist < 0):
        raise ValueError("distribution has negative mass")
    if abs(dist.sum() - 1.0) > atol:
        raise ValueError(f"distribution mass {dist.sum()} not within {atol} of 1")


def as_distribution(values: np.ndarray) -> np.ndarray:
    """Clamp tiny negative round-off to zero and renormalise."""
    v = np.clip(np.asarray(values, float), 0.0, None)
    total = v.sum()
    if total <= 0:
        raise ValueError("no mass left after clamping")
    return v / total


def _expand(table: np.ndarray, q: np.ndarray, width: int) -> np.ndarray:
    """Expand `table`'s first `width` rows over the sites of `q`'s columns, in place.

    Column r of `table` is the state of row r of `q`.  Once the sites
    before column i are expanded, row y < width holds the product of their
    factors for the bits of y; site i splits it into rows y (times 1 - q_i)
    and y + width (times q_i), contiguous, with no full-size temporary.
    """
    for i in range(q.shape[1]):
        qi = q[:, i]
        np.multiply(table[:width], qi, out=table[width:2 * width])
        table[:width] *= 1.0 - qi
        width *= 2
    return table


@dataclass(frozen=True, eq=False)
class Kernel:
    """The chain's one-step kernel as two half-site factor tables, and nothing else.

    `low[w, y_low]` is the product of the factors of sites 0..h-1 and
    `high[w, y_high]` that of sites h..n-1, h = n // 2, so the kernel is
    `T[w, y] = low[w, y & (2^h - 1)] * high[w, y >> h]`.  With q[w, i] the
    chance that bit i is on after one step from w, entry T[w, y] is the
    product, in site order, of q[w, i] where bit i of y is set and
    1 - q[w, i] where it is not.  `largest_exit` is the largest chance of
    leaving a state in one step, max_w (1 - T[w, w]), read by `kernel`
    while it fills the tables.
    """

    low: np.ndarray
    high: np.ndarray
    largest_exit: float

    def push(self, v: np.ndarray) -> np.ndarray:
        """The law v T, summed over `lattice.row_blocks` of states; never the dense matrix.

        Block b contributes `high[b].T @ (v[b, None] * low[b])`; up to
        n = 11 one block covers every state, and past it the blocks' sums
        differ from one product by round-off.
        """
        low, high = self.low, self.high
        blocks = row_blocks(v.size, low.shape[1])
        block = next(blocks)
        out = high[block].T @ (v[block, None] * low[block])
        for block in blocks:
            out += high[block].T @ (v[block, None] * low[block])
        return out.ravel()

    def dense(self, spec: ModelSpec) -> np.ndarray:
        """The dense 2^n x 2^n kernel of `spec`, the chain this kernel was built for.

        `low` is expanded over the sites of `high`, whose probabilities are
        read again from `spec` a row block at a time.
        """
        size, width = self.low.shape
        check_plan(Plan(f"a dense {size} x {size} kernel", 8 * size * size))
        T = np.empty((size, size))
        for rows, bits in lattice_blocks(spec.n, size):
            block = np.empty((size, bits.shape[0]))
            block[:width] = self.low[rows].T
            q = lattice_transitions(spec, bits)[:, spec.n // 2:]
            T[rows] = _expand(block, q, width).T
        return T


def kernel_plan(n: int, pushes: float = 0) -> Plan:
    """A kernel's two tables and the four laws of a push; its build and `pushes` pushes.

    A push is 2 * 4^n flops and a pass over each row block's product; the
    row blocks of a push, a build and a law's marginals are the allowance's.
    """
    law, half, entries = 8 << n, n // 2, 1 << n + n // 2
    blocks = block_count(1 << n, 1 << half)
    push = 2.0 * 4 ** n + ENTRY_WORK * float(entries + (blocks << n)) + 5 * CALL_WORK * blocks
    return Plan(f"n = {n}: the kernel's tables", (law << half) + (law << n - half) + 4 * law,
                sweep_work(n, n * n + (1 << half) + (1 << n - half), 4 * n + 30) + pushes * push)


def kernel(spec: ModelSpec) -> Kernel:
    """The chain's kernel, after `kernel_plan` is checked: every single-law route reaches n = 17.

    Both tables are filled a row block of states at a time, from the
    block's per-site probabilities, read once.  The block's least T[w, w]
    = low[w, w_low] * high[w, w_high], w = w_high 2^h + w_low, is read
    from them too: each half's product of the sites' chances of keeping
    w's bits, in site order, as the tables multiply them, so bit for bit.
    """
    n, half = spec.n, spec.n // 2
    check_plan(kernel_plan(n))
    low, high = np.empty((1 << n, 1 << half)), np.empty((1 << n, 1 << n - half))
    stay = math.inf
    # a state takes its rows of both tables and n^2 bank terms, n coordinates a family
    for rows, bits in lattice_blocks(n, n * n + low.shape[1] + high.shape[1]):
        q = lattice_transitions(spec, bits)
        low[rows] = _factor_rows(q[:, :half])
        high[rows] = _factor_rows(q[:, half:])
        keep = np.where(bits > 0, q, 1.0 - q)
        stay = min(stay, float(np.min(keep[:, :half].prod(axis=1) * keep[:, half:].prod(axis=1))))
    return Kernel(low, high, 1.0 - stay)


def _factor_rows(q: np.ndarray) -> np.ndarray:
    """(rows, 2^k) products of the k sites' factors in `q`'s columns, per row of `q`.

    They are expanded in the transposed layout, whose rows are contiguous,
    and returned as its transpose.
    """
    block = np.empty((1 << q.shape[1], q.shape[0]))
    block[0] = 1.0
    return _expand(block, q, 1).T


def transition_matrix(spec: ModelSpec) -> np.ndarray:
    """Dense one-step kernel, `kernel(spec).dense(spec)`."""
    return kernel(spec).dense(spec)


def point_mass(n: int, x0: int) -> np.ndarray:
    """The law concentrated on state word x0."""
    check_word(x0, n)
    check_plan(Plan(f"n = {n}: a law on 2^{n} states", 8 << n))
    v = np.zeros(1 << n)
    v[x0] = 1.0
    return v


def propagate(kernel: Kernel, v: np.ndarray, steps: int, vacate=None):
    """Yield the laws v T^t for t = 1..steps, a `kernel.push` each: every single exact law.

    `vacate` maps a step to the sites demanded vacant there: right after
    that step their occupied states are zeroed, so the yielded vectors
    carry only the mass of paths meeting every demand so far.
    """
    words = np.arange(v.size) if vacate else None
    for t in range(1, steps + 1):
        v = kernel.push(v)
        for site in vacate.get(t, ()) if vacate else ():
            v = v * (1 - ((words >> site) & 1))
        yield v


def distribution(spec: ModelSpec, x0: int, steps: int, kernel: Kernel) -> np.ndarray:
    """Law after `steps` steps from x0 under the chain's kernel."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    v = point_mass(spec.n, x0)
    for v in propagate(kernel, v, steps):
        pass
    return v


def marginals(dist: np.ndarray) -> np.ndarray:
    """Per-site occupation probabilities of a state distribution."""
    dist = np.asarray(dist, float)
    n = int(math.log2(dist.size))
    if 1 << n != dist.size:
        raise ValueError("distribution length must be a power of two")
    # summed a row block of bits at a time: one block up to n = 12
    blocks = lattice_blocks(n, n)
    rows, bits = next(blocks)
    out = bits.T @ dist[rows]
    for rows, bits in blocks:
        out += bits.T @ dist[rows]
    return out


def trajectory_plan(n: int, steps: int) -> Plan:
    """`law_trajectory`'s plan: a kernel and its pushes, beside a table of marginals."""
    return kernel_plan(n, steps).then(
        Plan(f"{shown(steps)} steps: a ({shown(steps + 1)}, {n}) table of marginals",
             8 * (steps + 1) * n, (steps + 1) * sweep_work(n, n, 6)), beside=True)


def law_trajectory(spec: ModelSpec, x0: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(steps+1, n) exact occupation probabilities from x0, and the law at steps.

    The kernel is built even for no step: a run stops at the same n at any length.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    check_word(x0, spec.n)
    check_plan(trajectory_plan(spec.n, steps))
    K = kernel(spec)
    v = point_mass(spec.n, x0)
    out = np.empty((steps + 1, spec.n))
    out[0] = marginals(v)
    for t, v in enumerate(propagate(K, v, steps), start=1):
        out[t] = marginals(v)
    return out, v


def marginal_trajectory(spec: ModelSpec, x0: int, steps: int) -> np.ndarray:
    """(steps+1, n) exact occupation probabilities from a point mass at x0."""
    return law_trajectory(spec, x0, steps)[0]


# -- event patterns ----------------------------------------------------------


@dataclass(frozen=True)
class TimePattern:
    """One site observed at steps 1..m; omega[t-1] = 0 demands vacancy at t, 1 nothing.

    Its probability is the chance that the site's path is vacant wherever omega is 0.
    """

    site: int
    omega: tuple[int, ...]

    def __post_init__(self):
        if len(self.omega) < 1:
            raise ValueError("omega must have at least one entry")
        if any(w not in (0, 1) for w in self.omega):
            raise ValueError("omega entries must be 0 or 1")
        object.__setattr__(self, "omega", tuple(int(w) for w in self.omega))

    @property
    def horizon(self) -> int:
        return len(self.omega)

    def constraints(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.site, t) for t, w in enumerate(self.omega, start=1) if w == 0)


@dataclass(frozen=True)
class MultiSitePattern:
    """Joint vacancy demands: site i vacant at each step in times[i]."""

    entries: tuple[tuple[int, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        cleaned = []
        for site, times in self.entries:
            site = int(site)
            if site in seen:
                raise ValueError(f"duplicate site {site}")
            seen.add(site)
            times = tuple(sorted(int(t) for t in times))
            if len(set(times)) != len(times):
                raise ValueError(f"duplicate times for site {site}")
            if times and times[0] < 1:
                raise ValueError("times must be >= 1")
            cleaned.append((site, times))
        object.__setattr__(self, "entries", tuple(cleaned))

    @property
    def horizon(self) -> int:
        return max((t for _, times in self.entries for t in times), default=0)

    def constraints(self) -> tuple[tuple[int, int], ...]:
        return tuple((site, t) for site, times in self.entries for t in times)


def check_constraints(n: int, constraints):
    """Reject a (site, step) demand off the n sites or before step 1."""
    for site, t in constraints:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range")
        if t < 1:
            raise ValueError("constrained steps must be >= 1")


def _event_probability(spec, x0: int, constraints, kernel: Kernel) -> float:
    """Push the distribution forward, zeroing constrained states as reached."""
    check_constraints(spec.n, constraints)
    horizon = max((t for _, t in constraints), default=0)
    by_time: dict[int, list[int]] = {}
    for site, t in constraints:
        by_time.setdefault(t, []).append(site)
    v = point_mass(spec.n, x0)
    for v in propagate(kernel, v, horizon, by_time):
        pass
    return float(v.sum())


def path_probability(spec: ModelSpec, x0: int, pattern: TimePattern,
                     kernel: Kernel) -> float:
    """Probability one site's path matches the pattern's vacancy demands.

    Trailing unconstrained steps are trimmed, so the distribution is only
    propagated up to the last constrained step, not to len(omega).
    """
    return _event_probability(spec, x0, pattern.constraints(), kernel)


def multisite_probability(spec: ModelSpec, x0: int, pattern: MultiSitePattern,
                          kernel: Kernel) -> float:
    """Probability of joint vacancies across sites and steps."""
    return _event_probability(spec, x0, pattern.constraints(), kernel)


# -- spin systems ------------------------------------------------------------


def spin_plan(n: int, terms: float = 0) -> Plan:
    """The spin engine's 2n + 7 laws; the rate table's build and `terms` steps.

    The laws are the rate table's n, and `spin_law_from`'s n + 2 shares
    (the exit rates, the stay shares and n jump shares) and five laws (the
    start, the mixture's sum and step, the step's sum and one share's
    move).  A step makes three passes over a law per site.
    """
    step = ENTRY_WORK * float((3 * n + 3) << n) + (3 * n + 4) * CALL_WORK
    return Plan(f"n = {n}: the spin rate tables", (2 * n + 7) * (8 << n),
                sweep_work(n, 2 * n * n, 30) + terms * step)


def spin_rate_bound(spec: SpinSpec) -> float:
    """An upper bound on the largest total flip rate: each site's larger family bound."""
    return sum(max(b.range_bounds()[1], d.range_bounds()[1])
               for b, d in zip(spec.birth, spec.death))


def poisson_terms(mean: float) -> float:
    """At least the terms `poisson_weights(mean)` keeps: past the mean, eight deviations and 16."""
    return mean + 8.0 * math.sqrt(mean) + 16.0


def poisson_plan(mean: float) -> Plan:
    """`poisson_weights(mean)`'s ratios, pmf and running sum, forty deviations past the mode."""
    span = 40.0 * (math.sqrt(mean) + 1.0)
    return Plan(f"mean {mean:.6g}: the Poisson weights", 24 * (mean + span + 1.0))


def spin_generator(spec: SpinSpec) -> np.ndarray:
    """The generator as its (2^n, n) rate table, [w, i] the rate at which bit i flips from w.

    A spin flips one bit at a time (birth if empty, death if occupied): that is all its rates.
    """
    n = spec.n
    check_plan(spin_plan(n))
    rates = np.empty((1 << n, n))
    for rows, bits in lattice_blocks(n, 2 * n * n):
        rates[rows] = lattice_transitions(spec, bits)
    return rates


def poisson_weights(mean: float) -> np.ndarray:
    """Poisson(mean) pmf at k = 0..K, K the first k whose mass reaches 1 - POISSON_TAIL.

    Built from the ratios pmf(k) / pmf(k-1) = mean / k taken outward from
    the mode, then normalised; unlike a log-factorial sum this does not
    drift for large means, so the tail cut stays where it belongs.
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
    # past forty standard deviations the mass left is far below an ulp;
    # counted before int() overflows
    check_plan(poisson_plan(mean))
    mode, span = int(mean), int(40.0 * (math.sqrt(mean) + 1.0))
    below = np.cumprod(np.arange(mode, 0, -1) / mean)[::-1]
    above = np.cumprod(mean / np.arange(mode + 1, mode + span + 1))
    w = np.concatenate([below, [1.0], above])
    w /= w.sum()
    last = min(int(np.searchsorted(np.cumsum(w), 1.0 - POISSON_TAIL)), w.size - 1)
    return w[:last + 1]


def poisson_mixture(step, v0: np.ndarray, mean: float) -> np.ndarray:
    """Sum of pmf(k; mean) * step^k(v0), truncated where `poisson_weights` cuts the pmf."""
    if mean < 0:
        raise ValueError("mean must be >= 0")
    v = np.asarray(v0, float)
    pmf = poisson_weights(mean)
    acc = pmf[0] * v
    for k in range(1, pmf.size):
        v = step(v)
        acc += pmf[k] * v
    return acc


def spin_law_from(rates: np.ndarray, dist: np.ndarray, t: float) -> np.ndarray:
    """Law at time t from `dist` under the rate table `rates` (see `spin_generator`).

    A Poisson(rate t) mixture of uniformised steps v -> v (I + Q/rate), rate
    the largest exit rate: the mass at w keeps 1 - sum_i r_i(w)/rate and
    moves r_i(w)/rate to w ^ 2^i, swapping the halves of blocks of 2^(i+1).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    v0 = np.asarray(dist, float)
    total = rates.sum(axis=1)
    rate = float(np.max(total, initial=0.0))
    if rate <= 0.0 or t == 0:
        return v0.copy()
    stay = 1.0 - total / rate
    # copied in row order, then divided in place: no ufunc buffer of the transpose
    jump = np.ascontiguousarray(rates.T)
    jump /= rate

    def step(v):
        out = v * stay
        for i, share in enumerate(jump):
            out.reshape(-1, 2, 1 << i)[...] += (v * share).reshape(-1, 2, 1 << i)[:, ::-1]
        return out

    return as_distribution(poisson_mixture(step, v0, rate * t))


def spin_law(rates: np.ndarray, x0: int, t: float) -> np.ndarray:
    """Law at time t from the state word x0 under the rate table `rates`."""
    return spin_law_from(rates, point_mass(rates.shape[1], x0), t)
