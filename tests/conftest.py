import functools

import numpy as np
import pytest

from occupancy import exact, indep, zoo


@pytest.fixture
def interacting():
    return zoo.interacting_pair()


@pytest.fixture
def single_site():
    return zoo.constant_pair(n=1, c=0.3, s=0.8)


@pytest.fixture
def broken():
    return zoo.non_monotone_pair()


@pytest.fixture
def ring3():
    return zoo.contact_ring(3, beta=0.35, mu=1.0)


@pytest.fixture
def certified_suite():
    """A handful of certified random models of mixed dimension."""
    return [zoo.random_certified_model(n, seed=100 + n) for n in (2, 3, 4)]


def naive_transition_probability(spec, x: int, y: int) -> float:
    """Independent per-site product, written as plainly as possible."""
    prob = 1.0
    for i in range(spec.n):
        bits = [(x >> j) & 1 for j in range(spec.n)]
        point = np.array(bits, dtype=float)
        if bits[i]:
            q = spec.survival[i].eval(point)
        else:
            q = spec.colonisation[i].eval(point)
        prob *= q if (y >> i) & 1 else 1.0 - q
    return prob


def naive_event_probability(spec, x0: int, constraints, horizon: int) -> float:
    """Brute-force sum over literal trajectories (tiny cases only)."""
    size = 1 << spec.n
    total = 0.0
    stack = [(x0, 1, 1.0)]
    while stack:
        state, t, prob = stack.pop()
        if t > horizon:
            total += prob
            continue
        for nxt in range(size):
            ok = all(not ((nxt >> site) & 1)
                     for site, tc in constraints if tc == t)
            if not ok:
                continue
            p = naive_transition_probability(spec, state, nxt)
            if p > 0:
                stack.append((nxt, t + 1, prob * p))
    return total


def enumerate_event_probability(spec, x0: int, constraints, horizon: int) -> float:
    """Vectorised sum over all 2^(n * horizon) literal trajectories.

    An independent route to exact.path_probability and
    exact.multisite_probability, which propagate the distribution instead.
    """
    if horizon == 0:
        return 1.0
    n = spec.n
    chunk = 2 ** 18
    T = exact.transition_matrix(spec)
    mask = (1 << n) - 1
    n_traj = 1 << (n * horizon)
    total = 0.0
    for start in range(0, n_traj, chunk):
        idx = np.arange(start, min(start + chunk, n_traj), dtype=np.int64)
        words = [(idx >> (n * t)) & mask for t in range(horizon)]
        prob = T[x0, words[0]].copy()
        for t in range(1, horizon):
            prob *= T[words[t - 1], words[t]]
        for site, t in constraints:
            prob *= 1.0 - ((words[t - 1] >> site) & 1)
        total += float(prob.sum())
    return total


def decomposed_path_probability(spec, x0: int, pattern) -> float:
    """The surrogate's pattern probability by peeling the last demanded vacancy.

    Writing phi for the last step where the pattern demands vacancy, the
    chain either was vacant at phi-1 and stayed off, or was occupied at
    phi-1 and died; conditioning splits the probability into
    (1 - survive) * P(pattern with phi freed) plus
    (survive - colonise) * P(pattern with phi freed and phi-1 demanded).
    An independent route to indep.path_probability's forward recursion.
    """
    sched = indep.site_schedule(spec, x0, pattern.horizon, pattern.site)
    bit = int(exact.state_bits(x0, spec.n)[pattern.site])

    @functools.lru_cache(maxsize=None)
    def solve(omega: tuple[int, ...]) -> float:
        zeros = [t for t, w in enumerate(omega, start=1) if w == 0]
        if not zeros:
            return 1.0
        phi = zeros[-1]
        c, s = sched.colonise[phi - 1], sched.survive[phi - 1]
        if phi == 1:
            return 1.0 - (c if bit == 0 else s)
        freed = list(omega)
        freed[phi - 1] = 1
        lower = list(freed)
        lower[phi - 2] = 0
        return (1.0 - s) * solve(tuple(freed)) + (s - c) * solve(tuple(lower))

    return solve(pattern.omega)
