"""Independent-site surrogate processes.

Each site evolves as its own two-state chain whose transition
probabilities are the model's functions evaluated along the deterministic
trajectory, which its site marginals therefore equal; joint laws factor.
"""

from __future__ import annotations

import numpy as np

from . import meanfield
from .exact import MultiSitePattern, TimePattern, state_bits
from .lattice import ENTRY_WORK, Plan, check_plan
from .model import ModelSpec, site_values


def _check_site(spec, site: int):
    if not 0 <= site < spec.n:
        raise ValueError(f"site {site} out of range")


def _check_schedules(spec, schedules, m: int):
    colonise, survive = schedules
    if colonise.shape != survive.shape or colonise.shape[1:] != (spec.n,) or len(colonise) < m:
        raise ValueError(f"schedules of shape {colonise.shape} cannot serve "
                         f"{spec.n} sites over {m} steps")


def site_schedules(spec: ModelSpec, x0: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(colonise, survive) for steps 1..horizon, from one deterministic trajectory.

    Each is (horizon, n): row t - 1 holds every site's probabilities for
    step t.  One call serves every pattern up to `horizon` steps.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    # the deterministic states at steps 0..horizon-1 drive steps 1..horizon
    traj = meanfield.iterate(spec, state_bits(x0, spec.n), horizon - 1)
    return site_values(spec, traj)


def path_probability(spec: ModelSpec, x0: int, pattern: TimePattern, schedules) -> float:
    """Forward two-state recursion for one site's vacancy pattern.

    `schedules` cover at least the pattern's horizon, as from
    `site_schedules`; the recursion reads the pattern site's column.
    """
    m = pattern.horizon
    site = pattern.site
    _check_site(spec, site)
    _check_schedules(spec, schedules, m)
    colonise, survive = schedules
    bit = int(state_bits(x0, spec.n)[site])
    v = np.array([1.0 - bit, float(bit)])
    for t in range(m):
        c, s = colonise[t, site], survive[t, site]
        v = np.array([v[0] * (1.0 - c) + v[1] * (1.0 - s), v[0] * c + v[1] * s])
        if pattern.omega[t] == 0:
            v[1] = 0.0
    return float(v.sum())


def multisite_probability(spec: ModelSpec, x0: int, pattern: MultiSitePattern,
                          schedules) -> float:
    """Joint vacancy probability; sites are independent so it is a product.

    `schedules` cover at least the pattern's horizon, as from
    `site_schedules`; a pattern with no demand reads none of them and has
    probability 1.
    """
    for site, _ in pattern.constraints():
        _check_site(spec, site)
    value = 1.0
    for site, times in pattern.entries:
        if not times:
            continue
        m = max(times)
        omega = [1] * m
        for t in times:
            omega[t - 1] = 0
        value *= path_probability(spec, x0, TimePattern(site=site, omega=tuple(omega)),
                                  schedules)
    return value


def vacancy_plan(n: int, m: int) -> Plan:
    """`vacancy_tables`' plan over n sites and m steps, a pass over each array a step.

    It holds eight (n, 2^m) float arrays: both tables, the two state
    masses, and while the new occupied mass is summed, the new vacant mass,
    both products and their sum (numpy may reuse a product for the sum, but
    need not); and the (2^m,) int64 step sets.
    """
    return Plan(f"n = {n}, m = {m}: the surrogate tables", (8 * n + 1) * (8 << m),
                ENTRY_WORK * float(m * (8 * n + 1) << m))


def vacancy_tables(spec: ModelSpec, x0: int, schedules,
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every site's vacancy-pattern probabilities, over every set of steps in 1..m.

    A set S of steps is the mask with bit t-1 for step t.  Returns two
    (n, 2^m) tables: `at_last[i, S]` is `path_probability` of site i
    demanding vacancy exactly at the steps of S, run to S's last step, and
    `at_end[i, S]` the same run to step m, bit for bit: one vectorised
    recursion with `path_probability`'s float operations.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    _check_schedules(spec, schedules, m)
    check_plan(vacancy_plan(spec.n, m))
    bits = state_bits(x0, spec.n)[:, None]
    # (n, m) views: row i is site i's schedule
    colonise, survive = (table[:m].T for table in schedules)
    sets = np.arange(1 << m)
    vacant = np.repeat(1.0 - bits, 1 << m, axis=1)
    occupied = np.repeat(bits, 1 << m, axis=1)
    at_last = np.ones((spec.n, 1 << m))
    for t in range(m):
        c, s = colonise[:, t:t + 1], survive[:, t:t + 1]
        vacant, occupied = vacant * (1.0 - c) + occupied * (1.0 - s), vacant * c + occupied * s
        occupied[:, (sets >> t) & 1 == 1] = 0.0
        at_end = vacant + occupied
        at_last[:, 1 << t:2 << t] = at_end[:, 1 << t:2 << t]
    return at_last, at_end
