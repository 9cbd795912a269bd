"""Independent-site surrogate processes.

Each site evolves as its own two-state chain whose transition
probabilities (or rates, in continuous time) are the model's functions
evaluated along the deterministic trajectory rather than at the random
state.  Site marginals of the surrogate coincide with the deterministic
trajectory itself; joint laws factor across sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import meanfield
from .exact import MultiSitePattern, TimePattern, state_bits
from .lattice import check_bytes
from .meanfield import OdeConfig
from .model import ModelSpec, SpinSpec, site_values


@dataclass(frozen=True)
class SiteChainSchedule:
    """Per-step colonise/survive probabilities for one site's two-state chain."""

    site: int
    colonise: np.ndarray
    survive: np.ndarray

    def __post_init__(self):
        if self.colonise.shape != self.survive.shape or self.colonise.ndim != 1:
            raise ValueError("colonise and survive must be equal-length vectors")


def _check_site(spec, site: int):
    if not 0 <= site < spec.n:
        raise ValueError(f"site {site} out of range")


def site_schedules(spec: ModelSpec, x0: int, horizon: int) -> tuple[SiteChainSchedule, ...]:
    """Every site's schedule for steps 1..horizon, from one deterministic trajectory.

    A schedule covering more steps than a pattern serves it unchanged, so
    one call serves a whole scan of patterns up to `horizon`.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    # the deterministic states at steps 0..horizon-1 drive steps 1..horizon
    traj = meanfield.iterate(spec, state_bits(x0, spec.n), horizon - 1)
    colonise, survive = site_values(spec, traj)
    return tuple(SiteChainSchedule(site, colonise[:, site], survive[:, site])
                 for site in range(spec.n))


def path_probability(spec: ModelSpec, x0: int, pattern: TimePattern,
                     schedule: SiteChainSchedule) -> float:
    """Forward two-state recursion for one site's vacancy pattern.

    `schedule` is the pattern site's schedule over at least the pattern's
    horizon, as from `site_schedules`.
    """
    m = pattern.horizon
    _check_site(spec, pattern.site)
    if schedule.site != pattern.site or schedule.colonise.size < m:
        raise ValueError(f"schedule for site {schedule.site} over "
                         f"{schedule.colonise.size} steps cannot serve the pattern")
    bit = int(state_bits(x0, spec.n)[pattern.site])
    v = np.array([1.0 - bit, float(bit)])
    for t in range(m):
        c, s = schedule.colonise[t], schedule.survive[t]
        v = np.array([v[0] * (1.0 - c) + v[1] * (1.0 - s), v[0] * c + v[1] * s])
        if pattern.omega[t] == 0:
            v[1] = 0.0
    return float(v.sum())


def multisite_probability(spec: ModelSpec, x0: int, pattern: MultiSitePattern,
                          schedules: Sequence[SiteChainSchedule]) -> float:
    """Joint vacancy probability; sites are independent so it is a product.

    `schedules` are every site's schedules over at least the pattern's
    horizon, as from `site_schedules`; a pattern with no demand reads none
    of them and has probability 1.
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
                                  schedules[site])
    return value


def vacancy_table_bytes(n: int, m: int) -> int:
    """Bytes `vacancy_tables` holds at its peak, over n sites and m steps.

    Eight (n, 2^m) float arrays: both tables, the two state masses, and
    while the new occupied mass is summed, the new vacant mass, both
    products and their sum (numpy may reuse a product for the sum, but
    need not); and the (2^m,) int64 step sets.
    """
    return (8 * n + 1) * (8 << m)


def vacancy_tables(spec: ModelSpec, x0: int, schedules: Sequence[SiteChainSchedule],
                   m: int) -> tuple[np.ndarray, np.ndarray]:
    """Every site's vacancy-pattern probabilities, over every set of steps in 1..m.

    A set S of steps is the mask with bit t-1 for step t.  Returns two
    (n, 2^m) tables: `at_last[i, S]` is `path_probability` of site i
    demanding vacancy exactly at the steps of S, run to S's last step;
    `at_end[i, S]` is the same run to step m.  All sets go through one
    vectorised forward recursion with `path_probability`'s float
    operations, so the tables equal its values bit for bit.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(schedules) != spec.n or any(s.colonise.size < m for s in schedules):
        raise ValueError(f"schedules must cover all {spec.n} sites over {m} steps")
    check_bytes(vacancy_table_bytes(spec.n, m),
                f"n = {spec.n}, m = {m}: the surrogate tables")
    bits = state_bits(x0, spec.n)[:, None]
    colonise = np.stack([s.colonise[:m] for s in schedules])
    survive = np.stack([s.survive[:m] for s in schedules])
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


def spin_path_probability(spec: SpinSpec, x0: int, site: int, times,
                          config: OdeConfig = OdeConfig()) -> float:
    """P(site vacant at every listed time) for the continuous-time surrogate.

    The site's two-state master equation is integrated jointly with the
    occupancy ODE that drives its rates; at each listed time the occupied
    mass is projected out (conditioning on vacancy without renormalising).
    """
    _check_site(spec, site)
    times = [float(t) for t in times]
    if any(t <= 0 for t in times):
        raise ValueError("times must be > 0")
    if sorted(set(times)) != times:
        raise ValueError("times must be strictly increasing")
    n = spec.n

    def rhs(y):
        # y stacks the ODE point p with the site's (P(vacant), P(occupied));
        # the rates at p drive both the ODE and the site's chain
        p, vacant, occupied = y[:n], y[n], y[n + 1]
        lam, mu = site_values(spec, p[None])
        lam, mu = lam[0], mu[0]
        flow = vacant * lam[site] - occupied * mu[site]
        return np.concatenate([(1.0 - p) * lam - p * mu, [-flow, flow]])

    p0 = state_bits(x0, n)
    y = np.concatenate([p0, [1.0 - p0[site], p0[site]]])
    t_cur = 0.0
    for t_next in times:
        full, rem = meanfield.step_count(t_next - t_cur, config.h)
        for _ in range(full):
            y = meanfield.advance(rhs, y, config.h, config.method)
        if rem > 0.0:
            y = meanfield.advance(rhs, y, rem, config.method)
        y[n + 1] = 0.0
        t_cur = t_next
    return float(y[n])
