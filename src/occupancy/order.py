"""Stochastic-order and bound checks with signed-margin reports.

Every check reports its worst signed margin (negative means violated),
the witness realising it, and a verdict.  For models whose hypotheses
were certified the verdict is pass/fail at the check's tolerance; for
uncertified models no claim is made and the verdict is "informative".

Vacancy-pattern comparisons on the hypercube run over every nonempty
subset of sites, so they are capped at moderate dimensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import exact, indep, meanfield
from .exact import MultiSitePattern, TimePattern
from .lattice import CapacityError
from .meanfield import OdeConfig
from .model import ModelSpec, SpinSpec

SUBSET_CAP = 12
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one ordering check."""

    check: str
    universe: dict
    worst_margin: float
    witness: dict
    verdict: str
    tol: float
    certified: bool | None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "universe": self.universe,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "verdict": self.verdict,
            "tol": self.tol,
            "certified": self.certified,
            "details": self.details,
        }


def _verdict(worst_margin: float, tol: float, certified) -> str:
    if certified is False:
        return "informative"
    return "pass" if worst_margin >= -tol else "fail"


def check_subset_cap(n: int):
    """Site-set scans cover all 2^n subsets; reject n past SUBSET_CAP."""
    if n > SUBSET_CAP:
        raise CapacityError(
            f"subset scans over 2^{n} site sets exceed the cap 2^{SUBSET_CAP}")


def vacancy_transform(dist: np.ndarray) -> np.ndarray:
    """For every site set A (as a bit mask), P(all sites of A vacant).

    Computed for all masks at once by a subset-sum sweep: mass at state x
    contributes to exactly the masks disjoint from x.
    """
    dist = np.asarray(dist, float)
    n = int(np.log2(dist.size))
    if 1 << n != dist.size:
        raise ValueError("distribution length must be a power of two")
    acc = dist.copy()
    # after sweeping bit i, acc[m] sums mass over states whose bits <= i
    # agree with m except possibly cleared; final acc[m] = P(x subset of m)
    for i in range(n):
        step = 1 << i
        shaped = acc.reshape(-1, 2 * step)
        shaped[:, step:] += shaped[:, :step]
    full = dist.size - 1
    return acc[np.arange(dist.size) ^ full]


def subset_products(values: np.ndarray) -> np.ndarray:
    """prod over i in A of values[i], for every mask A."""
    n = len(values)
    out = np.ones(1 << n)
    masks = np.arange(1 << n)
    for i in range(n):
        out *= np.where((masks >> i) & 1, values[i], 1.0)
    return out


def _mask_sites(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if (mask >> i) & 1]


def _worst(margins: np.ndarray, skip_zero: bool = True):
    """Worst margin over masks and its argmin, ignoring the empty mask."""
    m = margins.copy()
    if skip_zero:
        m[0] = np.inf
    k = int(np.argmin(m))
    return float(m[k]), k


def marginal_bound(spec: ModelSpec, x0: int, exact_rows: np.ndarray,
                   tol: float = DEFAULT_TOL, certified: bool | None = None) -> OrderReport:
    """Deterministic trajectory minus exact occupation probabilities, all (t, i).

    `exact_rows` are the exact occupation probabilities at steps 0..steps,
    as from `exact.marginal_trajectory(spec, x0, steps)`.
    """
    pi = np.asarray(exact_rows, float)
    if pi.ndim != 2 or pi.shape[0] < 1 or pi.shape[1] != spec.n:
        raise ValueError(f"exact rows must have shape (steps+1, {spec.n})")
    steps = pi.shape[0] - 1
    p = meanfield.iterate(spec, exact.state_bits(x0, spec.n), steps)
    margins = p - pi
    t, i = np.unravel_index(np.argmin(margins), margins.shape)
    worst = float(margins[t, i])
    return OrderReport(
        check="marginal-bound",
        universe={"n": spec.n, "x0": x0, "steps": steps},
        worst_margin=worst,
        witness={"step": int(t), "site": int(i),
                 "deterministic": float(p[t, i]), "exact": float(pi[t, i])},
        verdict=_verdict(worst, tol, certified),
        tol=tol,
        certified=certified,
        details={"min_margin_per_step": np.min(margins, axis=1).tolist()},
    )


def single_time_orthant(spec: ModelSpec, x0: int, t: int, kernel: np.ndarray,
                        tol: float = DEFAULT_TOL,
                        certified: bool | None = None) -> OrderReport:
    """Joint vacancy comparison at one time over every nonempty site set.

    Chains P(all of A vacant) >= prod(1 - pi_i) >= prod(1 - p_i): the first
    step is an association inequality for the exact law, the second the
    marginal bound.  Margins of both steps are reported; the check's own
    margin is the end-to-end one against the deterministic product.
    `kernel` is the chain's transition matrix.
    """
    check_subset_cap(spec.n)
    dist = exact.distribution(spec, x0, t, kernel)
    pi = exact.marginals(dist)
    p = meanfield.iterate(spec, exact.state_bits(x0, spec.n), t)[-1]
    vac = vacancy_transform(dist)
    prod_pi = subset_products(1.0 - pi)
    prod_p = subset_products(1.0 - p)
    total, k_total = _worst(vac - prod_p)
    assoc, k_assoc = _worst(vac - prod_pi)
    chain, k_chain = _worst(prod_pi - prod_p)
    return OrderReport(
        check="single-time-orthant",
        universe={"n": spec.n, "x0": x0, "t": t, "site_sets": (1 << spec.n) - 1},
        worst_margin=total,
        witness={"sites": _mask_sites(k_total, spec.n), "t": t,
                 "exact": float(vac[k_total]), "product": float(prod_p[k_total])},
        verdict=_verdict(total, tol, certified),
        tol=tol,
        certified=certified,
        details={
            "association-step": {"worst_margin": assoc,
                                 "sites": _mask_sites(k_assoc, spec.n)},
            "marginal-step": {"worst_margin": chain,
                              "sites": _mask_sites(k_chain, spec.n)},
        },
    )


def positive_correlations(dist: np.ndarray, tol: float = DEFAULT_TOL,
                          certified: bool | None = None) -> OrderReport:
    """Joint vacancies against the product of single-site vacancies.

    Nonnegative margins mean the law is positively associated on lower
    orthants, e.g. for occupancy laws run from a deterministic start.
    """
    dist = np.asarray(dist, float)
    n = int(np.log2(dist.size))
    check_subset_cap(n)
    exact.validate_distribution(dist, atol=1e-9)
    vac = vacancy_transform(dist)
    prod = subset_products(1.0 - exact.marginals(dist))
    worst, k = _worst(vac - prod)
    return OrderReport(
        check="positive-correlations",
        universe={"n": n, "site_sets": (1 << n) - 1},
        worst_margin=worst,
        witness={"sites": _mask_sites(k, n), "joint": float(vac[k]),
                 "product": float(prod[k])},
        verdict=_verdict(worst, tol, certified),
        tol=tol,
        certified=certified,
    )


def _patterns_for_budget(n: int, m: int, budget: int):
    """Multisite patterns with total demanded vacancies <= budget, one at a time."""
    times = range(1, m + 1)
    # choose a nonempty set of sites, then for each a nonempty time set,
    # keeping the total count within budget
    for sites_count in range(1, min(n, budget) + 1):
        per_site_max = budget - (sites_count - 1)
        opts = []
        for k in range(1, min(per_site_max, m) + 1):
            opts.extend(itertools.combinations(times, k))
        for sites in itertools.combinations(range(n), sites_count):
            for combo in itertools.product(opts, repeat=sites_count):
                if sum(len(ts) for ts in combo) <= budget:
                    yield MultiSitePattern(entries=tuple(zip(sites, combo)))


def path_orthant(spec: ModelSpec, x0: int, m: int, kernel: np.ndarray,
                 tol: float = DEFAULT_TOL, certified: bool | None = None,
                 budget: int = 4) -> OrderReport:
    """Exact vacancy-pattern probabilities against the independent surrogate.

    Scans every single-site pattern omega in {0,1}^m and every multisite
    pattern demanding at most `budget` vacancies in steps 1..m.  Margins
    are exact minus surrogate; the surrogate should never exceed.  The
    chain's transition matrix `kernel` and the surrogate's site schedules
    serve the whole scan.
    """
    if m < 1:
        raise ValueError("path length m must be >= 1")
    schedules = indep.site_schedules(spec, x0, m)
    worst = np.inf
    witness = {}
    for site in range(spec.n):
        for omega in itertools.product((0, 1), repeat=m):
            pattern = TimePattern(site=site, omega=omega)
            margin = (exact.path_probability(spec, x0, pattern, kernel)
                      - indep.path_probability(spec, x0, pattern, schedules[site]))
            if margin < worst:
                worst = margin
                witness = {"kind": "single-site", "site": site, "omega": list(omega)}
    multi_worst = np.inf
    multi_witness: dict = {}
    for pattern in _patterns_for_budget(spec.n, m, budget):
        margin = (exact.multisite_probability(spec, x0, pattern, kernel)
                  - indep.multisite_probability(spec, x0, pattern, schedules))
        if margin < multi_worst:
            multi_worst = margin
            multi_witness = {"kind": "multisite",
                             "entries": [[site, list(ts)] for site, ts in pattern.entries]}
    if multi_worst < worst:
        worst = multi_worst
        witness = multi_witness
    return OrderReport(
        check="path-orthant",
        universe={"n": spec.n, "x0": x0, "m": m, "budget": budget},
        worst_margin=float(worst),
        witness=witness,
        verdict=_verdict(worst, tol, certified),
        tol=tol,
        certified=certified,
        details={"worst_multisite_margin": float(multi_worst)},
    )


def spin_marginal_bound(spec: SpinSpec, x0: int, t_grid, tol: float = 1e-6,
                        certified: bool | None = None,
                        config: OdeConfig = OdeConfig(h=1e-3, method="rk4"),
                        tail_tol: float = 1e-12) -> OrderReport:
    """ODE trajectory minus exact spin occupation probabilities on a time grid.

    One generator, uniformised in place, serves every law on the grid.
    """
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid) or sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be nondecreasing and nonnegative")
    P = exact.spin_generator(spec)
    rate = exact.uniformise(P)
    p = exact.state_bits(x0, spec.n)
    worst = np.inf
    witness = {}
    per_time = []
    t_cur = 0.0
    for t in t_grid:
        if t > t_cur:
            _, states = meanfield.integrate_ode(spec, p, t - t_cur, config)
            p = states[-1]
            t_cur = t
        pi = exact.marginals(exact.spin_law(P, rate, x0, t, tail_tol))
        margins = p - pi
        i = int(np.argmin(margins))
        per_time.append(float(margins[i]))
        if margins[i] < worst:
            worst = float(margins[i])
            witness = {"t": t, "site": i, "deterministic": float(p[i]),
                       "exact": float(pi[i])}
    return OrderReport(
        check="spin-marginal-bound",
        universe={"n": spec.n, "x0": x0, "t_grid": t_grid, "h": config.h},
        worst_margin=worst,
        witness=witness,
        verdict=_verdict(worst, tol, certified),
        tol=tol,
        certified=certified,
        details={"min_margin_per_time": per_time},
    )
