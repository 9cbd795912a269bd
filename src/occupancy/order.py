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
import math
from dataclasses import dataclass, field

import numpy as np

from . import exact, indep, meanfield
from .lattice import CapacityError, check_bytes
from .meanfield import OdeConfig
from .model import ModelSpec, SpinSpec

SUBSET_CAP = 12
DEFAULT_TOL = 1e-10
# laws the path scan pushes through the kernel per block, at most 2^n: a few
# hundred rows already run a matrix product at full speed, and a block stays
# small beside the kernel (8 MB at n = 12, against 128 MB)
BLOCK_LAWS = 256


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
    contributes to exactly the masks disjoint from x.  A (B, 2^n) stack of
    laws is transformed row by row along its last axis.
    """
    dist = np.asarray(dist, float)
    size = dist.shape[-1] if dist.ndim else 0
    n = size.bit_length() - 1
    if dist.ndim not in (1, 2) or size < 1 or 1 << n != size:
        raise ValueError("distribution length must be a power of two")
    acc = dist.copy()
    # after sweeping bit i, acc[m] sums mass over states whose bits <= i
    # agree with m except possibly cleared; final acc[m] = P(x subset of m)
    for i in range(n):
        step = 1 << i
        shaped = acc.reshape(-1, 2 * step)
        shaped[:, step:] += shaped[:, :step]
    # A is vacant when x is a subset of A's complement, the mask 2^n - 1 - A
    return acc[..., ::-1]


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
    """Multisite patterns with total demanded vacancies <= budget, one at a time.

    Each is yielded as its raw entries ((site, times), ...), times ascending.
    """
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
                    yield tuple(zip(sites, combo))


def _masks_by_weight(n: int):
    """Nonempty site masks by popcount then value, and each mask's position there.

    The masks of popcount at most r are the first `_weight_count(n, r)`.
    """
    masks = np.arange(1, 1 << n)
    weight = np.zeros_like(masks)
    for i in range(n):
        weight += (masks >> i) & 1
    order = masks[np.argsort(weight, kind="stable")]
    rank = np.zeros(1 << n, dtype=np.int64)
    rank[order] = np.arange(order.size)
    return order, rank.tolist()


def _weight_count(n: int, r: int) -> int:
    """Number of nonempty site masks of popcount at most r."""
    return sum(math.comb(n, j) for j in range(1, min(r, n) + 1))


def _prefix_levels(n: int, m: int, budget: int):
    """The tree of demand prefixes, one depth t = 1..m at a time.

    A node at depth t is a prefix (D_1..D_{t-1}) of per-step vacancy masks
    that some scanned pattern extends: a multisite pattern if the prefix
    demands at most budget - 1 vacancies, a single-site one if all its
    demands fall on one site.  A node is (parent, mask, code, demands,
    site): its law is its parent's pushed law with the sites of `mask`
    vacated, `code` packs D_s into bits n(s-1)..ns-1, and `site` is -1
    for the empty prefix, the one site demanded, or None for several.
    Each depth is yielded as a list of its nodes.
    """
    order = _masks_by_weight(n)[0].tolist()
    level = [(0, 0, 0, 0, -1)]
    for t in range(1, m + 1):
        yield level
        if t < m:
            level = list(_children(level, n, budget, order, n * (t - 1)))


def _children(level, n: int, budget: int, order: list[int], shift: int):
    """The nodes one depth below `level`, in order of their parents."""
    for parent, (_, _, code, demands, site) in enumerate(level):
        room = budget - 1 - demands
        if room >= 1:
            masks = order[:_weight_count(n, room)]
        elif site is None:
            masks = []
        else:
            masks = order[:n] if site < 0 else [1 << site]
        for mask in [0] + masks:
            if mask == 0:
                child_site = site
            elif mask & (mask - 1) == 0 and site in (-1, mask.bit_length() - 1):
                child_site = mask.bit_length() - 1
            else:
                child_site = None
            yield (parent, mask, code | mask << shift, demands + mask.bit_count(),
                   child_site)


def _tree_sizes(n: int, m: int, budget: int) -> tuple[list[int], int]:
    """Nodes of `_prefix_levels` at each depth, and the values the scan stores.

    A prefix of length L demanding k vacancies is a multisite node when
    k <= budget - 1 (any k of the nL (site, step) pairs) and a single-site
    node past that (k of the L steps of one site).
    """
    rows, stored = [], 0
    for t in range(1, m + 1):
        multi = [math.comb(n * (t - 1), k) for k in range(budget)]
        single = n * sum(math.comb(t - 1, k) for k in range(budget, t))
        rows.append(sum(multi) + single)
        stored += (sum(c * _weight_count(n, budget - k) for k, c in enumerate(multi))
                   + single * n)
    return rows, stored


def _check_scan(n: int, m: int, budget: int):
    """The capacity rule for `path_orthant`: everything it holds, before any of it exists.

    It holds the two (n, 2^m) surrogate tables, the stored pattern values,
    and per depth the parents' pushed laws and its own; per block, the
    gathered laws with their product, then the product with the
    transform's copy, and the vacancy masks.
    """
    what = f"n = {n}, m = {m}, budget {budget}: the path scan"
    tables = 2 * n * (8 << m)
    # the tables alone bound m before the tree is sized
    check_bytes(tables, what)
    rows, stored = _tree_sizes(n, m, budget)
    parents = [1] + rows[:-1]
    laws = max(p + (r if t < m else 0)
               for t, (p, r) in enumerate(zip(parents, rows), start=1))
    block = min(max(rows), 1 << n, BLOCK_LAWS)
    check_bytes(tables + 8 * stored + (8 << n) * (laws + 3 * block), what)


def _exact_scan(kernel: np.ndarray, x0: int, m: int, budget: int):
    """Exact probabilities of every scanned pattern, one push per tree node.

    Each depth's nodes are masked and pushed through the kernel in row
    blocks of at most BLOCK_LAWS laws, one matrix product per block; one
    vacancy transform of a pushed law reads off every pattern whose last
    demand falls at that depth.
    Returns the lookup from a pattern's raw entries ((site, times), ...),
    with at least one time, to its probability.
    """
    size = kernel.shape[0]
    n = size.bit_length() - 1
    rows = min(size, BLOCK_LAWS)
    order, rank = _masks_by_weight(n)
    words = np.arange(size, dtype=np.min_scalar_type(size - 1))
    sizes, total = _tree_sizes(n, m, budget)
    values = np.empty(total)
    offsets = []
    stored = 0
    parents = exact.point_mass(n, x0)[None]
    for t, level in enumerate(_prefix_levels(n, m, budget), start=1):
        pushed = np.empty((sizes[t - 1], size)) if t < m else None
        at = {}
        for start in range(0, len(level), rows):
            block = level[start:start + rows]
            masks = np.array([node[1] for node in block], dtype=words.dtype)
            laws = parents[[node[0] for node in block]]
            laws *= (words & masks[:, None]) == 0
            laws = laws @ kernel
            if pushed is not None:
                pushed[start:start + len(block)] = laws
            for vac, (_, _, code, demands, _) in zip(vacancy_transform(laws), block):
                count = _weight_count(n, max(1, budget - demands))
                at[code] = stored
                values[stored:stored + count] = vac[order[:count]]
                stored += count
        offsets.append(at)
        parents = pushed

    def probability(entries) -> float:
        # the demands before the last demanded step pick the node, the
        # sites demanded at that step the entry of its transform
        last = max(times[-1] for _, times in entries)
        code = mask = 0
        for site, times in entries:
            for t in times:
                if t == last:
                    mask |= 1 << site
                else:
                    code |= 1 << (n * (t - 1) + site)
        return values[offsets[last - 1][code] + rank[mask]]

    return probability


def path_orthant(spec: ModelSpec, x0: int, m: int, kernel: np.ndarray,
                 tol: float = DEFAULT_TOL, certified: bool | None = None,
                 budget: int = 4) -> OrderReport:
    """Exact vacancy-pattern probabilities against the independent surrogate.

    Scans every single-site pattern omega in {0,1}^m and every multisite
    pattern demanding at most `budget` vacancies in steps 1..m.  Margins
    are exact minus surrogate; the surrogate should never exceed.  The
    exact side is one scan over the tree of demand prefixes with the
    chain's transition matrix `kernel`; the surrogate side is one table
    per site over every set of vacancy times.  The witness is the first
    pattern, in scan order, with the worst margin.
    """
    if m < 1:
        raise ValueError("path length m must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = spec.n
    schedules = indep.site_schedules(spec, x0, m)
    _check_scan(n, m, budget)
    at_last, at_end = indep.vacancy_tables(spec, x0, schedules, m)
    exact_probability = _exact_scan(kernel, x0, m, budget)

    def time_set(times) -> int:
        return sum(1 << (t - 1) for t in times)

    worst = np.inf
    witness = {}
    for site in range(n):
        for omega in itertools.product((0, 1), repeat=m):
            times = tuple(t for t, w in enumerate(omega, start=1) if w == 0)
            exact_p = exact_probability(((site, times),)) if times else 1.0
            margin = exact_p - at_end[site, time_set(times)]
            if margin < worst:
                worst = margin
                witness = {"kind": "single-site", "site": site, "omega": list(omega)}
    multi_worst = np.inf
    multi_witness: dict = {}
    for entries in _patterns_for_budget(n, m, budget):
        surrogate = 1.0
        for site, times in entries:
            surrogate *= at_last[site, time_set(times)]
        margin = exact_probability(entries) - surrogate
        if margin < multi_worst:
            multi_worst = margin
            multi_witness = {"kind": "multisite",
                             "entries": [[site, list(ts)] for site, ts in entries]}
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

    One rate table serves every law on the grid; each law is stepped from
    the previous grid point's.
    """
    t_grid = [float(t) for t in t_grid]
    if any(t < 0 for t in t_grid) or sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be nondecreasing and nonnegative")
    rates = exact.spin_generator(spec)
    p = exact.state_bits(x0, spec.n)
    law = exact.point_mass(spec.n, x0)
    worst = np.inf
    witness = {}
    per_time = []
    t_cur = 0.0
    for t in t_grid:
        if t > t_cur:
            _, states = meanfield.integrate_ode(spec, p, t - t_cur, config)
            p = states[-1]
            law = exact.spin_law_from(rates, law, t - t_cur, tail_tol)
            t_cur = t
        pi = exact.marginals(law)
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
