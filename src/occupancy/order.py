"""Stochastic-order and bound checks with signed-margin reports.

Every check reports its worst signed margin (negative means violated),
the witness realising it, and a verdict.  For models whose hypotheses
were certified the verdict is pass/fail at the check's tolerance; for
uncertified models no claim is made and the verdict is "informative".

Vacancy-pattern comparisons run over every nonempty subset of sites, as
law-sized arrays indexed by site mask.  The path check enumerates its
patterns once, as a tree of demand prefixes held in arrays; each node's
vacancy transform gives every pattern whose last demand falls at its depth.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import exact, indep, meanfield
from .lattice import (CALL_WORK, ENTRY_WORK, Plan, bit_reverse, check_plan, masks_by_weight,
                      popcount, shown, sweep_work, weight_count)
from .meanfield import OdeConfig
from .model import ModelSpec, SpinSpec

DEFAULT_TOL = 1e-10
# laws the path scan pushes through the dense kernel per block, at every n:
# a few hundred rows run a matrix product at full speed (fewer would leave
# the per-block calls as the work at small n), and a block stays small
# beside the dense matrix (8 MB at n = 12, against 128 MB)
BLOCK_LAWS = 256


@dataclass(frozen=True)
class OrderReport:
    """Outcome of one ordering check."""

    check: str
    universe: dict
    worst_margin: float
    witness: dict
    verdict: str = field(init=False)
    tol: float
    certified: bool | None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        # the one verdict rule: no claim for an uncertified model
        verdict = ("informative" if self.certified is False
                   else "pass" if self.worst_margin >= -self.tol else "fail")
        object.__setattr__(self, "verdict", verdict)

    def to_dict(self) -> dict:
        return asdict(self)


def vacancy_transform(dist: np.ndarray) -> np.ndarray:
    """For every site set A (as a bit mask), P(all sites of A vacant), along the last axis.

    A subset-sum sweep: mass at state x counts toward the masks disjoint from x.
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


def _site_sets(dist: np.ndarray):
    """By site mask, the law's joint vacancies and the product of its sites' vacancies."""
    return vacancy_transform(dist), subset_products(1.0 - exact.marginals(dist))


def _mask_sites(mask: int, n: int) -> list[int]:
    return [i for i in range(n) if (mask >> i) & 1]


def _worst(margins: np.ndarray):
    """Worst margin over masks and its argmin, ignoring the empty mask."""
    k = int(np.argmin(margins[1:])) + 1
    return float(margins[k]), k


# bytes of the marginal bound's per-step report beyond its float tables: a
# float and its list slot in `min_margin_per_step` (32), and the peak of that
# entry's indented JSON text while `json.dumps` joins it (129), read with
# tracemalloc over 10^5 entries of the longest float repr
REPORT_STEP_BYTES = 161


def bound_plan(spec: ModelSpec, steps: int) -> Plan:
    """thm1's plan: the exact marginals and law, then the marginal bound.

    Per step the bound holds a row of the exact marginals, of the recursion
    and of their margins, the step's least margin and its report entry.  The
    correlations' six law-sized arrays, then, are fewer than the kernel's.
    """
    report = Plan(f"{shown(steps)} steps: the marginal bound's tables and per-step report",
                  (steps + 1) * (24 * spec.n + 8 + REPORT_STEP_BYTES),
                  steps * spec.bank.point_work)
    return exact.trajectory_plan(spec.n, steps).then(report)


def spin_bound_plan(spec: SpinSpec, t: float, points: int, widest: float,
                    config: OdeConfig) -> Plan:
    """`spin_marginal_bound`'s plan, before its grid or rate tables exist.

    It holds the spin engine, one ODE state, the `widest` segment's Poisson
    weights and per grid point two floats, four list slots and their JSON
    text (320 bytes); it takes the ODE's steps over [0, t], and per point at
    most the widest segment's mixture and a marginals sweep.
    """
    n, mean = spec.n, exact.spin_rate_bound(spec) * widest
    spin = exact.spin_plan(n, points * exact.poisson_terms(mean))
    ode = meanfield.ode_plan(spec, t + 2 * points * config.h, config)
    return Plan(f"n = {n}, t = {t!r} over {shown(points)} grid points, h = {config.h!r}: "
                f"the spin laws and ODE",
                spin.nbytes + exact.poisson_plan(mean).nbytes + 320 * points,
                spin.work + ode.work + points * sweep_work(n, n, 6))


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
        tol=tol,
        certified=certified,
        details={"min_margin_per_step": np.min(margins, axis=1).tolist()},
    )


def single_time_orthant(spec: ModelSpec, x0: int, t: int, kernel: exact.Kernel,
                        tol: float = DEFAULT_TOL,
                        certified: bool | None = None) -> OrderReport:
    """Joint vacancy comparison at one time over every nonempty site set, by the chain's `kernel`.

    Chains P(all of A vacant) >= prod(1 - pi_i) >= prod(1 - p_i): the first
    step is an association inequality for the exact law, the second the
    marginal bound.  Both steps' margins are reported; the check's own is
    the end-to-end one against the deterministic product.
    """
    # the law, its vacancy transform, one product and four arrays making the other
    check_plan(Plan(f"n = {spec.n}: the site-set tables", 7 * (8 << spec.n)))
    vac, prod_pi = _site_sets(exact.distribution(spec, x0, t, kernel))
    p = meanfield.iterate(spec, exact.state_bits(x0, spec.n), t)[-1]
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

    Nonnegative margins mean the law is positively associated on lower orthants.
    """
    dist = np.asarray(dist, float)
    n = int(np.log2(dist.size))
    # the vacancy transform and four arrays making the product
    check_plan(Plan(f"n = {n}: the site-set tables", 5 * (8 << n)))
    exact.validate_distribution(dist, atol=1e-9)
    vac, prod = _site_sets(dist)
    worst, k = _worst(vac - prod)
    return OrderReport(
        check="positive-correlations",
        universe={"n": n, "site_sets": (1 << n) - 1},
        worst_margin=worst,
        witness={"sites": _mask_sites(k, n), "joint": float(vac[k]),
                 "product": float(prod[k])},
        tol=tol,
        certified=certified,
    )


def _add_step(steps: np.ndarray, masks: np.ndarray, t: int) -> np.ndarray:
    """Add step t, in place, to rows of step masks at the sites of each mask."""
    bits = masks[:, None] >> np.arange(steps.shape[1])
    bits &= 1
    bits <<= t - 1
    steps |= bits
    return steps


class _Nodes(NamedTuple):
    """Prefixes (D_1..D_{t-1}) of per-step vacancy masks at depth t, a row each.

    A node's law is its parent's pushed law with `mask` = D_{t-1} vacated;
    `sites` masks the sites it demands and `steps[r, i]` the steps (bit
    s-1 for step s) at which it demands site i.
    """

    parent: np.ndarray
    mask: np.ndarray
    demands: np.ndarray
    sites: np.ndarray
    steps: np.ndarray


def _children(nodes: _Nodes, budget: int, t: int) -> _Nodes:
    """The nodes at depth t + 1, in order of their parents at depth t.

    A parent takes the empty mask, every mask of popcount up to budget - 1 -
    demands (multisite patterns), and each site holding all its demands
    (single-site ones): the nodes a scanned pattern extends.
    """
    n = nodes.steps.shape[1]
    order, weight = masks_by_weight(n)
    count = weight_count(n, max(budget - 1, 1)) + 1
    masks, weight = order[:count], weight[:count]
    take = weight <= np.maximum(budget - 1 - nodes.demands, 0)[:, None]
    # the singletons follow the empty mask, site by site
    singles = masks[1:n + 1]
    take[:, 1:n + 1] |= (nodes.sites[:, None] | singles) == singles
    parent, k = np.nonzero(take)
    mask = masks[k]
    return _Nodes(parent, mask, nodes.demands[parent] + weight[k],
                  nodes.sites[parent] | mask, _add_step(nodes.steps[parent], mask, t))


def _tree_sizes(n: int, m: int, budget: int) -> list[int]:
    """Nodes of the prefix tree at each depth t = 1..m.

    A prefix of length L demanding k vacancies is a multisite node when
    k <= budget - 1 (any k of the nL (site, step) pairs) and a single-site
    node past that (k of the L steps of one site).
    """
    return [sum(math.comb(n * (t - 1), k) for k in range(budget))
            + n * sum(math.comb(t - 1, k) for k in range(budget, t))
            for t in range(1, m + 1)]


def scan_plan(spec: ModelSpec, m: int, steps: int = 0, budget: int = 4) -> Plan:
    """thm3's plan: `path_orthant`'s scan, and the single-time check's `steps` pushes.

    The kernel is held throughout, and the surrogate's two (n, 2^m) tables
    take `indep.vacancy_plan` to build; the scan holds them, the
    single-site margins, omega's places and the dense kernel; per depth,
    the parents' laws and its own, the nodes of it and the next (n + 4 int64
    each, twice over while built) and a flag per (node, candidate mask); per
    block, three law-sized arrays; per equal-demand group, 2n + 5 numbers
    per pattern read.  Each node's law is pushed through the dense kernel,
    2 * 4^n flops, and transformed, and its patterns' surrogates multiplied.
    """
    if m < 1:
        raise ValueError("path length m must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = spec.n
    what = f"n = {n}, m = {shown(m)}, budget {budget}: the path scan"
    # the surrogate's (m, n) schedules bound m before 2^m is formed, and
    # its two tables before the tree is sized
    check_plan(Plan(what, 24 * m * n))
    table = 8 << m
    check_plan(Plan(what, 2 * n * table))
    rows = _tree_sizes(n, m, budget)
    parents = [1] + rows[:-1]
    laws = max(p + (r if t < m else 0)
               for t, (p, r) in enumerate(zip(parents, rows), start=1))
    node = 8 * (n + 4)
    candidates = weight_count(n, max(budget - 1, 1)) + 1
    nodes = max(2 * (p + r) * node + p * candidates for p, r in zip(parents, rows))
    block = min(max(rows), BLOCK_LAWS)
    patterns = max(min(block, math.comb(n * (t - 1), d)) * weight_count(n, budget - d)
                   for t in range(1, m + 1) for d in range(min(budget, n * (t - 1) + 1)))
    scan = ((3 * n + 1) * table + nodes + (8 << n) * (laws + 3 * block)
            + 8 * (2 * n + 5) * patterns + (8 << 2 * n))
    kernel, tables = exact.kernel_plan(n, steps), indep.vacancy_plan(n, m)
    law = 2.0 * 4 ** n + ENTRY_WORK * float(((n + 4) << n) + n * weight_count(n, budget))
    # the dense expansion, and the single-time check's seven site-set tables
    work = (sum(rows) * law + ENTRY_WORK * float((2 << 2 * n) + (7 * n << n))
            + (2 * n + 40) * CALL_WORK * sum(-(-r // BLOCK_LAWS) for r in rows))
    return Plan(what, kernel.nbytes + max(tables.nbytes, scan), kernel.work + tables.work + work)


def _scan(dense: np.ndarray, x0: int, m: int, budget: int):
    """Push every node of the prefix tree; yield (t, nodes, vac) per block.

    Blocks of at most BLOCK_LAWS laws go through one product with the
    dense kernel, faster than through its two factor tables.  vac[r, A]
    is P(node r's demands, and all sites of A vacant at step t).
    """
    size = dense.shape[0]
    n = size.bit_length() - 1
    words = np.arange(size, dtype=np.min_scalar_type(size - 1))
    zero = np.zeros(1, dtype=np.int64)
    nodes = _Nodes(zero, zero, zero, zero, np.zeros((1, n), dtype=np.int64))
    parents = exact.point_mass(n, x0)[None]
    for t in range(1, m + 1):
        pushed = np.empty((len(nodes.parent), size)) if t < m else None
        for start in range(0, len(nodes.parent), BLOCK_LAWS):
            block = _Nodes(*(field[start:start + BLOCK_LAWS] for field in nodes))
            laws = parents[block.parent]
            laws *= (words & block.mask.astype(words.dtype)[:, None]) == 0
            laws = laws @ dense
            if pushed is not None:
                pushed[start:start + BLOCK_LAWS] = laws
            yield t, block, vacancy_transform(laws)
        parents = pushed
        if t < m:
            nodes = _children(nodes, budget, t)


def _first_scanned(steps: np.ndarray, m: int) -> int:
    """The row of `steps` (per-site step masks) that the scan visits first.

    The scan orders by number of sites, sites, then each site's number of
    steps and steps; of two equal-sized sets, the lexicographically first
    has the larger bit-reversed mask.
    """
    def first(rows, key):
        return rows[key == key.max()]

    if len(steps) == 1:
        return 0
    n = steps.shape[1]
    demanded = steps != 0
    rows = first(np.arange(len(steps)), -demanded.sum(axis=1))
    rows = first(rows, (demanded[rows] << (n - 1 - np.arange(n))).sum(axis=1))
    for i in range(n):
        rows = first(rows, -popcount(steps[rows, i], m))
        rows = first(rows, bit_reverse(steps[rows, i], m))
    return int(rows[0])


def path_orthant(spec: ModelSpec, x0: int, m: int, kernel: exact.Kernel,
                 tol: float = DEFAULT_TOL, certified: bool | None = None,
                 budget: int = 4) -> OrderReport:
    """Exact vacancy-pattern probabilities against the independent surrogate.

    Scans every single-site pattern omega in {0,1}^m and every multisite
    pattern demanding at most `budget` vacancies in steps 1..m; margins are
    exact minus surrogate, which should never exceed.  The exact side is one
    pass over the prefix tree (`_scan`) with the chain's `kernel`, the
    surrogate one table per site over every set of vacancy times, their
    product in site order.  The witness is the first worst pattern scanned.
    """
    n = spec.n
    check_plan(scan_plan(spec, m, budget=budget))
    at_last, at_end = indep.vacancy_tables(spec, x0, indep.site_schedules(spec, x0, m), m)
    order = masks_by_weight(n)[0]
    singles = 1 << np.arange(n)
    # omega of the steps mask S has bit m - t set where step t is free,
    # so it sits at full - reverse(S) in scan order
    full = (1 << m) - 1
    place = full - bit_reverse(np.arange(1 << m), m)
    single = np.empty((n, 1 << m))
    single[:, full] = 1.0 - at_end[:, 0]
    multi_worst, multi_steps = np.inf, None
    for t, nodes, vac in _scan(kernel.dense(spec), x0, m, budget):
        # nodes whose demands all fall on site i give i's single-site margins
        r, i = np.nonzero((nodes.sites[:, None] | singles) == singles)
        times = nodes.steps[r, i] | 1 << (t - 1)
        single[i, place[times]] = vac[r, singles[i]] - at_end[i, times]
        for d in set(nodes.demands[nodes.demands < budget].tolist()):
            rows = np.flatnonzero(nodes.demands == d)
            masks = order[1:weight_count(n, budget - d) + 1]
            surrogate = np.ones((rows.size, masks.size))
            for j in range(n):
                surrogate *= at_last[j, nodes.steps[rows, j, None] | (masks >> j & 1) << (t - 1)]
            margins = vac[rows[:, None], masks] - surrogate
            low = margins.min()
            if low <= multi_worst:
                r, k = np.nonzero(margins == low)
                tied = _add_step(nodes.steps[rows[r]], masks[k], t)
                if low == multi_worst:
                    tied = np.vstack([multi_steps, tied])
                multi_worst, multi_steps = low, tied[_first_scanned(tied, m)]
    k = int(np.argmin(single))
    site, omega = divmod(k, 1 << m)
    worst = single[site, omega]
    witness = {"kind": "single-site", "site": site,
               "omega": [omega >> (m - t) & 1 for t in range(1, m + 1)]}
    if multi_worst < worst:
        worst = multi_worst
        witness = {"kind": "multisite",
                   "entries": [[i, [t for t in range(1, m + 1) if s >> (t - 1) & 1]]
                               for i, s in enumerate(multi_steps.tolist()) if s]}
    return OrderReport(
        check="path-orthant",
        universe={"n": spec.n, "x0": x0, "m": m, "budget": budget},
        worst_margin=float(worst),
        witness=witness,
        tol=tol,
        certified=certified,
        details={"worst_multisite_margin": float(multi_worst)},
    )


def spin_marginal_bound(spec: SpinSpec, x0: int, t_grid, tol: float = 1e-6,
                        certified: bool | None = None,
                        config: OdeConfig = OdeConfig(h=1e-3, method="rk4")) -> OrderReport:
    """ODE trajectory minus exact spin occupation probabilities on a time grid.

    One rate table serves every law on the grid; each law is stepped from
    the previous grid point's.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid or any(t < 0 for t in t_grid) or sorted(t_grid) != t_grid:
        raise ValueError("t_grid must be nonempty, nondecreasing and nonnegative")
    check_plan(spin_bound_plan(spec, t_grid[-1], len(t_grid),
                               max(b - a for a, b in zip([0.0, *t_grid], t_grid)), config))
    rates = exact.spin_generator(spec)
    p = exact.state_bits(x0, spec.n)
    law = exact.point_mass(spec.n, x0)
    worst = np.inf
    witness = {}
    per_time = []
    t_cur = 0.0
    for t in t_grid:
        if t > t_cur:
            p = meanfield.flow(spec, p, t - t_cur, config)
            law = exact.spin_law_from(rates, law, t - t_cur)
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
        tol=tol,
        certified=certified,
        details={"min_margin_per_time": per_time},
    )
