"""Time discretisation linking spin systems to occupancy chains.

A spin system with birth rates lam and death rates mu maps, for a step
delta small enough that delta * sup(lam) <= 1 and delta * sup(mu) <= 1,
to the occupancy chain with colonisation delta * lam and survival
1 - delta * mu.  Three quantities measure how faithful the chain is:

  * uniformised flip rates (off-diagonal transition mass over delta)
    against the generator's rate table;
  * the law of the chain subordinated to a Poisson(t / delta) number of
    steps against the continuous-time law;
  * the chain's deterministic recursion (an Euler scheme with step
    delta) against the occupancy ODE.

All three converge at first order in delta, and path-level vacancy
orderings established for the chain survive the limit.

Each metric function takes the objects it shares as arguments (the
chain's kernel, the one dense array; the spin generator as its rate table
`exact.spin_generator`; the spin law; the reference ODE endpoint), so
`convergence_table` builds each once: a kernel per delta, dropped before
the next, the rest once per table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace

import numpy as np

from . import exact, indep, meanfield
from .exact import MultiSitePattern
from .lattice import BLOCK_ENTRIES, check_dense
from .meanfield import OdeConfig
from .model import ModelSpec, SpinSpec
from .order import OrderReport

DEFAULT_DELTAS = tuple(2.0 ** -k for k in range(4, 9))
REFERENCE_ODE = OdeConfig(h=1e-3, method="rk4")
_ADMISSIBLE_SLACK = 1e-12
# diagnostics at or below this value are numerical floor, not a trend
_CONVERGENCE_FLOOR = 1e-9


class InadmissibleDelta(ValueError):
    """Step size too large: some discretised probability leaves [0,1]."""


@dataclass(frozen=True)
class DiscretisationConfig:
    delta: float

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("delta must be > 0")


def admissibility_bound(spec: SpinSpec) -> float:
    """Largest step for which all discretised probabilities stay in [0,1].

    Uses exact per-family range bounds, so no sampling is involved; pins
    are ignored by the bounds, which can only make the result smaller
    (never unsafely large).
    """
    sup = 0.0
    for fam in spec.birth + spec.death:
        sup = max(sup, fam.range_bounds()[1])
    return np.inf if sup == 0.0 else 1.0 / sup


def discretise(spec: SpinSpec, config: DiscretisationConfig) -> ModelSpec:
    """Occupancy chain with colonisation delta*birth and survival 1 - delta*death."""
    delta = config.delta
    if delta > admissibility_bound(spec) * (1.0 + _ADMISSIBLE_SLACK):
        raise InadmissibleDelta(
            f"delta={delta} exceeds the admissibility bound {admissibility_bound(spec)}")
    colonisation = tuple(
        replace(fam, role="probability",
                offset=delta * fam.offset, scale=delta * fam.scale)
        for fam in spec.birth)
    survival = tuple(
        replace(fam, role="probability",
                offset=1.0 - delta * fam.offset, scale=-delta * fam.scale)
        for fam in spec.death)
    return ModelSpec(n=spec.n, colonisation=colonisation, survival=survival)


def rate_defect(spec: SpinSpec, config: DiscretisationConfig, kernel: np.ndarray,
                rates: np.ndarray) -> tuple[float, float]:
    """(worst single-flip rate error, worst multi-flip rate) of the chain.

    Single-flip rates kernel[w, w ^ 2^i] / delta converge to rates[w, i] at
    first order in delta; transitions flipping two or more bits have
    probability O(delta^2), hence rate O(delta).  `kernel` (the chain's)
    and `rates` (the spin system's table) are left as they are.
    """
    delta = config.delta
    words = np.arange(kernel.shape[0])
    single = 0.0
    for i in range(spec.n):
        flips = kernel[words, words ^ (1 << i)] / delta
        single = max(single, float(np.max(np.abs(flips - rates[:, i]))))
    rows = max(1, BLOCK_ENTRIES // words.size)
    multi = 0.0
    for start in range(0, words.size, rows):
        hops = words[start:start + rows, None] ^ words
        # a hop with two or more bits set flips two or more sites
        multi = max(multi, float(np.max(kernel[start:start + rows],
                                        where=(hops & (hops - 1)) != 0, initial=0.0)))
    return single, multi / delta


def subordinated_law(spec: SpinSpec, config: DiscretisationConfig, x0: int,
                     t: float, kernel: np.ndarray, tail_tol: float = 1e-12) -> np.ndarray:
    """Law of the chain run for a Poisson(t/delta) number of steps.

    `kernel` is the chain's transition matrix.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    v0 = exact.point_mass(spec.n, x0)
    return exact.as_distribution(
        exact.poisson_mixture(lambda v: v @ kernel, v0, t / config.delta, tail_tol))


def law_distance(spec: SpinSpec, config: DiscretisationConfig, x0: int, t: float,
                 kernel: np.ndarray, truth: np.ndarray, tail_tol: float = 1e-12) -> float:
    """Total variation between the subordinated chain and the spin law `truth` at t."""
    approx = subordinated_law(spec, config, x0, t, kernel, tail_tol)
    return 0.5 * float(np.abs(approx - truth).sum())


def euler_gap(spec: SpinSpec, p0, t: float, config: DiscretisationConfig,
              reference_end: np.ndarray) -> float:
    """Sup-norm gap at time t between the delta-step Euler path and a fine reference.

    The Euler path with step delta is exactly the discretised chain's
    deterministic recursion, so this measures how far the chain's
    deterministic trajectory sits from the ODE flow.  `reference_end` is
    the state at t of a fine integration from p0, such as one with
    `REFERENCE_ODE`.
    """
    _, coarse = meanfield.integrate_ode(spec, p0, t,
                                        OdeConfig(h=config.delta, method="euler"))
    return float(np.max(np.abs(coarse[-1] - reference_end)))


def ordering_margins(spec: SpinSpec, x0: int, demands,
                     deltas=DEFAULT_DELTAS) -> list[tuple[float, float]]:
    """Vacancy-ordering margins of the discretised chains along a delta grid.

    `demands` lists (site, times) with real-valued times; each time must be
    an integer multiple of every delta in the grid.  Returns (delta, margin)
    pairs, margin being the chain's joint vacancy probability minus the
    independent surrogate's.
    """
    out = []
    for delta in deltas:
        entries = []
        for site, times in demands:
            steps = []
            for tau in times:
                k = round(tau / delta)
                if abs(k * delta - tau) > 1e-9 * max(1.0, abs(tau)):
                    raise ValueError(f"time {tau} is not a multiple of delta={delta}")
                steps.append(k)
            entries.append((site, tuple(steps)))
        chain = discretise(spec, DiscretisationConfig(delta))
        discrete = MultiSitePattern(entries=tuple(entries))
        kernel = exact.transition_matrix(chain)
        schedules = indep.site_schedules(chain, x0, max(1, discrete.horizon))
        p_chain = exact.multisite_probability(chain, x0, discrete, kernel)
        p_indep = indep.multisite_probability(chain, x0, discrete, schedules)
        out.append((delta, p_chain - p_indep))
    return out


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of (delta, metric, value) for the discretisation diagnostics."""

    rows: tuple[tuple[float, str, float], ...]

    def values(self, metric: str) -> list[tuple[float, float]]:
        return [(d, v) for d, m, v in self.rows if m == metric]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["delta", "metric", "value"])
        for delta, metric, value in self.rows:
            writer.writerow([repr(delta), metric, repr(value)])
        return buf.getvalue()


def convergence_table(spec: SpinSpec, x0: int, t: float, deltas=DEFAULT_DELTAS,
                      tail_tol: float = 1e-12) -> ConvergenceTable:
    """Rate, law, and Euler diagnostics for each step size on the grid.

    The rate table, the spin law at t and the reference ODE endpoint are
    computed once; each delta's chain kernel is built once, shared by its
    rate defect and its subordinated law, and dropped before the next is
    built, so one dense array is held at a time.
    """
    check_dense(spec.n)
    configs = [DiscretisationConfig(delta) for delta in deltas]
    chains = [discretise(spec, config) for config in configs]
    p0 = exact.state_bits(x0, spec.n)
    rates = exact.spin_generator(spec)
    truth = exact.spin_law(rates, x0, t, tail_tol)
    reference_end = meanfield.integrate_ode(spec, p0, t, REFERENCE_ODE)[1][-1]
    rows = []
    for config, chain in zip(configs, chains):
        delta = config.delta
        kernel = exact.transition_matrix(chain)
        single, multi = rate_defect(spec, config, kernel, rates)
        rows.append((delta, "single-flip-rate-error", single))
        rows.append((delta, "multi-flip-rate", multi))
        rows.append((delta, "law-distance",
                     law_distance(spec, config, x0, t, kernel, truth, tail_tol)))
        del kernel
        rows.append((delta, "euler-gap", euler_gap(spec, p0, t, config, reference_end)))
    return ConvergenceTable(rows=tuple(rows))


def convergence_report(table: ConvergenceTable, universe: dict, tol: float,
                       certified: bool) -> OrderReport:
    """Pass when every diagnostic is nonincreasing along the delta grid.

    Consecutive pairs already at numerical floor are skipped; the margin
    is the worst observed decrease (negative means a metric grew).
    """
    worst = np.inf
    witness: dict = {"metric": None}
    for metric in ("single-flip-rate-error", "multi-flip-rate",
                   "law-distance", "euler-gap"):
        pairs = table.values(metric)
        for (d0, v0), (d1, v1) in zip(pairs, pairs[1:]):
            if max(v0, v1) <= _CONVERGENCE_FLOOR:
                continue
            if v0 - v1 < worst:
                worst = v0 - v1
                witness = {"metric": metric, "deltas": [d0, d1], "values": [v0, v1]}
    if not np.isfinite(worst):
        worst = 0.0
    return OrderReport(
        check="discretisation-convergence",
        universe=universe,
        worst_margin=float(worst),
        witness=witness,
        verdict="pass" if worst >= -tol else ("fail" if certified else "informative"),
        tol=tol,
        certified=certified,
        details={"rows": [list(r) for r in table.rows]},
    )
