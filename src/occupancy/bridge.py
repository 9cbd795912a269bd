"""Time discretisation linking spin systems to occupancy chains.

A spin system with birth rates lam and death rates mu maps, for delta *
sup(lam) <= 1 and delta * sup(mu) <= 1, to the occupancy chain with
colonisation delta * lam and survival 1 - delta * mu, whose faithfulness
three quantities measure:

  * uniformised flip rates (off-diagonal transition mass over delta)
    against the generator's rate table;
  * the law of the chain subordinated to a Poisson(t / delta) number of
    steps against the continuous-time law;
  * the chain's deterministic recursion (an Euler scheme with step
    delta) against the occupancy ODE.

All three converge at first order in delta, and path-level vacancy
orderings established for the chain survive the limit.

Each metric takes the objects it shares as arguments (the chain and its
`exact.Kernel`, the rate table `exact.spin_generator`, the spin law, the
reference ODE's end state), so `convergence_table` builds each once: a
chain and a kernel per delta, the rest once per table.  No metric forms
the dense 2^n x 2^n matrix: the rate defect reads the chain's per-site
probabilities a row block at a time, and the subordinated law's Poisson
mixture, thinned to the chain's moves, pushes through the kernel's two
factor tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import exact, meanfield
from .lattice import CALL_WORK, ENTRY_WORK, Plan, block_count, check_plan, lattice_blocks
from .meanfield import OdeConfig
from .model import ModelSpec, SpinSpec, lattice_transitions
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
    sup = max(fam.range_bounds()[1] for fam in spec.birth + spec.death)
    return np.inf if sup == 0.0 else 1.0 / sup


def check_delta(spec: SpinSpec, delta: float):
    """Raise InadmissibleDelta where step delta is past `admissibility_bound`."""
    bound = admissibility_bound(spec)
    if delta > bound * (1.0 + _ADMISSIBLE_SLACK):
        raise InadmissibleDelta(f"delta={delta} exceeds the admissibility bound {bound}")


def discretise(spec: SpinSpec, config: DiscretisationConfig) -> ModelSpec:
    """Occupancy chain with colonisation delta*birth and survival 1 - delta*death."""
    delta = config.delta
    check_delta(spec, delta)
    colonisation = tuple(
        replace(fam, role="probability",
                offset=delta * fam.offset, scale=delta * fam.scale)
        for fam in spec.birth)
    survival = tuple(
        replace(fam, role="probability",
                offset=1.0 - delta * fam.offset, scale=-delta * fam.scale)
        for fam in spec.death)
    return ModelSpec(n=spec.n, colonisation=colonisation, survival=survival)


def _site_products(stay: np.ndarray, flip: np.ndarray, flipped) -> np.ndarray:
    """Per state, the product of `flip` at the sites in `flipped` and `stay` elsewhere.

    The factors are multiplied in site order, starting from 1.0, which is
    the order the kernel's expansion multiplies them in: with the chain's
    stay and flip probabilities, each value is a kernel entry bit for bit.
    """
    out = np.ones(stay.shape[0])
    for i in range(stay.shape[1]):
        out *= flip[:, i] if i in flipped else stay[:, i]
    return out


def rate_defect(chain: ModelSpec, config: DiscretisationConfig,
                rates: np.ndarray) -> tuple[float, float]:
    """(worst single-flip rate error, worst multi-flip rate) of `chain`, a spin system discretised.

    Single-flip rates T[w, w ^ 2^i] / delta, T the chain's kernel, converge
    to the spin system's rates[w, i] at first order in delta; transitions
    flipping two or more bits have probability O(delta^2), hence rate
    O(delta).  Both are read off the chain's per-site probabilities, a row
    block of states at a time: bit i of w stays with probability
    `stay[w, i]` and flips with `flip[w, i]`, and T[w, y] is the product
    of one of them per site.  The largest entry flipping two or more sites
    flips some pair j < k, so it is at most the product with flip at j and
    k and the larger factor elsewhere, itself an entry, since a rounded
    product of nonnegative floats never falls when a factor grows.
    """
    delta, n = config.delta, chain.n
    pairs = list(itertools.combinations(range(n), 2))
    single = multi = 0.0
    for rows, bits in lattice_blocks(n, n):
        q = lattice_transitions(chain, bits)
        on = bits > 0
        stay = np.where(on, q, 1.0 - q)
        flip = np.where(on, 1.0 - q, q)
        for i in range(n):
            flips = _site_products(stay, flip, (i,)) / delta
            single = max(single, float(np.max(np.abs(flips - rates[rows, i]))))
        larger = np.maximum(stay, flip)
        for pair in pairs:
            multi = max(multi, float(np.max(_site_products(larger, flip, pair))))
    return single, multi / delta


def subordinated_law(spec: SpinSpec, config: DiscretisationConfig, x0: int,
                     t: float, kernel: exact.Kernel) -> np.ndarray:
    """Law of the chain run for a Poisson(t/delta) number of steps.

    Most of those steps stay put, so the chain is thinned to its moves:
    with e = `kernel.largest_exit` and P = I + (T - I)/e, which is
    stochastic, sum_k Pois(k; t/delta) v T^k = sum_k Pois(k; e t/delta) v P^k,
    both being v exp((t/delta)(T - I)).  A step of P is one `kernel.push`,
    about t * (largest exit rate) of them whatever delta is.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    v0 = exact.point_mass(spec.n, x0)
    e = kernel.largest_exit
    if e == 0.0:
        return v0

    def step(v):
        out = kernel.push(v)
        out -= v
        out /= e
        out += v
        return out

    return exact.as_distribution(exact.poisson_mixture(step, v0, e * t / config.delta))


def law_distance(spec: SpinSpec, config: DiscretisationConfig, x0: int, t: float,
                 kernel: exact.Kernel, truth: np.ndarray) -> float:
    """Total variation between the subordinated chain and the spin law `truth` at t."""
    approx = subordinated_law(spec, config, x0, t, kernel)
    return 0.5 * float(np.abs(approx - truth).sum())


def euler_gap(spec: SpinSpec, p0, t: float, config: DiscretisationConfig,
              reference_end: np.ndarray) -> float:
    """Sup-norm gap at time t between the delta-step Euler path and `reference_end`.

    The Euler path is the discretised chain's deterministic recursion, and
    `reference_end` the state at t of a fine integration from p0, such as
    `REFERENCE_ODE`'s: the gap is how far the chain's recursion sits from
    the ODE flow.
    """
    coarse = meanfield.flow(spec, p0, t, OdeConfig(h=config.delta, method="euler"))
    return float(np.max(np.abs(coarse - reference_end)))


@dataclass(frozen=True)
class ConvergenceTable:
    """Rows of (delta, metric, value) for the discretisation diagnostics."""

    # the CSV header, as `cli._csv_text` writes the rows
    columns = ("delta", "metric", "value")
    rows: tuple[tuple[float, str, float], ...]

    def values(self, metric: str) -> list[tuple[float, float]]:
        return [(d, v) for d, m, v in self.rows if m == metric]


def convergence_plan(spec: SpinSpec, t: float, deltas=DEFAULT_DELTAS) -> Plan:
    """`convergence_table`'s plan: the rate table, and the most held beside it at once.

    That is the spin engine's law (`exact.spin_plan`) or, beside the spin
    law, a kernel and its thinned mixture's sum; and the Poisson weights.
    The spin law and each mixture take about t times the largest total
    flip rate steps, each rate defect n^2 (n + 1) / 2 passes over the
    states, and the ODE paths, one state each, t / delta Euler steps and
    the reference's t / h.
    """
    n, mean = spec.n, exact.spin_rate_bound(spec) * t
    law, table, terms = 8 << n, 8 * n << n, exact.poisson_terms(mean)
    spin, kernel = exact.spin_plan(n, terms), exact.kernel_plan(n, terms)
    passes = n * n * (n + 1) // 2 + 12 * n
    defect = ENTRY_WORK * float(passes << n) + CALL_WORK * passes * block_count(1 << n, n)
    odes = [OdeConfig(h=delta, method="euler") for delta in deltas] + [REFERENCE_ODE]
    return Plan(f"n = {n}, t = {t!r}: a kernel, the spin tables and their steps",
                table + max(spin.nbytes - table, 2 * law + kernel.nbytes)
                + exact.poisson_plan(mean).nbytes,
                spin.work + len(deltas) * (kernel.work + defect)
                + sum(meanfield.ode_plan(spec, t, config).work for config in odes))


def convergence_table(spec: SpinSpec, x0: int, t: float,
                      deltas=DEFAULT_DELTAS) -> ConvergenceTable:
    """Rate, law, and Euler diagnostics for each step size on the grid.

    Shared objects are built once, as the module notes say, after
    `convergence_plan` is checked; each kernel lives for its law distance only.
    """
    check_plan(convergence_plan(spec, t, deltas))
    configs = [DiscretisationConfig(delta) for delta in deltas]
    chains = [discretise(spec, config) for config in configs]
    p0 = exact.state_bits(x0, spec.n)
    rates = exact.spin_generator(spec)
    truth = exact.spin_law(rates, x0, t)
    reference_end = meanfield.flow(spec, p0, t, REFERENCE_ODE)
    rows = []
    for config, chain in zip(configs, chains):
        single, multi = rate_defect(chain, config, rates)
        distance = law_distance(spec, config, x0, t, exact.kernel(chain), truth)
        rows += [(config.delta, "single-flip-rate-error", single),
                 (config.delta, "multi-flip-rate", multi),
                 (config.delta, "law-distance", distance),
                 (config.delta, "euler-gap",
                  euler_gap(spec, p0, t, config, reference_end))]
    return ConvergenceTable(rows=tuple(rows))


def convergence_report(table: ConvergenceTable, universe: dict, tol: float,
                       certified: bool) -> OrderReport:
    """Whether every diagnostic is nonincreasing along the delta grid, by `OrderReport`'s rule.

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
        tol=tol,
        certified=certified,
        details={"rows": [list(r) for r in table.rows]},
    )
