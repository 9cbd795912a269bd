"""Ready-made models used by tests, experiments, and the docs.

`random_certified_model` draws occupancy models that provably satisfy every
ordering hypothesis, by keeping both functions affine and never saturated.
"""

from __future__ import annotations

import numpy as np

from .model import FunctionFamily, ModelSpec, SpinSpec


def _const(n: int, c: float, role: str = "probability") -> FunctionFamily:
    return FunctionFamily(variant="constant", n=n, params={"c": c}, role=role)


def _affine(n: int, a: float, b, role: str = "probability") -> FunctionFamily:
    return FunctionFamily(variant="affine-saturated", n=n,
                          params={"a": a, "b": list(b)}, role=role)


def constant_pair(n: int = 1, c: float = 0.3, s: float = 0.8) -> ModelSpec:
    """Sites that ignore each other entirely."""
    return ModelSpec(n=n,
                     colonisation=tuple(_const(n, c) for _ in range(n)),
                     survival=tuple(_const(n, s) for _ in range(n)))


def interacting_pair() -> ModelSpec:
    """Two sites, each colonised at 0.2 + 0.3 * (other side occupied)."""
    c0 = _affine(2, 0.2, [0.0, 0.3])
    c1 = _affine(2, 0.2, [0.3, 0.0])
    s = _const(2, 0.9)
    return ModelSpec(n=2, colonisation=(c0, c1), survival=(s, s))


def non_monotone_pair() -> ModelSpec:
    """Site 0 colonises *less* when its neighbour is occupied.

    Deliberately violates the monotonicity hypotheses; used to show the
    paired-uniform path check really detects order breaks.
    """
    table_c0 = [0.8, 0.8, 0.1, 0.1]
    c0 = FunctionFamily(variant="tabulated-multilinear", n=2,
                        params={"table": table_c0})
    c1 = _const(2, 0.3)
    s = _const(2, 0.6)
    return ModelSpec(n=2, colonisation=(c0, c1), survival=(s, s))


def random_certified_model(n: int, seed: int) -> ModelSpec:
    """Random affine model satisfying every ordering hypothesis.

    Construction: colonisation a_C + b_C . p with a_C + sum(b_C) <= 0.95
    (never saturates, hence exactly affine: concave and convex at once);
    survival a_S + b_S . p with b_S <= b_C componentwise, so the gap is
    decreasing, and a_S >= a_C + sum(b_C - b_S), so the gap stays
    nonnegative on the whole cube; a_S + sum(b_S) <= 1 keeps survival
    unsaturated too.
    """
    rng = np.random.default_rng(seed)
    colonisation = []
    survival = []
    for _ in range(n):
        a_c = rng.uniform(0.05, 0.3)
        w = rng.uniform(0.0, 1.0, size=n)
        w_sum = rng.uniform(0.05, 0.95 - a_c)
        b_c = w / w.sum() * w_sum
        b_s = rng.uniform(0.0, 1.0, size=n) * b_c
        lo = a_c + float(np.sum(b_c - b_s))
        hi = 1.0 - float(np.sum(b_s))
        a_s = rng.uniform(lo, hi)
        colonisation.append(_affine(n, a_c, b_c))
        survival.append(_affine(n, a_s, b_s))
    return ModelSpec(n=n, colonisation=tuple(colonisation), survival=tuple(survival))


def two_state_spin(lam: float = 0.5, mu: float = 1.0) -> SpinSpec:
    """Single site with constant birth and death rates.

    Rate magnitudes live in the scale factor because the constant level
    itself is confined to [0,1].
    """
    birth = FunctionFamily(variant="constant", n=1, params={"c": 1.0},
                           role="rate", scale=lam)
    death = FunctionFamily(variant="constant", n=1, params={"c": 1.0},
                           role="rate", scale=mu)
    return SpinSpec(n=1, birth=(birth,), death=(death,))


def contact_ring(n: int, beta: float = 0.35, mu: float = 1.0) -> SpinSpec:
    """Contact process on a ring: birth beta * (occupied neighbours), death mu.

    The birth rate is affine (it never saturates because the underlying
    family averages the two neighbour coordinates before scaling), so the
    full ordering hypothesis set holds: births increasing concave, deaths
    constant, total rates increasing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    birth = []
    for i in range(n):
        b = np.zeros(n)
        # each neighbour once: none on one site, the one other on two
        for j in {(i - 1) % n, (i + 1) % n} - {i}:
            b[j] = 0.5
        birth.append(FunctionFamily(variant="affine-saturated", n=n,
                                    params={"a": 0.0, "b": b.tolist()},
                                    role="rate", scale=2.0 * beta))
    death = tuple(FunctionFamily(variant="constant", n=n, params={"c": 1.0},
                                 role="rate", scale=mu) for _ in range(n))
    return SpinSpec(n=n, birth=tuple(birth), death=death)
