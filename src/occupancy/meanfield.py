"""Deterministic site-occupancy approximations.

The discrete recursion propagates p in [0,1]^n by the model's functions
evaluated at p instead of at a random state; its continuous analogue, the
ODE p' = (1-p) * birth(p) - p * death(p), is integrated by fixed-step Euler
or classic Runge-Kutta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .lattice import Plan, check_plan
from .model import ModelSpec, SpinSpec, recursion_plan, site_values, transition_values

# the ufunc behind np.clip; calling it directly skips np.clip's Python
# wrappers, which cost more than the clamp itself on an n-vector (numpy < 2
# keeps it under `numpy.core`)
_clip = (getattr(np, "_core", None) or np.core).umath.clip


def _check_point(spec, p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (spec.n,):
        raise ValueError(f"expected a point of shape ({spec.n},), got {p.shape}")
    return p


def recursion_step(spec: ModelSpec, p) -> np.ndarray:
    """One step of the deterministic occupancy recursion."""
    return transition_values(spec, _check_point(spec, p)[None])[0]


def iterate(spec: ModelSpec, p0, steps: int) -> np.ndarray:
    """(steps+1, n) trajectory of the recursion, row 0 being p0."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    p = _check_point(spec, p0)
    check_plan(recursion_plan(spec, steps))
    out = np.empty((steps + 1, spec.n))
    out[0] = p
    for t in range(1, steps + 1):
        out[t] = p = recursion_step(spec, p)
    return out


@dataclass(frozen=True)
class OdeConfig:
    """Fixed-step integrator settings."""

    h: float = 1e-3
    method: str = "rk4"

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError(f"step size h must be finite and > 0, got {self.h!r}")
        if self.method not in ("rk4", "euler"):
            raise ValueError(f"unknown method {self.method!r}")


def ode_rhs(spec: SpinSpec, p) -> np.ndarray:
    """Right-hand side of the spin occupancy ODE."""
    p = _check_point(spec, p)
    lam, mu = site_values(spec, p[None])
    return (1.0 - p) * lam[0] - p * mu[0]


def _clamp01(y: np.ndarray) -> np.ndarray:
    """np.clip(y, 0.0, 1.0), bit for bit: -0.0 and NaN pass through."""
    return _clip(y, 0.0, 1.0)


def advance(rhs, y: np.ndarray, h: float, method: str) -> np.ndarray:
    """One Euler or RK4 step of y' = rhs(y); stages and result are clamped to [0,1]."""
    if method == "euler":
        y = y + h * rhs(y)
    else:
        k1 = rhs(y)
        k2 = rhs(_clamp01(y + 0.5 * h * k1))
        k3 = rhs(_clamp01(y + 0.5 * h * k2))
        k4 = rhs(_clamp01(y + h * k3))
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _clamp01(y)


def step_count(t_end: float, h: float) -> tuple[int, float]:
    """Number of full steps and the remainder needed to land exactly on t_end."""
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    full = math.floor(t_end / h + 1e-9)
    rem = t_end - full * h
    if rem < 1e-12 * max(1.0, t_end):
        rem = 0.0
    return full, rem


def ode_plan(spec, t_end, config, trajectory=False):
    """An integration's stages, and with `trajectory` a time and a state a step; from t_end / h."""
    steps = t_end / config.h + 2.0
    return Plan(f"t = {t_end!r}, h = {config.h!r}: the ODE's steps and states",
                8 * (spec.n + 1) * steps if trajectory else 0,
                steps * (4 if config.method == "rk4" else 1) * spec.bank.point_work)


def flow(spec, p0, t_end, config, out=None):
    """The state at t_end after full steps of h and a remainder step: the one step loop.

    Only one state is held, unless `out` is given: its rows take p0 and each
    state after it, as `integrate_ode` returns them.
    """
    p = _clamp01(_check_point(spec, p0))
    check_plan(ode_plan(spec, t_end, config))
    rhs = partial(ode_rhs, spec)
    full, rem = step_count(t_end, config.h)
    for k in range(full + 1 + (rem > 0.0)):
        if k:
            p = advance(rhs, p, config.h if k <= full else rem, config.method)
        if out is not None:
            out[k] = p
    return p


def integrate_ode(spec: SpinSpec, p0, t_end: float,
                  config: OdeConfig = OdeConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step integration to t_end, clamped to [0,1] after every step; (times, states).

    With method="euler" and h a discretisation step, the rows are the
    discretised chain's recursion up to round-off.
    """
    check_plan(ode_plan(spec, t_end, config, True))
    full, rem = step_count(t_end, config.h)
    times = np.append(np.arange(full + 1) * config.h, [t_end] * (rem > 0.0))
    states = np.empty((times.size, spec.n))
    flow(spec, p0, t_end, config, states)
    return times, states
