"""Model definitions and hypothesis checks; everything here is immutable after construction.

An occupancy model assigns each site a colonisation and a survival
probability, a spin model a birth and a death rate: functions [0,1]^n -> R
from a small set of closed-form families, so that evaluation on the cube,
on the lattice {0,1}^n, and exact range bounds are all available.

A family value is ``offset + scale * raw(p)`` with raw(p) in [0,1];
probability-role families clamp it to [0,1], rate-role families require
offset, scale >= 0 and offset + scale <= RATE_BOUND.  The affine
post-transform lets one parameter set serve as a rate and as its own
time-discretised probability.  Coordinate pins substitute fixed values for
chosen coordinates (used to mask self-colonisation).  Each spec compiles
its families once into a `SiteBank`, which evaluates every site's
functions on a batch at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Rational
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .lattice import (CALL_WORK, ENTRY_WORK, Plan, block_count, check_plan, lattice_blocks,
                      row_blocks, shown, sweep_work, word_bits)
from .streams import assumption_uniforms

VARIANTS = (
    "constant",
    "affine-saturated",
    "product-form",
    "hanski-incidence",
    "tabulated-multilinear",
)

ROLES = ("probability", "rate")

# exhaustive lattice scans are restricted to cubes of this dimension.  Their
# margins take O(n 2^n) per site; `hypothesis_plan` counts that work, but
# moving the cap would move findings from `sampled` to `lattice`
LATTICE_SCAN_CAP = 10
# all-pairs lattice midpoint scans grow as 4^n; keep them small
LATTICE_PAIR_CAP = 6

# largest rate a family may take (its offset + scale): far below the float
# range, so the spin routes' sums and quotients of rates (n a state, six RK4
# stages, Lipschitz gaps over distances down to 1e-12) stay finite
RATE_BOUND = 1e200


class ModelError(ValueError):
    """Invalid model parameters or malformed model documents."""


class DimensionError(ModelError):
    """Input dimension does not match the family dimension."""


def _number(value, label: str) -> float:
    """`value` as a float if it is a number; float() would also read a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ModelError(f"{label} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ModelError(f"{label} must be finite, got an integer past the float range") from None


def _numbers(values, label: str) -> np.ndarray:
    """A list or an array of numbers only, as a float array."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
        for item in values if isinstance(values, (list, tuple)) else (values,):
            _number(item, f"{label} entry")
    return np.asarray(values, dtype=float)


def _as_prob_vector(values, length: int, label: str) -> np.ndarray:
    arr = _numbers(values, label)
    if arr.shape != (length,):
        raise ModelError(f"{label} must have length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{label} must be finite")
    return arr


def _finite(value, label: str) -> float:
    value = _number(value, label)
    if not np.isfinite(value):
        raise ModelError(f"{label} must be finite, got {value}")
    return value


def _check_top(top, label: str):
    """Reject parameters whose largest intermediate value on the cube, `top`, overflowed."""
    if not np.isfinite(top):
        raise ModelError(f"{label} must be finite: the family would overflow")


@dataclass(frozen=True)
class FunctionFamily:
    """One evaluable function on [0,1]^n.

    `variant` is one of VARIANTS, with `params` as `_validate` checks them;
    `role` is "probability" (values clamped to [0,1]) or "rate" (values
    >= 0); `offset` and `scale` are the affine post-transform of the raw
    value; `pins` are (site, value) coordinates substituted before evaluation.
    """

    variant: str
    n: int
    params: Mapping[str, object]
    role: str = "probability"
    offset: float = 0.0
    scale: float = 1.0
    pins: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        self._validate()

    def _validate(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown family variant {self.variant!r}")
        if self.role not in ROLES:
            raise ModelError(f"unknown role {self.role!r}")
        if self.n < 1:
            raise ModelError("family dimension must be >= 1")
        offset, scale = _number(self.offset, "offset"), _number(self.scale, "scale")
        if not (np.isfinite(offset) and np.isfinite(scale)):
            raise ModelError("offset and scale must be finite")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "scale", scale)
        # the value at raw 1: with the offset, it bounds the family's magnitude
        top = offset + scale
        _check_top(top, "offset + scale")
        if self.role == "rate" and (self.offset < 0 or self.scale < 0):
            raise ModelError("rate families need offset >= 0 and scale >= 0")
        if self.role == "rate" and top > RATE_BOUND:
            raise ModelError(f"rate families need offset + scale <= {RATE_BOUND:g}, "
                             f"got {top!r}")

        pins = {}
        for site, value in self.pins:
            site = int(site)
            value = _number(value, f"pinned value at site {site}")
            if not 0 <= site < self.n:
                raise ModelError(f"pinned site {site} out of range")
            if not 0.0 <= value <= 1.0:
                raise ModelError("pinned values must lie in [0,1]")
            pins[site] = value
        object.__setattr__(self, "pins", tuple(sorted(pins.items())))

        params = dict(self.params)
        norm: dict[str, object] = {}
        expected = {
            "constant": {"c"},
            "affine-saturated": {"a", "b"},
            "product-form": {"beta"},
            "hanski-incidence": {"b", "y"},
            "tabulated-multilinear": {"table"},
        }[self.variant]
        if set(params) != expected:
            raise ModelError(
                f"{self.variant} expects params {sorted(expected)}, got {sorted(params)}")

        if self.variant == "constant":
            c = _finite(params["c"], "constant level c")
            if not 0.0 <= c <= 1.0:
                raise ModelError("constant level c must lie in [0,1]")
            norm["c"] = c
        elif self.variant == "affine-saturated":
            a = _finite(params["a"], "intercept a")
            b = _as_prob_vector(params["b"], self.n, "weight vector b")
            if a < 0 or np.any(b < 0):
                raise ModelError("affine-saturated needs a >= 0 and b >= 0")
            # the bank's largest sum, at the all-ones point, in its coordinate order
            with np.errstate(over="ignore"):
                _check_top(np.add.accumulate(b)[-1] + a, "a + sum(b)")
            norm["a"] = a
            norm["b"] = b
        elif self.variant == "product-form":
            beta = _as_prob_vector(params["beta"], self.n, "beta")
            if np.any(beta < 0) or np.any(beta > 1):
                raise ModelError("product-form needs beta in [0,1]")
            norm["beta"] = beta
        elif self.variant == "hanski-incidence":
            b = _as_prob_vector(params["b"], self.n, "weight vector b")
            y = _finite(params["y"], "half-saturation y")
            if np.any(b < 0) or not y > 0:
                raise ModelError("hanski-incidence needs b >= 0 and y > 0")
            # the bank's largest value, at the all-ones point, in its coordinate order
            with np.errstate(over="ignore"):
                _check_top(np.add.accumulate(b)[-1] ** 2 + np.float64(y) ** 2,
                           "sum(b)^2 + y^2")
            # the bank divides by w^2 + y^2, which is 0 at w = 0 if y^2 underflows
            if not y ** 2 > 0:
                raise ModelError(f"half-saturation y must have y^2 > 0, got y = {y!r}")
            norm["b"] = b
            norm["y"] = y
        else:
            table = _numbers(params["table"], "table")
            if table.shape != (1 << self.n,):
                raise ModelError(f"table must have length {1 << self.n}")
            if np.any(table < 0) or np.any(table > 1) or not np.all(np.isfinite(table)):
                raise ModelError("table entries must lie in [0,1]")
            norm["table"] = table

        object.__setattr__(self, "params", norm)

    # -- evaluation ---------------------------------------------------------

    @cached_property
    def _bank(self) -> "SiteBank":
        return SiteBank((self,))

    def eval_batch(self, points) -> np.ndarray:
        """Evaluate at a (B, n) batch of cube points; returns shape (B,)."""
        return self._bank.values(points)[:, 0]

    def eval(self, point) -> float:
        """Evaluate at a single cube point."""
        pt = np.asarray(point, dtype=float)
        if pt.shape != (self.n,):
            raise DimensionError(f"expected a point of shape ({self.n},), got {pt.shape}")
        return float(self.eval_batch(pt[None, :])[0])

    # -- structure ----------------------------------------------------------

    def pinned(self, site: int, value: float) -> "FunctionFamily":
        """Copy with one more coordinate pin (later pins override earlier)."""
        merged = dict(self.pins)
        merged[int(site)] = float(value)
        return replace(self, params=dict(self.params), pins=tuple(sorted(merged.items())))

    def range_bounds(self) -> tuple[float, float]:
        """Exact [lo, hi] bounds of the family over the cube, in closed form; pins are ignored.

        A multilinear table attains its extremes at lattice points.
        """
        p = self.params
        if self.variant == "constant":
            lo = hi = p["c"]
        elif self.variant == "affine-saturated":
            lo = min(1.0, p["a"])
            hi = min(1.0, p["a"] + float(np.sum(p["b"])))
        elif self.variant == "product-form":
            lo = 0.0
            hi = 1.0 - float(np.prod(1.0 - p["beta"]))
        elif self.variant == "hanski-incidence":
            m = float(np.sum(p["b"]))
            lo = 0.0
            hi = m * m / (m * m + p["y"] ** 2)
        else:
            lo = float(np.min(p["table"]))
            hi = float(np.max(p["table"]))
        a, b = self.offset + self.scale * lo, self.offset + self.scale * hi
        lo, hi = min(a, b), max(a, b)
        if self.role == "probability":
            lo, hi = min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0)
        return lo, hi


# -- the site-function bank -------------------------------------------------


def _columns(cols: list[int]):
    """Bank columns as a slice when they are consecutive, else as indices."""
    if cols[-1] - cols[0] == len(cols) - 1:
        return slice(cols[0], cols[-1] + 1)
    return np.asarray(cols)


class _VariantGroup:
    """A bank's families of one variant, their parameters stacked; values are family-major.

    A batch is read coordinate by coordinate, as its (n, B) transpose.
    """

    def __init__(self, variant: str, fams: Sequence[FunctionFamily], cols):
        n = fams[0].n
        self.variant = variant
        self.n = n
        self.cols = cols
        self.offset = np.array([[f.offset] for f in fams])
        self.scale = np.array([[f.scale] for f in fams])
        prob = np.array([[f.role == "probability"] for f in fams])
        # probability families are clamped to [0,1], rate families never
        self.clamp = ((np.where(prob, 0.0, -np.inf), np.where(prob, 1.0, np.inf))
                      if prob.any() else None)
        if variant == "constant":
            # the values do not depend on the point: finish them once
            self.value = self._finish(np.array([[f.params["c"]] for f in fams]))[:, 0]
            return
        if variant == "tabulated-multilinear":
            # each table is folded on its own, never copied into a stack
            self.tables = [f.params["table"] for f in fams]
            self.pins = [dict(f.pins) for f in fams]
            self.width = 1 << n
            return
        key = "beta" if variant == "product-form" else "b"
        # (n, families, 1): coordinate j's weight in every family
        self.weights = np.stack([f.params[key] for f in fams], axis=1)[:, :, None]
        pins = np.zeros(self.weights.shape)
        pinned = np.zeros(self.weights.shape, dtype=bool)
        for j, f in enumerate(fams):
            for site, value in f.pins:
                pins[site, j], pinned[site, j] = value, True
        # a pinned coordinate's term is its pin times its weight
        self.pinned = pinned[:, :, 0] if pinned.any() else None
        self.pinned_terms = (pins * self.weights)[pinned][:, None]
        self.width = self.weights.size
        if variant == "affine-saturated":
            self.a = np.array([[f.params["a"]] for f in fams])
        elif variant == "hanski-incidence":
            self.y2 = np.array([[f.params["y"] ** 2] for f in fams])

    def _raw(self, xt: np.ndarray) -> np.ndarray:
        """(families, rows) raw values in [0,1] at an (n, rows) block of points."""
        k = self.offset.shape[0]
        if self.variant == "tabulated-multilinear":
            raw = np.empty((k, xt.shape[1]))
            for j, (table, pins) in enumerate(zip(self.tables, self.pins)):
                # fold coordinates one at a time; coordinate i is the least
                # significant bit of the table index, so it is folded first
                cur = np.broadcast_to(table, (xt.shape[1], table.size))
                for i in range(self.n):
                    w = pins[i] if i in pins else xt[i, :, None]
                    folded = cur[:, ::2] * (1.0 - w)
                    folded += cur[:, 1::2] * w
                    cur = folded
                raw[j] = cur[:, 0]
            return raw
        # (n, families, rows) terms, in C order; each family's sum or product
        # runs over the coordinates in order, j = 0 first, whatever the
        # block's shape
        terms = np.multiply(self.weights, xt[:, None, :], order="C")
        if self.pinned is not None:
            terms[self.pinned] = self.pinned_terms
        if self.variant == "product-form":
            # the complements overwrite the terms: no second array of them
            return 1.0 - np.multiply.reduce(np.subtract(1.0, terms, out=terms), axis=0)
        if terms.size > self.n:
            dot = np.add.reduce(terms, axis=0)
        else:
            # one family at one point: numpy would sum the lone run pairwise
            dot = np.add.accumulate(terms, axis=0)[-1]
        if self.variant == "affine-saturated":
            dot += self.a
            return np.minimum(dot, 1.0, out=dot)
        m2 = dot ** 2
        return m2 / (m2 + self.y2)

    def _entries(self, xt: np.ndarray) -> np.ndarray:
        """(families, rows) raw values at an (n, rows) block of lattice points, as `_raw` folds.

        Each table's pins are folded, in `_raw`'s order, into a table of its
        free coordinates, which the points' bits index.  At a 0/1 coordinate
        the fold `a (1 - w) + b w` picks one half exactly but for a zero's
        sign: the entry plus 0.0, -0.0 only where every entry is -0.0.
        """
        raw = np.empty((len(self.tables), xt.shape[1]))
        for j, (table, pins) in enumerate(zip(self.tables, self.pins)):
            cur, free = table, []
            for i in range(self.n):
                if i not in pins:
                    free.append(i)
                    continue
                # the free coordinates before i are the low bits of cur's index
                pair = cur.reshape(-1, 2, 1 << len(free))
                folded = pair[:, 0] * (1.0 - pins[i])
                folded += pair[:, 1] * pins[i]
                cur = folded.reshape(-1)
            # the bits of the free coordinates sum exactly to the index
            index = (2.0 ** np.arange(len(free)) @ xt[free]).astype(np.intp)
            np.add(cur[index], -0.0 if np.signbit(table).all() else 0.0, out=raw[j])
        return raw

    def _finish(self, raw: np.ndarray) -> np.ndarray:
        """offset + scale * raw, clamped where the role asks; in place."""
        raw *= self.scale
        raw += self.offset
        if self.clamp is not None:
            np.clip(raw, *self.clamp, out=raw)
        return raw

    def fill(self, xt: np.ndarray, out: np.ndarray, lattice: bool):
        """Write the group's columns of the (B, families) `out` for an (n, B) batch.

        At a `lattice` batch, whose points are 0/1, tables are read by entry.
        """
        if self.variant == "constant":
            out[:, self.cols] = self.value
            return
        if lattice and self.variant == "tabulated-multilinear":
            out[:, self.cols] = self._finish(self._entries(xt)).T
            return
        # row blocks bound every temporary, whatever the batch
        for rows in row_blocks(xt.shape[1], self.width):
            out[rows, self.cols] = self._finish(self._raw(xt[:, rows])).T


class SiteBank:
    """Families on one cube, grouped by variant with each group's parameters stacked.

    A (B, n) batch gives every family's value with a few array operations
    per group, in `lattice.row_blocks` of the group's width.  A
    point's value depends on neither its batch nor the bank: sums and
    products run over the coordinates in order.
    """

    def __init__(self, families: Sequence[FunctionFamily]):
        fams = tuple(families)
        self.n = fams[0].n
        self.size = len(fams)
        # entries one interior point's evaluation reads, a weight per family
        # and coordinate and about two per entry of a folded table, and its
        # work with about 24 numpy calls, as an ODE stage or a recursion step
        self.entries = sum(2 << f.n if f.variant == "tabulated-multilinear" else f.n
                           for f in fams)
        self.point_work = ENTRY_WORK * self.entries + 24 * CALL_WORK
        self.groups = []
        for variant in VARIANTS:
            cols = [j for j, f in enumerate(fams) if f.variant == variant]
            if cols:
                self.groups.append(
                    _VariantGroup(variant, [fams[j] for j in cols], _columns(cols)))

    def values(self, points) -> np.ndarray:
        """(B, families) values at a (B, n) batch of cube points."""
        return self._values(points, False)

    def lattice_values(self, bits) -> np.ndarray:
        """`values` at a (B, n) batch of lattice points, bit for bit; tables are read by entry."""
        return self._values(bits, True)

    def _values(self, points, lattice: bool) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionError(f"expected points of shape (B, {self.n}), got {pts.shape}")
        xt = pts.T
        out = np.empty((pts.shape[0], self.size))
        for group in self.groups:
            group.fill(xt, out, lattice)
        return out


def _check_site_functions(n: int, fams: Sequence[FunctionFamily], label: str,
                          role: str) -> tuple[FunctionFamily, ...]:
    fams = tuple(fams)
    if len(fams) != n:
        raise ModelError(f"need {n} {label} functions, got {len(fams)}")
    for i, fam in enumerate(fams):
        if fam.n != n:
            raise ModelError(f"{label}[{i}] has dimension {fam.n}, expected {n}")
        if fam.role != role:
            raise ModelError(f"{label}[{i}] has role {fam.role!r}, expected {role!r}")
    return fams


@dataclass(frozen=True)
class ModelSpec:
    """Discrete-time occupancy model: per-site colonisation and survival."""

    n: int
    colonisation: tuple[FunctionFamily, ...]
    survival: tuple[FunctionFamily, ...]
    # colonisation then survival, compiled once
    bank: SiteBank = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("n must be >= 1")
        object.__setattr__(self, "colonisation",
                           _check_site_functions(self.n, self.colonisation,
                                                 "colonisation", "probability"))
        object.__setattr__(self, "survival",
                           _check_site_functions(self.n, self.survival,
                                                 "survival", "probability"))
        object.__setattr__(self, "bank", SiteBank(self.colonisation + self.survival))

    @cached_property
    def forms(self) -> dict:
        """Every target's per-site closed-form certificates, keyed as `_targets` is."""
        c = [_family_form(f) for f in self.colonisation]
        s = [_family_form(f) for f in self.survival]
        return {"C": c, "S": s, "gap": [_sum(si, _scaled(ci, -1, 0)) for ci, si in zip(c, s)]}


@dataclass(frozen=True)
class SpinSpec:
    """Continuous-time spin system: per-site birth and death rates."""

    n: int
    birth: tuple[FunctionFamily, ...]
    death: tuple[FunctionFamily, ...]
    # birth then death, compiled once
    bank: SiteBank = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("n must be >= 1")
        object.__setattr__(self, "birth",
                           _check_site_functions(self.n, self.birth, "birth", "rate"))
        object.__setattr__(self, "death",
                           _check_site_functions(self.n, self.death, "death", "rate"))
        object.__setattr__(self, "bank", SiteBank(self.birth + self.death))

    @cached_property
    def forms(self) -> dict:
        """Every target's per-site closed-form certificates, keyed as `_targets` is."""
        birth = [_family_form(f) for f in self.birth]
        death = [_family_form(f) for f in self.death]
        return {"birth": birth, "death": death, "total": [_sum(b, d) for b, d in zip(birth, death)]}


# -- the per-site functions, all sites at once ------------------------------


def site_values(spec, points) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) at a (B, n) batch of interior points, each of shape (B, n), off the bank.

    Column i holds site i's colonisation and survival probabilities for a
    ModelSpec, its birth and death rates for a SpinSpec.  The hypothesis
    scans read one bank per role instead.
    """
    out = spec.bank.values(points)
    return out[:, :spec.n], out[:, spec.n:]


def transition_values(spec, points) -> np.ndarray:
    """up * (1 - x) + down * x at a (B, n) batch of points x.

    On the lattice, entry [b, i] is the chance bit i is on next from state
    b (occupancy) or bit i's flip rate (spin); at a cube point it is the
    next value of the deterministic recursion.
    """
    pts = np.asarray(points, dtype=float)
    up, down = site_values(spec, pts)
    return up * (1.0 - pts) + down * pts


def recursion_plan(spec: ModelSpec, steps: int) -> Plan:
    """`meanfield.iterate`'s plan: the recursion's trajectory, and a point evaluation a step."""
    return Plan(f"{shown(steps)} steps: a ({shown(steps + 1)}, {spec.n}) trajectory",
                8 * (steps + 1) * spec.n, steps * spec.bank.point_work)


def lattice_transitions(spec, bits) -> np.ndarray:
    """`transition_values` at a (B, n) batch of state words' bits, bit for bit.

    Every table of per-site values on the lattice comes from here, a row
    block at a time: the exact kernel, its dense expansion, the rate
    defect, the spin rate table and the Monte Carlo thresholds.
    """
    pts = np.asarray(bits, dtype=float)
    out = spec.bank.lattice_values(pts)
    return out[:, :spec.n] * (1.0 - pts) + out[:, spec.n:] * pts


# -- JSON documents ---------------------------------------------------------

_FAMILY_KEYS = {"family", "params", "offset", "scale", "pins"}


def _family_to_obj(fam: FunctionFamily) -> dict:
    params = {}
    for key, value in fam.params.items():
        params[key] = value.tolist() if isinstance(value, np.ndarray) else value
    obj: dict[str, object] = {"family": fam.variant, "params": params}
    if fam.offset != 0.0:
        obj["offset"] = fam.offset
    if fam.scale != 1.0:
        obj["scale"] = fam.scale
    if fam.pins:
        obj["pins"] = {str(site): value for site, value in fam.pins}
    return obj


def _family_from_obj(obj, n: int, role: str, where: str) -> FunctionFamily:
    if not isinstance(obj, dict):
        raise ModelError(f"{where}: expected an object")
    unknown = set(obj) - _FAMILY_KEYS
    if unknown:
        raise ModelError(f"{where}: unknown fields {sorted(unknown)}")
    if "family" not in obj or "params" not in obj:
        raise ModelError(f"{where}: 'family' and 'params' are required")
    if not isinstance(obj["params"], dict):
        raise ModelError(f"{where}: 'params' must be an object")
    pins_obj = obj.get("pins", {})
    if not isinstance(pins_obj, dict):
        raise ModelError(f"{where}: 'pins' must be an object mapping site to value")
    for site in pins_obj:
        # int() would also read " 1", "+1", "01" and "1_0"
        if not (isinstance(site, str) and site.isdecimal() and str(int(site)) == site):
            raise ModelError(f"{where}: 'pins' key must be a site number in plain decimal, "
                             f"got {site!r}")
    try:
        pins = tuple((int(site), value) for site, value in pins_obj.items())
        return FunctionFamily(
            variant=obj["family"],
            n=n,
            params=obj["params"],
            role=role,
            offset=obj.get("offset", 0.0),
            scale=obj.get("scale", 1.0),
            pins=pins,
        )
    except ModelError as exc:
        raise ModelError(f"{where}: {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ModelError(f"{where}: {exc}") from None


def model_to_dict(spec) -> dict:
    if isinstance(spec, ModelSpec):
        return {
            "n": spec.n,
            "colonisation": [_family_to_obj(f) for f in spec.colonisation],
            "survival": [_family_to_obj(f) for f in spec.survival],
        }
    if isinstance(spec, SpinSpec):
        return {
            "n": spec.n,
            "birth": [_family_to_obj(f) for f in spec.birth],
            "death": [_family_to_obj(f) for f in spec.death],
        }
    raise ModelError(f"cannot serialise {type(spec).__name__}")


def model_from_dict(doc) -> "ModelSpec | SpinSpec":
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    keys = set(doc)
    if keys == {"n", "colonisation", "survival"}:
        kind, first, second, role = ModelSpec, "colonisation", "survival", "probability"
    elif keys == {"n", "birth", "death"}:
        kind, first, second, role = SpinSpec, "birth", "death", "rate"
    else:
        raise ModelError(
            "model document must have keys {n, colonisation, survival} "
            f"or {{n, birth, death}}, got {sorted(keys)}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ModelError("'n' must be a positive integer")
    fams = {}
    for name in (first, second):
        entries = doc[name]
        if not isinstance(entries, list) or len(entries) != n:
            raise ModelError(f"'{name}' must be a list of {n} entries")
        fams[name] = tuple(_family_from_obj(entry, n, role, f"{name}[{i}]")
                           for i, entry in enumerate(entries))
    return kind(n=n, **fams)


class _NonFinite:
    """A NaN, Infinity or -Infinity token, held until its field is known."""

    def __init__(self, token: str):
        self.token = token


def _reject_non_finite(pairs) -> dict:
    """JSON object hook: refuse a field holding a non-finite token, alone or in a list."""
    for key, value in pairs:
        for item in value if isinstance(value, list) else (value,):
            if isinstance(item, _NonFinite):
                raise ModelError(f"field {key!r} holds {item.token}; "
                                 "model files take finite numbers only")
    return dict(pairs)


def load_model(path) -> "ModelSpec | SpinSpec":
    """Parse a model file.  json.JSONDecodeError carries line/column info.

    The NaN and Infinity tokens, which Python's json reads by default, are
    rejected with the field that holds them.
    """
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle, parse_constant=_NonFinite,
                        object_pairs_hook=_reject_non_finite)
    return model_from_dict(doc)


def save_model(spec, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(spec), handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- hypothesis checking ----------------------------------------------------
#
# Kinds: increasing / decreasing (margins on comparable pairs x <= y),
# concave / convex (midpoint margins on any pairs), nonnegative (pointwise),
# lipschitz (a finite-constant estimate, never a failure).  "gap" is survival
# minus colonisation, "total" birth plus death.  Each hypothesis is first put
# to the closed-form certifier; only those it leaves open are scanned.

_OCC_HYPOTHESES = (
    ("colonisation-increasing", "C", "increasing"),
    ("survival-increasing", "S", "increasing"),
    ("colonisation-concave", "C", "concave"),
    ("survival-concave", "S", "concave"),
    ("gap-nonnegative", "gap", "nonnegative"),
    ("gap-decreasing", "gap", "decreasing"),
    ("gap-convex", "gap", "convex"),
)

_SPIN_HYPOTHESES = (
    ("birth-increasing", "birth", "increasing"),
    ("birth-concave", "birth", "concave"),
    ("death-decreasing", "death", "decreasing"),
    ("death-convex", "death", "convex"),
    ("total-rate-increasing", "total", "increasing"),
    ("total-rate-concave", "total", "concave"),
    ("birth-lipschitz", "birth", "lipschitz"),
    ("death-lipschitz", "death", "lipschitz"),
)

# hypothesis sets that certify the deterministic upper bound and the full
# path-level ordering, respectively
BOUND_HYPOTHESES = (
    "colonisation-increasing", "survival-increasing",
    "colonisation-concave", "survival-concave",
    "gap-nonnegative", "gap-decreasing",
)
ORDERING_HYPOTHESES = BOUND_HYPOTHESES + ("gap-convex",)
SPIN_BOUND_HYPOTHESES = (
    "birth-increasing", "birth-concave",
    "death-decreasing", "death-convex",
    "total-rate-increasing",
)
SPIN_ORDERING_HYPOTHESES = SPIN_BOUND_HYPOTHESES + ("total-rate-concave",)


@dataclass(frozen=True)
class Witness:
    """Point or pair realising a finding's worst margin."""

    site: int
    x: tuple[float, ...]
    y: tuple[float, ...] | None = None


@dataclass(frozen=True)
class HypothesisFinding:
    """One hypothesis over every site, with how its verdict, "pass" or "fail", was reached.

    `certified_by` is "proof" when the coefficients decide it, "lattice"
    when the scans read every lattice point or pair of its kind, and
    "sampled" when only the random points or pairs were read.
    """

    hypothesis: str
    verdict: str
    worst_margin: float
    witness: Witness | None
    certified_by: str
    estimate: float | None = None


@dataclass(frozen=True)
class AssumptionReport:
    findings: tuple[HypothesisFinding, ...]
    samples: int
    tol: float
    seed: int

    def finding(self, hypothesis: str) -> HypothesisFinding:
        for f in self.findings:
            if f.hypothesis == hypothesis:
                return f
        raise KeyError(hypothesis)

    def passed(self, hypotheses: Iterable[str]) -> bool:
        return all(self.finding(h).verdict == "pass" for h in hypotheses)

    @property
    def verdict(self) -> str:
        return "fail" if any(f.verdict == "fail" for f in self.findings) else "pass"

    @property
    def ordering_certified(self) -> bool:
        names = {f.hypothesis for f in self.findings}
        wanted = (ORDERING_HYPOTHESES if "colonisation-increasing" in names
                  else SPIN_ORDERING_HYPOTHESES)
        return self.passed(wanted)

    def to_dict(self) -> dict:
        """The report as JSON-ready data; a margin with no finite value (Lipschitz) is None."""
        return {
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "verdict": self.verdict,
            "findings": [
                {
                    "hypothesis": f.hypothesis,
                    "verdict": f.verdict,
                    "certified_by": f.certified_by,
                    "worst_margin": (f.worst_margin if np.isfinite(f.worst_margin)
                                     else None),
                    "estimate": f.estimate,
                    "witness": None if f.witness is None else {
                        "site": f.witness.site,
                        "x": list(f.witness.x),
                        "y": None if f.witness.y is None else list(f.witness.y),
                    },
                }
                for f in self.findings
            ],
        }


def _targets(spec, up: Callable, down: Callable) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
    """Every target as a map from a (B, n) batch to its (B, n) values, given both roles' maps."""
    if isinstance(spec, ModelSpec):
        return {"C": up, "S": down, "gap": lambda pts: down(pts) - up(pts)}
    return {"birth": up, "death": down, "total": lambda pts: up(pts) + down(pts)}


def _site_minima(margins: Callable[[int, int], np.ndarray], rows: int,
                 n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each site's least margin over `rows` rows, and the first row reaching it.

    `margins(start, stop)` gives the (stop - start, n) margins of those
    rows, taken in `lattice.row_blocks` of width n; ties keep the earliest
    row, as one `np.argmin` over all rows would.
    """
    least = np.full(n, np.inf)
    first = np.zeros(n, dtype=np.int64)
    sites = np.arange(n)
    for span in row_blocks(rows, n):
        block = margins(span.start, span.stop)
        k = np.argmin(block, axis=0)
        low = block[k, sites]
        lower = low < least
        least[lower] = low[lower]
        first[lower] = k[lower] + span.start
    return least, first


def _margins(kind: str, f: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
             y: np.ndarray | None) -> np.ndarray:
    """Signed margins of `kind` at a batch of points x, or of pairs (x, y), for target `f`.

    Negative is violated.  A Lipschitz margin is the negated l1 quotient
    |f(y) - f(x)| / |y - x|; pairs within 1e-12 of each other read +inf.
    """
    if kind == "nonnegative":
        return f(x)
    fx, fy = f(x), f(y)
    if kind == "increasing":
        return fy - fx
    if kind == "decreasing":
        return fx - fy
    if kind == "lipschitz":
        dist = np.abs(y - x).sum(axis=1)[:, None]
        gaps = np.abs(fy - fx)
        return np.divide(-gaps, dist, out=np.full(gaps.shape, np.inf), where=dist > 1e-12)
    if kind == "concave":
        return f(0.5 * (x + y)) - 0.5 * (fx + fy)
    if kind == "convex":
        return 0.5 * (fx + fy) - f(0.5 * (x + y))
    raise ValueError(f"unknown hypothesis kind {kind!r}")


def _rising_minima(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per site, the words (x, y) of the first lattice pair x < y at the least v[y] - v[x].

    `v` is a (2^n, n) table, row w a word's values.  Two subset-max sweeps
    of n passes give each word's largest value over its proper submasks;
    the least margin at y is v[y] less that, in O(n 2^n), and, rounding
    being monotone, the least rounded difference.  A pair scan in word
    order, each word's submasks in decreasing order, meets first the first
    y at the minimum and, of its submasks, the largest x reaching it.
    """
    size, n = v.shape
    below = v.copy()
    under = np.full_like(v, -np.inf)
    for sweep in (below, under):
        for j in range(n):
            # the words with bit j clear, then set, at each setting of the other bits
            src = below.reshape(-1, 2, 1 << j, n)
            dst = sweep.reshape(-1, 2, 1 << j, n)
            np.maximum(dst[:, 1], src[:, 0], out=dst[:, 1])
    rise = np.subtract(v, under, out=under)
    sites = np.arange(n)
    hi = np.argmin(rise, axis=0)
    words = np.arange(size)[:, None]
    at = (v[hi, sites] - v == rise[hi, sites]) & (words & hi == words) & (words != hi)
    lo = size - 1 - np.argmax(at[::-1], axis=0)
    return lo, hi


# -- closed-form certificates ----------------------------------------------
#
# A site function's `_Form` is what its coefficients prove on the cube, in
# exact arithmetic on the float parameters (`_exact`), pins folded into the
# intercept.  An affine form's `coef` is its (alpha, beta), beta zero at
# pins, and `lo` and `hi` its exact infimum and supremum, summed when read.
# Any other form carries the shape flags it proves, and `bounds` on the cube
# for a clamp.  The evaluated function differs from the exact one by
# round-off, so a proven hypothesis may show margins of about -1e-16 on a scan.


@dataclass(frozen=True)
class _Form:
    increasing: bool = False
    decreasing: bool = False
    concave: bool = False
    convex: bool = False
    bounds: tuple[Rational, Rational] | None = None
    coef: tuple[Rational, tuple[Rational, ...]] | None = None

    # an affine form's sums cost most of a report's exact arithmetic, and
    # most forms are summed into others without being read
    @cached_property
    def lo(self) -> Rational | None:
        if self.coef is None:
            return None if self.bounds is None else self.bounds[0]
        alpha, beta = self.coef
        return alpha + sum(b for b in beta if b < 0)

    @cached_property
    def hi(self) -> Rational | None:
        if self.coef is None:
            return None if self.bounds is None else self.bounds[1]
        alpha, beta = self.coef
        return alpha + sum(b for b in beta if b > 0)


_UNKNOWN = _Form()


def _exact(value: float) -> Rational:
    """The rational a float holds, exactly.

    `fractions` is imported on first use: its `decimal` is 0.3 MB of memory.
    """
    from fractions import Fraction

    return Fraction(value)


def _affine(alpha: Rational, beta: Sequence[Rational]) -> _Form:
    """alpha + beta . x: monotone by the signs of beta, concave and convex."""
    return _Form(increasing=all(b >= 0 for b in beta), decreasing=all(b <= 0 for b in beta),
                 concave=True, convex=True, coef=(alpha, tuple(beta)))


def _constant(value: Rational, n: int) -> _Form:
    return _affine(value, (0,) * n)


def _raw_form(fam: FunctionFamily) -> _Form:
    """The family's raw value before offset, scale and clamp."""
    n, p = fam.n, fam.params
    pins = {site: _exact(value) for site, value in fam.pins}
    if fam.variant == "constant":
        return _constant(_exact(p["c"]), n)
    if fam.variant == "tabulated-multilinear":
        table = p["table"]
        return _constant(_exact(table[0]), n) if np.all(table == table[0]) else _UNKNOWN
    weights = [_exact(w) for w in p["beta" if fam.variant == "product-form" else "b"]]
    free = [0 if j in pins else w for j, w in enumerate(weights)]
    pinned = [pins[j] * weights[j] for j in pins]
    if fam.variant == "affine-saturated":
        alpha = _exact(p["a"]) + sum(pinned)
        if alpha >= 1:
            return _constant(1, n)
        form = _affine(alpha, free)
        # b >= 0, so alpha + sum(b) is the supremum, summed once for the clamp too
        if form.hi <= 1:
            return form
        # min(1, alpha + b . x) with b >= 0: a minimum of affine functions
        return _Form(increasing=True, concave=True, bounds=(alpha, 1))
    if any(free):
        return _UNKNOWN
    # a product-form or Hanski family of pinned coordinates only is constant
    if fam.variant == "product-form":
        return _constant(1 - math.prod(1 - term for term in pinned), n)
    w2 = sum(pinned) ** 2
    return _constant(w2 / (w2 + _exact(p["y"]) ** 2), n)


def _scaled(form: _Form, scale: Rational, offset: Rational) -> _Form:
    """offset + scale * form, for scale != 0: a negative scale flips direction and curvature."""
    if scale == 1 and offset == 0:
        return form
    if form.coef is not None:
        alpha, beta = form.coef
        return _affine(offset + scale * alpha, [scale * b for b in beta])
    if form.bounds is None:
        return form
    bounds = tuple(sorted(offset + scale * v for v in form.bounds))
    if scale > 0:
        return replace(form, bounds=bounds)
    return _Form(increasing=form.decreasing, decreasing=form.increasing,
                 concave=form.convex, convex=form.concave, bounds=bounds)


def _clamped(form: _Form, n: int) -> _Form:
    """The form clipped to [0,1]: unchanged if the clip cannot bind, else monotone only."""
    if form.lo is None or 0 <= form.lo and form.hi <= 1:
        return form
    lo, hi = (min(max(v, 0), 1) for v in (form.lo, form.hi))
    if lo == hi:
        # the whole range lies at or past one end
        return _constant(lo, n)
    return _Form(increasing=form.increasing, decreasing=form.decreasing, bounds=(lo, hi))


def _family_form(fam: FunctionFamily) -> _Form:
    if fam.scale == 0:
        form = _constant(_exact(fam.offset), fam.n)
    else:
        form = _scaled(_raw_form(fam), _exact(fam.scale), _exact(fam.offset))
    return _clamped(form, fam.n) if fam.role == "probability" else form


def _sum(f: _Form, g: _Form) -> _Form:
    """f + g: affine with exact coefficients if both are, else the flags both prove."""
    if f.coef is not None and g.coef is not None:
        return _affine(f.coef[0] + g.coef[0], [a + b for a, b in zip(f.coef[1], g.coef[1])])
    return _Form(increasing=f.increasing and g.increasing,
                 decreasing=f.decreasing and g.decreasing,
                 concave=f.concave and g.concave, convex=f.convex and g.convex)


def _affine_infimum(form: _Form, kind: str) -> Rational:
    """An affine form's exact least margin of `kind` on the cube.

    alpha + beta . x is least, at `lo`, where x_j = 1 exactly for beta_j < 0.
    A monotone margin +-beta . (y - x) is least for x = 0 and y the
    indicator of the terms that lower it: lo - alpha or alpha - hi.  A
    midpoint margin is 0 everywhere.
    """
    if kind == "nonnegative":
        return form.lo
    if kind == "increasing":
        return form.lo - form.coef[0]
    if kind == "decreasing":
        return form.coef[0] - form.hi
    return 0


def _proof(forms: Sequence[_Form], name: str, kind: str,
           tol: float) -> HypothesisFinding | None:
    """The finding of a hypothesis the forms decide, or None.

    With every site's form affine, the margin is the least site's infimum
    (the lowest site on ties), failing below -tol; a shape kind's margins
    reach 0 at x = y, so only a negative infimum has a witness, while
    `nonnegative` always names its vertex.  The l1 Lipschitz constant is
    max |beta_j|.  Otherwise a shape kind every site's flags prove passes with margin 0.
    """
    if all(f.coef is not None for f in forms):
        if kind == "lipschitz":
            constant = max(abs(b) for f in forms for b in f.coef[1])
            return HypothesisFinding(name, "pass", np.inf, None, "proof",
                                     estimate=float(constant))
        infima = [_affine_infimum(f, kind) for f in forms]
        site = min(range(len(forms)), key=infima.__getitem__)
        least = infima[site]
        witness = None
        if kind == "nonnegative" or least < 0:
            # the coordinates whose terms lower the margin
            moved = tuple(float(b > 0 if kind == "decreasing" else b < 0)
                          for b in forms[site].coef[1])
            witness = (Witness(site=site, x=moved) if kind == "nonnegative"
                       else Witness(site=site, x=(0.0,) * len(moved), y=moved))
        margin = float(least)
        return HypothesisFinding(name, "fail" if margin < -tol else "pass", margin,
                                 witness, "proof")
    if kind in ("nonnegative", "lipschitz") or not all(getattr(f, kind) for f in forms):
        return None
    return HypothesisFinding(name, "pass", 0.0, None, "proof")


class _Scans:
    """The sampled and lattice scans of one report, for what no proof settles.

    Each target reads one `SiteBank` per role, so every margin is the one
    each site's family gives on its own.  Batches are reduced in row blocks
    by `_site_minima`, the monotone kinds' lattice pairs by `_rising_minima`
    off the lattice table, which is built once, when first needed.
    """

    def __init__(self, spec, samples: int, tol: float, seed: int):
        self.spec, self.samples, self.tol, self.seed = spec, samples, tol, seed
        roles = ((spec.colonisation, spec.survival) if isinstance(spec, ModelSpec)
                 else (spec.birth, spec.death))
        self.targets = _targets(spec, *(SiteBank(fams).values for fams in roles))

    @cached_property
    def lattice(self) -> dict[str, np.ndarray]:
        """Every target's (2^n, n) values at the lattice points, from one bank table.

        The table is filled a row block at a time, tables read by entry.
        """
        n = self.spec.n
        table = np.empty((1 << n, 2 * n))
        for rows, bits in lattice_blocks(n, 2 * n * n):
            table[rows] = self.spec.bank.lattice_values(bits)
        up, down = table[:, :n], table[:, n:]
        # each role's map gives its half of the table, whatever it is asked
        return {target: f(None)
                for target, f in _targets(self.spec, lambda _: up, lambda _: down).items()}

    def finding(self, lane: int, name: str, target: str, kind: str) -> HypothesisFinding:
        """The hypothesis's scanned finding: the first least margin of every batch's sites.

        Batches are read sampled first, then lattice, each site by site, so
        ties keep the earliest; `lane` addresses the sample stream, and y is
        None for the pointwise kind.
        """
        f, n, samples = self.targets[target], self.spec.n, self.samples
        if kind == "nonnegative":
            x, y = assumption_uniforms(self.seed, lane, samples * n).reshape(samples, n), None
        else:
            u = assumption_uniforms(self.seed, lane, 2 * samples * n).reshape(2, samples, n)
            x, y = ((np.minimum(u[0], u[1]), np.maximum(u[0], u[1]))
                    if kind in ("increasing", "decreasing") else (u[0], u[1]))
        least, first = _site_minima(
            lambda s, e: _margins(kind, f, x[s:e], None if y is None else y[s:e]), samples, n)
        if kind == "lipschitz":
            return HypothesisFinding(name, "pass", np.inf, None, "sampled",
                                     estimate=max(0.0, -float(least.min())))
        found = [(least, x[first], None if y is None else y[first])]
        by = "sampled"
        if n <= LATTICE_SCAN_CAP and (kind not in ("concave", "convex")
                                      or n <= LATTICE_PAIR_CAP):
            by = "lattice"
            # the words' bits, for the witnesses and the pair grid
            bits, v = word_bits(0, 1 << n, n), self.lattice[target]
            if kind == "nonnegative":
                least, first = _site_minima(lambda s, e: v[s:e], len(v), n)
                found.append((least, bits[first], None))
            elif kind in ("increasing", "decreasing"):
                # a falling margin is the rising margin of -v, exactly
                lo, hi = _rising_minima(v if kind == "increasing" else -v)
                sites = np.arange(n)
                found.append((_margins(kind, lambda w: v[w, sites], lo, hi), bits[lo], bits[hi]))
            else:
                a, b = np.triu_indices(1 << n, k=1)
                least, first = _site_minima(
                    lambda s, e: _margins(kind, f, bits[a[s:e]], bits[b[s:e]]), len(a), n)
                found.append((least, bits[a[first]], bits[b[first]]))
        batch, site = divmod(int(np.argmin(np.concatenate([m for m, _, _ in found]))), n)
        margins, wx, wy = found[batch]
        worst = float(margins[site])
        witness = Witness(site=site, x=tuple(wx[site]),
                          y=None if wy is None else tuple(wy[site]))
        return HypothesisFinding(name, "fail" if worst < -self.tol else "pass", worst,
                                 witness, by)


def hypothesis_plan(spec, samples: int) -> Plan:
    """`check_assumptions`' plan: its scans of the hypotheses no proof settles.

    A scan holds a pair batch's 2 x samples uniform points and their
    ordered copies; it evaluates its target at up to three points a sample
    (a pair and its midpoint), at the lattice up to LATTICE_SCAN_CAP sites
    and its pairs up to LATTICE_PAIR_CAP.  With every hypothesis proven,
    nothing is drawn or held.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n, forms = spec.n, spec.forms
    table = _OCC_HYPOTHESES if isinstance(spec, ModelSpec) else _SPIN_HYPOTHESES
    scanned = sum(_proof(forms[target], name, kind, 0.0) is None for name, target, kind in table)
    points = 3 * samples + (3 << 2 * n - 1 if n <= LATTICE_PAIR_CAP else 0)
    scan = (ENTRY_WORK * (points * spec.bank.entries + 16 * samples * n)
            + 60 * CALL_WORK * block_count(points, n)
            + (sweep_work(n, 2 * n * n + 8 * n, 40) if n <= LATTICE_SCAN_CAP else 0))
    return Plan(f"{shown(samples)} samples: {shown(4 * samples)} points in [0,1]^{n}",
                4 * 8 * samples * n if scanned else 0, scanned * scan)


def check_assumptions(spec, samples: int = 4096, tol: float = 1e-9,
                      seed: int = 0) -> AssumptionReport:
    """Margins of every theorem hypothesis, decided in closed form where the families allow.

    A hypothesis whose every site is affine is decided exactly (its exact
    infimum, or Lipschitz constant), and so is a shape hypothesis the
    coefficients prove at every site, which passes whatever `tol`.  Any
    other is scanned by `_Scans`, after `hypothesis_plan` is checked: on
    `samples` random points or pairs, addressed by (hypothesis, sample),
    and up to LATTICE_SCAN_CAP sites on every lattice point and comparable
    pair, with every pair's midpoint up to LATTICE_PAIR_CAP sites; a
    scanned pass is evidence, not proof.  A margin below -tol fails.
    """
    check_plan(hypothesis_plan(spec, samples))
    table = _OCC_HYPOTHESES if isinstance(spec, ModelSpec) else _SPIN_HYPOTHESES
    forms = spec.forms
    scans = None
    findings = []
    for lane, (name, target, kind) in enumerate(table):
        finding = _proof(forms[target], name, kind, tol)
        if finding is None:
            scans = scans or _Scans(spec, samples, tol, seed)
            finding = scans.finding(lane, name, target, kind)
        findings.append(finding)
    return AssumptionReport(tuple(findings), samples=samples, tol=tol, seed=seed)
