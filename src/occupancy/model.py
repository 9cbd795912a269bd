"""Model definitions and hypothesis checks.

An occupancy model assigns each site a colonisation and a survival
probability; a spin model assigns each site a birth and a death rate.
All of these are functions [0,1]^n -> R drawn from a small set of
closed-form families, so that evaluation on the whole cube, restriction
to the lattice {0,1}^n, and exact range bounds are all available.

A family value is ``offset + scale * raw(p)`` with raw(p) in [0,1];
probability-role families clamp the result to [0,1], rate-role families
require offset, scale >= 0 and offset + scale <= RATE_BOUND.  The affine
post-transform is what lets the same parameter set serve as a rate and as
its own time-discretised probability.  Coordinate pins substitute fixed
values for chosen coordinates before evaluation (used to mask
self-colonisation).

Each spec compiles its families once into a `SiteBank`, which evaluates
every site's functions on a batch at once; a family on its own is the
bank's one-family case.

Everything here is immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .lattice import BLOCK_ENTRIES, check_bytes, lattice_bits
from .streams import assumption_uniforms

VARIANTS = (
    "constant",
    "affine-saturated",
    "product-form",
    "hanski-incidence",
    "tabulated-multilinear",
)

ROLES = ("probability", "rate")

# exhaustive lattice scans are restricted to cubes of this dimension
LATTICE_SCAN_CAP = 10
# all-pairs lattice midpoint scans grow as 4^n; keep them small
LATTICE_PAIR_CAP = 6

# largest rate a family may take (its offset + scale): far below the float
# range, so the sums and quotients the spin routes form from rates (n rates
# a state, six RK4 stages, Lipschitz gaps over distances down to 1e-12)
# stay finite
RATE_BOUND = 1e200


class ModelError(ValueError):
    """Invalid model parameters or malformed model documents."""


class DimensionError(ModelError):
    """Input dimension does not match the family dimension."""


def _number(value, label: str) -> float:
    """`value` as a float if it is a number; float() would also read a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ModelError(f"{label} must be a number, got {value!r}")
    return float(value)


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

    Parameters
    ----------
    variant : str
        One of VARIANTS.
    n : int
        Cube dimension.
    params : mapping
        Variant parameters; see _validate for the exact keys and ranges.
    role : str
        "probability" (values clamped to [0,1]) or "rate" (values >= 0).
    offset, scale : float
        Affine post-transform applied to the raw family value.
    pins : tuple of (site, value)
        Coordinates substituted before evaluation.
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
        """Exact [lo, hi] bounds of the family over the whole cube.

        Raw ranges are closed-form for every variant (the multilinear table
        attains its extremes at lattice points), so no sampling is involved.
        Pins are ignored, which can only widen the interval.
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
    """A bank's families of one variant, with their parameters stacked.

    Values are computed family-major, as (families, rows) blocks of the
    batch read coordinate by coordinate, as its (n, B) transpose.
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
            return 1.0 - np.multiply.reduce(1.0 - terms, axis=0)
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

    def _finish(self, raw: np.ndarray) -> np.ndarray:
        """offset + scale * raw, clamped where the role asks; in place."""
        raw *= self.scale
        raw += self.offset
        if self.clamp is not None:
            np.clip(raw, *self.clamp, out=raw)
        return raw

    def fill(self, xt: np.ndarray, out: np.ndarray):
        """Write the group's columns of the (B, families) `out` for an (n, B) batch."""
        if self.variant == "constant":
            out[:, self.cols] = self.value
            return
        # row blocks bound every temporary, whatever the batch
        rows = max(1, BLOCK_ENTRIES // self.width)
        if xt.shape[1] <= rows:
            out[:, self.cols] = self._finish(self._raw(xt)).T
            return
        for start in range(0, xt.shape[1], rows):
            block = xt[:, start:start + rows]
            out[start:start + rows, self.cols] = self._finish(self._raw(block)).T


class SiteBank:
    """Families on one cube, compiled to evaluate all at once.

    Families are grouped by variant, each group's parameters stacked, so a
    (B, n) batch gives every family's value with a few array operations
    per group.  A point's value does not depend on the batch it comes in,
    nor on the bank: sums and products run over the coordinates in order.
    Batches are taken in row blocks whose temporaries hold at most about
    `lattice.BLOCK_ENTRIES` entries.
    """

    def __init__(self, families: Sequence[FunctionFamily]):
        fams = tuple(families)
        self.n = fams[0].n
        self.size = len(fams)
        self.groups = []
        for variant in VARIANTS:
            cols = [j for j, f in enumerate(fams) if f.variant == variant]
            if cols:
                self.groups.append(
                    _VariantGroup(variant, [fams[j] for j in cols], _columns(cols)))

    def values(self, points) -> np.ndarray:
        """(B, families) values at a (B, n) batch of cube points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionError(f"expected points of shape (B, {self.n}), got {pts.shape}")
        xt = pts.T
        out = np.empty((pts.shape[0], self.size))
        for group in self.groups:
            group.fill(xt, out)
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


# -- the per-site functions, all sites at once ------------------------------


def site_values(spec, points) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) at a (B, n) batch of points, each of shape (B, n).

    Column i holds site i's colonisation and survival probabilities for a
    ModelSpec, its birth and death rates for a SpinSpec, read off the
    spec's bank.  Every per-site evaluation outside the hypothesis scans
    goes through here.
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
# Hypothesis kinds:
#   increasing / decreasing : margins on comparable pairs x <= y
#   concave / convex        : midpoint margins on arbitrary pairs
#   nonnegative             : pointwise margins
#   lipschitz               : a finite-constant estimate, never a failure
#
# "gap" below is survival minus colonisation; "total" is birth plus death.

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
    hypothesis: str
    verdict: str
    worst_margin: float
    witness: Witness | None
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
        verdicts = {f.verdict for f in self.findings}
        if "fail" in verdicts:
            return "fail"
        if "inconclusive" in verdicts:
            return "inconclusive"
        return "pass"

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


def _targets(spec) -> dict[str, Callable[[int, np.ndarray], np.ndarray]]:
    if isinstance(spec, ModelSpec):
        return {
            "C": lambda i, pts: spec.colonisation[i].eval_batch(pts),
            "S": lambda i, pts: spec.survival[i].eval_batch(pts),
            "gap": lambda i, pts: (spec.survival[i].eval_batch(pts)
                                   - spec.colonisation[i].eval_batch(pts)),
        }
    return {
        "birth": lambda i, pts: spec.birth[i].eval_batch(pts),
        "death": lambda i, pts: spec.death[i].eval_batch(pts),
        "total": lambda i, pts: (spec.birth[i].eval_batch(pts)
                                 + spec.death[i].eval_batch(pts)),
    }


def _comparable_lattice_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All lattice pairs x <= y, x != y: each word, after its proper submasks.

    Words come in increasing order and each word's submasks in decreasing
    order, as submask enumeration visits them.  The k-th largest proper
    submask of a word with c bits set deposits the bits of 2^c - 1 - k into
    the word's set bits.
    """
    bits = lattice_bits(n)
    words = np.arange(1 << n)
    count = (1 << bits.sum(axis=1).astype(np.int64)) - 1
    hi = np.repeat(words, count)
    # runs from 2^c - 2 down to 0 within each word
    rank = np.repeat(np.cumsum(count), count) - 1 - np.arange(hi.size)
    lo = np.zeros_like(hi)
    for i in range(n):
        on = (hi >> i) & 1
        lo |= (rank & on) << i
        rank >>= on
    return np.take(bits, lo, axis=0), np.take(bits, hi, axis=0)


def _lattice_pair_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All unordered lattice pairs, for midpoint scans on small cubes."""
    size = 1 << n
    a, b = np.triu_indices(size, k=1)
    bits = lattice_bits(n)
    return bits[a], bits[b]


def _margin_batches(kind: str, n: int, seed: int, lane: int, samples: int):
    """Yield (x, y) batches for one hypothesis; y is None for pointwise kinds."""
    if kind == "nonnegative":
        u = assumption_uniforms(seed, lane, samples * n).reshape(samples, n)
        yield u, None
        if n <= LATTICE_SCAN_CAP:
            yield np.asarray(lattice_bits(n)), None
        return
    u = assumption_uniforms(seed, lane, 2 * samples * n).reshape(2, samples, n)
    if kind in ("increasing", "decreasing"):
        yield np.minimum(u[0], u[1]), np.maximum(u[0], u[1])
        if n <= LATTICE_SCAN_CAP:
            yield _comparable_lattice_pairs(n)
    else:
        yield u[0], u[1]
        if n <= LATTICE_PAIR_CAP:
            yield _lattice_pair_grid(n)


def pair_margin(kind: str, values_x: np.ndarray, values_y, values_mid) -> np.ndarray:
    """Signed margins for one batch; negative means the hypothesis is violated."""
    if kind == "nonnegative":
        return values_x
    if kind == "increasing":
        return values_y - values_x
    if kind == "decreasing":
        return values_x - values_y
    if kind == "concave":
        return values_mid - 0.5 * (values_x + values_y)
    if kind == "convex":
        return 0.5 * (values_x + values_y) - values_mid
    raise ValueError(f"unknown hypothesis kind {kind!r}")


def check_assumptions(spec, samples: int = 4096, tol: float = 1e-9,
                      seed: int = 0) -> AssumptionReport:
    """Sampled and lattice-exhaustive margins for every theorem hypothesis.

    A hypothesis fails when some margin drops below -tol; a pass is evidence,
    not proof, except on the lattice scans which are exhaustive.  Sampling is
    addressed by (hypothesis, sample) so reports are reproducible and
    independent of evaluation order.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    # a pair batch holds its 2 x samples uniform points and their ordered
    # copies or midpoints
    check_bytes(4 * 8 * samples * spec.n,
                f"{samples} samples: {4 * samples} points in [0,1]^{spec.n}")
    table = _OCC_HYPOTHESES if isinstance(spec, ModelSpec) else _SPIN_HYPOTHESES
    targets = _targets(spec)
    n = spec.n
    findings = []
    for lane, (name, target, kind) in enumerate(table):
        f = targets[target]
        if kind == "lipschitz":
            u = assumption_uniforms(seed, lane, 2 * samples * n).reshape(2, samples, n)
            x, y = u[0], u[1]
            best = 0.0
            dist = np.abs(y - x).sum(axis=1)
            ok = dist > 1e-12
            if np.any(ok):
                for i in range(n):
                    gaps = np.abs(f(i, y) - f(i, x))
                    best = max(best, float(np.max(gaps[ok] / dist[ok])))
            findings.append(HypothesisFinding(name, "pass", np.inf, None, estimate=best))
            continue
        worst = np.inf
        witness = None
        for x, y in _margin_batches(kind, n, seed, lane, samples):
            mid = 0.5 * (x + y) if kind in ("concave", "convex") else None
            for i in range(n):
                vx = f(i, x)
                vy = f(i, y) if y is not None else None
                vm = f(i, mid) if mid is not None else None
                margins = pair_margin(kind, vx, vy, vm)
                k = int(np.argmin(margins))
                if margins[k] < worst:
                    worst = float(margins[k])
                    witness = Witness(site=i, x=tuple(x[k]),
                                      y=None if y is None else tuple(y[k]))
        verdict = "fail" if worst < -tol else "pass"
        findings.append(HypothesisFinding(name, verdict, worst, witness))
    return AssumptionReport(tuple(findings), samples=samples, tol=tol, seed=seed)
