"""Model definitions and hypothesis checks.

An occupancy model assigns each site a colonisation and a survival
probability; a spin model assigns each site a birth and a death rate.
All of these are functions [0,1]^n -> R drawn from a small set of
closed-form families, so that evaluation on the whole cube, restriction
to the lattice {0,1}^n, and exact range bounds are all available.

A family value is ``offset + scale * raw(p)`` with raw(p) in [0,1];
probability-role families clamp the result to [0,1], rate-role families
require offset, scale >= 0.  The affine post-transform is what lets the
same parameter set serve as a rate and as its own time-discretised
probability.  Coordinate pins substitute fixed values for chosen
coordinates before evaluation (used to mask self-colonisation).

Everything here is immutable after construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .lattice import check_bytes, lattice_bits
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


class ModelError(ValueError):
    """Invalid model parameters or malformed model documents."""


class DimensionError(ModelError):
    """Input dimension does not match the family dimension."""


def _as_prob_vector(values, length: int, label: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (length,):
        raise ModelError(f"{label} must have length {length}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelError(f"{label} must be finite")
    return arr


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
        if not (np.isfinite(self.offset) and np.isfinite(self.scale)):
            raise ModelError("offset and scale must be finite")
        if self.role == "rate" and (self.offset < 0 or self.scale < 0):
            raise ModelError("rate families need offset >= 0 and scale >= 0")

        pins = {}
        for site, value in self.pins:
            site = int(site)
            value = float(value)
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
            c = float(params["c"])
            if not 0.0 <= c <= 1.0:
                raise ModelError("constant level c must lie in [0,1]")
            norm["c"] = c
        elif self.variant == "affine-saturated":
            a = float(params["a"])
            b = _as_prob_vector(params["b"], self.n, "weight vector b")
            if a < 0 or np.any(b < 0):
                raise ModelError("affine-saturated needs a >= 0 and b >= 0")
            norm["a"] = a
            norm["b"] = b
        elif self.variant == "product-form":
            beta = _as_prob_vector(params["beta"], self.n, "beta")
            if np.any(beta < 0) or np.any(beta > 1):
                raise ModelError("product-form needs beta in [0,1]")
            norm["beta"] = beta
        elif self.variant == "hanski-incidence":
            b = _as_prob_vector(params["b"], self.n, "weight vector b")
            y = float(params["y"])
            if np.any(b < 0) or not y > 0:
                raise ModelError("hanski-incidence needs b >= 0 and y > 0")
            norm["b"] = b
            norm["y"] = y
        else:
            table = np.asarray(params["table"], dtype=float)
            if table.shape != (1 << self.n,):
                raise ModelError(f"table must have length {1 << self.n}")
            if np.any(table < 0) or np.any(table > 1) or not np.all(np.isfinite(table)):
                raise ModelError("table entries must lie in [0,1]")
            norm["table"] = table

        object.__setattr__(self, "params", norm)

    # -- evaluation ---------------------------------------------------------

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        p = self.params
        if self.variant == "constant":
            return np.full(pts.shape[0], p["c"])
        if self.variant == "affine-saturated":
            return np.minimum(1.0, p["a"] + pts @ p["b"])
        if self.variant == "product-form":
            return 1.0 - np.prod(1.0 - pts * p["beta"], axis=1)
        if self.variant == "hanski-incidence":
            m2 = (pts @ p["b"]) ** 2
            return m2 / (m2 + p["y"] ** 2)
        # tabulated-multilinear: fold coordinates one at a time.  Index i is
        # the least significant bit of the table index, so fold it first.
        cur = np.broadcast_to(self.params["table"], (pts.shape[0], 1 << self.n))
        for i in range(self.n):
            w = pts[:, i][:, None]
            cur = cur[:, ::2] * (1.0 - w) + cur[:, 1::2] * w
        return cur[:, 0]

    def eval_batch(self, points) -> np.ndarray:
        """Evaluate at a (B, n) batch of cube points; returns shape (B,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.n:
            raise DimensionError(f"expected points of shape (B, {self.n}), got {pts.shape}")
        if self.pins:
            pts = pts.copy()
            for site, value in self.pins:
                pts[:, site] = value
        out = self.offset + self.scale * self._raw(pts)
        if self.role == "probability":
            np.clip(out, 0.0, 1.0, out=out)
        return out

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

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("n must be >= 1")
        object.__setattr__(self, "colonisation",
                           _check_site_functions(self.n, self.colonisation,
                                                 "colonisation", "probability"))
        object.__setattr__(self, "survival",
                           _check_site_functions(self.n, self.survival,
                                                 "survival", "probability"))


@dataclass(frozen=True)
class SpinSpec:
    """Continuous-time spin system: per-site birth and death rates."""

    n: int
    birth: tuple[FunctionFamily, ...]
    death: tuple[FunctionFamily, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ModelError("n must be >= 1")
        object.__setattr__(self, "birth",
                           _check_site_functions(self.n, self.birth, "birth", "rate"))
        object.__setattr__(self, "death",
                           _check_site_functions(self.n, self.death, "death", "rate"))


# -- the per-site functions, all sites at once ------------------------------


def site_values(spec, points) -> tuple[np.ndarray, np.ndarray]:
    """(up, down) at a (B, n) batch of points, each of shape (B, n).

    Column i holds site i's colonisation and survival probabilities for a
    ModelSpec, its birth and death rates for a SpinSpec.  Every per-site
    evaluation outside the hypothesis scans goes through here.
    """
    roles = ((spec.colonisation, spec.survival) if isinstance(spec, ModelSpec)
             else (spec.birth, spec.death))
    pts = np.asarray(points, dtype=float)
    out = np.empty((2, pts.shape[0], spec.n))
    for k, fams in enumerate(roles):
        for i, fam in enumerate(fams):
            out[k, :, i] = fam.eval_batch(pts)
    return out[0], out[1]


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
        pins = tuple((int(site), float(value)) for site, value in pins_obj.items())
        return FunctionFamily(
            variant=obj["family"],
            n=n,
            params=obj["params"],
            role=role,
            offset=float(obj.get("offset", 0.0)),
            scale=float(obj.get("scale", 1.0)),
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


def load_model(path) -> "ModelSpec | SpinSpec":
    """Parse a model file.  json.JSONDecodeError carries line/column info."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
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
    def bound_certified(self) -> bool:
        names = {f.hypothesis for f in self.findings}
        wanted = BOUND_HYPOTHESES if "colonisation-increasing" in names else SPIN_BOUND_HYPOTHESES
        return self.passed(wanted)

    @property
    def ordering_certified(self) -> bool:
        names = {f.hypothesis for f in self.findings}
        wanted = (ORDERING_HYPOTHESES if "colonisation-increasing" in names
                  else SPIN_ORDERING_HYPOTHESES)
        return self.passed(wanted)

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "tol": self.tol,
            "seed": self.seed,
            "verdict": self.verdict,
            "findings": [
                {
                    "hypothesis": f.hypothesis,
                    "verdict": f.verdict,
                    "worst_margin": f.worst_margin,
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


@lru_cache(maxsize=32)
def _comparable_lattice_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """All lattice pairs x <= y, x != y, via submask enumeration."""
    lo, hi = [], []
    for word in range(1 << n):
        sub = (word - 1) & word
        while True:
            lo.append(sub)
            hi.append(word)
            if sub == 0:
                break
            sub = (sub - 1) & word
    lo = np.asarray(lo)
    hi = np.asarray(hi)
    keep = lo != hi
    bits = lattice_bits(n)
    return bits[lo[keep]], bits[hi[keep]]


@lru_cache(maxsize=16)
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


def hypothesis_margin(spec, hypothesis: str, site: int, x, y=None) -> float:
    """Re-evaluate the margin of a single witness; used to audit reports."""
    table = _OCC_HYPOTHESES if isinstance(spec, ModelSpec) else _SPIN_HYPOTHESES
    for name, target, kind in table:
        if name == hypothesis:
            break
    else:
        raise KeyError(hypothesis)
    f = _targets(spec)[target]
    xs = np.asarray(x, float)[None, :]
    vx = f(site, xs)
    if kind == "nonnegative":
        return float(vx[0])
    ys = np.asarray(y, float)[None, :]
    vy = f(site, ys)
    vm = f(site, 0.5 * (xs + ys)) if kind in ("concave", "convex") else None
    return float(pair_margin(kind, vx, vy, vm)[0])


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
            for i in range(n):
                gaps = np.abs(f(i, y) - f(i, x))
                dist = np.abs(y - x).sum(axis=1)
                ok = dist > 1e-12
                if np.any(ok):
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
