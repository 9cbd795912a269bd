import functools
import itertools

import numpy as np
import pytest

from occupancy import bridge, exact, indep, model, order, zoo
from occupancy.exact import MultiSitePattern, TimePattern
from occupancy.model import VARIANTS, FunctionFamily, ModelSpec, SpinSpec
from occupancy.streams import DOMAIN_SIMULATION, REPLICATE_CHUNK, uniform_stream


@pytest.fixture
def interacting():
    return zoo.interacting_pair()


@pytest.fixture
def single_site():
    return zoo.constant_pair(n=1, c=0.3, s=0.8)


@pytest.fixture
def broken():
    return zoo.non_monotone_pair()


@pytest.fixture
def ring3():
    return zoo.contact_ring(3, beta=0.35, mu=1.0)


@pytest.fixture
def certified_suite():
    """A handful of certified random models of mixed dimension."""
    return [zoo.random_certified_model(n, seed=100 + n) for n in (2, 3, 4)]


def naive_transition_probability(spec, x: int, y: int) -> float:
    """Independent per-site product, written as plainly as possible."""
    prob = 1.0
    for i in range(spec.n):
        bits = [(x >> j) & 1 for j in range(spec.n)]
        point = np.array(bits, dtype=float)
        if bits[i]:
            q = spec.survival[i].eval(point)
        else:
            q = spec.colonisation[i].eval(point)
        prob *= q if (y >> i) & 1 else 1.0 - q
    return prob


def naive_event_probability(spec, x0: int, constraints, horizon: int) -> float:
    """Brute-force sum over literal trajectories (tiny cases only)."""
    size = 1 << spec.n
    total = 0.0
    stack = [(x0, 1, 1.0)]
    while stack:
        state, t, prob = stack.pop()
        if t > horizon:
            total += prob
            continue
        for nxt in range(size):
            ok = all(not ((nxt >> site) & 1)
                     for site, tc in constraints if tc == t)
            if not ok:
                continue
            p = naive_transition_probability(spec, state, nxt)
            if p > 0:
                stack.append((nxt, t + 1, prob * p))
    return total


def enumerate_event_probability(spec, x0: int, constraints, horizon: int) -> float:
    """Vectorised sum over all 2^(n * horizon) literal trajectories.

    An independent route to exact.path_probability and
    exact.multisite_probability, which propagate the distribution instead.
    """
    if horizon == 0:
        return 1.0
    n = spec.n
    chunk = 2 ** 18
    T = exact.transition_matrix(spec)
    mask = (1 << n) - 1
    n_traj = 1 << (n * horizon)
    total = 0.0
    for start in range(0, n_traj, chunk):
        idx = np.arange(start, min(start + chunk, n_traj), dtype=np.int64)
        words = [(idx >> (n * t)) & mask for t in range(horizon)]
        prob = T[x0, words[0]].copy()
        for t in range(1, horizon):
            prob *= T[words[t - 1], words[t]]
        for site, t in constraints:
            prob *= 1.0 - ((words[t - 1] >> site) & 1)
        total += float(prob.sum())
    return total


def decomposed_path_probability(spec, x0: int, pattern) -> float:
    """The surrogate's pattern probability by peeling the last demanded vacancy.

    Writing phi for the last step where the pattern demands vacancy, the
    chain either was vacant at phi-1 and stayed off, or was occupied at
    phi-1 and died; conditioning splits the probability into
    (1 - survive) * P(pattern with phi freed) plus
    (survive - colonise) * P(pattern with phi freed and phi-1 demanded).
    An independent route to indep.path_probability's forward recursion.
    """
    sched = indep.site_schedules(spec, x0, pattern.horizon)[pattern.site]
    bit = int(exact.state_bits(x0, spec.n)[pattern.site])

    @functools.lru_cache(maxsize=None)
    def solve(omega: tuple[int, ...]) -> float:
        zeros = [t for t, w in enumerate(omega, start=1) if w == 0]
        if not zeros:
            return 1.0
        phi = zeros[-1]
        c, s = sched.colonise[phi - 1], sched.survive[phi - 1]
        if phi == 1:
            return 1.0 - (c if bit == 0 else s)
        freed = list(omega)
        freed[phi - 1] = 1
        lower = list(freed)
        lower[phi - 2] = 0
        return (1.0 - s) * solve(tuple(freed)) + (s - c) * solve(tuple(lower))

    return solve(pattern.omega)


def per_pattern_scan(spec, x0: int, m: int, kernel, budget: int = 4):
    """order.path_orthant's patterns in scan order, each computed on its own.

    Yields (pattern, exact, surrogate): every single-site pattern, then
    every multisite one, propagated from the point mass by exact's and
    recursed by indep's per-pattern functions.  The route the prefix-tree
    scan replaced, kept as its oracle.
    """
    schedules = indep.site_schedules(spec, x0, m)
    for site in range(spec.n):
        for omega in itertools.product((0, 1), repeat=m):
            pattern = TimePattern(site=site, omega=omega)
            yield (pattern, exact.path_probability(spec, x0, pattern, kernel),
                   indep.path_probability(spec, x0, pattern, schedules[site]))
    for entries in order._patterns_for_budget(spec.n, m, budget):
        pattern = MultiSitePattern(entries)
        yield (pattern, exact.multisite_probability(spec, x0, pattern, kernel),
               indep.multisite_probability(spec, x0, pattern, schedules))


def dense_spin_generator(spec):
    """The spin system's generator Q as a dense 2^n x 2^n matrix.

    Only single-bit flips carry rate, read off the rate table
    exact.spin_generator; the oracle for the matrix-free spin engine.
    """
    r = exact.spin_generator(spec)
    size = 1 << spec.n
    Q = np.zeros((size, size))
    words = np.arange(size)
    for i in range(spec.n):
        Q[words, words ^ (1 << i)] = r[:, i]
    Q[words, words] = 0.0
    Q[words, words] = -Q.sum(axis=1)
    return Q


def uniformised(spec):
    """(I + Q/rate, rate) for the dense generator Q, rate its largest exit rate.

    A generator of rate 0 is returned as it is.
    """
    P = dense_spin_generator(spec)
    rate = float(np.max(-np.diag(P)))
    if rate > 0.0:
        P /= rate
        P[np.diag_indices_from(P)] += 1.0
    return P, rate


def dense_spin_law(spec, x0: int, t: float):
    """exact.spin_law by powers of the dense uniformised generator."""
    P, rate = uniformised(spec)
    v0 = exact.point_mass(spec.n, x0)
    if rate == 0.0 or t == 0:
        return v0
    return exact.as_distribution(exact.poisson_mixture(lambda v: v @ P, v0, rate * t))


def family_site_values(spec, points):
    """(up, down) of model.site_values, one family at a time."""
    up, down = ((spec.colonisation, spec.survival) if isinstance(spec, ModelSpec)
                else (spec.birth, spec.death))
    return (np.column_stack([fam.eval_batch(points) for fam in up]),
            np.column_stack([fam.eval_batch(points) for fam in down]))


def family_formula(fam, points):
    """One family at a (B, n) batch, by its variant's closed form.

    The per-family evaluation the site-function bank replaced, kept as its
    oracle.  Dot products go through `@`, whose summation order may differ
    from the bank's by round-off.
    """
    pts = np.array(points, dtype=float)
    for site, value in fam.pins:
        pts[:, site] = value
    p = fam.params
    if fam.variant == "constant":
        raw = np.full(pts.shape[0], p["c"])
    elif fam.variant == "affine-saturated":
        raw = np.minimum(1.0, p["a"] + pts @ p["b"])
    elif fam.variant == "product-form":
        raw = 1.0 - np.prod(1.0 - pts * p["beta"], axis=1)
    elif fam.variant == "hanski-incidence":
        m2 = (pts @ p["b"]) ** 2
        raw = m2 / (m2 + p["y"] ** 2)
    else:
        # fold coordinates one at a time, the least significant bit first
        cur = np.broadcast_to(p["table"], (pts.shape[0], 1 << fam.n))
        for i in range(fam.n):
            w = pts[:, i][:, None]
            cur = cur[:, ::2] * (1.0 - w) + cur[:, 1::2] * w
        raw = cur[:, 0]
    out = fam.offset + fam.scale * raw
    if fam.role == "probability":
        np.clip(out, 0.0, 1.0, out=out)
    return out


def hypothesis_margin(spec, hypothesis: str, site: int, x, y=None) -> float:
    """One witness's margin, re-evaluated on its own to audit a report."""
    table = model._OCC_HYPOTHESES if isinstance(spec, ModelSpec) else model._SPIN_HYPOTHESES
    target, kind = next((t, k) for name, t, k in table if name == hypothesis)
    f = model._targets(spec)[target]
    xs = np.asarray(x, float)[None, :]
    vx = f(site, xs)
    if kind == "nonnegative":
        return float(vx[0])
    ys = np.asarray(y, float)[None, :]
    vy = f(site, ys)
    vm = f(site, 0.5 * (xs + ys)) if kind in ("concave", "convex") else None
    return float(model.pair_margin(kind, vx, vy, vm)[0])


def submask_lattice_pairs(n):
    """model._comparable_lattice_pairs by submask enumeration, word by word."""
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
    bits = exact.lattice_bits(n)
    return bits[lo[keep]], bits[hi[keep]]


def where_transition_matrix(spec):
    """The kernel as a product of n full-size per-site factors.

    An independent route to exact.transition_matrix, which expands the
    site factors in place; both multiply the factors in site order, so
    they agree bit for bit.  The site factors come one family at a time.
    """
    col_bits = exact.lattice_bits(spec.n)
    c, s = family_site_values(spec, col_bits)
    q = np.where(col_bits > 0, s, c)
    size = 1 << spec.n
    T = np.ones((size, size))
    for i in range(spec.n):
        qi = q[:, i][:, None]
        T *= np.where(col_bits[None, :, i] > 0, qi, 1.0 - qi)
    return T


def hamming_rate_defect(spec, config):
    """bridge.rate_defect by masks over the full matrix of Hamming distances."""
    T = exact.transition_matrix(bridge.discretise(spec, config))
    Q = T / config.delta
    size = Q.shape[0]
    words = np.arange(size)
    Q[words, words] = 0.0
    Q[words, words] = -Q.sum(axis=1)
    G = dense_spin_generator(spec)
    ham = np.zeros((size, size), dtype=int)
    for i in range(spec.n):
        ham += ((words[:, None] ^ words[None, :]) >> i) & 1
    single = float(np.max(np.abs(Q - G)[ham == 1]))
    multi = float(np.max(Q[ham >= 2], initial=0.0))
    return single, multi


def generator_stream(seed, domain, lane, block, count):
    """streams.uniform_stream as it was drawn before the raw-word route.

    numpy's Generator over the addressed Philox, with the key built from a
    list of Python ints as it used to be: the salt does not fit an int64, so
    numpy makes the key a float64 array and stores the salt's rounding.
    Only seeds below 2^53 pass through that rounding unchanged.
    """
    bitgen = np.random.Philox(key=[seed, 0x9E3779B97F4A7C15],
                              counter=[0, block, lane, domain])
    return np.random.Generator(bitgen).random(count)


def philox_uniforms(seed, domain, lane, block, count):
    """The README's uniforms, from Philox4x64-10 written out in Python.

    Block j of a stream is the Philox4x64-10 bijection of the counter
    [j + 1, block, lane, domain] (a 256-bit integer, word 0 lowest) under
    the key [seed, 0x9E3779B97F4A8000]; each 64-bit word w gives the
    uniform (w >> 11) * 2^-53.
    """
    mask = (1 << 64) - 1
    words = []
    ctr = [0, block, lane, domain]
    while len(words) < count:
        for i in range(4):
            ctr[i] = (ctr[i] + 1) & mask
            if ctr[i]:
                break
        x0, x1, x2, x3 = ctr
        k0, k1 = seed, 0x9E3779B97F4A8000
        for r in range(10):
            if r:
                k0 = (k0 + 0x9E3779B97F4A7C15) & mask
                k1 = (k1 + 0xBB67AE8584CAA73B) & mask
            p0 = 0xD2E7470EE14C6C93 * x0
            p1 = 0xCA5A826395121157 * x2
            x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & mask,
                              (p0 >> 64) ^ x3 ^ k1, p0 & mask)
        words += [x0, x1, x2, x3]
    return np.array([(w >> 11) * 2.0 ** -53 for w in words[:count]])


def float_route_paths(spec, x0: int, steps: int, reps: int, seed: int) -> np.ndarray:
    """(steps+1, reps, n) 0/1 states of every replicate under the float rule.

    The Monte Carlo engines' rule as it reads in the paper: the double
    uniforms of streams.uniform_stream at the engines' addresses (lane =
    step, block = chunk), the float thresholds of model.transition_values
    at the current states, and a bit on next when u < p.  The engines
    compare integer words instead; their counts must equal these.
    """
    paths = np.empty((steps + 1, reps, spec.n), dtype=np.int8)
    paths[0] = exact.state_bits(x0, spec.n)
    for start in range(0, reps, REPLICATE_CHUNK):
        rows = slice(start, min(reps, start + REPLICATE_CHUNK))
        states = paths[0, rows].astype(float)
        for t in range(1, steps + 1):
            u = uniform_stream(seed, DOMAIN_SIMULATION, t, start // REPLICATE_CHUNK,
                               states.size).reshape(states.shape)
            states = (u < model.transition_values(spec, states)).astype(float)
            paths[t, rows] = states
    return paths


def random_family(n, rng, role="probability", variants=VARIANTS):
    """A random family of one of `variants`, with random offset, scale and pins.

    Probability-role families may take a negative scale or an offset that
    the clamp cuts; rate-role families keep both nonnegative.
    """
    variant = variants[int(rng.integers(len(variants)))]
    params = {
        "constant": lambda: {"c": float(rng.random())},
        "affine-saturated": lambda: {"a": float(rng.random()),
                                     "b": list(rng.random(n) / n)},
        "product-form": lambda: {"beta": list(rng.random(n))},
        "hanski-incidence": lambda: {"b": list(rng.random(n)),
                                     "y": float(0.1 + rng.random())},
        "tabulated-multilinear": lambda: {"table": list(rng.random(1 << n))},
    }[variant]()
    if role == "rate":
        offset, scale = float(rng.random()), float(rng.random())
    else:
        offset, scale = float(rng.uniform(-0.2, 0.5)), float(rng.uniform(-1.0, 1.5))
    pins = tuple((int(site), float(rng.random()))
                 for site in np.flatnonzero(rng.random(n) < 0.25))
    return FunctionFamily(variant=variant, n=n, params=params, role=role,
                          offset=offset, scale=scale, pins=pins)


def random_model(n, seed, variants=VARIANTS):
    """Random occupancy model over `variants` (all five by default), with pins and clamps."""
    rng = np.random.default_rng(seed)
    return ModelSpec(n=n,
                     colonisation=tuple(random_family(n, rng, variants=variants)
                                        for _ in range(n)),
                     survival=tuple(random_family(n, rng, variants=variants)
                                    for _ in range(n)))


def random_spin_model(n, seed):
    """Random spin system over all five variants, with pins."""
    rng = np.random.default_rng(seed)
    return SpinSpec(n=n,
                    birth=tuple(random_family(n, rng, "rate") for _ in range(n)),
                    death=tuple(random_family(n, rng, "rate") for _ in range(n)))
