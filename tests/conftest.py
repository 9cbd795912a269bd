import functools
import itertools

import numpy as np
import pytest

from occupancy import bridge, exact, indep, meanfield, model, simulate, zoo
from occupancy.exact import MultiSitePattern, TimePattern
from occupancy.lattice import word_bits
from occupancy.meanfield import OdeConfig
from occupancy.model import VARIANTS, FunctionFamily, ModelSpec, SpinSpec
from occupancy.streams import (DOMAIN_SIMULATION, REPLICATE_CHUNK, UniformArray,
                               assumption_uniforms, new_bit_generator, uniform_stream)


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


def lattice_bits(n: int) -> np.ndarray:
    """(2^n, n) bits of every state word as floats; row w is the word w.

    The whole lattice as one table, which no route of the package holds:
    they read it a row block at a time.
    """
    return word_bits(0, 1 << n, n)


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
    colonise, survive = indep.site_schedules(spec, x0, pattern.horizon)
    bit = int(exact.state_bits(x0, spec.n)[pattern.site])

    @functools.lru_cache(maxsize=None)
    def solve(omega: tuple[int, ...]) -> float:
        zeros = [t for t, w in enumerate(omega, start=1) if w == 0]
        if not zeros:
            return 1.0
        phi = zeros[-1]
        c, s = colonise[phi - 1, pattern.site], survive[phi - 1, pattern.site]
        if phi == 1:
            return 1.0 - (c if bit == 0 else s)
        freed = list(omega)
        freed[phi - 1] = 1
        lower = list(freed)
        lower[phi - 2] = 0
        return (1.0 - s) * solve(tuple(freed)) + (s - c) * solve(tuple(lower))

    return solve(pattern.omega)


def patterns_for_budget(n: int, m: int, budget: int):
    """Multisite patterns with total demanded vacancies <= budget, in scan order.

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


def scanned_patterns(n: int, m: int, budget: int = 4):
    """order.path_orthant's patterns in scan order.

    Every single-site pattern, by site then omega, then every multisite
    one in `patterns_for_budget` order.
    """
    for site in range(n):
        for omega in itertools.product((0, 1), repeat=m):
            yield TimePattern(site=site, omega=omega)
    for entries in patterns_for_budget(n, m, budget):
        yield MultiSitePattern(entries)


def per_pattern_scan(spec, x0: int, m: int, kernel, budget: int = 4):
    """order.path_orthant's patterns in scan order, each computed on its own.

    Yields (pattern, exact, surrogate) for every pattern of
    `scanned_patterns`, propagated from the point mass by exact's and
    recursed by indep's per-pattern functions.  The route the prefix-tree
    scan replaced, kept as its oracle.
    """
    schedules = indep.site_schedules(spec, x0, m)
    for pattern in scanned_patterns(spec.n, m, budget):
        if isinstance(pattern, TimePattern):
            yield (pattern, exact.path_probability(spec, x0, pattern, kernel),
                   indep.path_probability(spec, x0, pattern, schedules))
        else:
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


def dense_subordinated_law(spec, config, x0: int, t: float):
    """bridge.subordinated_law by powers of the dense kernel, one per lazy step too.

    The chain's law after a Poisson(t / delta) number of steps, every one of
    them a product with the dense kernel T, with no thinning to the moves.
    """
    T = exact.transition_matrix(bridge.discretise(spec, config))
    v0 = exact.point_mass(spec.n, x0)
    return exact.as_distribution(exact.poisson_mixture(lambda v: v @ T, v0, t / config.delta))


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


def site_targets(spec):
    """Every hypothesis target as f(site, points), one site's families evaluated on their own.

    The per-site evaluation the scans' per-role banks replaced, kept as
    their oracle.
    """
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


def comparable_lattice_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Words (lo, hi) of all lattice pairs x <= y, x != y, each hi after its proper submasks.

    Words come in increasing order and each word's submasks in decreasing
    order, as submask enumeration visits them.  The k-th largest proper
    submask of a word with c bits set deposits the bits of 2^c - 1 - k into
    the word's set bits.  The pair list the subset-max transform of the
    monotone scans replaced, kept as its oracle.
    """
    # int32 halves the build's peak; 3^n stays below 2^31 up to n = 19
    words = np.arange(1 << n, dtype=np.int32)
    count = (1 << lattice_bits(n).sum(axis=1).astype(np.int32)) - 1
    hi = np.repeat(words, count)
    # runs from 2^c - 2 down to 0 within each word
    rank = (np.repeat(np.cumsum(count, dtype=np.int32), count) - 1
            - np.arange(hi.size, dtype=np.int32))
    lo = np.zeros_like(hi)
    for i in range(n):
        on = (hi >> i) & 1
        lo |= (rank & on) << i
        rank >>= on
    return lo, hi


def hypothesis_margin(spec, hypothesis: str, site: int, x, y=None) -> float:
    """One witness's margin, re-evaluated on its own to audit a report."""
    table = model._OCC_HYPOTHESES if isinstance(spec, ModelSpec) else model._SPIN_HYPOTHESES
    target, kind = next((t, k) for name, t, k in table if name == hypothesis)
    f = site_targets(spec)[target]
    xs = np.asarray(x, float)[None, :]
    ys = None if y is None else np.asarray(y, float)[None, :]
    return float(model._margins(kind, lambda pts: f(site, pts), xs, ys)[0])


def scan_check_assumptions(spec, samples: int = 4096, tol: float = 1e-9, seed: int = 0):
    """model.check_assumptions with every hypothesis scanned, none proven."""
    table = model._OCC_HYPOTHESES if isinstance(spec, ModelSpec) else model._SPIN_HYPOTHESES
    scans = model._Scans(spec, samples, tol, seed)
    return model.AssumptionReport(
        tuple(scans.finding(lane, *hypothesis) for lane, hypothesis in enumerate(table)),
        samples=samples, tol=tol, seed=seed)


def per_site_check_assumptions(spec, samples: int = 4096, tol: float = 1e-9,
                               seed: int = 0):
    """The scan route of model.check_assumptions, every site's family evaluated on its own.

    The lattice scans run over the comparable pairs and the pair grid as
    full (pairs, n) bit tables, one family per call, after the sampled
    batch; a site's margin replaces the worst only when strictly lower.
    A finding is labelled "lattice" where one of those scans ran.
    """
    table = model._OCC_HYPOTHESES if isinstance(spec, ModelSpec) else model._SPIN_HYPOTHESES
    targets = site_targets(spec)
    n = spec.n
    bits = lattice_bits(n)

    def batches(kind, lane):
        """The sampled batch, then the lattice batch if one is scanned."""
        if kind == "nonnegative":
            yield assumption_uniforms(seed, lane, samples * n).reshape(samples, n), None
            if n <= model.LATTICE_SCAN_CAP:
                yield bits, None
            return
        u = assumption_uniforms(seed, lane, 2 * samples * n).reshape(2, samples, n)
        if kind in ("increasing", "decreasing"):
            yield np.minimum(u[0], u[1]), np.maximum(u[0], u[1])
            if n <= model.LATTICE_SCAN_CAP:
                lo, hi = comparable_lattice_pairs(n)
                yield bits[lo], bits[hi]
        else:
            yield u[0], u[1]
            if n <= model.LATTICE_PAIR_CAP:
                a, b = np.triu_indices(1 << n, k=1)
                yield bits[a], bits[b]

    findings = []
    for lane, (name, target, kind) in enumerate(table):
        f = targets[target]
        if kind == "lipschitz":
            u = assumption_uniforms(seed, lane, 2 * samples * n).reshape(2, samples, n)
            dist = np.abs(u[1] - u[0]).sum(axis=1)
            ok = dist > 1e-12
            best = 0.0
            if np.any(ok):
                for i in range(n):
                    gaps = np.abs(f(i, u[1]) - f(i, u[0]))
                    best = max(best, float(np.max(gaps[ok] / dist[ok])))
            findings.append(model.HypothesisFinding(name, "pass", np.inf, None, "sampled",
                                                    estimate=best))
            continue
        worst, witness, by = np.inf, None, "sampled"
        for index, (x, y) in enumerate(batches(kind, lane)):
            # a second batch, when there is one, is the lattice's
            by = "lattice" if index else "sampled"
            for i in range(n):
                margins = model._margins(kind, lambda pts: f(i, pts), x, y)
                k = int(np.argmin(margins))
                if margins[k] < worst:
                    worst = float(margins[k])
                    witness = model.Witness(site=i, x=tuple(x[k]),
                                            y=None if y is None else tuple(y[k]))
        findings.append(model.HypothesisFinding(name, "fail" if worst < -tol else "pass",
                                                worst, witness, by))
    return model.AssumptionReport(tuple(findings), samples=samples, tol=tol, seed=seed)


def submask_lattice_pairs(n):
    """comparable_lattice_pairs by submask enumeration, word by word."""
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


def where_transition_matrix(spec):
    """The kernel as a product of n full-size per-site factors.

    An independent route to exact.transition_matrix, which expands the
    site factors in place; both multiply the factors in site order, so
    they agree bit for bit, signed zeros included.  The site factors come
    one family at a time, and q is `c (1 - x) + s x`, as
    `model.transition_values` forms it.
    """
    col_bits = lattice_bits(spec.n)
    c, s = family_site_values(spec, col_bits)
    q = c * (1.0 - col_bits) + s * col_bits
    size = 1 << spec.n
    T = np.ones((size, size))
    for i in range(spec.n):
        qi = q[:, i][:, None]
        T *= np.where(col_bits[None, :, i] > 0, qi, 1.0 - qi)
    return T


def factor_table(q):
    """(2^n, 2^k) products of the k sites' factors in `q`'s columns, row w, column y.

    Expanded column by column over the whole table at once, as the
    kernel's tables were before they were built in row blocks; the
    factors are multiplied in the same order, so the two agree bit for bit.
    """
    table = np.empty((q.shape[0], 1 << q.shape[1]))
    table[:, 0] = 1.0
    width = 1
    for i in range(q.shape[1]):
        qi = q[:, i:i + 1]
        np.multiply(table[:, :width], qi, out=table[:, width:2 * width])
        table[:, :width] *= 1.0 - qi
        width *= 2
    return table


def signed_zero_model(n, seed, spin=False):
    """A model of all five variants pinned at 0, 1 and inside, with signed zeros.

    Site i's families are pinned at the first none to three of the
    coordinates i, i + 1 and i + 2 (mod n), to 0, 1 and 0.37, later pins
    overriding earlier ones.  Tabulated families hold -0.0 entries, one of
    them only -0.0 entries, and the families take a -0.0 offset: the cases
    where reading a table's entry and folding it could differ in the sign
    of a zero.
    """
    rng = np.random.default_rng(seed)
    role = "rate" if spin else "probability"

    def family(i, k):
        variant = VARIANTS[(i + k) % len(VARIANTS)]
        table = rng.random(1 << n)
        table[rng.random(1 << n) < 0.3] = -0.0
        params = {"constant": {"c": float(rng.random())},
                  "affine-saturated": {"a": float(rng.random()), "b": list(rng.random(n) / n)},
                  "product-form": {"beta": list(rng.random(n))},
                  "hanski-incidence": {"b": list(rng.random(n)), "y": 0.5},
                  "tabulated-multilinear": {"table": list(table) if k else [-0.0] * (1 << n)},
                  }[variant]
        pins = ((i % n, 0.0), ((i + 1) % n, 1.0), ((i + 2) % n, 0.37))[:(i + k) % 4]
        return FunctionFamily(variant=variant, n=n, params=params, role=role,
                              offset=-0.0, scale=float(0.5 + rng.random()), pins=pins)

    up = tuple(family(i, 0) for i in range(n))
    down = tuple(family(i, 1) for i in range(n))
    if spin:
        return SpinSpec(n=n, birth=up, death=down)
    return ModelSpec(n=n, colonisation=up, survival=down)


def one_product_push(kernel, v):
    """exact.Kernel.push as one product of the two whole factor tables.

    It holds a (2^n, 2^(n/2)) product; the kernel's own push sums row
    blocks, one block up to n = 11, so the two agree bit for bit there and
    by round-off past it.
    """
    return (kernel.high.T @ (v[:, None] * kernel.low)).ravel()


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


def random_spin_model(n, seed, variants=VARIANTS):
    """Random spin system over `variants` (all five by default), with pins."""
    rng = np.random.default_rng(seed)
    return SpinSpec(n=n,
                    birth=tuple(random_family(n, rng, "rate", variants) for _ in range(n)),
                    death=tuple(random_family(n, rng, "rate", variants) for _ in range(n)))


# -- acceptance helpers: the paper's secondary guarantees, run by the tests --


def simulate_event_probability(spec, x0: int, pattern: MultiSitePattern, reps: int,
                               seed: int, workers: int = 1) -> simulate.McEstimate:
    """Estimate the probability of a joint vacancy pattern with the engines' step."""
    exact.check_constraints(spec.n, pattern.constraints())
    horizon = pattern.horizon
    by_time: dict[int, list[int]] = {}
    for site, t in pattern.constraints():
        by_time.setdefault(t, []).append(site)
    ua = UniformArray(seed=seed, n_sites=spec.n)
    table = (None if simulate._table_plan(spec.n, horizon, reps) is None
             else simulate._threshold_table(spec))

    def run(chunk: int, rows: int) -> np.ndarray:
        bitgen = new_bit_generator()
        states = simulate._initial_states(x0, spec.n, rows)
        alive = np.ones(rows, dtype=bool)
        for t in range(1, horizon + 1):
            states = simulate.step_occupancy(
                spec, states, ua.chunk_values(t, chunk, rows, words=True, bitgen=bitgen), table)
            for site in by_time.get(t, ()):
                alive &= states[:, site] == 0
        return np.asarray(alive.sum(), dtype=np.int64)

    count = int(sum(simulate._run_chunks(simulate._chunk_plan(reps), run, workers)))
    se = float(simulate._bernoulli_se(np.asarray(count), reps))
    return simulate.McEstimate(mean=count / reps, se=se, reps=reps, seed=seed)


def monotone_path_check(spec, x0: int, steps: int, reps: int, seed: int,
                        gamma: float = 0.5, workers: int = 1) -> int:
    """Count order violations between paths driven by U and by U**gamma.

    U**gamma dominates U pointwise (gamma in (0,1]) and the threshold rule
    is antitone in its uniforms for survival-dominant monotone models, so
    the powered path should sit below the plain one at every site and step.
    Returns the number of (replicate, step, site) triples where it does not.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    ua = UniformArray(seed=seed, n_sites=spec.n)
    table = (None if simulate._table_plan(spec.n, steps, reps) is None
             else simulate._threshold_table(spec))

    def run(chunk: int, rows: int) -> np.ndarray:
        bitgen = new_bit_generator()
        lo = simulate._initial_states(x0, spec.n, rows)
        hi = lo.copy()
        bad = 0
        for t in range(1, steps + 1):
            u = ua.chunk_values(t, chunk, rows, bitgen=bitgen)
            hi = simulate.step_occupancy(spec, hi, u, table)
            lo = simulate.step_occupancy(spec, lo, u ** gamma, table)
            bad += int(np.sum(lo > hi))
        return np.asarray(bad, dtype=np.int64)

    return int(sum(simulate._run_chunks(simulate._chunk_plan(reps), run, workers)))


def mask_self_colonisation(spec):
    """Pin each colonisation function's own coordinate to zero.

    On the lattice this never changes the process: colonisation only acts
    on sites that are currently empty.  On the cube it removes each site's
    self-term from its own colonisation pressure, which can only lower the
    deterministic trajectory while it remains an upper bound for the
    stochastic occupation probabilities (for certified models).
    """
    masked = tuple(fam.pinned(i, 0.0) for i, fam in enumerate(spec.colonisation))
    return ModelSpec(n=spec.n, colonisation=masked, survival=spec.survival)


def spin_path_probability(spec, x0: int, site: int, times,
                          config: OdeConfig = OdeConfig()) -> float:
    """P(site vacant at every listed time) for the continuous-time surrogate.

    The site's two-state master equation is integrated jointly with the
    occupancy ODE that drives its rates, by meanfield's fixed step; at each
    listed time the occupied mass is projected out (conditioning on vacancy
    without renormalising).
    """
    if not 0 <= site < spec.n:
        raise ValueError(f"site {site} out of range")
    times = [float(t) for t in times]
    if any(t <= 0 for t in times):
        raise ValueError("times must be > 0")
    if sorted(set(times)) != times:
        raise ValueError("times must be strictly increasing")
    n = spec.n

    def rhs(y):
        # y stacks the ODE point p with the site's (P(vacant), P(occupied));
        # the rates at p drive both the ODE and the site's chain
        p, vacant, occupied = y[:n], y[n], y[n + 1]
        lam, mu = model.site_values(spec, p[None])
        lam, mu = lam[0], mu[0]
        flow = vacant * lam[site] - occupied * mu[site]
        return np.concatenate([(1.0 - p) * lam - p * mu, [-flow, flow]])

    p0 = exact.state_bits(x0, n)
    y = np.concatenate([p0, [1.0 - p0[site], p0[site]]])
    t_cur = 0.0
    for t_next in times:
        full, rem = meanfield.step_count(t_next - t_cur, config.h)
        for _ in range(full):
            y = meanfield.advance(rhs, y, config.h, config.method)
        if rem > 0.0:
            y = meanfield.advance(rhs, y, rem, config.method)
        y[n + 1] = 0.0
        t_cur = t_next
    return float(y[n])
