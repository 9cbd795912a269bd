import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy import indep, model, zoo
from occupancy.lattice import lattice_bits
from occupancy.model import (BOUND_HYPOTHESES, VARIANTS, DimensionError, FunctionFamily,
                             ModelError, ModelSpec, ORDERING_HYPOTHESES,
                             SPIN_BOUND_HYPOTHESES, SpinSpec, check_assumptions,
                             load_model, model_from_dict, model_to_dict,
                             save_model, site_values, transition_values)

from conftest import (family_formula, hypothesis_margin, per_site_check_assumptions,
                      random_model, random_spin_model, scan_check_assumptions,
                      submask_lattice_pairs)


def aff(n, a, b, **kw):
    return FunctionFamily(variant="affine-saturated", n=n,
                          params={"a": a, "b": b}, **kw)


# -- family evaluation -------------------------------------------------------


# the two variants with dot products sum in the bank's order, not in `@`'s
DOT_VARIANTS = ("affine-saturated", "hanski-incidence")


@pytest.mark.parametrize("n", range(1, 7))
def test_site_values_are_the_family_columns(n):
    # column i is site i's family: equal to its closed form (to round-off
    # where a dot product is summed), and bit for bit to the family's own
    # evaluation, whatever the batch size
    rng = np.random.default_rng(n)
    for seed in range(3):
        occupancy, spin = random_model(n, seed), random_spin_model(n, seed)
        for pts in (rng.random((1, n)), rng.random((2, n)), rng.random((57, n)),
                    lattice_bits(n)):
            for spec, up_fams, down_fams in (
                    (occupancy, occupancy.colonisation, occupancy.survival),
                    (spin, spin.birth, spin.death)):
                up, down = site_values(spec, pts)
                assert up.shape == down.shape == (pts.shape[0], n)
                for values, fams in ((up, up_fams), (down, down_fams)):
                    for i, fam in enumerate(fams):
                        oracle = family_formula(fam, pts)
                        if fam.variant in DOT_VARIANTS:
                            assert np.max(np.abs(values[:, i] - oracle)) <= 1e-15
                        else:
                            assert np.array_equal(values[:, i], oracle)
                        assert np.array_equal(values[:, i], fam.eval_batch(pts))
                assert np.array_equal(transition_values(spec, pts),
                                      up * (1.0 - pts) + down * pts)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 10_000), rows=st.integers(2, 40),
       spin=st.booleans())
def test_a_point_evaluates_alike_in_any_batch(n, seed, rows, spin):
    # one summation order: a row evaluated alone equals the same row in a
    # batch, in the spec's bank and in each family's own, and a schedule's
    # first m steps do not depend on its horizon
    spec = random_spin_model(n, seed) if spin else random_model(n, seed)
    pts = np.random.default_rng(seed).random((rows, n))
    pts[rows // 2:] = lattice_bits(n)[np.arange(rows - rows // 2) % (1 << n)]
    up, down = site_values(spec, pts)
    fams = (spec.birth + spec.death) if spin else (spec.colonisation + spec.survival)
    batch = [fam.eval_batch(pts) for fam in fams]
    for i in range(rows):
        one_up, one_down = site_values(spec, pts[i:i + 1])
        assert np.array_equal(one_up[0], up[i]) and np.array_equal(one_down[0], down[i])
        for fam, values in zip(fams, batch):
            assert fam.eval_batch(pts[i:i + 1])[0] == values[i]
    if not spin:
        x0 = seed % (1 << n)
        longest = indep.site_schedules(spec, x0, 9)
        for m in range(1, 9):
            for short, long in zip(indep.site_schedules(spec, x0, m), longest):
                assert np.array_equal(short.colonise, long.colonise[:m])
                assert np.array_equal(short.survive, long.survive[:m])


@pytest.mark.parametrize("entries", [1, 7, 100])
def test_row_blocks_give_the_whole_batch(monkeypatch, entries):
    pts = np.random.default_rng(entries).random((300, 5))
    specs = [random_model(5, seed) for seed in range(4)]
    specs += [random_spin_model(5, seed) for seed in range(4)]
    whole = [site_values(spec, pts) for spec in specs]
    monkeypatch.setattr(model, "BLOCK_ENTRIES", entries)
    for spec, (up, down) in zip(specs, whole):
        blocked = site_values(spec, pts)
        assert np.array_equal(blocked[0], up) and np.array_equal(blocked[1], down)


@pytest.mark.parametrize("spec", [
    zoo.random_certified_model(12, 0),
    random_model(10, 0, variants=("tabulated-multilinear",)),
], ids=["certified-n12", "tabulated-n10"])
def test_lattice_evaluation_memory(spec):
    # lattice-sized batches are evaluated in row blocks: no temporary holds
    # (2^n, families, n) terms or (2^n, 2^n) folds, so the peak stays within
    # a few copies of the (2^n, n) output
    bits = lattice_bits(spec.n)
    transition_values(spec, bits[:1])
    tracemalloc.start()
    try:
        out = transition_values(spec, bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (1 << spec.n, spec.n)
    assert peak <= 12 * out.nbytes


def test_check_leaves_no_lattice_tables_alive():
    # a fresh interpreter, so nothing an earlier check in this process built
    # is counted
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = ("import gc, tracemalloc\n"
             "from occupancy import model, zoo\n"
             "spec = zoo.contact_ring(10)\n"
             "tracemalloc.start()\n"
             "model.check_assumptions(spec, samples=64)\n"
             "gc.collect()\n"
             "print(tracemalloc.get_traced_memory()[0])\n")
    out = subprocess.run([sys.executable, "-c", probe],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 2 << 20


def test_check_peak_stays_within_four_megabytes():
    # the lattice scans read one (2^n, 2n) table and gather margins in row
    # blocks: no (3^n - 2^n, n) pair tables (9.3 MB at n = 10) are built
    spec = zoo.contact_ring(10)
    tracemalloc.start()
    try:
        check_assumptions(spec, samples=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("n", range(1, 11))
def test_comparable_pairs_follow_submask_order(n):
    lo, hi = model._comparable_lattice_pairs(n)
    want_lo, want_hi = submask_lattice_pairs(n)
    bits = lattice_bits(n)
    assert np.array_equal(bits[lo], want_lo) and np.array_equal(bits[hi], want_hi)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(spin=st.booleans(), n=st.integers(1, 8), seed=st.integers(0, 2 ** 16),
       samples=st.sampled_from((1, 64)))
def test_check_equals_the_per_site_oracle(spin, n, seed, samples):
    # random families of all five variants, with pins, clamps and negative
    # scales; with one sample the lattice picks most witnesses
    spec = random_spin_model(n, seed) if spin else random_model(n, seed)
    assert (repr(scan_check_assumptions(spec, samples=samples).to_dict())
            == repr(per_site_check_assumptions(spec, samples=samples).to_dict()))


@pytest.mark.parametrize("spec", [
    zoo.contact_ring(10),
    zoo.random_certified_model(10, 0),
    zoo.random_certified_model(10, 3),
    # every margin ties: each witness is the first site's first point or pair
    zoo.constant_pair(n=4),
], ids=["ring-n10", "certified-n10-0", "certified-n10-3", "constant-n4"])
def test_check_equals_the_per_site_oracle_at_fixed_models(spec):
    assert (repr(scan_check_assumptions(spec, samples=64).to_dict())
            == repr(per_site_check_assumptions(spec, samples=64).to_dict()))


# the variants the certifier settles; the other three it proves only when
# they reduce to a constant
SETTLED = ("constant", "affine-saturated")


def axis_quotient(spec, target: str) -> float:
    """The largest |f(e_j) - f(0)| over sites and coordinates: single-axis lattice quotients."""
    f = model._targets(spec)[target]
    bits = lattice_bits(spec.n)
    axes = bits[[1 << j for j in range(spec.n)]]
    return max(float(np.max(np.abs(f(i, axes) - f(i, bits[:1])))) for i in range(spec.n))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(spin=st.booleans(), settled=st.booleans(), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 16))
def test_every_proof_holds_on_the_scan_route(spin, settled, n, seed):
    # the scans are the oracle: a proven infimum bounds every scanned
    # margin, and it is the least lattice margin, at its witness; a proven
    # Lipschitz constant bounds the sampled quotients and is a single-axis
    # lattice quotient; every other finding is the scan route's, label and
    # all.  A sampled quotient divides the values' round-off by distances
    # down to about 1e-4 (2.5e-12 over the constant was seen at n = 1)
    variants = SETTLED if settled else VARIANTS
    spec = (random_spin_model(n, seed, variants) if spin
            else random_model(n, seed, variants))
    table = model._SPIN_HYPOTHESES if spin else model._OCC_HYPOTHESES
    report = check_assumptions(spec, samples=64)
    scanned = scan_check_assumptions(spec, samples=64)
    for (_, target, kind), claim, scan in zip(table, report.findings, scanned.findings):
        if claim.certified_by != "proof":
            assert repr(claim) == repr(scan)
            continue
        if kind == "lipschitz":
            assert claim.estimate >= scan.estimate - 1e-9, claim.hypothesis
            assert claim.estimate == pytest.approx(axis_quotient(spec, target), abs=1e-12)
            continue
        assert claim.verdict == ("fail" if claim.worst_margin < -report.tol else "pass")
        assert scan.worst_margin >= claim.worst_margin - 1e-12, claim.hypothesis
        if claim.witness is None:
            assert claim.worst_margin == 0.0
            continue
        w = claim.witness
        again = hypothesis_margin(spec, claim.hypothesis, w.site, w.x, w.y)
        assert again == pytest.approx(claim.worst_margin, abs=1e-12)
        assert scan.certified_by == "lattice"
        assert scan.worst_margin == pytest.approx(claim.worst_margin, abs=1e-12)


@pytest.mark.parametrize("spin", [False, True], ids=["occupancy", "spin"])
def test_the_certifier_proves_every_hypothesis_somewhere(spin):
    # the property test above checks proofs; these models give it proofs of
    # every kind, and refutations of each monotone kind, under pins, clamps
    # and negative scales.  Rate families have nonnegative coefficients, so
    # no increasing spin hypothesis can fail
    proven, refuted = set(), set()
    table = model._SPIN_HYPOTHESES if spin else model._OCC_HYPOTHESES
    kinds = {name: kind for name, _, kind in table}
    for seed in range(40):
        spec = (random_spin_model(2, seed, SETTLED) if spin
                else random_model(2, seed, SETTLED))
        for f in check_assumptions(spec, samples=1).findings:
            if f.certified_by == "proof":
                proven.add(f.hypothesis)
                if f.verdict == "fail":
                    refuted.add(kinds[f.hypothesis])
    assert proven == set(kinds)
    assert refuted >= ({"decreasing"} if spin else {"increasing", "decreasing"})


def test_lipschitz_constant_is_the_largest_coefficient_magnitude():
    # rate families have nonnegative coefficients; the rule reads |beta_j|
    form = model._affine(Fraction(1, 2), (Fraction(-3, 4), Fraction(1, 4)))
    finding = model._proof([form, form], "f-lipschitz", "lipschitz", 1e-9)
    assert (finding.verdict, finding.estimate, finding.certified_by) == ("pass", 0.75, "proof")
    assert finding.worst_margin == np.inf and finding.witness is None


def test_affine_example():
    fam = aff(2, 0.2, [0.0, 0.3])
    assert fam.eval([0.7, 1.0]) == pytest.approx(0.5, abs=1e-15)
    assert fam.eval([0.0, 0.0]) == pytest.approx(0.2, abs=1e-15)


def test_affine_saturates_at_one():
    fam = aff(2, 0.9, [0.3, 0.0])
    assert fam.eval([0.5, 0.2]) == 1.0
    assert fam.eval([1.0, 1.0]) == 1.0


def test_product_form_example():
    fam = FunctionFamily(variant="product-form", n=2, params={"beta": [0.5, 0.5]})
    assert fam.eval([0.5, 0.5]) == pytest.approx(0.4375, abs=1e-15)
    assert fam.eval([0.0, 0.0]) == 0.0


def test_constant_ignores_input():
    fam = FunctionFamily(variant="constant", n=3, params={"c": 0.25})
    pts = np.random.default_rng(0).uniform(size=(50, 3))
    assert np.all(fam.eval_batch(pts) == 0.25)


def test_hanski_shape():
    fam = FunctionFamily(variant="hanski-incidence", n=2,
                         params={"b": [1.0, 1.0], "y": 0.5})
    # M = 2 at the full corner: 4 / 4.25
    assert fam.eval([1.0, 1.0]) == pytest.approx(4.0 / 4.25, abs=1e-15)
    assert fam.eval([0.0, 0.0]) == 0.0


def test_tabulated_matches_naive_interpolant():
    rng = np.random.default_rng(3)
    n = 4
    table = rng.uniform(size=1 << n)
    fam = FunctionFamily(variant="tabulated-multilinear", n=n,
                         params={"table": table})
    pts = rng.uniform(size=(20, n))
    for p in pts:
        expected = 0.0
        for word in range(1 << n):
            w = 1.0
            for i in range(n):
                bit = (word >> i) & 1
                w *= p[i] if bit else 1.0 - p[i]
            expected += w * table[word]
        assert fam.eval(p) == pytest.approx(expected, abs=1e-12)


def test_tabulated_exact_at_corners():
    table = [0.1, 0.9, 0.4, 0.7]
    fam = FunctionFamily(variant="tabulated-multilinear", n=2,
                         params={"table": table})
    for word in range(4):
        corner = [float((word >> i) & 1) for i in range(2)]
        assert fam.eval(corner) == table[word]


def test_offset_scale_and_role():
    fam = FunctionFamily(variant="constant", n=1, params={"c": 1.0},
                         role="rate", scale=2.5)
    assert fam.eval([0.3]) == 2.5
    prob = FunctionFamily(variant="constant", n=1, params={"c": 1.0},
                          role="probability", scale=2.5)
    assert prob.eval([0.3]) == 1.0  # clamped
    neg = FunctionFamily(variant="constant", n=1, params={"c": 1.0},
                         role="probability", offset=1.0, scale=-0.25)
    assert neg.eval([0.0]) == pytest.approx(0.75, abs=1e-15)


def test_pins_override_coordinates():
    fam = aff(2, 0.0, [1.0, 0.0], pins=((0, 0.0),))
    assert fam.eval([0.9, 0.4]) == 0.0
    again = aff(2, 0.0, [1.0, 0.0]).pinned(0, 0.25)
    assert again.eval([0.9, 0.4]) == pytest.approx(0.25, abs=1e-15)
    # later pins override earlier ones
    assert again.pinned(0, 0.5).eval([0.9, 0.4]) == pytest.approx(0.5, abs=1e-15)


def test_range_bounds_enclose_samples():
    rng = np.random.default_rng(11)
    fams = [
        aff(3, 0.2, [0.4, 0.3, 0.4]),
        FunctionFamily(variant="product-form", n=3, params={"beta": [0.2, 0.9, 0.5]}),
        FunctionFamily(variant="hanski-incidence", n=3,
                       params={"b": [0.5, 1.0, 0.1], "y": 0.7}),
        FunctionFamily(variant="tabulated-multilinear", n=3,
                       params={"table": rng.uniform(size=8)}),
        FunctionFamily(variant="constant", n=3, params={"c": 0.4},
                       role="rate", scale=3.0, offset=0.1),
    ]
    pts = rng.uniform(size=(4000, 3))
    corners = ((np.arange(8)[:, None] >> np.arange(3)) & 1).astype(float)
    for fam in fams:
        lo, hi = fam.range_bounds()
        vals = np.concatenate([fam.eval_batch(pts), fam.eval_batch(corners)])
        assert lo <= vals.min() + 1e-12
        assert vals.max() <= hi + 1e-12


def test_dimension_and_parameter_errors():
    with pytest.raises(DimensionError):
        aff(2, 0.1, [0.1, 0.1]).eval([0.5])
    with pytest.raises(DimensionError):
        aff(2, 0.1, [0.1, 0.1]).eval_batch(np.zeros((4, 3)))
    with pytest.raises(ModelError):
        aff(2, -0.1, [0.1, 0.1])
    with pytest.raises(ModelError):
        aff(2, 0.1, [0.1])
    with pytest.raises(ModelError):
        FunctionFamily(variant="mystery", n=1, params={})
    with pytest.raises(ModelError):
        FunctionFamily(variant="constant", n=1, params={"c": 1.5})
    with pytest.raises(ModelError):
        FunctionFamily(variant="constant", n=1, params={"c": 0.5, "d": 1})
    with pytest.raises(ModelError):
        FunctionFamily(variant="tabulated-multilinear", n=2,
                       params={"table": [0.0, 1.0]})
    with pytest.raises(ModelError):
        FunctionFamily(variant="constant", n=1, params={"c": 0.5},
                       role="rate", scale=-1.0)
    with pytest.raises(ModelError):
        aff(2, 0.1, [0.1, 0.1], pins=((5, 0.0),))


@pytest.mark.parametrize("variant, params, named", [
    ("constant", {"c": np.nan}, "constant level c must be finite"),
    ("affine-saturated", {"a": np.nan, "b": [0.1, 0.1]}, "intercept a must be finite"),
    ("affine-saturated", {"a": np.inf, "b": [0.1, 0.1]}, "intercept a must be finite"),
    ("hanski-incidence", {"b": [0.1, 0.1], "y": np.nan}, "half-saturation y must be finite"),
    ("hanski-incidence", {"b": [0.1, 0.1], "y": np.inf}, "half-saturation y must be finite"),
    # finite parameters whose evaluation would overflow on the cube
    ("affine-saturated", {"a": 0.1, "b": [1e308, 1e308]}, r"a \+ sum\(b\) must be finite"),
    ("affine-saturated", {"a": 1e308, "b": [1e308, 0.0]}, r"a \+ sum\(b\) must be finite"),
    ("hanski-incidence", {"b": [1e200, 0.1], "y": 0.5}, r"sum\(b\)\^2 \+ y\^2 must be finite"),
    ("hanski-incidence", {"b": [0.1, 0.1], "y": 1e200}, r"sum\(b\)\^2 \+ y\^2 must be finite"),
    # in any role, the value at raw 1 overflows
    ("constant", {"c": 0.5, "offset": 1e308, "scale": 1e308},
     r"offset \+ scale must be finite"),
    ("constant", {"c": 0.5, "offset": 1e308, "scale": 1e308, "role": "rate"},
     r"offset \+ scale must be finite"),
    # a finite rate too large for the sums the spin routes form
    ("affine-saturated", {"a": 0.0, "b": [0.5, 0.5], "scale": 1e308, "role": "rate"},
     r"offset \+ scale <= 1e\+200"),
    ("constant", {"c": 1.0, "offset": 1e200, "scale": 1e200, "role": "rate"},
     r"offset \+ scale <= 1e\+200"),
    # y^2 underflows to 0, so w^2 / (w^2 + y^2) is 0/0 at w = 0
    ("hanski-incidence", {"b": [0.1, 0.1], "y": 1e-170}, r"y must have y\^2 > 0"),
    ("hanski-incidence", {"b": [0.0, 0.0], "y": 1e-170}, r"y must have y\^2 > 0"),
])
def test_non_finite_parameters_are_rejected(variant, params, named):
    # a row may also give the family's offset, scale and role
    params = dict(params)
    fields = {key: params.pop(key) for key in ("offset", "scale", "role") if key in params}
    with pytest.raises(ModelError, match=named):
        FunctionFamily(variant=variant, n=2, params=params, **fields)


def test_largest_finite_weights_still_evaluate():
    # just inside the overflow rule: accepted, and saturated without a warning
    fam = FunctionFamily(variant="affine-saturated", n=2,
                         params={"a": 0.0, "b": [8e307, 8e307]})
    assert np.array_equal(fam.eval_batch(np.array([[1.0, 1.0], [0.0, 0.0]])), [1.0, 0.0])
    # just inside the rate bound and the y rule: accepted, and finite
    rate = FunctionFamily(variant="constant", n=2, params={"c": 1.0}, role="rate",
                          scale=model.RATE_BOUND)
    assert rate.eval([0.5, 0.5]) == model.RATE_BOUND
    hanski = FunctionFamily(variant="hanski-incidence", n=2,
                            params={"b": [0.0, 0.0], "y": 1e-160})
    assert hanski.eval([1.0, 1.0]) == 0.0 and hanski.range_bounds() == (0.0, 0.0)


def test_spec_shape_validation():
    c = aff(2, 0.1, [0.1, 0.1])
    s = FunctionFamily(variant="constant", n=2, params={"c": 0.9})
    with pytest.raises(ModelError):
        ModelSpec(n=2, colonisation=(c,), survival=(s, s))
    wrong_dim = FunctionFamily(variant="constant", n=3, params={"c": 0.9})
    with pytest.raises(ModelError):
        ModelSpec(n=2, colonisation=(c, c), survival=(s, wrong_dim))
    rate = FunctionFamily(variant="constant", n=2, params={"c": 0.9}, role="rate")
    with pytest.raises(ModelError):
        ModelSpec(n=2, colonisation=(c, c), survival=(s, rate))


# -- serialisation -----------------------------------------------------------


def test_round_trip_preserves_evaluations(tmp_path, interacting, ring3):
    rng = np.random.default_rng(5)
    for spec in (interacting, ring3, zoo.non_monotone_pair()):
        path = tmp_path / "model.json"
        save_model(spec, path)
        back = load_model(path)
        assert type(back) is type(spec)
        pts = rng.uniform(size=(20, spec.n))
        first = spec.colonisation if hasattr(spec, "colonisation") else spec.birth
        first_b = back.colonisation if hasattr(back, "colonisation") else back.birth
        for fa, fb in zip(first, first_b):
            assert np.array_equal(fa.eval_batch(pts), fb.eval_batch(pts))


def test_document_strictness():
    doc = model_to_dict(zoo.interacting_pair())
    doc["colonisation"][0]["mystery"] = 1
    with pytest.raises(ModelError, match="unknown fields"):
        model_from_dict(doc)
    doc = model_to_dict(zoo.interacting_pair())
    doc["extra"] = True
    with pytest.raises(ModelError, match="keys"):
        model_from_dict(doc)
    doc = model_to_dict(zoo.interacting_pair())
    doc["n"] = "2"
    with pytest.raises(ModelError, match="positive integer"):
        model_from_dict(doc)
    doc = model_to_dict(zoo.interacting_pair())
    doc["colonisation"][1]["params"] = {"a": 0.1}
    with pytest.raises(ModelError, match=r"colonisation\[1\]"):
        model_from_dict(doc)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field, text", [
    ("a", '{"a": @, "b": [0.1, 0.1]}'),
    ("b", '{"a": 0.1, "b": [0.1, @]}'),
])
def test_non_finite_tokens_are_rejected_by_field(tmp_path, token, field, text):
    doc = json.dumps(model_to_dict(zoo.interacting_pair()))
    first = json.dumps(model_to_dict(zoo.interacting_pair())["colonisation"][0]["params"])
    path = tmp_path / "m.json"
    path.write_text(doc.replace(first, text.replace("@", token), 1))
    with pytest.raises(ModelError, match=f"^field '{field}' holds {token};"):
        load_model(path)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1,\n  "colonisation": [}')
    with pytest.raises(json.JSONDecodeError) as err:
        load_model(path)
    assert err.value.lineno == 2


def test_pins_survive_round_trip(tmp_path):
    spec = ModelSpec(
        n=2,
        colonisation=(aff(2, 0.1, [0.2, 0.2], pins=((0, 0.0),)),
                      aff(2, 0.1, [0.2, 0.2])),
        survival=(FunctionFamily(variant="constant", n=2, params={"c": 0.9}),) * 2,
    )
    path = tmp_path / "pinned.json"
    save_model(spec, path)
    assert load_model(path).colonisation[0].pins == ((0, 0.0),)


# -- hypothesis checking -----------------------------------------------------


def test_certified_example_passes(interacting):
    report = check_assumptions(interacting, samples=1024)
    assert report.verdict == "pass"
    assert report.passed(BOUND_HYPOTHESES) and report.ordering_certified
    for name in ORDERING_HYPOTHESES:
        assert report.finding(name).worst_margin >= -1e-9


def test_reports_are_reproducible(interacting):
    a = check_assumptions(interacting, samples=256, seed=9)
    b = check_assumptions(interacting, samples=256, seed=9)
    assert a == b


def test_non_monotone_table_fails_with_witness(broken):
    report = check_assumptions(broken, samples=1024)
    finding = report.finding("colonisation-increasing")
    assert finding.verdict == "fail"
    assert report.verdict == "fail"
    w = finding.witness
    again = hypothesis_margin(broken, "colonisation-increasing", w.site, w.x, w.y)
    assert again == pytest.approx(finding.worst_margin, abs=1e-14)
    # exhaustive lattice scan must catch it even with one sample
    tiny = check_assumptions(broken, samples=1)
    assert tiny.finding("colonisation-increasing").verdict == "fail"


def test_product_form_fails_concavity():
    fam = FunctionFamily(variant="product-form", n=2, params={"beta": [0.8, 0.8]})
    spec = ModelSpec(n=2, colonisation=(fam, fam),
                     survival=(FunctionFamily(variant="constant", n=2,
                                              params={"c": 0.95}),) * 2)
    report = check_assumptions(spec, samples=2048)
    finding = report.finding("colonisation-concave")
    assert finding.verdict == "fail"
    w = finding.witness
    assert hypothesis_margin(spec, "colonisation-concave", w.site, w.x, w.y) \
        == pytest.approx(finding.worst_margin, abs=1e-14)


def test_hanski_fails_concavity_where_a_grid_scan_says_it_must():
    fam = FunctionFamily(variant="hanski-incidence", n=2,
                         params={"b": [1.0, 1.0], "y": 0.5})
    # dense grid oracle: find a midpoint violation by brute force
    grid = np.linspace(0.0, 1.0, 21)
    found = False
    for ax in grid:
        for ay in grid:
            x = np.array([ax, 0.0])
            y = np.array([ay, 0.0])
            mid = fam.eval(0.5 * (x + y))
            if mid - 0.5 * (fam.eval(x) + fam.eval(y)) < -1e-6:
                found = True
    assert found
    spec = ModelSpec(n=2, colonisation=(fam, fam),
                     survival=(FunctionFamily(variant="constant", n=2,
                                              params={"c": 1.0}),) * 2)
    report = check_assumptions(spec, samples=2048)
    assert report.finding("colonisation-concave").verdict == "fail"


def test_saturation_kink_breaks_gap_convexity_only():
    # C = 0.5 p, S = min(1, 0.6 + 0.5 p): every bound hypothesis holds but
    # the survival kink makes the gap locally concave
    c = aff(1, 0.0, [1.0], scale=0.5)
    s = aff(1, 0.6, [0.5])
    spec = ModelSpec(n=1, colonisation=(c,), survival=(s,))
    report = check_assumptions(spec, samples=4096)
    assert report.passed(BOUND_HYPOTHESES)
    assert not report.ordering_certified
    assert report.finding("gap-convex").verdict == "fail"


def test_spin_hypotheses(ring3):
    report = check_assumptions(ring3, samples=1024)
    assert report.verdict == "pass"
    assert report.ordering_certified
    est = report.finding("birth-lipschitz").estimate
    assert est is not None and 0.0 < est <= 0.7 + 1e-9
    assert report.finding("death-lipschitz").estimate == 0.0


def test_spin_death_increasing_fails():
    birth = FunctionFamily(variant="constant", n=2, params={"c": 0.5}, role="rate")
    death = aff(2, 0.2, [0.0, 0.5], role="rate")
    spec = SpinSpec(n=2, birth=(birth, birth), death=(death, death))
    report = check_assumptions(spec, samples=512)
    assert report.finding("death-decreasing").verdict == "fail"
    assert not report.passed(SPIN_BOUND_HYPOTHESES)
    # refuted in closed form: both sites tie at -0.5, and the lower one is named
    assert report.finding("death-decreasing") == model.HypothesisFinding(
        "death-decreasing", "fail", -0.5,
        model.Witness(site=0, x=(0.0, 0.0), y=(0.0, 1.0)), "proof")


def test_verdict_aggregation(broken):
    report = check_assumptions(broken, samples=256)
    assert report.verdict == "fail"
    assert not report.passed(["colonisation-increasing"])
    assert report.passed(["survival-increasing"])
    with pytest.raises(KeyError):
        report.finding("no-such-hypothesis")


def test_report_serialises_to_json(interacting):
    doc = check_assumptions(interacting, samples=64).to_dict()
    json.dumps(doc)
    assert doc["verdict"] == "pass"
    assert len(doc["findings"]) == 7


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 5))
def test_random_certified_models_certify(seed, n):
    spec = zoo.random_certified_model(n, seed)
    report = check_assumptions(spec, samples=256, seed=1)
    assert report.ordering_certified


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_tolerance_only_relaxes_verdicts(seed):
    spec = zoo.non_monotone_pair()
    tight = check_assumptions(spec, samples=128, tol=1e-12, seed=seed)
    loose = check_assumptions(spec, samples=128, tol=1.0, seed=seed)
    for ft, fl in zip(tight.findings, loose.findings):
        if ft.verdict == "pass":
            assert fl.verdict == "pass"
