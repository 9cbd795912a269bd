import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occupancy import exact, lattice, meanfield, zoo
from occupancy.lattice import CapacityError
from occupancy.meanfield import (OdeConfig, integrate_ode, iterate, ode_rhs,
                                 recursion_step, step_count)

from conftest import mask_self_colonisation, random_spin_model


def test_constant_recursion_matches_scalar_oracle(single_site):
    p = 0.0
    traj = iterate(single_site, [0.0], 6)
    for t in range(1, 7):
        p = 0.3 * (1 - p) + 0.8 * p
        assert traj[t, 0] == pytest.approx(p, abs=1e-15)
    assert traj[1, 0] == pytest.approx(0.3, abs=1e-15)
    assert traj[2, 0] == pytest.approx(0.45, abs=1e-15)


def test_interacting_recursion_frozen_values(interacting):
    traj = iterate(interacting, [0.0, 0.0], 2)
    assert np.allclose(traj[1], [0.2, 0.2], atol=1e-15)
    assert np.allclose(traj[2], [0.388, 0.388], atol=1e-15)


def test_single_site_recursion_equals_exact_chain(single_site):
    # with one site and constant functions the chain is the recursion
    assert np.allclose(iterate(single_site, [0.0], 10),
                       exact.marginal_trajectory(single_site, 0, 10), atol=1e-14)


def test_recursion_stays_in_cube():
    spec = zoo.random_certified_model(4, 2)
    traj = iterate(spec, [1.0, 0.0, 1.0, 0.0], 50)
    assert np.all(traj >= 0.0) and np.all(traj <= 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_monotone_comparison_in_initial_state(seed):
    # certified models preserve the coordinatewise order of start points
    rng = np.random.default_rng(seed)
    spec = zoo.random_certified_model(3, seed)
    lo = rng.uniform(0.0, 1.0, size=3)
    hi = np.minimum(1.0, lo + rng.uniform(0.0, 1.0, size=3))
    ta = iterate(spec, lo, 10)
    tb = iterate(spec, hi, 10)
    assert np.all(ta <= tb + 1e-12)


def test_clamp_is_np_clip_bit_for_bit():
    y = np.array([-0.0, -1e-300, 0.5, 1.0, 1 + 1e-16, 0.0, -2.0, 3.0, np.nan])
    got = meanfield._clamp01(y)
    assert got.tobytes() == np.clip(y, 0.0, 1.0).tobytes()
    assert np.signbit(got[0]) and not np.signbit(got[1])


def test_mask_leaves_lattice_kernel_unchanged(interacting):
    masked = mask_self_colonisation(interacting)
    assert np.array_equal(exact.transition_matrix(masked),
                          exact.transition_matrix(interacting))


def test_mask_lowers_the_trajectory():
    # self-weights make the unmasked recursion feed each site its own mass
    spec = zoo.random_certified_model(3, seed=8)
    assert any(fam.params["b"][i] > 0 for i, fam in enumerate(spec.colonisation))
    masked = mask_self_colonisation(spec)
    t_masked = iterate(masked, [0.0, 0.0, 0.0], 20)
    t_plain = iterate(spec, [0.0, 0.0, 0.0], 20)
    assert np.all(t_masked <= t_plain + 1e-14)
    assert np.min(t_plain - t_masked) >= 0.0
    assert np.max(t_plain - t_masked) > 1e-4


def test_mask_still_upper_bounds_exact(interacting):
    masked = mask_self_colonisation(interacting)
    mf = iterate(masked, [0.0, 0.0], 15)
    ex = exact.marginal_trajectory(interacting, 0, 15)
    assert np.all(mf - ex >= -1e-12)


def test_inflating_self_colonisation_raises_trajectory():
    spec = zoo.random_certified_model(3, seed=8)
    inflated = type(spec)(
        n=spec.n,
        colonisation=tuple(f.pinned(i, 1.0) for i, f in enumerate(spec.colonisation)),
        survival=spec.survival,
    )
    t_up = iterate(inflated, [0.0] * 3, 20)
    t_plain = iterate(spec, [0.0] * 3, 20)
    assert np.all(t_up >= t_plain - 1e-14)
    assert np.max(t_up - t_plain) > 1e-4


# -- ODE ----------------------------------------------------------------------


def test_ode_rhs_values(ring3):
    # empty state: births only where neighbours sit, so rhs is zero
    assert np.allclose(ode_rhs(ring3, [0.0, 0.0, 0.0]), 0.0, atol=1e-15)
    # fully occupied: each site dies at rate 1 and cannot be born
    assert np.allclose(ode_rhs(ring3, [1.0, 1.0, 1.0]), -1.0, atol=1e-15)
    p = np.array([0.5, 0.0, 0.0])
    # site 1 gains (1-0) * 0.35 * 0.5
    assert ode_rhs(ring3, p)[1] == pytest.approx(0.175, abs=1e-15)


def test_rk4_two_state_closed_form():
    lam, mu = 0.5, 1.0
    spec = zoo.two_state_spin(lam, mu)
    _, states = integrate_ode(spec, [0.0], 2.0, OdeConfig(h=1e-3))
    expected = lam / (lam + mu) * (1.0 - np.exp(-(lam + mu) * 2.0))
    assert states[-1, 0] == pytest.approx(expected, abs=1e-10)


def test_euler_is_first_order(ring3):
    p0 = [1.0, 0.0, 0.0]
    _, ref = integrate_ode(ring3, p0, 1.0, OdeConfig(h=1e-4))
    errs = []
    for h in (0.02, 0.01, 0.005):
        _, states = integrate_ode(ring3, p0, 1.0, OdeConfig(h=h, method="euler"))
        errs.append(np.max(np.abs(states[-1] - ref[-1])))
    assert 1.7 < errs[0] / errs[1] < 2.3
    assert 1.7 < errs[1] / errs[2] < 2.3


def test_rk4_is_higher_order(ring3):
    p0 = [1.0, 0.0, 0.0]
    _, ref = integrate_ode(ring3, p0, 1.0, OdeConfig(h=1e-4))
    errs = []
    for h in (0.2, 0.1):
        _, states = integrate_ode(ring3, p0, 1.0, OdeConfig(h=h))
        errs.append(np.max(np.abs(states[-1] - ref[-1])))
    assert errs[0] / errs[1] > 10.0


def test_step_count_lands_exactly():
    assert step_count(1.0, 0.125) == (8, 0.0)
    full, rem = step_count(1.0, 0.3)
    assert full == 3 and rem == pytest.approx(0.1, abs=1e-12)
    assert step_count(0.0, 0.1) == (0, 0.0)


def test_integrate_grid_and_endpoint(ring3):
    times, states = integrate_ode(ring3, [1.0, 0.0, 0.0], 0.5, OdeConfig(h=0.2))
    assert times[-1] == pytest.approx(0.5, abs=1e-15)
    assert len(times) == 4  # 0, .2, .4, .5
    assert states.shape == (4, 3)
    times0, states0 = integrate_ode(ring3, [1.0, 0.0, 0.0], 0.0)
    assert len(times0) == 1 and np.array_equal(states0[0], [1.0, 0.0, 0.0])


def test_states_remain_clamped():
    spec = zoo.contact_ring(2, beta=0.0, mu=50.0)
    _, states = integrate_ode(spec, [1.0, 1.0], 1.0,
                              OdeConfig(h=0.1, method="euler"))
    assert np.all(states >= 0.0) and np.all(states <= 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        OdeConfig(h=0.0)
    with pytest.raises(ValueError):
        OdeConfig(h=0.1, method="heun")
    with pytest.raises(ValueError):
        recursion_step(zoo.interacting_pair(), [0.5])


def test_trajectory_is_checked_before_it_exists(interacting, monkeypatch):
    # 100 rows of two sites fit a 2 KB budget beside the row-block
    # allowance; 1,001 rows do not
    monkeypatch.setattr(lattice, "DENSE_BYTES_BUDGET", 2048 + lattice.BLOCK_BYTES)
    assert iterate(interacting, [0.0, 0.0], 99).shape == (100, 2)
    with pytest.raises(CapacityError, match="1000 steps"):
        iterate(interacting, [0.0, 0.0], 1000)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000), method=st.sampled_from(["rk4", "euler"]),
       steps=st.integers(0, 40), remainder=st.sampled_from([0.0, 0.3, 0.71]))
def test_flow_ends_where_the_trajectory_does(n, seed, method, steps, remainder):
    # the same steps in the same order: flow's end state is the trajectory's
    # last row bit for bit, with and without a remainder step
    spec = random_spin_model(n, seed)
    p0 = np.random.default_rng(seed).random(n)
    config = OdeConfig(h=0.05, method=method)
    t_end = (steps + remainder) * config.h
    _, states = integrate_ode(spec, p0, t_end, config)
    assert step_count(t_end, config.h)[1] > 0.0 or remainder == 0.0
    assert np.array_equal(meanfield.flow(spec, p0, t_end, config), states[-1])


def test_flow_checks_its_work_before_counting_steps():
    # t / h past the float range: refused on work, before step_count's int()
    ring = zoo.contact_ring(3)
    with pytest.raises(CapacityError, match="steps and states needs .* over the work budget"):
        meanfield.flow(ring, [1.0, 0.0, 0.0], 1e308, OdeConfig())


def test_recursion_and_step_count_refuse_negative_lengths():
    with pytest.raises(ValueError, match="steps must be >= 0"):
        iterate(zoo.interacting_pair(), [0.0, 0.0], -1)
    with pytest.raises(ValueError, match="t_end must be >= 0"):
        step_count(-1.0, 1e-3)
