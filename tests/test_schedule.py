import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import VpSchedule
from symbreak.errors import DomainError

import oracles


def test_beta_is_the_linear_ramp(schedule):
    assert schedule.beta_at(0.0) == pytest.approx(0.1, abs=0)
    assert schedule.beta_at(1.0) == pytest.approx(20.0, abs=0)
    assert schedule.beta_at(0.25) == pytest.approx(0.1 + 0.25 * 19.9, rel=1e-15)
    mid = schedule.beta_at(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(mid, [0.1, 10.05, 20.0], rtol=1e-15)


def test_theta_matches_frozen_high_precision_values(schedule):
    assert schedule.theta_at(1.0) == pytest.approx(oracles.THETA_AT_1, rel=1e-14)
    assert schedule.theta_at(0.5) == pytest.approx(oracles.THETA_AT_HALF, rel=1e-14)
    assert schedule.theta_at(0.2) == pytest.approx(oracles.THETA_AT_02, rel=1e-14)
    assert schedule.theta_at(0.0) == 1.0


def test_theta_matches_quadrature_of_beta(schedule):
    for s in [0.01, 0.1, 0.3, 0.55, 0.8, 1.0]:
        expected = np.exp(oracles.quad_log_theta(s))
        assert schedule.theta_at(s) == pytest.approx(expected, rel=1e-10)


def test_theta_matches_mpmath_route(schedule):
    for s in [0.05, 0.37, 0.92]:
        assert schedule.theta_at(s) == pytest.approx(oracles.mp_theta(s),
                                                     rel=1e-14)


def test_theta_is_strictly_decreasing(schedule):
    s = np.linspace(0.0, 1.0, 257)
    th = schedule.theta_at(s)
    assert np.all(np.diff(th) < 0)
    assert th[0] == 1.0
    assert th[-1] < 0.01


def test_invert_theta_round_trips(schedule):
    for s in np.arange(0.01, 1.0, 0.01):
        th = schedule.theta_at(s)
        assert schedule.invert_theta(th) == pytest.approx(s, abs=1e-10)
    assert schedule.invert_theta(1.0) == 0.0


def test_invert_theta_hits_the_critical_level(schedule):
    s = schedule.invert_theta(oracles.THETA_C_1D)
    assert s == pytest.approx(oracles.S_CRITICAL_1D, abs=1e-12)


def test_invert_theta_domain(schedule):
    floor = schedule.theta_at(1.0)
    with pytest.raises(DomainError):
        schedule.invert_theta(floor * 0.5)
    with pytest.raises(DomainError):
        schedule.invert_theta(1.0 + 1e-9)
    # the endpoint itself is invertible
    assert schedule.invert_theta(floor) == pytest.approx(1.0, abs=1e-12)


def test_flat_schedule_inverts_linearly():
    sched = VpSchedule(beta_min=2.0, beta_max=2.0)
    # constant beta: theta = exp(-s), invert is -ln(theta)
    assert sched.theta_at(0.5) == pytest.approx(np.exp(-0.5), rel=1e-14)
    assert sched.invert_theta(np.exp(-0.25)) == pytest.approx(0.25, abs=1e-12)


def test_discrete_grid_shape_and_endpoints(schedule):
    g = schedule.discrete_grid(10, 0.8)
    assert g.shape == (11,)
    assert g[0] == 0.8 and g[-1] == 0.0
    assert np.allclose(np.diff(g), -0.08, rtol=1e-12)
    with pytest.raises(DomainError):
        schedule.discrete_grid(0, 0.8)
    with pytest.raises(DomainError):
        schedule.discrete_grid(10, 0.0)
    with pytest.raises(DomainError):
        schedule.discrete_grid(10, 1.5)


def test_time_domain_is_enforced(schedule):
    with pytest.raises(DomainError):
        schedule.beta_at(-0.1)
    with pytest.raises(DomainError):
        schedule.theta_at(1.1)


def test_nan_time_is_rejected(schedule):
    # NaN fails every comparison, so the range test must be written positively
    nan = float("nan")
    with pytest.raises(DomainError):
        schedule.theta_at(nan)
    with pytest.raises(DomainError):
        schedule.beta_at(nan)
    with pytest.raises(DomainError):
        schedule.theta_at([0.5, nan])
    with pytest.raises(DomainError):
        schedule.beta_at(np.array([nan, 0.5]))


def test_constructor_validation():
    with pytest.raises(DomainError):
        VpSchedule(beta_min=0.0)
    with pytest.raises(DomainError):
        VpSchedule(beta_min=2.0, beta_max=1.0)
    with pytest.raises(DomainError):
        VpSchedule(n_steps=1)


def test_horizon_is_fixed():
    # the unit horizon is a class constant, not a constructor argument
    with pytest.raises(TypeError):
        VpSchedule(horizon=2.0)
    assert len(dataclasses.fields(VpSchedule)) == 3
    assert VpSchedule().horizon == 1.0


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1e-6, max_value=1.0))
def test_theta_order_reverses_time_order(s1, s2):
    sched = VpSchedule()
    t1, t2 = sched.theta_at(s1), sched.theta_at(s2)
    # strict ordering only at a float-resolvable separation
    if s1 + 1e-9 < s2:
        assert t1 > t2
    elif s2 + 1e-9 < s1:
        assert t1 < t2
    elif s1 <= s2:
        assert t1 >= t2
    else:
        assert t1 <= t2


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.005, max_value=0.995))
def test_invert_theta_round_trip_property(s):
    sched = VpSchedule()
    assert sched.invert_theta(sched.theta_at(s)) == pytest.approx(s, abs=1e-9)
