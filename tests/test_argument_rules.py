"""The two argument rules, `errors.check_count` and `errors.check_real`, at
the public entry points that had no type rule of their own: a float or
bool count, or a non-finite or non-real real, is a DomainError naming the
argument, while numpy integer and float scalars pass as Python ones do."""

import re

import numpy as np
import pytest

from symbreak import (SamplerConfig, VpSchedule, center_and_normalize,
                      gaussian_mixture, hypersphere, two_point_1d)
from symbreak.analysis import (correlation_trajectory, count_local_minima,
                               default_alpha_grid)
from symbreak.bifurcation import critical_theta_cov, critical_theta_sphere
from symbreak.errors import DomainError
from symbreak.rng import stream
from symbreak.samplers import SamplerRun

# three chains of four nodes in 2-D, enough for a reference index of 1
_TRAJ = stream(5).standard_normal((3, 4, 2))
_RUN = SamplerRun(SamplerConfig(kind="ddim", n_steps=3, s_start=1.0),
                  np.array([1.0, 0.6, 0.3, 1e-4]), _TRAJ[:, -1], _TRAJ)
_CURVE = np.arange(20.0) % 3

COUNTS = {  # id: (call, argument name, floor)
    "schedule-n_steps": (lambda v: VpSchedule(n_steps=v), "n_steps", 2),
    "discrete_grid-n_sub": (lambda v: VpSchedule().discrete_grid(v, 0.5),
                            "n_sub", 1),
    "hypersphere-d": (lambda v: hypersphere(v, 1.0, 4, seed=0), "d", 1),
    "hypersphere-n": (lambda v: hypersphere(2, 1.0, v, seed=0), "n", 1),
    "gaussian_mixture-n_per_mode": (
        lambda v: gaussian_mixture([[0.0, 0.0]], 0.1, v, seed=0),
        "n_per_mode", 1),
    "critical_theta_sphere-d": (lambda v: critical_theta_sphere(v, 1.0), "d", 1),
    "default_alpha_grid-n": (default_alpha_grid, "n", 2),
    "count_local_minima-smoothing_window": (
        lambda v: count_local_minima(_CURVE, v), "smoothing_window", 1),
    "correlation_trajectory-reference_index": (
        lambda v: correlation_trajectory(_RUN, v), "reference_index", 0),
}

REALS = {  # id: (call, argument name)
    "schedule-beta_min": (lambda v: VpSchedule(beta_min=v), "beta_min"),
    "schedule-beta_max": (lambda v: VpSchedule(beta_max=v), "beta_max"),
    "hypersphere-r": (lambda v: hypersphere(2, v, 4, seed=0), "r"),
    "gaussian_mixture-std": (lambda v: gaussian_mixture([[0.0]], v, 2, seed=0),
                             "std"),
    "center_and_normalize-r": (lambda v: center_and_normalize(two_point_1d(), v),
                               "r"),
    "critical_theta_cov-lam": (critical_theta_cov, "lam"),
    "critical_theta_sphere-r": (lambda v: critical_theta_sphere(2, v), "r"),
}


@pytest.mark.parametrize("bad", ["True", "2.5", "float64", "below"])
@pytest.mark.parametrize("site", COUNTS)
def test_counts_must_be_integers_at_their_floor(site, bad):
    # before the shared rule, VpSchedule(n_steps=2.5) was accepted,
    # discrete_grid(True, s) and count_local_minima(v, True) ran with 1, and
    # hypersphere(2.0, ...) raised numpy's TypeError
    call, name, least = COUNTS[site]
    value = {"True": True, "2.5": 2.5, "float64": np.float64(3.0),
             "below": least - 1}[bad]
    with pytest.raises(DomainError, match="^" + re.escape(name) + " must"):
        call(value)


@pytest.mark.parametrize("bad", [True, np.nan, np.inf, "1"],
                         ids=["True", "nan", "inf", "str"])
@pytest.mark.parametrize("site", REALS)
def test_reals_must_be_finite(site, bad):
    # before the shared rule, VpSchedule(beta_max=inf) gave theta 0 at
    # s = 0.5, critical_theta_cov(True) returned 0.6436, and
    # center_and_normalize(ds, nan) ran 100 rounds into a ConvergenceError
    call, name = REALS[site]
    with pytest.raises(DomainError, match="^" + re.escape(name) + " must"):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda i, f: VpSchedule(f(0.2), f(10.0), i(500)).theta_at(0.3),
    lambda i, f: VpSchedule().discrete_grid(i(4), f(0.5)),
    lambda i, f: hypersphere(i(3), f(2.0), i(5), seed=1).points,
    lambda i, f: gaussian_mixture([[0.0, 1.0]], f(0.1), i(3), seed=2).points,
    lambda i, f: center_and_normalize(two_point_1d(), f(2.0)).points,
    lambda i, f: critical_theta_cov(f(2.0)),
    lambda i, f: critical_theta_sphere(i(2), f(1.5)),
    lambda i, f: default_alpha_grid(i(5)),
    lambda i, f: count_local_minima(_CURVE, i(3)),
    lambda i, f: correlation_trajectory(_RUN, i(1)).values,
], ids=["schedule", "discrete_grid", "hypersphere", "gaussian_mixture",
        "center_and_normalize", "critical_theta_cov", "critical_theta_sphere",
        "default_alpha_grid", "count_local_minima", "correlation_trajectory"])
def test_numpy_scalars_pass_as_python_ones(call):
    assert np.array_equal(call(np.int64, np.float64), call(int, float))
