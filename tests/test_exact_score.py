import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import logsumexp, softmax

from symbreak import (EmpiricalDataset, ExactScoreModel, center_and_normalize,
                      gaussian_mixture, hypersphere)
from symbreak.errors import DomainError, ShapeError
from symbreak.exact_score import _BLOCK_ENTRIES, _certified_radius, posterior
from symbreak.rng import stream

import oracles


def test_logpdf_matches_frozen_probe(two_point_model):
    got = two_point_model.mixture_logpdf([0.5], 0.2)
    assert got == pytest.approx(oracles.LOGPDF_TWO_POINT_X05_S02, abs=1e-12)


def test_score_matches_frozen_probe(two_point_model):
    got = two_point_model.score([0.5], 0.2)
    assert got.score[0] == pytest.approx(oracles.SCORE_TWO_POINT_X05_S02,
                                         abs=1e-12)
    assert got.log_density == pytest.approx(oracles.LOGPDF_TWO_POINT_X05_S02,
                                            abs=1e-12)
    assert got.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_potential_matches_frozen_probe(two_point_model):
    got = two_point_model.potential([0.5], 0.8)
    assert got == pytest.approx(oracles.POTENTIAL_TWO_POINT_X05_T08, abs=1e-12)


def test_logpdf_matches_mpmath_elsewhere(two_point_model):
    for x, s in [(-1.7, 0.07), (0.01, 0.5), (2.4, 0.93)]:
        got = two_point_model.mixture_logpdf([x], s)
        assert got == pytest.approx(oracles.mp_two_point_logpdf(x, s),
                                    abs=1e-11)


def test_density_normalizes_to_one(two_point_model):
    for s in [0.1, 0.4, 0.9]:
        val, _ = quad(lambda x: np.exp(two_point_model.mixture_logpdf([x], s)),
                      -12.0, 12.0, epsabs=1e-10, epsrel=1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)


def _fd_rel_err(model, X, s):
    """Max relative gap between analytic score and FD of the log-density."""
    worst = 0.0
    for x in X:
        analytic = model.score_batch(x[None, :], s)[0]
        fd = oracles.fd_gradient(
            lambda z: model.mixture_logpdf(z, s), x, h=1e-5)
        num = np.linalg.norm(analytic - fd)
        worst = max(worst, num / max(np.linalg.norm(analytic), 1e-6))
    return worst


def test_score_matches_finite_differences(two_point_model, sphere_model,
                                          gmm_model):
    for model in (two_point_model, sphere_model, gmm_model):
        rng = stream(21)
        X = 1.5 * rng.standard_normal((25, model.dataset.dim))
        for s in (0.15, 0.6):
            assert _fd_rel_err(model, X, s) < 1e-6


def test_potential_gradient_matches_finite_differences(gmm_model):
    rng = stream(22)
    X = 1.5 * rng.standard_normal((25, 2))
    for t in (0.2, 0.85):
        for x in X:
            analytic = gmm_model.potential_gradient(x, t)
            fd = oracles.fd_gradient(
                lambda z: gmm_model.potential(z, t), x, h=1e-5)
            assert np.linalg.norm(analytic - fd) \
                < 1e-6 * max(np.linalg.norm(analytic), 1e-3)


def test_gradient_is_negative_drift(two_point_model):
    # -grad u must equal beta * (score + x/2) wherever both are defined
    s = 0.35
    t = 1.0 - s
    beta = two_point_model.schedule.beta_at(s)
    X = np.linspace(-2, 2, 9)[:, None]
    drift = beta * (two_point_model.score_batch(X, s) + 0.5 * X)
    grad = two_point_model.potential_gradient_batch(X, t)
    assert np.allclose(grad, -drift, rtol=1e-13, atol=1e-13)


def test_posterior_weights_concentrate_when_separation_is_large(schedule):
    # separation >> kernel width: the noised mean of y_j pins the posterior
    ds = EmpiricalDataset(np.array([[4.0, 0.0], [-4.0, 0.0],
                                    [0.0, 4.0], [0.0, -4.0]]))
    model = ExactScoreModel(ds, schedule)
    theta, var = model._s_forward(0.05)
    assert np.sqrt(var) < 1.0  # sanity: regime of the claim
    w = model.posterior_weights_batch((theta * ds.points[2])[None, :], 0.05)[0]
    assert w[2] > 0.999
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    x0 = model.posterior_mean_batch((theta * ds.points[2])[None, :], 0.05)[0]
    assert np.linalg.norm(x0 - ds.points[2]) < 1e-3


def test_posterior_weights_concentrate_on_the_mode(gmm_model):
    # points inside one mode are closer than the kernel width at s=0.05,
    # so the mass lands on the mode as a whole rather than a single point
    theta, _ = gmm_model._s_forward(0.05)
    j = 17  # a point of the first mode block
    w = gmm_model.posterior_weights_batch(
        (theta * gmm_model.dataset.points[j])[None, :], 0.05)[0]
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[:64].sum() > 0.999
    assert w.argmax() == j


def test_posterior_mean_is_weighted_average(gmm_model):
    X = np.array([[0.3, -0.4], [1.2, 0.9]])
    s = 0.3
    W = gmm_model.posterior_weights_batch(X, s)
    assert np.allclose(gmm_model.posterior_mean_batch(X, s),
                       W @ gmm_model.dataset.points, rtol=1e-14)


def test_score_identity_with_posterior_mean(two_point_model):
    s = 0.25
    theta, var = two_point_model._s_forward(s)
    X = np.array([[0.7], [-0.1], [2.0]])
    m = two_point_model.posterior_mean_batch(X, s)
    assert np.allclose(two_point_model.score_batch(X, s),
                       (theta * m - X) / var, rtol=1e-13)


def test_two_point_potential_is_even(two_point_model):
    rng = stream(23)
    for _ in range(50):
        x = float(3.0 * rng.standard_normal())
        t = float(rng.uniform(0.0, 0.999))
        a = two_point_model.potential([x], t)
        b = two_point_model.potential([-x], t)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_permutation_symmetric_dataset_gives_symmetric_potential(schedule):
    # +-unit vectors along each axis: closed under coordinate permutation
    eye = np.eye(3)
    ds = EmpiricalDataset(np.vstack([eye, -eye]), radius=1.0, centered=True)
    model = ExactScoreModel(ds, schedule)
    rng = stream(24)
    for _ in range(20):
        x = rng.standard_normal(3)
        t = float(rng.uniform(0.0, 0.999))
        perm = rng.permutation(3)
        a = model.potential(x, t)
        b = model.potential(x[perm], t)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_far_field_and_saturated_regimes_stay_finite(two_point_model):
    # log-sum-exp path must survive huge shifts and tiny kernel variance
    for x, s in [(1e3, 0.5), (-1e3, 0.5), (5.0, 1e-6), (0.0, 1e-6)]:
        lp = two_point_model.mixture_logpdf([x], s)
        sc = two_point_model.score_batch(np.array([[x]]), s)
        assert np.isfinite(lp)
        assert np.all(np.isfinite(sc))


def test_second_derivative_origin_matches_hessian(two_point_model):
    for t in (0.1, 0.55, 0.95):
        closed = two_point_model.second_derivative_origin_1d(t)
        hess = two_point_model.hessian(np.zeros(1), t)[0, 0]
        assert closed == pytest.approx(hess, rel=1e-12)


def test_second_derivative_origin_matches_finite_differences(two_point_model):
    for t in (0.3, 0.8):
        closed = two_point_model.second_derivative_origin_1d(t)
        fd = oracles.fd_second_diag(
            lambda z: two_point_model.potential(z, t), np.zeros(1), h=1e-4)[0]
        assert fd == pytest.approx(closed, rel=1e-6, abs=1e-6)


def test_second_derivative_changes_sign_at_critical_level(two_point_model):
    sched = two_point_model.schedule
    s_hi = sched.invert_theta(oracles.THETA_C_1D - 1e-3)
    s_lo = sched.invert_theta(oracles.THETA_C_1D + 1e-3)
    # theta below critical (s above): single well, positive curvature
    assert two_point_model.second_derivative_origin_1d(1.0 - s_hi) > 0
    assert two_point_model.second_derivative_origin_1d(1.0 - s_lo) < 0


def test_second_derivative_requires_the_two_point_dataset(embedded_2d_model):
    with pytest.raises(ShapeError):
        embedded_2d_model.second_derivative_origin_1d(0.5)


def test_laplacian_origin_equals_hessian_trace(sphere_model):
    for t in (0.2, 0.6, 0.9):
        lap = sphere_model.laplacian_origin(t)
        tr = np.trace(sphere_model.hessian(np.zeros(2), t))
        assert lap == pytest.approx(tr, rel=1e-10)


def test_laplacian_origin_matches_finite_differences(sphere_model):
    for t in (0.25, 0.75):
        lap = sphere_model.laplacian_origin(t)
        fd = oracles.fd_second_diag(
            lambda z: sphere_model.potential(z, t), np.zeros(2), h=1e-4).sum()
        assert fd == pytest.approx(lap, rel=1e-5)


def test_laplacian_origin_needs_certificates(gmm_model):
    with pytest.raises(DomainError):
        gmm_model.laplacian_origin(0.5)


def test_hessian_matches_finite_differences_off_origin(gmm_model):
    for x, t in [([0.4, -0.2], 0.3), ([-1.0, 0.8], 0.85)]:
        H = gmm_model.hessian(np.array(x), t)
        fd = oracles.fd_hessian(lambda z: gmm_model.potential(z, t),
                                np.array(x), h=1e-4)
        assert np.max(np.abs(H - fd)) < 1e-4 * max(1.0, np.max(np.abs(H)))
        assert np.allclose(H, H.T, atol=0)


def test_time_domains_are_enforced(two_point_model):
    with pytest.raises(DomainError):
        two_point_model.mixture_logpdf([0.0], 0.0)
    with pytest.raises(DomainError):
        two_point_model.mixture_logpdf([0.0], 1.5)
    with pytest.raises(DomainError):
        two_point_model.potential([0.0], 1.0)  # t = horizon means s = 0
    with pytest.raises(DomainError):
        two_point_model.potential([0.0], -0.1)


def test_state_shape_is_enforced(two_point_model):
    with pytest.raises(ShapeError):
        two_point_model.mixture_logpdf([0.0, 1.0], 0.5)
    with pytest.raises(ShapeError):
        two_point_model.score_batch(np.zeros((3, 2)), 0.5)


# the single-point methods take one state (1-D or (1, D)) and must refuse a
# batch rather than silently evaluate its first row

def _two_states(model):
    return model.dataset.points[:2] * 0.7


def test_score_rejects_a_batch(gmm_model):
    X = _two_states(gmm_model)
    with pytest.raises(ShapeError):
        gmm_model.score(X, 0.5)
    assert np.array_equal(gmm_model.score(X[:1], 0.5).score,
                          gmm_model.score(X[0], 0.5).score)


def test_mixture_logpdf_rejects_a_batch(gmm_model):
    X = _two_states(gmm_model)
    with pytest.raises(ShapeError):
        gmm_model.mixture_logpdf(X, 0.5)
    assert (gmm_model.mixture_logpdf(X[:1], 0.5)
            == gmm_model.mixture_logpdf(X[0], 0.5))


def test_potential_rejects_a_batch(gmm_model):
    X = _two_states(gmm_model)
    with pytest.raises(ShapeError):
        gmm_model.potential(X, 0.5)
    assert gmm_model.potential(X[:1], 0.5) == gmm_model.potential(X[0], 0.5)


def test_potential_gradient_rejects_a_batch(gmm_model):
    X = _two_states(gmm_model)
    with pytest.raises(ShapeError):
        gmm_model.potential_gradient(X, 0.5)
    assert np.array_equal(gmm_model.potential_gradient(X[:1], 0.5),
                          gmm_model.potential_gradient(X[0], 0.5))


def test_hessian_rejects_a_batch(gmm_model):
    X = _two_states(gmm_model)
    with pytest.raises(ShapeError):
        gmm_model.hessian(X, 0.5)
    assert np.array_equal(gmm_model.hessian(X[:1], 0.5),
                          gmm_model.hessian(X[0], 0.5))


# the posterior kernel drops each row's constant -|x|^2 / (2 var) before its
# softmax and adds it back for log-densities; it must match the textbook
# route, scipy's softmax and logsumexp of the direct-difference log-kernel,
# to rounding

def _textbook_weights(model, X, s):
    theta, var = model._s_forward(s)
    Y = model.dataset.points
    # in row chunks, so long batches stay small in memory
    a = np.concatenate([
        -np.sum((X[i:i + 256, None, :] - theta * Y[None, :, :]) ** 2, axis=2)
        for i in range(0, len(X), 256)]) / (2.0 * var)
    return a, softmax(a, axis=1), theta, var


def _textbook_hessian(model, x, s):
    _, W, theta, var = _textbook_weights(model, x[None, :], s)
    w = W[0]
    Y = theta * model.dataset.points
    mean = w @ Y
    cov = (Y * w[:, None]).T @ Y - np.outer(mean, mean)
    beta = model.schedule.beta_at(s)
    return beta * ((1.0 / var - 0.5) * np.eye(model.dataset.dim)
                   - cov / (var * var))


def _rel_err(got, want, scale=None):
    return np.max(np.abs(got - want)) / (np.max(np.abs(want)) if scale is None
                                         else scale)


def _shape_model(schedule, shape):
    if shape == "gmm":  # criterion 7's anisotropic mixture
        ds = gaussian_mixture([[2.4, 0.6], [0.9, -0.4], [-1.6, 0.8],
                               [-0.4, -2.0]], 0.1, 16, seed=7)
    else:
        ds = center_and_normalize(hypersphere(64, 1.0, 96, seed=3), r=1.0)
    return ExactScoreModel(ds, schedule)


def _check_against_textbook(model, X, s):
    """Every kernel route against the textbook one at forward time s."""
    ds, schedule, Y = model.dataset, model.schedule, model.dataset.points
    X_before = X.copy()
    a, W, theta, var = _textbook_weights(model, X, s)
    got = model.posterior_weights_batch(X, s)
    assert np.max(np.abs(got - W)) <= 1e-10
    again = model.posterior_weights_batch(X, s)
    assert not np.shares_memory(got, again)
    score = (theta * (W @ Y) - X) / var
    assert _rel_err(model.score_batch(X, s), score) <= 1e-12
    # a convex combination of the points: near-uniform weights cancel
    # it far below the data's scale, so measure the error on that scale
    assert _rel_err(model.posterior_mean_batch(X, s), W @ Y,
                    np.max(np.abs(Y))) <= 1e-12
    logpdf = (logsumexp(a, axis=1) - np.log(ds.n_points)
              - 0.5 * ds.dim * np.log(2.0 * np.pi * var))
    assert np.max(np.abs(model.mixture_logpdf_batch(X, s) - logpdf)) <= 1e-8
    t = schedule.horizon - s
    potential = schedule.beta_at(s) * (-0.25 * np.sum(X * X, axis=1)
                                       - logsumexp(a, axis=1))
    assert _rel_err(model.potential_batch(X, t), potential) <= 1e-12
    ev = model.score(X[3], s)
    assert _rel_err(ev.score, score[3]) <= 1e-12
    assert abs(ev.log_density - logpdf[3]) <= 1e-8
    assert np.max(np.abs(ev.weights - W[3])) <= 1e-10
    assert _rel_err(model.hessian(X[3], t),
                    _textbook_hessian(model, X[3], s)) <= 1e-10
    assert np.array_equal(X, X_before)
    return a, got


# batches below N get row-major kernel blocks, batches of at least N
# point-major ones, and the longest spans three blocks (2^17 // (N + D + 2)
# rows each: 1927 for the mixture, 809 for the sphere), the last one ragged
_BATCHES = {"gmm": (40, 200, 3900), "sphere64": (40, 300, 1700)}


@pytest.mark.parametrize("shape", ["gmm", "sphere64"])
def test_kernel_matches_the_textbook_route(schedule, shape):
    model = _shape_model(schedule, shape)
    for B in _BATCHES[shape]:
        X = 1.2 * stream(23).standard_normal((B, model.dataset.dim))
        X[0] = model.dataset.points[5]  # a state on a data point
        for s in (1e-4, 0.3, 1.0):
            _check_against_textbook(model, X, s)


@pytest.mark.parametrize("shape", ["gmm", "sphere64"])
def test_kernel_matches_the_textbook_route_where_exp_is_floored(schedule,
                                                                 shape):
    # at s = 1e-4 (var ~ 1e-5) states 2 to 6 away from the data put most
    # shifted logits below -745, where exp underflows; the kernel floors
    # them at -700, which must not show in any output
    model = _shape_model(schedule, shape)
    rng = stream(25)
    for B in (40, 300):
        U = rng.standard_normal((B, model.dataset.dim))
        X = 1.2 * U + (2.0 + 4.0 * rng.uniform(size=(B, 1))) \
            * U / np.linalg.norm(U, axis=1, keepdims=True)
        a, W = _check_against_textbook(model, X, 1e-4)
        shifted = a - a.max(axis=1, keepdims=True)
        assert np.mean(shifted < -745.0) > 0.5
        assert np.all((W >= 0.0) & (W <= 1.0))
        assert np.max(np.abs(W.sum(axis=1) - 1.0)) <= 1e-14


def test_posterior_kernel_peaks_near_one_buffer(schedule):
    B, N, D = 512, 2048, 64
    model = ExactScoreModel(hypersphere(D, 1.0, N, seed=4), schedule)
    X = stream(24).standard_normal((B, D))
    tracemalloc.start()
    try:
        model.posterior_mean_batch(X, 0.4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * B * N * 8, f"peak {peak / 1e6:.2f} MB"


def test_empty_batch_gives_empty_outputs(gmm_model):
    X = np.empty((0, 2))
    assert gmm_model.posterior_mean_batch(X, 0.5).shape == (0, 2)
    assert gmm_model.score_batch(X, 0.5).shape == (0, 2)
    assert gmm_model.posterior_weights_batch(X, 0.5).shape == (
        0, gmm_model.dataset.n_points)
    assert gmm_model.mixture_logpdf_batch(X, 0.5).shape == (0,)
    assert gmm_model.potential_batch(X, 0.5).shape == (0,)


def _peak_bytes(fn, *args):
    # a full collection empties the interpreter's free lists, so every Python
    # object the call makes is a traced allocation; otherwise a tuple taken
    # from a free list (untraced) in one call and malloc'd in another moves
    # the peak by 56 bytes a time
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_METHODS = ("posterior_mean_batch", "score_batch", "potential_batch",
            "mixture_logpdf_batch")


@pytest.mark.parametrize("method, N, D, batches", [
    *[pytest.param(m, 2048, 64, (512, 2048), id=m) for m in _METHODS],
    *[pytest.param(m, 64, 2, (2048, 8192), id=f"{m}-n64") for m in _METHODS]])
def test_kernel_memory_does_not_grow_with_the_batch(schedule, method, N, D,
                                                    batches):
    # the kernel walks row blocks through bounded scratch (row-major blocks at
    # N = 2048, point-major at N = 64): four times the rows may only add their
    # outputs, a (B, D) block and a B-vector
    model = ExactScoreModel(hypersphere(D, 1.0, N, seed=4), schedule)
    fn = getattr(model, method)
    peaks = {B: _peak_bytes(fn, stream(24).standard_normal((B, D)), 0.4)
             for B in batches}
    small, large = batches
    assert peaks[large] - peaks[small] <= (large - small) * (D + 1) * 8, peaks


def test_potential_peaks_far_below_the_kernel_matrix(schedule):
    B, N, D = 512, 2048, 64
    model = ExactScoreModel(hypersphere(D, 1.0, N, seed=4), schedule)
    peak = _peak_bytes(model.potential_batch, stream(24).standard_normal((B, D)), 0.4)
    assert peak < 3e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("N, D", [(64, 2), (2048, 64)])
def test_full_blocks_equal_the_block_alone(schedule, N, D):
    # every output walks the same row blocks, so each full block of a longer
    # batch is the same bytes as that block evaluated alone
    model = ExactScoreModel(hypersphere(D, 1.0, N, seed=4), schedule)
    k = _BLOCK_ENTRIES // (N + D + 2)
    X = stream(24).standard_normal((3 * k + 5, D))
    for method in ("posterior_weights_batch", "posterior_mean_batch",
                   "score_batch"):
        fn = getattr(model, method)
        for s in (0.05, 0.4):
            whole = fn(X, s)
            for lo in range(0, 3 * k, k):
                assert np.array_equal(whole[lo:lo + k], fn(X[lo:lo + k], s)), (
                    method, s, lo)


@pytest.mark.parametrize("shape", ["gmm", "sphere64"])
def test_single_point_methods_equal_their_one_row_batch(schedule, shape):
    model = _shape_model(schedule, shape)
    x = 1.2 * stream(26).standard_normal(model.dataset.dim)
    X = x[None, :]
    for s in (1e-4, 0.05, 0.3, 1.0):
        t = schedule.horizon - s
        ev = model.score(x, s)
        assert np.array_equal(ev.score, model.score_batch(X, s)[0])
        assert ev.log_density == model.mixture_logpdf_batch(X, s)[0]
        assert np.array_equal(ev.weights, model.posterior_weights_batch(X, s)[0])
        assert model.mixture_logpdf(x, s) == model.mixture_logpdf_batch(X, s)[0]
        assert model.potential(x, t) == model.potential_batch(X, t)[0]
        assert np.array_equal(model.potential_gradient(x, t),
                              model.potential_gradient_batch(X, t)[0])


def test_weights_scratch_stays_bounded(schedule):
    # beyond its (B, N) output, the weights path holds one block of scratch;
    # the bound also allows an operand-sized array, which no call allocates
    # (the (D + 2, N) operand is the model's)
    B, N, D = 512, 2048, 64
    model = ExactScoreModel(hypersphere(D, 1.0, N, seed=4), schedule)
    X = stream(24).standard_normal((B, D))
    peak = _peak_bytes(model.posterior_weights_batch, X, 0.4)
    scratch = peak - B * N * 8
    assert scratch <= (D + 1) * N * 8 + _BLOCK_ENTRIES * 8 + 512 * 1024, scratch


def test_one_row_call_holds_no_operand(schedule):
    # the (D + 2, N) GEMM operand is the model's, built once: a one-row call
    # holds a one-row block, not a 1 MB operand of its own
    N, D = 2048, 64
    model = ExactScoreModel(hypersphere(D, 1.0, N, seed=4), schedule)
    x = stream(24).standard_normal((1, D))
    peak = _peak_bytes(model.posterior_mean_batch, x, 0.4)
    assert peak < 64 * 1024, peak


def test_hessian_holds_one_copy_of_the_points(schedule):
    # Cov_w[Y] from the points themselves, scaled by the weights once
    N, D = 2048, 64
    model = ExactScoreModel(hypersphere(D, 1.0, N, seed=4), schedule)
    x = stream(24).standard_normal(D)
    peak = _peak_bytes(model.hessian, x, schedule.horizon - 0.4)
    assert peak < 1.5 * N * D * 8, peak


# A row whose logits a bound from |x| and x.mu certifies is shifted by that
# bound inside the GEMM, and any other row by its max after it.  Against the
# max-shift reference every output is within 1000 ulps of the logits' term
# size T = 1 + (theta/var) (|x| max|y| + theta max|y|^2): log_norm absolutely,
# the weights absolutely, and the mean on the data's scale max|y|.

@settings(max_examples=80, deadline=None)
@given(N=st.sampled_from([1, 2, 64]), D=st.sampled_from([1, 2, 5]),
       s=st.sampled_from([1e-4, 0.01, 0.05, 0.3, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1), far=st.floats(1.0, 1e3))
def test_kernel_matches_the_max_shift_reference(schedule, N, D, s, seed, far):
    rng = np.random.default_rng(seed)
    # off-centre data with unequal norms, and a batch whose every third row
    # is pushed out by `far`, so batches mix certified and uncertified rows
    points = rng.uniform(-1.0, 3.0, D) + rng.uniform(0.05, 2.0) \
        * rng.standard_normal((N, D))
    X = 2.0 * rng.standard_normal((60, D))
    X[::3] *= far
    model = ExactScoreModel(EmpiricalDataset(points), schedule)
    theta, var = model._s_forward(s)
    post = posterior(X, model.kernel, theta, weights=True)
    mean, W, log_norm = oracles.posterior_max_shift(model.dataset.points,
                                                    theta, X)
    ymax = np.sqrt(np.max(np.sum(points * points, axis=1)))
    T = 1.0 + theta / var * (np.linalg.norm(X, axis=1) * ymax
                             + theta * ymax * ymax)
    tol = 1000 * np.finfo(float).eps * T
    assert np.all(np.abs(post.log_norm - log_norm) <= tol)
    assert np.all(np.abs(post.weights - W) <= tol[:, None])
    assert np.all(np.abs(post.mean - mean) <= tol[:, None] * ymax)


@pytest.mark.parametrize("B", [40, 300])  # row-major and point-major blocks
@pytest.mark.parametrize("s", [0.05, 0.3])
def test_a_row_does_not_depend_on_its_block_mates(gmm_model, B, s):
    # every fourth row pushed past the certified radius: in that mixed block
    # each row is the same bytes as in a block of certified rows
    kernel, (theta, _) = gmm_model.kernel, gmm_model._s_forward(s)
    radius = _certified_radius(kernel, theta)
    X = stream(27).standard_normal((B, 2))
    mixed = X.copy()
    mixed[1::4] *= 2.0 * radius / np.linalg.norm(X[1::4], axis=1)[:, None]
    certified = np.linalg.norm(mixed, axis=1) < radius
    assert certified.any() and not certified.all()
    assert np.all(np.linalg.norm(X, axis=1) < radius)
    whole = posterior(mixed, kernel, theta, weights=True)
    for i in range(B):
        mates = X.copy()
        mates[i] = mixed[i]
        alone = posterior(mates, kernel, theta, weights=True)
        for got, want in zip((whole.log_norm, whole.mean, whole.weights),
                             (alone.log_norm, alone.mean, alone.weights)):
            assert np.array_equal(got[i], want[i]), (i, certified[i])


def test_a_far_state_keeps_finite_outputs(gmm_model, schedule):
    # far states are never certified: their shift is the row max, so their
    # logits stay finite, with no warning.  On twin points (radius 0) only the
    # bound on the GEMM's terms keeps states near 1e100 uncertified
    twin = ExactScoreModel(EmpiricalDataset(
        np.array([[0.7, -0.2, 0.3, 1.1, -0.5]] * 2)), schedule)
    far = np.array([[1e279, -3e278], [0.3, 0.1], [-2e278, 5e278]])
    for model, X in ((gmm_model, far),
                     (twin, 1e100 * stream(29).standard_normal((8, 5)))):
        for s in (1e-4, 0.05, 0.3, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                post = posterior(X, model.kernel, model._s_forward(s)[0],
                                 weights=True)
            for out in (post.log_norm, post.mean, post.weights):
                assert np.all(np.isfinite(out)), (model.dataset.n_points, s)


def test_the_bound_certifies_typical_rows(gmm_model):
    # criterion 7's mixture with standard-normal states: the bound must
    # certify every row from s = 0.05 up, and must not certify all at s_min,
    # so a bound that quietly stopped applying fails here
    norms = np.linalg.norm(stream(28).standard_normal((2000, 2)), axis=1)
    kernel = gmm_model.kernel
    for s in (0.05, 0.3, 1.0):
        theta = gmm_model._s_forward(s)[0]
        assert np.all(norms < _certified_radius(kernel, theta)), s
    theta = gmm_model._s_forward(1e-4)[0]
    assert not np.all(norms < _certified_radius(kernel, theta))
