import itertools

import numpy as np
import pytest

from symbreak import (ExactScoreModel, SamplerConfig, VpSchedule,
                      gaussian_mixture, run_sampler, sample_stochastic)
from symbreak.analysis import (CoordinateTrajectories, PotentialScan,
                               coordinate_trajectories, correlation_trajectory,
                               count_local_minima, default_alpha_grid,
                               frechet_gaussian, interpolation_path,
                               mode_entropy, nearest_center, potential_scan)
from symbreak.errors import DomainError, ShapeError
from symbreak.rng import stream
from symbreak.samplers import SamplerRun

import oracles


def test_interpolation_path_endpoints():
    x1 = np.array([1.0, 0.0])
    x2 = np.array([0.0, 1.0])
    path = interpolation_path(x1, x2, [0.0, np.pi / 2])
    assert np.allclose(path[0], x1, atol=1e-15)
    assert np.allclose(path[1], x2, atol=1e-12)


def test_interpolation_path_preserves_norm_for_orthonormal_anchors():
    rng = stream(41)
    q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    x1, x2 = q[:, 0], q[:, 1]
    path = interpolation_path(x1, x2, np.linspace(-1.0, 2.0, 40))
    assert np.allclose(np.linalg.norm(path, axis=1), 1.0, atol=1e-12)


def test_interpolation_path_shape_errors():
    with pytest.raises(ShapeError):
        interpolation_path(np.zeros(2), np.zeros(3), [0.0])
    with pytest.raises(ShapeError):
        interpolation_path(np.zeros((2, 2)), np.zeros((2, 2)), [0.0])


def test_default_alpha_grid_window():
    a = default_alpha_grid()
    assert a.shape == (141,)
    assert a[0] == pytest.approx(-np.pi / 5)
    assert a[-1] == pytest.approx(7 * np.pi / 10)
    with pytest.raises(DomainError):
        default_alpha_grid(1)


def _direct_row(model, x1, x2, alpha, t):
    path = interpolation_path(x1, x2, alpha)
    vals = model.potential_batch(path, t)
    return vals - vals[0]


def test_scan_reconstructs_the_potential(embedded_2d_model):
    x1 = np.array([0.9, 0.1])
    x2 = np.array([-0.8, 0.2])
    times = np.array([0.3, 0.8])
    alpha = default_alpha_grid(141)
    scan = potential_scan(embedded_2d_model, np.tile(x1, (2, 1)),
                          np.tile(x2, (2, 1)), alpha, times)
    assert scan.values.shape == (2, 141)
    assert np.all(scan.values[:, 0] == 0.0)
    for i, t in enumerate(times):
        direct = _direct_row(embedded_2d_model, x1, x2, alpha, t)
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(scan.values[i] - direct)) < 1e-3 * scale


def test_scan_sharp_well_rows_stay_second_order(embedded_2d_model):
    # near the data (small s) the wells sharpen and the trapezoid constant
    # grows; 141 points still track the potential to well under 1%
    x1 = np.array([0.9, 0.1])
    x2 = np.array([-0.8, 0.2])
    alpha = default_alpha_grid(141)
    scan = potential_scan(embedded_2d_model, x1[None, :], x2[None, :],
                          alpha, [0.95])
    direct = _direct_row(embedded_2d_model, x1, x2, alpha, 0.95)
    scale = np.max(np.abs(direct))
    assert np.max(np.abs(scan.values[0] - direct)) < 5e-3 * scale


def test_scan_error_halves_quadratically(embedded_2d_model):
    x1 = np.array([0.9, 0.1])
    x2 = np.array([-0.8, 0.2])
    t = 0.9

    def max_err(n):
        alpha = default_alpha_grid(n)
        scan = potential_scan(embedded_2d_model, x1[None, :], x2[None, :],
                              alpha, [t])
        direct = _direct_row(embedded_2d_model, x1, x2, alpha, t)
        return float(np.max(np.abs(scan.values[0] - direct)))

    # halving the step (141 -> 281 shares the endpoints) must cut the
    # trapezoid error by at least 3x
    assert max_err(281) < max_err(141) / 3.0


def test_scan_input_validation(embedded_2d_model):
    a = default_alpha_grid(11)
    with pytest.raises(ShapeError):
        potential_scan(embedded_2d_model, np.zeros((2, 2)), np.zeros((3, 2)),
                       a, [0.1, 0.2])
    with pytest.raises(ShapeError):
        potential_scan(embedded_2d_model, np.zeros((2, 2)), np.zeros((2, 2)),
                       a, [0.1])
    with pytest.raises(DomainError):
        potential_scan(embedded_2d_model, np.zeros((1, 2)), np.ones((1, 2)),
                       [0.3, 0.2, 0.1], [0.1])


def test_count_local_minima_basics():
    x = np.linspace(-1, 1, 31)
    assert count_local_minima(x ** 2) == 1
    assert count_local_minima((x ** 2 - 0.5) ** 2) == 2
    assert count_local_minima(x) == 0
    assert count_local_minima(-x) == 0


def test_count_local_minima_smoothing_suppresses_ripple():
    x = np.linspace(-1, 1, 101)
    # ripple with period 7 in index space averages to exactly zero under a
    # window-7 moving mean, leaving the convex parabola
    noisy = x ** 2 + 0.01 * np.sin(2 * np.pi * np.arange(101) / 7)
    assert count_local_minima(noisy, smoothing_window=1) > 1
    assert count_local_minima(noisy, smoothing_window=7) == 1


def test_count_local_minima_validation():
    with pytest.raises(DomainError):
        count_local_minima([1.0, 2.0, 3.0], smoothing_window=2)
    with pytest.raises(DomainError):
        count_local_minima([1.0, 2.0, 3.0, 4.0], smoothing_window=3)


def test_frechet_identical_sets_is_zero():
    rng = stream(43)
    pts = rng.standard_normal((50, 3))
    rep = frechet_gaussian(pts, pts)
    assert rep.frechet <= 1e-10
    assert rep.n_reference == rep.n_generated == 50


def test_frechet_pure_shift_is_squared_distance():
    # equal fitted covariances: the metric reduces to |mean shift|^2
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    shift = np.array([0.7, -0.4])
    rep = frechet_gaussian(base, base + shift)
    assert rep.frechet == pytest.approx(float(shift @ shift), abs=1e-12)


def test_frechet_pure_scale_matches_closed_form():
    # Sigma2 = 4 Sigma1: trace term is tr(Sigma1 + 4 Sigma1 - 2*2 Sigma1)
    base = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    rep = frechet_gaussian(base, 2.0 * base)
    assert rep.frechet == pytest.approx(np.trace(np.cov(base.T, ddof=0) * 1.0),
                                        abs=1e-12)


def test_frechet_gaussian_samples_recover_mean_distance():
    rng = stream(44)
    n = 60000
    d = 1.5
    a = rng.standard_normal((n, 2))
    b = rng.standard_normal((n, 2)) + np.array([d, 0.0])
    rep = frechet_gaussian(a, b)
    # sampling error of the moment fits is O(1/sqrt(n))
    assert rep.frechet == pytest.approx(d * d, abs=0.05)


def test_frechet_is_symmetric_and_rotation_invariant():
    rng = stream(45)
    a = rng.standard_normal((200, 3)) @ np.diag([1.0, 2.0, 0.5])
    b = rng.standard_normal((150, 3)) + 0.3
    ab = frechet_gaussian(a, b).frechet
    ba = frechet_gaussian(b, a).frechet
    assert ab == pytest.approx(ba, abs=1e-10)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    rot = frechet_gaussian(a @ q.T, b @ q.T).frechet
    assert rot == pytest.approx(ab, abs=1e-8)


def test_frechet_of_rank_deficient_fits_needs_no_jitter():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    rep = frechet_gaussian(flat, flat + np.array([0.0, 1.0]))
    assert rep.frechet == pytest.approx(1.0, abs=1e-12)


def _diagonal_cloud(mean, variances):
    """All sign patterns of mean +- sqrt(variances): a point set whose
    population fit is exactly N(mean, diag(variances))."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=len(mean))))
    return np.asarray(mean) + signs * np.sqrt(variances)


@pytest.mark.parametrize("m1, v1, m2, v2", [
    ([0.0, 0.0], [0.7, 0.0], [0.5, -0.25], [1.9, 0.3]),
    ([1.0, 0.0], [0.0, 0.4], [0.0, 0.0], [0.9, 0.0]),
    ([0.0, 2.0, 0.0], [1.0, 0.0, 0.25], [0.0, 0.0, 0.0], [0.36, 0.0, 0.0]),
    ([0.3, -0.1], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
], ids=["one_axis_flat", "crossed_lines", "d3_line", "point_masses"])
def test_frechet_matches_the_closed_form_on_degenerate_fits(m1, v1, m2, v2):
    # commuting covariances: |mu1 - mu2|^2 + sum (sqrt(a_i) - sqrt(b_i))^2
    want = (np.sum(np.subtract(m1, m2) ** 2)
            + np.sum((np.sqrt(v1) - np.sqrt(v2)) ** 2))
    ref, gen = _diagonal_cloud(m1, v1), _diagonal_cloud(m2, v2)
    assert abs(frechet_gaussian(ref, gen).frechet - want) <= 1e-12
    assert abs(frechet_gaussian(gen, ref).frechet - want) <= 1e-12


def test_frechet_validation():
    with pytest.raises(ShapeError):
        frechet_gaussian(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(DomainError):
        frechet_gaussian(np.zeros((0, 2)), np.zeros((3, 2)))


def test_mode_entropy_limits():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    one_mode = np.tile([0.9, 0.1], (40, 1))
    assert mode_entropy(one_mode, centers) == 0.0
    split = np.vstack([np.tile([0.9, 0.0], (20, 1)),
                       np.tile([-0.9, 0.0], (20, 1))])
    assert mode_entropy(split, centers) == pytest.approx(oracles.LN2,
                                                         abs=1e-12)


@pytest.mark.parametrize("where", ["all-nan", "one-nan", "inf", "center"])
def test_mode_entropy_rejects_non_finite_points(where):
    # nearest_center's argmin sent a NaN row to center 0, so all-NaN input
    # had entropy 0.0
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    pts = np.tile([0.9, 0.1], (6, 1))
    if where == "all-nan":
        pts[:] = np.nan
    elif where == "one-nan":
        pts[2, 1] = np.nan
    elif where == "inf":
        pts[4, 0] = -np.inf
    else:
        centers[1, 0] = np.nan
    with pytest.raises(DomainError, match="finite"):
        mode_entropy(pts, centers)


def test_nearest_center_matches_brute_force():
    rng = stream(47)
    centers = rng.standard_normal((7, 3))
    pts = rng.standard_normal((200, 3))
    brute = np.argmin(np.linalg.norm(pts[:, None] - centers[None], axis=2), axis=1)
    assert np.array_equal(nearest_center(pts, centers), brute)
    # a tie goes to the first center
    assert nearest_center(np.zeros((1, 2)), np.array([[1.0, 0.0], [0.0, 1.0]]))[0] == 0


def test_mode_entropy_is_bounded():
    rng = stream(46)
    centers = rng.standard_normal((5, 3))
    pts = rng.standard_normal((300, 3))
    h = mode_entropy(pts, centers)
    assert 0.0 <= h <= np.log(5) + 1e-12


def _toy_run(trajectories, finals=None):
    cfg = SamplerConfig(kind="ddim", n_steps=trajectories.shape[1] - 1,
                        s_start=1.0)
    grid = np.linspace(1.0, 0.0, trajectories.shape[1])
    grid[-1] = 1e-4
    if finals is None:
        finals = trajectories[:, -1]
    return SamplerRun(cfg, grid, finals, trajectories)


def test_correlation_requires_trajectories(two_point_model):
    run = run_sampler(two_point_model, SamplerConfig(
        kind="ddim", n_steps=3, s_start=1.0), 4)
    with pytest.raises(DomainError):
        correlation_trajectory(run)


def test_correlation_of_reference_with_itself_is_one():
    rng = stream(47)
    traj = rng.standard_normal((3, 5, 6))
    out = correlation_trajectory(_toy_run(traj), reference_index=1)
    assert out.values.shape == (5, 3)
    assert not out.pooled
    assert np.allclose(out.values[:, 1], 1.0, atol=1e-12)


def test_correlation_null_level_at_start(embedded_2d_model, schedule):
    # independent standard-normal inits in D=16: mean |corr| below 3/sqrt(D)
    centers = np.zeros((2, 16))
    centers[0, 0], centers[1, 0] = 1.0, -1.0
    ds = gaussian_mixture(centers, 0.05, 16, seed=8)
    model = ExactScoreModel(ds, schedule)
    run = sample_stochastic(model, SamplerConfig(
        kind="stochastic_sde", n_steps=60, s_start=1.0, seed=9), 40,
        keep_trajectories=True)
    out = correlation_trajectory(run, reference_index=0)
    others = np.abs(np.delete(out.values[0], 0))
    assert others.mean() < 3.0 / np.sqrt(16)


def test_correlation_rises_for_same_mode_chains(schedule):
    # centers need varied coordinates: correlation across coordinates is
    # blind to any constant vector
    p = np.array([0.9, -0.4, 0.6, -0.8, 0.3, -0.5, 0.7, -0.2])
    ds = gaussian_mixture(np.stack([p, -p]), 0.05, 16, seed=10)
    model = ExactScoreModel(ds, schedule)
    run = sample_stochastic(model, SamplerConfig(
        kind="stochastic_sde", n_steps=120, s_start=1.0, seed=11), 24,
        keep_trajectories=True)
    out = correlation_trajectory(run, reference_index=0)
    ref_sign = np.sign(run.finals[0] @ p)
    same = [i for i in range(1, 24)
            if np.sign(run.finals[i] @ p) == ref_sign]
    assert same  # with 24 chains some share the reference's mode
    early = np.abs(out.values[0, same]).mean()
    late = out.values[-1, same].mean()
    assert late > early
    assert late > 0.9


def test_correlation_flags_zero_variance_states():
    traj = np.ones((2, 4, 3))          # constant state vectors throughout
    traj[1] = 2.0
    out = correlation_trajectory(_toy_run(traj))
    assert np.all(out.flagged)
    assert np.all(out.values == 0.0)


def test_correlation_pools_one_dimensional_runs(two_point_model):
    run = sample_stochastic(two_point_model, SamplerConfig(
        kind="stochastic_sde", n_steps=300, s_start=1.0, seed=12), 400,
        keep_trajectories=True)
    out = correlation_trajectory(run)
    assert out.pooled
    assert out.values.shape == (301, 1)
    assert abs(out.values[0, 0]) < 0.3        # init carries no mode info
    assert out.values[-1, 0] > 0.9            # settled states define finals


def test_correlation_matches_corrcoef_entrywise():
    rng = stream(50)
    S, n_nodes, d = 7, 9, 5
    traj = rng.standard_normal((S, n_nodes, d)) * rng.uniform(0.2, 3.0,
                                                             (S, 1, 1))
    traj[4] = 1.5  # a zero-variance chain: constant across coordinates
    for r in (0, 2):
        out = correlation_trajectory(_toy_run(traj), reference_index=r)
        assert out.values.shape == (n_nodes, S)
        for k in range(n_nodes):
            for i in range(S):
                if i == 4:
                    assert out.flagged[k, i] and out.values[k, i] == 0.0
                    continue
                want = np.corrcoef(traj[r, k], traj[i, k])[0, 1]
                assert not out.flagged[k, i]
                assert out.values[k, i] == pytest.approx(want, abs=1e-12)


def test_pooled_correlation_matches_corrcoef():
    rng = stream(51)
    traj = rng.standard_normal((30, 6, 1))
    finals = rng.standard_normal((30, 1))
    traj[:, 2, 0] = -0.75  # a node where every chain sits at one state
    out = correlation_trajectory(_toy_run(traj, finals))
    assert out.pooled and out.values.shape == (6, 1)
    assert out.flagged[2, 0] and out.values[2, 0] == 0.0
    for k in (0, 1, 3, 4, 5):
        want = np.corrcoef(traj[:, k, 0], finals[:, 0])[0, 1]
        assert not out.flagged[k, 0]
        assert out.values[k, 0] == pytest.approx(want, abs=1e-12)


def test_correlation_reference_index_bounds():
    traj = stream(48).standard_normal((3, 4, 5))
    with pytest.raises(DomainError):
        correlation_trajectory(_toy_run(traj), reference_index=3)


def test_coordinate_trajectories_normalization():
    traj = np.zeros((2, 3, 2))
    traj[0, :, 0] = [0.0, 5.0, 10.0]   # chain 0, coordinate 0
    traj[1, :, 0] = [2.0, 4.0, 6.0]
    traj[:, :, 1] = 7.0                # constant coordinate
    out = coordinate_trajectories(_toy_run(traj), [0, 1])
    assert out.values.shape == (3, 2, 2)
    assert np.allclose(out.values[:, 0, 0], [0.0, 0.5, 1.0])
    assert np.allclose(out.values[:, 1, 0], [0.2, 0.4, 0.6])
    assert np.all(out.values[:, :, 1] == 0.5)
    assert list(out.constant) == [False, True]


def test_coordinate_trajectories_preserve_order():
    rng = stream(49)
    traj = rng.standard_normal((4, 6, 3))
    out = coordinate_trajectories(_toy_run(traj), [2])
    raw = traj[:, :, 2].T
    norm = out.values[:, :, 0]
    assert np.array_equal(np.argsort(raw, axis=None),
                          np.argsort(norm, axis=None))


def test_coordinate_trajectories_validation(two_point_model):
    run = run_sampler(two_point_model, SamplerConfig(
        kind="ddim", n_steps=3, s_start=1.0), 4, keep_trajectories=True)
    with pytest.raises(DomainError):
        coordinate_trajectories(run, [1])
    with pytest.raises(ShapeError):
        coordinate_trajectories(run, [])
    bare = run_sampler(two_point_model, SamplerConfig(
        kind="ddim", n_steps=3, s_start=1.0), 4)
    with pytest.raises(DomainError):
        coordinate_trajectories(bare, [0])


@pytest.mark.parametrize("indices", [[1.7], [True], [0, True], [np.float64(1.0)],
                                     np.array([True])],
                         ids=["1.7", "True", "0-True", "float64", "bool-array"])
def test_coordinate_trajectories_reject_non_integer_indices(indices):
    # each was read as coordinate 1 (or 0 and 1), truncated without a word
    run = _toy_run(stream(52).standard_normal((3, 4, 2)))
    with pytest.raises(DomainError, match=r"^indices\[\d\] must be an integer"):
        coordinate_trajectories(run, indices)
    want = coordinate_trajectories(run, [1]).values
    for ok in ([np.int64(1)], np.array([1]), (1,)):
        assert np.array_equal(coordinate_trajectories(run, ok).values, want)
