import numpy as np
import pytest
from scipy.optimize import brentq

from symbreak import (EmpiricalDataset, ExactScoreModel, VpSchedule,
                      bifurcation, center_and_normalize, hypersphere)
from symbreak.bifurcation import (bifurcation_diagram_1d, critical_theta_1d,
                                  critical_theta_cov, critical_theta_sphere,
                                  default_seed_points, drift_field,
                                  fixed_points_1d, fixed_points_general,
                                  GeneralFixedPoints, write_branches_csv)
from symbreak.errors import DomainError, ShapeError
from symbreak.rng import stream

import oracles


def test_critical_theta_1d_matches_frozen_value():
    assert critical_theta_1d() == pytest.approx(oracles.THETA_C_1D, abs=1e-15)


def test_critical_theta_1d_matches_curvature_sign_flip(two_point_model):
    # independent route: root of the origin curvature over theta
    sched = two_point_model.schedule

    def curvature(theta):
        s = sched.invert_theta(theta)
        return two_point_model.second_derivative_origin_1d(1.0 - s)

    root = brentq(curvature, 0.5, 0.75, xtol=1e-13)
    assert root == pytest.approx(critical_theta_1d(), abs=1e-10)


def test_critical_theta_sphere_known_values():
    assert critical_theta_sphere(1, 1.0) == pytest.approx(oracles.THETA_C_1D,
                                                          abs=1e-14)
    assert critical_theta_sphere(2, 1.0) == pytest.approx(
        oracles.THETA_STAR_2_1, abs=1e-14)
    with pytest.raises(DomainError):
        critical_theta_sphere(0, 1.0)
    with pytest.raises(DomainError):
        critical_theta_sphere(2, -1.0)


def test_critical_theta_sphere_matches_laplacian_sign_flip(sphere_model):
    sched = sphere_model.schedule

    def lap(theta):
        s = sched.invert_theta(theta)
        return sphere_model.laplacian_origin(1.0 - s)

    root = brentq(lap, 0.6, 0.95, xtol=1e-13)
    assert root == pytest.approx(critical_theta_sphere(2, 1.0), abs=1e-10)


def test_critical_theta_cov_owns_the_1d_value():
    # the {-1, +1} data have covariance 1; the double-precision formula lands
    # one ulp above the correctly rounded oracle
    assert critical_theta_cov(1.0) == critical_theta_1d() == 0.6435942529055827
    assert abs(critical_theta_1d() - oracles.THETA_C_1D) <= np.spacing(
        oracles.THETA_C_1D)


def test_critical_theta_sphere_matches_the_sphere_formula():
    worst = 0.0
    for d in (1, 2, 3, 8, 64, 512):
        for r in np.linspace(0.1, 7.0, 50):
            r2 = r * r  # sqrt((sqrt(d^2 + r^4) - r^2) / d), no lam in it
            sphere = np.sqrt((np.sqrt(d * d + r2 * r2) - r2) / d)
            worst = max(worst, abs(critical_theta_sphere(d, r) / sphere - 1.0))
    assert worst <= 1e-13


@pytest.mark.parametrize("d, n, seed", [(3, 8, 5), (8, 64, 1), (64, 256, 2)])
def test_critical_theta_cov_matches_the_hessian_flip(schedule, d, n, seed):
    # independent route: bisect theta on the smallest eigenvalue of the
    # analytic Hessian of u at the origin, a fixed point for these data
    model = ExactScoreModel(center_and_normalize(hypersphere(d, 1.0, n, seed),
                                                 r=1.0), schedule)

    def min_eig(theta):
        t = 1.0 - schedule.invert_theta(theta)
        return np.linalg.eigvalsh(model.hessian(np.zeros(d), t))[0]

    lo, hi = 0.3, 0.999
    assert min_eig(lo) > 0 > min_eig(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if min_eig(mid) > 0 else (lo, mid)
    lam = np.linalg.eigvalsh(np.cov(model.dataset.points, rowvar=False,
                                    ddof=0))[-1]
    assert abs(0.5 * (lo + hi) - critical_theta_cov(lam)) <= 1e-12


def test_critical_level_rejects_bad_input():
    for d in (0, 2.5, True, "3"):
        with pytest.raises(DomainError):
            critical_theta_sphere(d, 1.0)
    for r in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            critical_theta_sphere(2, r)
    for lam in (-1e-300, -1.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            critical_theta_cov(lam)
    assert critical_theta_cov(0.0) == 1.0
    assert critical_theta_sphere(np.int64(2), 1.0) == critical_theta_sphere(2, 1.0)


def test_fixed_points_1d_counts():
    tc = critical_theta_1d()
    assert len(fixed_points_1d(0.3)) == 1
    assert len(fixed_points_1d(tc - 1e-4)) == 1
    assert len(fixed_points_1d(tc + 1e-4)) == 3
    assert len(fixed_points_1d(0.97)) == 3


def test_fixed_points_1d_near_critical_flag():
    pts = fixed_points_1d(critical_theta_1d())
    assert len(pts) == 1
    assert pts[0].near_critical
    assert not fixed_points_1d(0.3)[0].near_critical


def test_fixed_points_1d_roots_solve_the_residual():
    for theta in (0.7, 0.85, 0.999):
        var = 1.0 - theta * theta
        for p in fixed_points_1d(theta):
            x = p.x[0]
            res = (1.0 + theta ** 2) * x - 2.0 * theta * np.tanh(
                theta * x / var)
            assert abs(res) < 1e-9


def test_fixed_points_1d_matches_brentq():
    for theta in (0.66, 0.8, 0.95):
        var = 1.0 - theta * theta
        ours = max(p.x[0] for p in fixed_points_1d(theta))
        ref = brentq(
            lambda x: (1.0 + theta ** 2) * x
            - 2.0 * theta * np.tanh(theta * x / var),
            1e-6, 1.5, xtol=1e-13)
        assert ours == pytest.approx(ref, abs=1e-10)


def test_fixed_points_1d_stability_labels():
    below = fixed_points_1d(0.5)
    assert below[0].stability == "stable"
    above = fixed_points_1d(0.8)
    by_sign = {np.sign(p.x[0]): p for p in above}
    assert by_sign[0.0].stability == "unstable"
    assert by_sign[1.0].stability == "stable"
    assert by_sign[-1.0].stability == "stable"


def test_fixed_points_1d_saturation_limit():
    pts = fixed_points_1d(0.999)
    outer = sorted(p.x[0] for p in pts)
    assert abs(outer[0] + 1.0) < 0.05
    assert abs(outer[2] - 1.0) < 0.05


def test_fixed_points_1d_domain():
    with pytest.raises(DomainError):
        fixed_points_1d(0.0)
    with pytest.raises(DomainError):
        fixed_points_1d(1.0)


def test_general_solver_agrees_with_1d_solver(two_point_model):
    for theta in (0.4, 0.8, 0.95):
        direct = sorted(p.x[0] for p in fixed_points_1d(theta))
        general = fixed_points_general(two_point_model, theta)
        assert not general.failed_seeds
        found = sorted(p.x[0] for p in general.points)
        assert len(found) == len(direct)
        assert np.allclose(found, direct, atol=1e-8)


def test_general_solver_stability_matches_1d(two_point_model):
    general = fixed_points_general(two_point_model, 0.8)
    labels = {round(float(p.x[0]), 3): p.stability for p in general.points}
    direct = {round(float(p.x[0]), 3): p.stability
              for p in fixed_points_1d(0.8)}
    assert labels == direct


def test_general_solver_on_the_sphere(sphere_model):
    theta = 0.95
    result = fixed_points_general(sphere_model, theta)
    assert result.points
    nonzero = [p for p in result.points
               if np.linalg.norm(p.x) > 0.1]
    assert nonzero
    for p in nonzero:
        # committed branches sit near the noised data shell
        assert abs(np.linalg.norm(p.x) - theta * 1.0) < 0.1 * theta


def test_stable_points_minimize_the_potential_locally(sphere_model):
    theta = 0.95
    t = 1.0 - sphere_model.schedule.invert_theta(theta)
    result = fixed_points_general(sphere_model, theta)
    rng = stream(31)
    for p in result.points:
        if p.stability != "stable":
            continue
        u0 = sphere_model.potential(p.x, t)
        for _ in range(8):
            d = rng.standard_normal(2)
            d = 1e-3 * d / np.linalg.norm(d)
            assert sphere_model.potential(p.x + d, t) > u0


def test_drift_vanishes_at_fixed_points(two_point_model):
    theta = 0.9
    pts = fixed_points_1d(theta)
    probes = [(p.x, theta) for p in pts]
    drifts = drift_field(two_point_model, probes)
    assert np.max(np.abs(drifts)) < 1e-7


def test_drift_field_rejects_degenerate_theta(two_point_model):
    with pytest.raises(DomainError):
        drift_field(two_point_model, [(np.zeros(1), 1.0)])


def test_default_seed_points_cover_origin_and_data(two_point_model):
    seeds = default_seed_points(two_point_model.dataset, 0.8)
    assert np.array_equal(seeds[0], np.zeros(1))
    assert len(seeds) == 1 + 2 + 8
    assert any(np.allclose(s, [0.8]) for s in seeds)
    assert any(np.allclose(s, [-0.8]) for s in seeds)


def test_general_solver_validation(two_point_model):
    with pytest.raises(DomainError):
        fixed_points_general(two_point_model, 1.2)
    for bad in ([np.zeros(3)],
                [[0.0], [1.0, 2.0]],    # ragged
                [[0.0, 1.0], [1.0]]):
        with pytest.raises(ShapeError):
            fixed_points_general(two_point_model, 0.5, seeds=bad)


def test_general_solver_without_seeds(two_point_model):
    assert fixed_points_general(two_point_model, 0.8, seeds=[]) == \
        GeneralFixedPoints((), 0, ())


def test_general_solver_reports_seeds_out_of_budget(two_point_model,
                                                    monkeypatch):
    # the origin is an exact fixed point; a far seed needs more than 3
    # steps, and a NaN seed never converges
    monkeypatch.setattr(bifurcation, "_MAX_ITER", 3)
    result = fixed_points_general(two_point_model, 0.8,
                                  [[0.0], [3.0], [np.nan]])
    assert result.failed_seeds == (1, 2)
    assert result.n_seeds == 3
    assert len(result.points) == 1 and result.points[0].x[0] == 0.0


def _per_seed_runs(model, theta, seeds):
    """fixed_points_general one seed at a time, deduplicated in seed order."""
    found, failed = [], []
    for idx, x0 in enumerate(seeds):
        run = fixed_points_general(model, theta, [x0])
        if run.failed_seeds:
            failed.append(idx)
        elif not any(np.linalg.norm(run.points[0].x - p.x) < 1e-6
                     for p in found):
            found.append(run.points[0])
    return found, tuple(failed)


def test_general_solver_batch_matches_per_seed_runs(sphere_model):
    wide = ExactScoreModel(
        center_and_normalize(hypersphere(8, 1.0, 64, seed=5), r=1.0),
        sphere_model.schedule)
    for model in (sphere_model, wide):
        for theta in (0.5, 0.8, 0.95):
            seeds = default_seed_points(model.dataset, theta)
            batch = fixed_points_general(model, theta, seeds)
            found, failed = _per_seed_runs(model, theta, seeds)
            assert batch.failed_seeds == failed
            assert [p.stability for p in batch.points] == \
                [p.stability for p in found]
            for p, q in zip(batch.points, found):
                assert np.max(np.abs(p.x - q.x)) <= 1e-12


def test_general_solver_dedups_in_seed_order_first_wins(monkeypatch):
    # a ring of 12 points: every scaled data point and random direction
    # lands on one of a few wells, so near duplicates are common
    angles = 2 * np.pi * np.arange(12) / 12
    ring = EmpiricalDataset(np.column_stack([np.cos(angles), np.sin(angles)]),
                            radius=1.0, centered=True)
    model = ExactScoreModel(ring, VpSchedule())
    seeds = bifurcation.default_seed_points(ring, 0.95)
    seeds += [x + 1e-3 for x in seeds[::-1]]
    got = bifurcation.fixed_points_general(model, 0.95, seeds)
    # reference: every converged seed in order, then the first-wins loop
    dedup = bifurcation._DEDUP
    monkeypatch.setattr(bifurcation, "_DEDUP", 0.0)
    every = bifurcation.fixed_points_general(model, 0.95, seeds)
    assert every.failed_seeds == got.failed_seeds == ()
    kept = []
    for p in every.points:
        if not any(np.linalg.norm(p.x - q.x) < dedup for q in kept):
            kept.append(p)
    assert len(every.points) == len(seeds) > 2 * len(kept) > 2
    assert [p.stability for p in got.points] == [p.stability for p in kept]
    assert all(np.array_equal(p.x, q.x) for p, q in zip(got.points, kept,
                                                         strict=True))


def test_diagram_branch_structure():
    tc = critical_theta_1d()
    grid = np.linspace(0.3, 0.95, 27)
    branches = bifurcation_diagram_1d(grid)
    by_label = {b.label: b for b in branches}
    assert set(by_label) == {"zero", "upper", "lower"}
    zero = by_label["zero"]
    assert zero.thetas.shape == (27,)
    for th, st in zip(zero.thetas, zero.stability):
        assert st == ("stable" if th < tc else "unstable")
    upper = by_label["upper"]
    assert np.all(upper.thetas > tc)
    assert np.all(upper.points[:, 0] > 0)
    assert np.all(np.diff(upper.points[:, 0]) > 0)  # monotone growth
    lower = by_label["lower"]
    assert np.allclose(lower.points[:, 0], -upper.points[:, 0], atol=1e-9)


def test_diagram_branch_steps_shrink_under_refinement():
    # the branch leaves the fork like sqrt(theta - theta_c); a 4x finer
    # grid must roughly halve the largest inter-node jump
    def max_step(n):
        branches = bifurcation_diagram_1d(np.linspace(0.6, 0.95, n))
        upper = [b for b in branches if b.label == "upper"][0]
        return float(np.max(np.abs(np.diff(upper.points[:, 0]))))

    assert max_step(129) < 0.62 * max_step(33)


def test_diagram_below_critical_has_only_the_zero_branch():
    branches = bifurcation_diagram_1d(np.linspace(0.1, 0.6, 6))
    assert [b.label for b in branches] == ["zero"]


def test_branches_csv_round_trip(tmp_path):
    branches = bifurcation_diagram_1d(np.linspace(0.5, 0.9, 5))
    path = tmp_path / "branches.csv"
    write_branches_csv(branches, path)
    rows = path.read_text().splitlines()
    assert rows[0] == "branch,theta,x_0,stability"
    cells = [r.split(",") for r in rows[1:]]
    labels = {c[0] for c in cells}
    assert labels == {"zero", "upper", "lower"}
    for c in cells:
        float(c[1]), float(c[2])
        assert c[3] in ("stable", "unstable", "saddle")
