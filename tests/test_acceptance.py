"""End-to-end acceptance suite: one test per criterion, one line each.

Each test re-runs the full experiment at the stated tolerances and asserts
its runtime budget.  Failures carry the measured numbers so a red line is
diagnosable from the pytest output alone.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
import yaml

from symbreak import (EmpiricalDataset, ExactScoreModel, SamplerConfig,
                      VpSchedule, gaussian_mixture, two_point_1d)
from symbreak.analysis import (count_local_minima, default_alpha_grid,
                               frechet_gaussian, interpolation_path,
                               mode_entropy, potential_scan)
from symbreak.bifurcation import (critical_theta_1d, critical_theta_cov,
                                  critical_theta_sphere, fixed_points_1d)
from symbreak.cli import _anchor_pair
from symbreak.rng import stream
from symbreak.samplers import (estimate_knee, late_start_sweep, run_sampler,
                               sample_stochastic)

import oracles

SCHED = VpSchedule()
THETA_C = oracles.THETA_C_1D
S_GRID_10 = [round(0.1 * k, 1) for k in range(1, 11)]


def _sym_sphere(d, r, n_half, rng):
    """Antipodally symmetrized sphere sample: certificates hold exactly."""
    dirs = rng.standard_normal((n_half, d))
    pts = r * dirs / np.linalg.norm(dirs, axis=1)[:, None]
    return EmpiricalDataset(np.vstack([pts, -pts]), radius=r, centered=True)


def _aniso_gmm():
    # 4 modes with uneven norms, nonzero mean, anisotropic spread: the
    # regime where a standard-normal init is visibly wrong at late starts
    return gaussian_mixture([[2.4, 0.6], [0.9, -0.4], [-1.6, 0.8],
                             [-0.4, -2.0]], 0.1, 16, seed=7)


def _t_of_theta(theta):
    return SCHED.horizon - SCHED.invert_theta(theta)


def _check(failures, ok, label):
    if not ok:
        failures.append(label)


def test_criterion_01_critical_theta_1d():
    t0 = time.perf_counter()
    value = critical_theta_1d()
    elapsed = time.perf_counter() - t0
    target = np.sqrt(np.sqrt(2.0) - 1.0)
    assert abs(value - target) < 1e-9, f"got {value!r}, want {target!r}"
    assert abs(value - THETA_C) < 1e-9
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_02_pitchfork_counts():
    t0 = time.perf_counter()
    rng = stream(202)
    failures = []
    for theta in rng.uniform(0.05, THETA_C - 1e-3, 50):
        n = len(fixed_points_1d(float(theta)))
        _check(failures, n == 1, f"theta={theta:.6f}: {n} roots, want 1")
    for theta in rng.uniform(THETA_C + 1e-3, 0.999, 50):
        n = len(fixed_points_1d(float(theta)))
        _check(failures, n == 3, f"theta={theta:.6f}: {n} roots, want 3")
    nonzero = sorted(p.x[0] for p in fixed_points_1d(0.999)
                     if abs(p.x[0]) > 1e-8)
    _check(failures, len(nonzero) == 2
           and abs(nonzero[0] + 1.0) < 0.05 and abs(nonzero[1] - 1.0) < 0.05,
           f"roots at theta=0.999: {nonzero}, want within 0.05 of -1, +1")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_laplacian_closed_form():
    t0 = time.perf_counter()
    rng = stream(303)
    failures = []
    for trial in range(20):
        d = int(rng.integers(1, 9))
        r = float(rng.uniform(0.5, 2.0))
        theta = float(rng.uniform(0.1, 0.95))
        model = ExactScoreModel(_sym_sphere(d, r, 32, rng), SCHED)
        t = _t_of_theta(theta)
        lap = model.laplacian_origin(t)
        h = 1e-4
        u0 = model.potential(np.zeros(d), t)
        trace = sum(
            (model.potential(h * np.eye(d)[i], t) - 2.0 * u0
             + model.potential(-h * np.eye(d)[i], t)) / h ** 2
            for i in range(d))
        rel = abs(lap - trace) / abs(lap)
        _check(failures, rel < 1e-4,
               f"d={d} r={r:.3f} theta={theta:.3f}: FD trace rel err {rel:.2e}")

        tstar = critical_theta_sphere(d, r)
        grid = np.arange(max(1e-4, tstar - 0.01),
                         min(1.0 - 1e-9, tstar + 0.01), 1e-4)
        vals = np.array([model.laplacian_origin(_t_of_theta(g)) for g in grid])
        flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
        bracketed = (flips.size == 1
                     and grid[flips[0]] <= tstar <= grid[flips[0] + 1])
        _check(failures, bracketed,
               f"d={d} r={r:.3f}: sign flip does not bracket "
               f"theta*={tstar:.6f} in one 1e-4 cell")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_04_score_gradient_fd():
    t0 = time.perf_counter()
    rng = stream(404)
    models = {
        "two_point_1d": ExactScoreModel(two_point_1d(), SCHED),
        "sphere_2d_64": ExactScoreModel(_sym_sphere(2, 1.0, 32, rng), SCHED),
        "gmm_2d": ExactScoreModel(_aniso_gmm(), SCHED),
    }
    h = 1e-5
    failures = []
    for name, model in models.items():
        d = model.dataset.dim
        worst = 0.0
        for _ in range(200):
            x = 1.5 * rng.standard_normal(d)
            s = float(rng.uniform(0.05, 0.95))

            sc = model.score(x, s)
            fd_sc = oracles.fd_gradient(lambda z: model.mixture_logpdf(z, s),
                                        x, h)
            rel = np.linalg.norm(sc.score - fd_sc) / max(
                np.linalg.norm(sc.score), 1e-12)
            worst = max(worst, rel)

            t = SCHED.horizon - s
            g = model.potential_gradient(x, t)
            fd_g = oracles.fd_gradient(lambda z: model.potential(z, t), x, h)
            rel = np.linalg.norm(g - fd_g) / max(np.linalg.norm(g), 1e-12)
            worst = max(worst, rel)
        _check(failures, worst < 1e-5, f"{name}: worst FD rel err {worst:.2e}")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_05_symmetry_invariance():
    t0 = time.perf_counter()
    model = ExactScoreModel(two_point_1d(), SCHED)
    rng = stream(505)
    failures = []
    for _ in range(100):
        x = np.array([3.0 * rng.standard_normal()])
        t = float(rng.uniform(0.0, 0.999))
        diff = abs(model.potential(x, t) - model.potential(-x, t))
        _check(failures, diff < 1e-10, f"x={x[0]:.4f} t={t:.4f}: {diff:.2e}")

    perm_ds = EmpiricalDataset(np.vstack([np.eye(3), -np.eye(3)]),
                               radius=1.0, centered=True)
    perm_model = ExactScoreModel(perm_ds, SCHED)
    for _ in range(100):
        x = rng.standard_normal(3)
        t = float(rng.uniform(0.0, 0.999))
        p = rng.permutation(3)
        diff = abs(perm_model.potential(x, t) - perm_model.potential(x[p], t))
        _check(failures, diff < 1e-10, f"perm {p} t={t:.4f}: {diff:.2e}")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_06_two_phase_dynamics():
    t0 = time.perf_counter()
    model = ExactScoreModel(two_point_1d(), SCHED)
    run = sample_stochastic(
        model, SamplerConfig(kind="stochastic_sde", n_steps=1000,
                             s_start=1.0, seed=0),
        4000, keep_trajectories=True)
    failures = []

    thetas = np.array([SCHED.theta_at(s) for s in run.s_grid])
    early = thetas < THETA_C - 0.05
    var = run.trajectories[:, :, 0].var(axis=0)
    vmin, vmax = var[early].min(), var[early].max()
    _check(failures, 0.9 < vmin and vmax < 1.1,
           f"early-phase variance in [{vmin:.4f}, {vmax:.4f}], want (0.9, 1.1)")

    split = float(np.mean(run.finals[:, 0] > 0))
    band = 3 * 0.5 / np.sqrt(4000)
    _check(failures, abs(split - 0.5) < band,
           f"mode split {split:.4f}, want 0.5 +/- {band:.4f}")

    entropy = mode_entropy(run.finals, np.array([[-1.0], [1.0]]))
    _check(failures, abs(entropy - np.log(2.0)) < 0.02,
           f"mode entropy {entropy:.5f}, want ln2 +/- 0.02")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def _sweep_clauses(model, s_critical, failures, tag):
    metric = lambda finals: frechet_gaussian(model.dataset.points,
                                             finals).frechet
    result = late_start_sweep(model, "stochastic_sde", 100, S_GRID_10, metric,
                              batch=4000, seed=0, repeats=5)
    mean, std = result.mean(), result.std()
    base = mean[-1]
    # plateau = grid points at least one cell above the critical time;
    # starting inside the cell containing it still shows residual loss
    plateau = [i for i, g in enumerate(S_GRID_10) if g >= s_critical + 0.1]
    band = 3.0 * max(std[i] for i in plateau)
    for i in plateau:
        _check(failures, abs(mean[i] - base) <= band,
               f"{tag}: s={S_GRID_10[i]} metric {mean[i]:.6f} vs baseline "
               f"{base:.6f} outside noise band {band:.6f}")
    degradation = mean[0] - base
    _check(failures, degradation > 5.0 * band,
           f"{tag}: degradation at s=0.1 is {degradation:.6f} = "
           f"{degradation / band:.2f}x band, want > 5x")
    return mean


def test_criterion_07_late_start_plateau_and_knee():
    t0 = time.perf_counter()
    failures = []

    gmm_model = ExactScoreModel(_aniso_gmm(), SCHED)
    lam = np.linalg.eigvalsh(np.cov(gmm_model.dataset.points.T, ddof=0)).max()
    theta_c_gmm = critical_theta_cov(lam)
    _sweep_clauses(gmm_model, SCHED.invert_theta(theta_c_gmm), failures, "gmm")

    # The normalized two-point dataset has mean 0 and variance exactly 1, so
    # a standard-normal init coincides with the noised marginal at every
    # s_start and the metric curve is flat in law: its sharp-degradation
    # clause cannot be met by any sampler setting.  The red line this
    # produces is the honest outcome, kept so the gap stays visible.
    model_1d = ExactScoreModel(two_point_1d(), SCHED)
    s_c = SCHED.invert_theta(THETA_C)
    mean_1d = _sweep_clauses(model_1d, s_c, failures, "1d")

    knee = estimate_knee(np.array(S_GRID_10), mean_1d)
    _check(failures, abs(knee.s_start - s_c) <= 0.15,
           f"1d knee at {knee.s_start} "
           f"(low_confidence={knee.low_confidence}), want within 0.15 of "
           f"{s_c:.4f}")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_08_gls_dominance():
    t0 = time.perf_counter()
    model = ExactScoreModel(_aniso_gmm(), SCHED)
    ref = model.dataset.points
    metric = lambda finals: frechet_gaussian(ref, finals).frechet
    batch = 6000
    failures = []
    for n, need_margin in ((3, True), (5, True), (10, False)):
        baseline = late_start_sweep(model, "ddim", n, S_GRID_10, metric,
                                    batch=batch, seed=0, repeats=5)
        best_i = int(np.argmin(baseline.mean()))
        s_best = S_GRID_10[best_i]
        std_vals = baseline.values[:, best_i]
        gls_vals = np.array([
            metric(run_sampler(model, SamplerConfig(
                kind="ddim", n_steps=n, s_start=s_best, init="gls",
                seed=seed), batch).finals)
            for seed in range(5)])
        diffs = std_vals - gls_vals
        margin = diffs.mean()
        band = 3.0 * diffs.std(ddof=1) / np.sqrt(len(diffs))
        _check(failures, margin >= 0.0,
               f"n={n}: gls mean {gls_vals.mean():.6f} worse than standard "
               f"{std_vals.mean():.6f} at s_start={s_best}")
        if need_margin:
            _check(failures, margin > band,
                   f"n={n}: margin {margin:.6f} not above noise band "
                   f"{band:.6f} at s_start={s_best}")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_09_potential_scan_morphology():
    t0 = time.perf_counter()
    model = ExactScoreModel(EmpiricalDataset(
        np.array([[-1.0, 0.0], [1.0, 0.0]]), radius=1.0, centered=True),
        SCHED)
    alpha = default_alpha_grid(141)
    failures = []

    # intrinsic morphology with anchors pinned near the two data points
    x1 = np.array([1.0, 0.05])
    x2 = np.array([-1.0, 0.08])
    for theta, want in ((0.2, 1), (0.3, 1), (0.5, 1), (0.59, 1),
                        (0.96, 2), (0.98, 2)):
        t = _t_of_theta(theta)
        scan = potential_scan(model, x1[None, :], x2[None, :], alpha, [t])
        n_min = count_local_minima(scan.values[0], 3)
        ok = n_min == want if want == 1 else n_min >= want
        _check(failures, ok, f"fixed anchors theta={theta}: {n_min} minima")
        direct = model.potential_batch(interpolation_path(x1, x2, alpha), t)
        n_direct = count_local_minima(direct, 3)
        _check(failures, n_direct == n_min,
               f"theta={theta}: direct-evaluation count {n_direct} != "
               f"scan count {n_min}")

    # sampled-trajectory anchors, five fixed seeds
    times = [_t_of_theta(th) for th in (0.5, 0.96, 0.98)]
    for seed in range(5):
        run = run_sampler(model, SamplerConfig(
            kind="stochastic_sde", n_steps=400, s_start=1.0, seed=seed), 8,
            keep_trajectories=True)
        t_nodes = SCHED.horizon - run.s_grid
        idx = [int(np.argmin(np.abs(t_nodes - t))) for t in times]
        ia, ib = _anchor_pair(model, run)
        scan = potential_scan(model, run.trajectories[ia, idx],
                              run.trajectories[ib, idx], alpha, t_nodes[idx])
        counts = [count_local_minima(row, 3) for row in scan.values]
        _check(failures, counts[0] == 1 and counts[1] >= 2 and counts[2] >= 2,
               f"seed {seed}: sampled-anchor minima counts {counts}")

    # reconstruction accuracy and second-order convergence
    for theta in (0.3, 0.5, 0.8):
        t = _t_of_theta(theta)
        scan = potential_scan(model, x1[None, :], x2[None, :], alpha, [t])
        direct = model.potential_batch(interpolation_path(x1, x2, alpha), t)
        direct = direct - direct[0]
        rel = np.max(np.abs(scan.values[0] - direct)) / np.max(np.abs(direct))
        _check(failures, rel < 1e-3,
               f"reconstruction theta={theta}: rel err {rel:.2e}")

    def recon_err(n_alpha, t):
        a = default_alpha_grid(n_alpha)
        scan = potential_scan(model, x1[None, :], x2[None, :], a, [t])
        direct = model.potential_batch(interpolation_path(x1, x2, a), t)
        return float(np.max(np.abs(scan.values[0] - (direct - direct[0]))))

    for theta in (0.5, 0.9):
        t = _t_of_theta(theta)
        ratio = recon_err(141, t) / recon_err(281, t)
        _check(failures, ratio >= 3.0,
               f"halving at theta={theta}: error ratio {ratio:.2f}, want >= 3")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    pts = tmp_path / "line.csv"
    pts.write_text("-1,0\n1,0\n")
    sweep_table = tmp_path / "table.csv"
    sweep_table.write_text("dataset,s=0.2,s=0.4,s=0.6,s=0.8,s=1\n"
                           "two_point_1d,5.0,1.0,1.0,1.0,1.0\n")
    configs = {
        "sample": {"dataset": {"kind": "two_point_1d"},
                   "sampler": {"kind": "stochastic_sde", "n_steps": 10,
                               "batch": 16, "trajectories": True}},
        "sweep": {"dataset": {"kind": "two_point_1d"},
                  "sampler": {"kind": "ddim", "n_steps": 6, "batch": 64},
                  "sweep": {"s_start_grid": [0.2, 0.4, 0.6, 0.8, 1.0],
                            "repeats": 2}},
        "scan": {"dataset": {"kind": "csv", "path": str(pts)},
                 "sampler": {"kind": "stochastic_sde", "n_steps": 40,
                             "batch": 8},
                 "scan": {"times": [0.4], "theta_targets": [0.96],
                          "n_alpha": 41}},
        "bifurcate": {"bifurcate": {"theta_count": 16,
                                    "sweep_csv": str(sweep_table)}},
        "dataset generate": {"dataset": {"kind": "hypersphere", "d": 2,
                                         "n": 8, "seed": 3}},
    }
    failures = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command.split()[0]}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        csv_bytes = []
        for run_i, threads in enumerate(("1", "1", "4")):
            out = tmp_path / f"{command.replace(' ', '_')}_{run_i}"
            proc = subprocess.run(
                [sys.executable, "-m", "symbreak.cli", *command.split(),
                 "--config", str(cfg_path), "--out", str(out),
                 "--seed", "11", "--threads", threads],
                capture_output=True, text=True)
            assert proc.returncode == 0, (command, proc.stderr)
            blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                     if p.suffix in (".csv", ".json")
                     and p.name != "manifest.json"}
            assert blobs, command
            csv_bytes.append(blobs)
        _check(failures, csv_bytes[0] == csv_bytes[1],
               f"{command}: rerun with identical flags changed artifacts")
        _check(failures, csv_bytes[0] == csv_bytes[2],
               f"{command}: --threads 4 changed artifacts")
    elapsed = time.perf_counter() - t0
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
