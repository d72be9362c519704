import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import stats

from symbreak import (EmpiricalDataset, ExactScoreModel, SamplerConfig,
                      VpSchedule, estimate_knee, forward_sample,
                      gaussian_mixture, gls_init, hypersphere,
                      late_start_sweep, run_sampler, sample_ddim,
                      sample_stochastic, samplers, two_point_1d)
from symbreak.errors import DivergedError, DomainError, ShapeError
from symbreak.rng import chain_normals

import oracles


def test_config_validation():
    with pytest.raises(DomainError):
        SamplerConfig(kind="euler", n_steps=10, s_start=1.0)
    with pytest.raises(DomainError):
        SamplerConfig(kind="ddim", n_steps=10, s_start=1.0, init="warm")
    with pytest.raises(DomainError):
        SamplerConfig(kind="ddim", n_steps=0, s_start=1.0)
    with pytest.raises(DomainError):
        SamplerConfig(kind="ddim", n_steps=10, s_start=1.0, s_min=2.0)
    for seed in (-1, 2 ** 64, 1.5):  # the rng seed rule, checked at construction
        with pytest.raises(DomainError):
            SamplerConfig(kind="ddim", n_steps=10, s_start=1.0, seed=seed)


@pytest.mark.parametrize("bad", [2.5, 3.0, np.float64(3.0), True, False, "3"],
                         ids=["2.5", "3.0", "float64", "True", "False", "str"])
def test_counts_must_be_integers(two_point_model, bad):
    # a float, bool or string count fails with DomainError, not numpy's
    # TypeError from the draw
    metric = lambda finals: 0.0
    with pytest.raises(DomainError):
        SamplerConfig(kind="ddim", n_steps=bad, s_start=1.0)
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=5, s_start=1.0)
    with pytest.raises(DomainError):
        run_sampler(two_point_model, cfg, bad)
    for count in ("batch", "repeats"):
        with pytest.raises(DomainError):
            late_start_sweep(two_point_model, "stochastic_sde", 5, [0.5],
                             metric, **{count: bad})
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=np.int64(5), s_start=1.0)
    run = run_sampler(two_point_model, cfg, np.int64(3))
    assert np.array_equal(run.finals, run_sampler(
        two_point_model, SamplerConfig(kind="stochastic_sde", n_steps=5,
                                       s_start=1.0), 3).finals)


@pytest.mark.parametrize("field", ["s_start", "s_min"])
@pytest.mark.parametrize("bad", ["1", True, None, np.nan, np.inf, 10 ** 400],
                         ids=["str", "True", "None", "nan", "inf", "10**400"])
def test_times_must_be_finite_reals(field, bad):
    # each fails at construction with a DomainError that names the field;
    # an int past the float range fails this rule, not the horizon check
    times = {"s_start": 1.0, "s_min": 1e-4, field: bad}
    with pytest.raises(DomainError, match=f"^{field} must be a finite real"):
        SamplerConfig(kind="ddim", n_steps=5, **times)
    SamplerConfig(kind="ddim", n_steps=5, s_start=1, s_min=np.float64(1e-4))


@pytest.mark.parametrize("s_start", [2.0, 1.0000000000000002])
def test_s_start_must_not_pass_the_horizon(s_start):
    # the horizon is the schedule's class constant, so this fails at
    # construction, not when a run builds its grid
    with pytest.raises(DomainError, match=r"^s_start must lie in \(0, 1.0\]"):
        SamplerConfig(kind="ddim", n_steps=5, s_start=s_start)
    SamplerConfig(kind="ddim", n_steps=5, s_start=VpSchedule.horizon)


def test_kind_dispatch_is_strict(two_point_model):
    cfg = SamplerConfig(kind="ddim", n_steps=5, s_start=1.0)
    with pytest.raises(DomainError):
        sample_stochastic(two_point_model, cfg, 4)
    cfg2 = SamplerConfig(kind="stochastic_sde", n_steps=5, s_start=1.0)
    with pytest.raises(DomainError):
        sample_ddim(two_point_model, cfg2, 4)


def test_grid_runs_from_start_to_s_min(two_point_model):
    cfg = SamplerConfig(kind="ddim", n_steps=4, s_start=0.8, s_min=1e-4)
    run = sample_ddim(two_point_model, cfg, 2)
    assert run.s_grid.shape == (5,)
    assert run.s_grid[0] == 0.8
    assert np.allclose(run.s_grid[:-1], [0.8, 0.6, 0.4, 0.2], atol=1e-12)
    assert run.s_grid[-1] == 1e-4


def test_grid_rejects_s_min_collisions(two_point_model):
    # 1000 steps from 0.05 puts the last interior node at 5e-5 < s_min
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=1000, s_start=0.05)
    with pytest.raises(DomainError):
        sample_stochastic(two_point_model, cfg, 2)


def test_batch_must_be_positive(two_point_model):
    cfg = SamplerConfig(kind="ddim", n_steps=5, s_start=1.0)
    with pytest.raises(DomainError):
        sample_ddim(two_point_model, cfg, 0)


def test_forward_sample_moments(two_point_model):
    s = 0.4
    theta, var = two_point_model._s_forward(s)
    draws = forward_sample(two_point_model, s, 40000, seed=5)
    assert draws.shape == (40000, 1)
    # mean 0, variance theta^2 * 1 + var = 1 exactly for this dataset
    assert abs(draws.mean()) < 4.0 / np.sqrt(40000)
    assert draws.var() == pytest.approx(1.0, abs=0.03)
    # conditional structure: half the draws near each noised data point
    near_pos = np.count_nonzero(draws[:, 0] > 0)
    assert abs(near_pos / 40000 - 0.5) < 0.02


@pytest.mark.parametrize("n", [0, -3, True, 2.5, np.float64(4.0)])
def test_forward_sample_count_must_be_a_positive_integer(two_point_model, n):
    # True and 2.5 would otherwise reach numpy's own TypeError
    with pytest.raises(DomainError, match="^n must"):
        forward_sample(two_point_model, 0.4, n, seed=5)


def test_gls_init_matches_manual_moments(gmm_model):
    s = 0.3
    theta, var = gmm_model._s_forward(s)
    init = gls_init(gmm_model, s)
    pts = gmm_model.dataset.points
    assert np.allclose(init.mean, theta * pts.mean(axis=0), atol=1e-14)
    manual = theta ** 2 * np.cov(pts, rowvar=False, ddof=0) \
        + var * np.eye(2)
    assert np.allclose(init.covariance, manual, atol=1e-14)
    assert not init.jittered
    assert np.allclose(init.cholesky @ init.cholesky.T, init.covariance,
                       atol=1e-12)


def test_gls_init_monte_carlo_cross_check(gmm_model):
    s = 0.3
    exact = gls_init(gmm_model, s)
    n = 200000
    mean, cov = oracles.mc_moments(gmm_model, s, n, seed=9)
    # elementwise 3-sigma bands for mean and covariance entries
    sd = np.sqrt(np.diag(exact.covariance))
    assert np.all(np.abs(mean - exact.mean) < 3.0 * sd / np.sqrt(n))
    cov_tol = 3.0 * np.outer(sd, sd) * np.sqrt(2.0 / n)
    assert np.all(np.abs(cov - exact.covariance) < 3.0 * cov_tol)


def test_gls_init_jitter_flag(embedded_2d_model):
    # at s = 1e-17 the noise variance 1 - theta^2 rounds to 0, so the
    # covariance of the line data {(-1, 0), (1, 0)} is singular: factorization
    # needs the documented one-shot jitter
    init = gls_init(embedded_2d_model, 1e-17)
    assert init.covariance[1, 1] == 0.0
    assert init.jittered
    assert np.allclose(init.cholesky @ init.cholesky.T,
                       np.diag([1.0 + 1e-10, 1e-10]), rtol=1e-12, atol=0.0)


def test_identical_config_reproduces_bits(two_point_model):
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=50, s_start=1.0, seed=3)
    a = sample_stochastic(two_point_model, cfg, 32)
    b = sample_stochastic(two_point_model, cfg, 32)
    assert np.array_equal(a.finals, b.finals)
    c = sample_stochastic(
        two_point_model,
        SamplerConfig(kind="stochastic_sde", n_steps=50, s_start=1.0, seed=4),
        32)
    assert not np.array_equal(a.finals, c.finals)


def test_chains_are_independent_of_batch_size(two_point_model):
    # chain i's stream is keyed (seed, i): a bigger batch must reproduce
    # the smaller batch as a prefix, in 1-D and on a D=64 hypersphere
    sphere = ExactScoreModel(hypersphere(64, 1.0, 96, 4), VpSchedule())
    for model, n_steps in ((two_point_model, 40), (sphere, 8)):
        for kind in ("stochastic_sde", "ancestral_ddpm", "ddim"):
            for init in ("standard_normal", "gls"):
                cfg = SamplerConfig(kind=kind, n_steps=n_steps, s_start=0.6,
                                    init=init, seed=8)
                runs = {n: run_sampler(model, cfg, n, keep_trajectories=True)
                        for n in (1, 5, 11, 24)}
                # init states are per-row for any batch sizes: the gls
                # transform must stay a stacked mat-vec, not a GEMM
                for n in (1, 5, 11):
                    assert np.array_equal(runs[24].trajectories[:n, 0],
                                          runs[n].trajectories[:, 0]), (kind, init, n)
                # the steps go through BLAS in the posterior kernel, which at
                # D=64 rounds alike only for nearby batch sizes: compare 5, 11
                assert np.array_equal(runs[11].finals[:5], runs[5].finals), (kind, init)
                assert np.array_equal(runs[11].trajectories[:5],
                                      runs[5].trajectories), (kind, init)


def test_trajectories_shape_and_init(embedded_2d_model):
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=30, s_start=1.0, seed=1)
    run = sample_stochastic(embedded_2d_model, cfg, 7, keep_trajectories=True)
    assert run.trajectories.shape == (7, 31, 2)
    assert np.array_equal(run.trajectories[:, 0],
                          run.trajectories[:, 0])
    # standard-normal init: step-0 states are the raw draws
    assert np.all(np.abs(run.trajectories[:, 0]) < 6.0)
    assert run.finals.shape == (7, 2)


def test_init_modes_agree_at_full_horizon(two_point_model):
    # at s_start = 1 the data moments are damped to theta(1) ~ 6.6e-3:
    # the moment-matched init is the standard normal to < 1e-3
    init = gls_init(two_point_model, 1.0)
    assert np.all(np.abs(init.mean) < 1e-3)
    assert np.all(np.abs(init.covariance - np.eye(1)) < 1e-3)


def test_downstream_metrics_agree_at_full_horizon(two_point_model):
    base = SamplerConfig(kind="stochastic_sde", n_steps=200, s_start=1.0,
                         seed=12)
    gls = SamplerConfig(kind="stochastic_sde", n_steps=200, s_start=1.0,
                        init="gls", seed=12)
    a = sample_stochastic(two_point_model, base, 2000).finals
    b = sample_stochastic(two_point_model, gls, 2000).finals
    # same seed, near-identical init law: summary stats agree within MC noise
    assert abs(a.mean() - b.mean()) < 0.1
    assert abs(a.var() - b.var()) < 0.1


def test_two_phase_variance_then_split(two_point_model):
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=500, s_start=1.0,
                        seed=0)
    run = sample_stochastic(two_point_model, cfg, 2000,
                            keep_trajectories=True)
    theta_grid = two_point_model.schedule.theta_at(np.abs(run.s_grid))
    var_per_node = run.trajectories[:, :, 0].var(axis=0)
    early = theta_grid < oracles.THETA_C_1D - 0.05
    assert np.all(np.abs(var_per_node[early] - 1.0) < 0.1)
    finals = run.finals[:, 0]
    # committed endpoints: everything lands on the data points
    assert np.all(np.abs(np.abs(finals) - 1.0) < 1e-6)
    # bimodality coefficient of a symmetric two-point sample is ~1,
    # far above the Gaussian value 1/3
    b = (stats.skew(finals) ** 2 + 1.0) / (stats.kurtosis(finals) + 3.0)
    assert b > 5.0 / 9.0


def test_mode_split_is_balanced(two_point_model):
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=10, s_start=1.0,
                        seed=2)
    run = sample_stochastic(two_point_model, cfg, 4000)
    p = np.count_nonzero(run.finals[:, 0] > 0) / 4000
    assert abs(p - 0.5) < 3.0 * 0.5 / np.sqrt(4000)


def test_ddim_is_deterministic_given_the_init(two_point_model):
    cfg = SamplerConfig(kind="ddim", n_steps=64, s_start=1.0, seed=5)
    a = sample_ddim(two_point_model, cfg, 50)
    b = sample_ddim(two_point_model, cfg, 50)
    assert np.array_equal(a.finals, b.finals)


def test_ddim_step_refinement_converges(two_point_model):
    coarse = sample_ddim(two_point_model, SamplerConfig(
        kind="ddim", n_steps=500, s_start=1.0, seed=5), 200)
    fine = sample_ddim(two_point_model, SamplerConfig(
        kind="ddim", n_steps=1000, s_start=1.0, seed=5), 200)
    rms = np.sqrt(np.mean((coarse.finals - fine.finals) ** 2))
    assert rms < 1e-2


def test_stochastic_refinement_is_monotone_up_to_noise(two_point_model):
    def mean_abs_mode_error(finals):
        return float(np.mean(np.abs(np.abs(finals[:, 0]) - 1.0)))

    means, stds = {}, {}
    for n in (3, 10, 1000):
        vals = []
        for r in range(5):
            cfg = SamplerConfig(kind="stochastic_sde", n_steps=n,
                                s_start=1.0, seed=100 + r)
            vals.append(mean_abs_mode_error(
                sample_stochastic(two_point_model, cfg, 400).finals))
        means[n] = np.mean(vals)
        stds[n] = np.std(vals, ddof=1)
    margin = 3.0 * max(stds.values())
    assert means[1000] <= means[10] + margin
    assert means[10] <= means[3] + margin


def test_run_sampler_dispatch(two_point_model):
    run = run_sampler(two_point_model, SamplerConfig(
        kind="ddim", n_steps=5, s_start=1.0, seed=0), 3)
    assert run.finals.shape == (3, 1)
    run = run_sampler(two_point_model, SamplerConfig(
        kind="ancestral_ddpm", n_steps=5, s_start=1.0, seed=0), 3)
    assert run.finals.shape == (3, 1)


def test_ancestral_matches_sde_statistics(two_point_model):
    # both stochastic kinds target the same reverse process; at a fine
    # grid their final-mode statistics agree
    S = 2000
    sde = sample_stochastic(two_point_model, SamplerConfig(
        kind="stochastic_sde", n_steps=400, s_start=1.0, seed=6), S)
    anc = sample_stochastic(two_point_model, SamplerConfig(
        kind="ancestral_ddpm", n_steps=400, s_start=1.0, seed=7), S)
    p_sde = np.count_nonzero(sde.finals[:, 0] > 0) / S
    p_anc = np.count_nonzero(anc.finals[:, 0] > 0) / S
    assert abs(p_sde - p_anc) < 6.0 * 0.5 / np.sqrt(S)
    assert np.all(np.abs(np.abs(anc.finals) - 1.0) < 1e-6)


def test_divergence_is_reported(two_point_model):
    # a absurdly stiff schedule blows Euler steps up to non-finite values
    stiff = ExactScoreModel(two_point_1d(),
                            VpSchedule(beta_min=0.1, beta_max=1e8))
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=200, s_start=1.0,
                        seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DivergedError):
            sample_stochastic(stiff, cfg, 4)


def test_overflowing_state_is_reported_as_diverged():
    # the shifted posterior kernel stays finite on states near 1e279; their
    # squared norm does not, and that is what the sampler's guard checks
    stiff = ExactScoreModel(two_point_1d(), VpSchedule(beta_max=1e8))
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=50, s_start=1.0)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergedError):
            run_sampler(stiff, cfg, 4)


def test_divergence_guard_checks_every_row():
    # one max-abs pass clears a batch whose entries cannot overflow a squared
    # norm; past that bound the exact per-row check decides
    with pytest.raises(DivergedError):  # finite, but |x|^2 = 2.56e308
        samplers._check_finite(np.full((3, 64), 2e153) * [[0.0], [1.0], [0.0]], 7)
    with pytest.raises(DivergedError):
        samplers._check_finite(np.array([[0.5, 1.0], [np.nan, 0.0], [2.0, 3.0]]), 7)
    for big in (8e152, 1e153):  # |x|^2 up to 6.4e307 < 1.8e308: safe
        samplers._check_finite(np.full((3, 64), big) * [[0.0], [1.0], [-1.0]], 7)


def test_sweep_shapes_and_common_random_numbers(two_point_model):
    grid = [0.2, 0.5, 1.0]
    metric = lambda finals: float(np.mean(finals ** 2))
    out = late_start_sweep(two_point_model, "stochastic_sde", 10, grid,
                           metric, batch=100, seed=3, repeats=2)
    assert out.values.shape == (2, 3)
    assert np.array_equal(out.s_start_grid, grid)
    again = late_start_sweep(two_point_model, "stochastic_sde", 10, grid,
                             metric, batch=100, seed=3, repeats=2)
    assert np.array_equal(out.values, again.values)
    assert out.mean().shape == (3,)
    assert out.std().shape == (3,)
    single = late_start_sweep(two_point_model, "stochastic_sde", 10, grid,
                              metric, batch=100, seed=3, repeats=1)
    assert np.all(single.std() == 0.0)


def test_sweep_validation(two_point_model):
    metric = lambda finals: 0.0
    with pytest.raises(ShapeError):
        late_start_sweep(two_point_model, "stochastic_sde", 10, [], metric)
    with pytest.raises(DomainError):
        late_start_sweep(two_point_model, "stochastic_sde", 10, [0.5],
                         metric, repeats=0)
    calls = []
    count = lambda finals: calls.append(1) or 0.0
    with pytest.raises(DomainError):  # repeat 1 would key seed 2**64
        late_start_sweep(two_point_model, "stochastic_sde", 10, [0.5],
                         count, seed=2 ** 64 - 1, repeats=2)
    with pytest.raises(DomainError):  # s_start 1e-5 is below s_min
        late_start_sweep(two_point_model, "stochastic_sde", 10, [0.5, 1e-5],
                         count)
    with pytest.raises(DomainError):  # s_min not below the late point's last node
        late_start_sweep(two_point_model, "stochastic_sde", 10, [0.5, 0.005],
                         count, s_min=6e-4)
    with pytest.raises(DomainError):  # not numpy's ValueError from the draw
        late_start_sweep(two_point_model, "stochastic_sde", 10, [0.5],
                         count, batch=-1)
    assert calls == []


@pytest.mark.parametrize("kind", ["stochastic_sde", "ancestral_ddpm", "ddim"])
@pytest.mark.parametrize("init", ["standard_normal", "gls"])
@pytest.mark.parametrize("model_name", ["two_point_model", "gmm_model"])
def test_sweep_draws_once_per_repeat_and_matches_runs(request, monkeypatch,
                                                      kind, init, model_name):
    model = request.getfixturevalue(model_name)
    grid = [0.2, 0.5, 1.0]
    draws = []
    real = samplers.chain_normals

    def counting(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(samplers, "chain_normals", counting)
    metric = lambda finals: float(np.sum(finals * [1.0, 0.3][:finals.shape[1]]))
    out = late_start_sweep(model, kind, 8, grid, metric, init=init, batch=9,
                           seed=4, repeats=2)
    assert len(draws) == 2
    for r in range(2):
        for i, s0 in enumerate(grid):
            cfg = SamplerConfig(kind=kind, n_steps=8, s_start=s0, init=init,
                                seed=4 + r)
            assert out.values[r, i] == metric(run_sampler(model, cfg, 9).finals)


def test_shared_normals_are_read_only(gmm_model, monkeypatch):
    draws = []
    real = samplers.chain_normals
    monkeypatch.setattr(samplers, "chain_normals",
                        lambda *args: draws.append(real(*args)) or draws[-1])
    errors = []

    def tamper(finals):
        try:
            draws[0][:] = 0.0
        except ValueError as exc:
            errors.append(exc)
        return float(finals.sum())

    grid = [0.3, 0.6]
    out = late_start_sweep(gmm_model, "ancestral_ddpm", 6, grid, tamper,
                           batch=5, seed=2)
    assert len(errors) == 2
    cfg = SamplerConfig(kind="ancestral_ddpm", n_steps=6, s_start=0.6, seed=2)
    monkeypatch.undo()
    assert out.values[0, 1] == float(run_sampler(gmm_model, cfg, 5).finals.sum())


@pytest.mark.parametrize("kind", ["stochastic_sde", "ddim"])
def test_given_normals_reproduce_the_run(gmm_model, kind):
    cfg = SamplerConfig(kind=kind, n_steps=6, s_start=0.7, init="gls", seed=9)
    width = (1 + (6 if kind != "ddim" else 0)) * gmm_model.dataset.dim
    z = chain_normals(9, 5, width)
    given = run_sampler(gmm_model, cfg, 5, keep_trajectories=True, normals=z)
    own = run_sampler(gmm_model, cfg, 5, keep_trajectories=True)
    assert np.array_equal(given.finals, own.finals)
    assert np.array_equal(given.trajectories, own.trajectories)
    for bad in (z[:4], z[:, :-1], z[:, :, None]):
        with pytest.raises(ShapeError):
            run_sampler(gmm_model, cfg, 5, normals=bad)


def _spy_blocks(monkeypatch) -> list:
    """(name, widths) of each `chain_normals` and `chain_blocks` call a
    sampler makes, in order."""
    drawn, normals, blocks = [], samplers.chain_normals, samplers.chain_blocks

    def spy_normals(seed, chains, per_chain):
        drawn.append(("chain_normals", [per_chain]))
        return normals(seed, chains, per_chain)

    def spy_blocks(seed, chains, widths):
        drawn.append(("chain_blocks", list(widths)))
        return blocks(seed, chains, drawn[-1][1])

    monkeypatch.setattr(samplers, "chain_normals", spy_normals)
    monkeypatch.setattr(samplers, "chain_blocks", spy_blocks)
    return drawn


@pytest.fixture(scope="module")
def sphere16_model(schedule):
    return ExactScoreModel(hypersphere(16, 1.0, 96, seed=4), schedule)


@pytest.mark.parametrize("model_name",
                         ["two_point_model", "gmm_model", "sphere16_model"])
def test_noise_chunks_do_not_change_the_run(request, monkeypatch, model_name):
    # each chunk resumes its chains' streams, so the bytes of a run do not
    # depend on the noise budget, down to one step per chunk (chunks of
    # these runs are too narrow unless a chunk may hold one float per chain)
    model = request.getfixturevalue(model_name)
    d, batch, n_steps = model.dataset.dim, 5, 7
    budgets = (1, batch * d, 3 * batch * d, samplers._NOISE_BUDGET)
    monkeypatch.setattr(samplers, "_STREAM_FLOATS", 1)
    drawn = _spy_blocks(monkeypatch)
    for kind in ("stochastic_sde", "ancestral_ddpm", "ddim"):
        for init in ("standard_normal", "gls"):
            cfg = SamplerConfig(kind=kind, n_steps=n_steps, s_start=0.6,
                                init=init, seed=12)
            width = (1 + (n_steps if kind != "ddim" else 0)) * d
            want = run_sampler(model, cfg, batch, keep_trajectories=True,
                               normals=chain_normals(12, batch, width))
            for budget in budgets:
                monkeypatch.setattr(samplers, "_NOISE_BUDGET", budget)
                drawn.clear()
                got = run_sampler(model, cfg, batch, keep_trajectories=True)
                whole = kind == "ddim" or budget == budgets[-1]
                assert [name for name, _ in drawn] == [
                    "chain_normals" if whole else "chain_blocks"], (kind, budget)
                assert np.array_equal(got.finals, want.finals), (kind, init, budget)
                assert np.array_equal(got.trajectories, want.trajectories), (
                    kind, init, budget)
                if budget == 1 and kind != "ddim":  # one step per chunk
                    assert drawn[-1][1][-n_steps + 1:] == [d] * (n_steps - 1)


@pytest.mark.parametrize("n_steps, widths", [
    (20, ("chain_normals", [42])), (100, ("chain_blocks", [2, 80, 80, 40]))])
def test_chunks_are_at_least_a_stream_wide(gmm_model, monkeypatch, n_steps,
                                           widths):
    # a budget of one step per chunk for 5 chains in D=2 still gives each
    # chunk 40 steps, 80 floats per chain, so 20 steps are drawn whole, in
    # one `chain_normals` call; a chunked run draws its init alone, for
    # either init
    drawn = _spy_blocks(monkeypatch)
    monkeypatch.setattr(samplers, "_NOISE_BUDGET", 10)
    for init in ("standard_normal", "gls"):
        drawn.clear()
        cfg = SamplerConfig(kind="ancestral_ddpm", n_steps=n_steps,
                            s_start=0.6, init=init, seed=3)
        run_sampler(gmm_model, cfg, 5)
        assert drawn == [widths], init


@pytest.fixture(scope="module")
def sphere64_model(schedule):
    return ExactScoreModel(hypersphere(64, 1.0, 96, seed=4), schedule)


def test_wide_chunks_are_one_step(sphere64_model, monkeypatch):
    # at D = 64 a chunk of at most 80 floats per chain is one step, 64
    # floats, and the chunked run's bytes are those of one whole draw
    drawn = _spy_blocks(monkeypatch)
    monkeypatch.setattr(samplers, "_NOISE_BUDGET", 10)
    n_steps = 3
    for init in ("standard_normal", "gls"):
        cfg = SamplerConfig(kind="ancestral_ddpm", n_steps=n_steps,
                            s_start=0.6, init=init, seed=3)
        drawn.clear()
        got = run_sampler(sphere64_model, cfg, 5, keep_trajectories=True)
        assert drawn == [("chain_blocks", [64] * (n_steps + 1))], init
        want = run_sampler(sphere64_model, cfg, 5, keep_trajectories=True,
                           normals=chain_normals(3, 5, 64 * (n_steps + 1)))
        assert np.array_equal(got.trajectories, want.trajectories), init


def test_one_step_chunks_hold_no_noise_through_a_kernel_pass(
        sphere64_model, monkeypatch):
    # each one-step chunk is gone with its step, and the run drops the last
    # one, which `chain_blocks` holds, before the final jump; the gls init
    # replaces the init block, so no kernel pass runs beside a noise block
    refs, live = [], []
    blocks, mean = samplers.chain_blocks, ExactScoreModel.posterior_mean_batch

    def spy_blocks(seed, chains, widths):  # a map holds no block it yielded
        return map(lambda block: refs.append(weakref.ref(block)) or block,
                   blocks(seed, chains, widths))

    def spy_mean(self, X, s):
        live.append(sum(ref() is not None for ref in refs))
        return mean(self, X, s)

    monkeypatch.setattr(samplers, "chain_blocks", spy_blocks)
    monkeypatch.setattr(samplers, "_NOISE_BUDGET", 10)
    monkeypatch.setattr(ExactScoreModel, "posterior_mean_batch", spy_mean)
    cfg = SamplerConfig(kind="ancestral_ddpm", n_steps=3, s_start=0.6,
                        init="gls", seed=3)
    run_sampler(sphere64_model, cfg, 5)
    assert len(refs) == 4 and live == [0] * 4, (len(refs), live)


def _made(value, refs):
    """A (3, 4) block of `value`, weakly referenced in `refs`; made here, so
    that no name of its caller holds it."""
    block = np.full((3, 4), float(value))
    refs.append(weakref.ref(block))
    return block


def test_step_noise_drops_each_block_with_its_last_step():
    # no name in `_step_noise` holds a block once its last step is handed
    # out, so a run of one-step chunks holds no noise through a kernel pass
    refs = []
    noise = samplers._step_noise((_made(j, refs) for j in range(2)), 2)
    for j in range(2):
        step = next(noise)
        assert len(refs) == j + 1 and np.all(step == j)
        del step
        assert refs[j]() is not None  # its second step is still to come
        step = next(noise)
        assert np.all(step == j)
        del step
        assert refs[j]() is None and len(refs) == j + 1, j
    assert next(noise, None) is None


def test_step_noise_yields_nothing_for_an_empty_block():
    # a ddim run's block, (batch, 0): no steps, no noise
    assert list(samplers._step_noise(iter([np.empty((3, 0))]), 2)) == []


def _run_peak(model, cfg, batch):
    gc.collect()  # untraced free-list objects would move the peak
    tracemalloc.start()
    try:
        run_sampler(model, cfg, batch)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_memory_does_not_grow_with_n_steps(schedule):
    # 100 steps of noise for 2000 chains in D=8 are 12.8 MB and 1000 steps
    # 128 MB; drawn in chunks, the run's peak holds one chunk either way,
    # and the chains' bare Philox streams, about 385 bytes each
    model = ExactScoreModel(hypersphere(8, 1.0, 256, seed=4), schedule)
    peaks = {}
    for n_steps in (100, 1000):
        cfg = SamplerConfig(kind="stochastic_sde", n_steps=n_steps,
                            s_start=1.0, seed=6)
        peaks[n_steps] = _run_peak(model, cfg, 2000)
    assert peaks[1000] - peaks[100] < 0.5e6, peaks
    assert peaks[100] < 3.7e6, peaks


def test_wide_sphere_run_memory_is_bounded(schedule):
    # 512 chains on the N = 2048, D = 64 sphere: the kernel's operand is the
    # model's, a step updates the kernel's output in place, and a noise
    # chunk is one step, 64 floats per chain, drawn apart from the gls
    # init's and gone before the next kernel pass; the run holds the state,
    # one posterior mean, the kernel's 1 MB block and the chains' bare
    # Philox streams, about 1.8 MB
    model = ExactScoreModel(hypersphere(64, 1.0, 2048, seed=1), schedule)
    cfg = SamplerConfig(kind="ancestral_ddpm", n_steps=30, s_start=0.3,
                        init="gls", seed=11)
    peak = _run_peak(model, cfg, 512)
    assert peak < 2.0e6, peak


def test_fast_ddim_run_memory_is_bounded(schedule):
    # criterion 8's shape: 6000 chains in D = 2, 10 DDIM steps from a gls
    # init; the state, one posterior mean, one step temporary and the
    # kernel's 1 MB block, about 1.4 MB
    model = ExactScoreModel(gaussian_mixture(
        [[2.4, 0.6], [0.9, -0.4], [-1.6, 0.8], [-0.4, -2.0]], 0.1, 16,
        seed=7), schedule)
    cfg = SamplerConfig(kind="ddim", n_steps=10, s_start=0.5, init="gls",
                        seed=0)
    peak = _run_peak(model, cfg, 6000)
    assert peak < 1.5e6, peak


@pytest.mark.parametrize("kind", ["stochastic_sde", "ancestral_ddpm", "ddim"])
@pytest.mark.parametrize("init", ["standard_normal", "gls"])
@pytest.mark.parametrize("model_name", ["two_point_model", "gmm_model"])
def test_every_step_follows_the_textbook_rule(request, kind, init, model_name):
    # the 100-step grid from 1.0 ends in a stiff step into s_min, beta*dt/var
    # about 1.5; the cases loop here so that the test ids stay as they were
    model = request.getfixturevalue(model_name)
    sched, d, batch = model.schedule, model.dataset.dim, 7

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for n_steps, s_start in ((3, 0.8), (100, 1.0)):
        cfg = SamplerConfig(kind=kind, n_steps=n_steps, s_start=s_start,
                            init=init, seed=3)
        z = chain_normals(5, batch, (1 + (n_steps if kind != "ddim" else 0)) * d)
        run = run_sampler(model, cfg, batch, keep_trajectories=True, normals=z)
        start = z[:, :d]
        if init == "gls":
            g = gls_init(model, cfg.s_start)
            start = g.mean + start @ g.cholesky.T
        assert close(run.trajectories[:, 0], start)
        for i, (s, s_next) in enumerate(zip(run.s_grid[:-1], run.s_grid[1:])):
            x, noise = run.trajectories[:, i], z[:, d * (i + 1):d * (i + 2)]
            abar, abar_next = sched.theta_at(s) ** 2, sched.theta_at(s_next) ** 2
            if kind == "stochastic_sde":
                want = oracles.euler_maruyama_step(
                    x, model.score_batch(x, s), sched.beta_at(s), s - s_next,
                    noise)
            elif kind == "ancestral_ddpm":
                want = oracles.ddpm_posterior_step(
                    x, model.posterior_mean_batch(x, s), abar, abar_next, noise)
            else:
                want = oracles.ddim_step(x, model.posterior_mean_batch(x, s),
                                         abar, abar_next)
            assert close(run.trajectories[:, i + 1], want), (n_steps, i, s)
        assert close(run.finals, model.posterior_mean_batch(
            run.trajectories[:, -1], run.s_grid[-1]))


def test_knee_flat_then_quadratic():
    s = np.linspace(0.1, 1.0, 10)
    join = 0.4
    y = np.where(s > join, 0.0, (join - s) ** 2 * 50.0)
    knee = estimate_knee(s, y[::1])
    assert knee.s_start == pytest.approx(join, abs=0.101)
    assert not knee.low_confidence


def test_knee_monotone_line_is_low_confidence():
    s = np.linspace(0.1, 1.0, 10)
    y = 2.0 - s
    knee = estimate_knee(s, y)
    assert knee.low_confidence
    assert 0.1 < knee.s_start < 1.0
    assert abs(knee.second_difference) < 1e-9


def test_knee_tie_breaks_toward_late_start():
    # two convex kinks of identical angle at s=0.25 and s=0.75; dyadic
    # grid values keep the tie exact in floating point
    s = np.arange(9) * 0.125
    y = np.maximum(0.25 - s, 0.0) + np.maximum(s - 0.75, 0.0)
    knee = estimate_knee(s, y)
    assert knee.s_start == pytest.approx(0.75)


def test_knee_needs_five_points():
    with pytest.raises(DomainError):
        estimate_knee([0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ShapeError):
        estimate_knee([0.1, 0.2, 0.3, 0.4, 0.5], [1.0, 2.0])


@pytest.mark.parametrize("grid", [[0.2, 0.2, 0.4, 0.6, 0.8],
                                  [0.2, 0.6, 0.4, 0.8, 1.0]])
def test_knee_rejects_unsorted_grid(grid):
    with pytest.raises(DomainError, match="strictly increasing"):
        estimate_knee(grid, [5.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_knee_rejects_non_finite_input(bad):
    s = [0.2, 0.4, 0.6, 0.8, 1.0]
    with pytest.raises(DomainError):
        estimate_knee(s, [5.0, 1.0, bad, 1.0, 1.0])
    with pytest.raises(DomainError):
        estimate_knee([0.2, 0.4, bad, 0.8, 1.0], [5.0, 1.0, 1.0, 1.0, 1.0])
