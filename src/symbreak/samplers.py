"""Generative samplers driven by the exact score.

All samplers walk a grid of forward times equally spaced from s_start down
to 0, with the final node replaced by s_min (the s = 0 kernel is atomic),
and finish with a posterior-mean jump E[Y0 | x] at s_min.  With the exact
score (theta E[Y0 | x] - x) / var, every kind's step is affine in the state
and the denoiser output, x' = a x + b E[Y0 | x] + c z, with theta and
var = 1 - theta^2 at s_i, theta' and var' at s_{i+1}, and q = var' / var:
- Euler-Maruyama on the reverse SDE, h = beta(s_i) (s_i - s_{i+1}):
  a = 1 + h (1/2 - 1/var), b = h theta / var, c = sqrt(h);
- the DDPM posterior draw (Ho et al., 2020), alpha = theta^2 / theta'^2:
  a = sqrt(alpha) q, b = theta' (1 - alpha) / var, c = sqrt((1 - alpha) q);
- DDIM at eta = 0 (Song et al., 2021): a = sqrt(q), b = theta' - theta a.
`_step_coefficients` computes them for all steps once per run.  A step turns
the kernel's output into the next state in place, so a run holds the state,
one posterior mean, one temporary, the kernel's block and its noise.
Chain i draws all of its randomness from the counter-based stream keyed
(seed, i), so a batch is bit-reproducible regardless of execution order or
thread count.  Row i of a run's noise is stream (seed, i), init first: a
run whose noise fits _NOISE_BUDGET draws it whole with `rng.chain_normals`,
and a longer run draws its init alone and then chunks of at least
_STREAM_FLOATS floats per chain with `rng.chain_blocks`, so its memory does
not depend on n_steps.  `late_start_sweep` draws repeat r's whole batch
once with `rng.chain_normals`, read-only, and every grid point of that
repeat reuses it through `run_sampler(..., normals=...)`; row i is still
stream (seed + r, i), so each grid point's finals equal a standalone run's.

Initialization is either a standard normal or a moment-matched Gaussian
("gls"): mean theta*mean(data), covariance theta^2*Cov(data) + (1-theta^2)I,
the exact first two moments of the noised marginal at s_start.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import (DivergedError, DomainError, FactorizationError,
                     ShapeError, check_count, check_real)
from .exact_score import _BLOCK_ENTRIES, ExactScoreModel, _sq_norms
from .rng import chain_blocks, chain_normals, check_seed, stream
from .schedule import VpSchedule

_KINDS = ("stochastic_sde", "ancestral_ddpm", "ddim")
_INITS = ("standard_normal", "gls")
KNEE_MIN_POINTS = 5  # fewest grid points estimate_knee accepts
# A run draws its step noise whole when that is at most the kernel's 1 MB
# budget of floats or ceil(_STREAM_FLOATS / d) steps, else in such chunks.
_NOISE_BUDGET = _BLOCK_ENTRIES
# A chunked run keeps one bare Philox per chain, about 385 bytes, and pays a
# Python call per chain per chunk, which a chunk of this many floats (640
# bytes) amortizes; a narrower one would save little memory for much time.
_STREAM_FLOATS = 80


@dataclass(frozen=True)
class SamplerConfig:
    kind: str
    n_steps: int
    s_start: float
    init: str = "standard_normal"
    s_min: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown sampler kind {self.kind!r}; "
                              f"expected one of {_KINDS}")
        if self.init not in _INITS:
            raise DomainError(f"unknown init {self.init!r}; "
                              f"expected one of {_INITS}")
        check_count(self.n_steps, "n_steps", 1)
        if check_real(self.s_start, "s_start") > VpSchedule.horizon:
            raise DomainError(f"s_start must lie in (0, {VpSchedule.horizon}], "
                              f"got {self.s_start!r}")
        if not 0 < check_real(self.s_min, "s_min") < self.s_start:
            raise DomainError("need 0 < s_min < s_start")
        check_seed(self.seed)


@dataclass(frozen=True)
class GaussianInit:
    mean: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray
    jittered: bool = False


@dataclass(frozen=True)
class SamplerRun:
    config: SamplerConfig
    s_grid: np.ndarray  # forward times, s_start down to s_min, n_steps+1 nodes
    finals: np.ndarray  # (S, D) after the posterior-mean jump
    trajectories: Optional[np.ndarray] = None  # (S, n_steps+1, D) grid states


def forward_sample(model: ExactScoreModel, s: float, n: int,
                   seed: int) -> np.ndarray:
    """n exact draws from the noised marginal at forward time s."""
    check_count(n, "n", 1)
    theta, var = model._s_forward(s)
    rng = stream(seed)
    idx = rng.integers(0, model.dataset.n_points, size=n)
    return (theta * model.dataset.points[idx]
            + np.sqrt(var) * rng.standard_normal((n, model.dataset.dim)))


def gls_init(model: ExactScoreModel, s_start: float) -> GaussianInit:
    """Moment-matched Gaussian at s_start, with the noised marginal's exact
    mean and covariance."""
    theta, var = model._s_forward(s_start)
    pts = model.dataset.points
    d = model.dataset.dim
    mean = theta * pts.mean(axis=0)
    cov = (theta * theta * np.cov(pts, rowvar=False, ddof=0).reshape(d, d)
           + var * np.eye(d))
    jittered = False
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        jittered = True
        try:
            chol = np.linalg.cholesky(cov + 1e-10 * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                "init covariance not factorizable even after 1e-10 jitter") from exc
    return GaussianInit(mean, cov, chol, jittered)


def _build_grid(model: ExactScoreModel, config: SamplerConfig) -> np.ndarray:
    grid = model.schedule.discrete_grid(config.n_steps, config.s_start)
    if config.n_steps > 1 and grid[-2] <= config.s_min:
        raise DomainError(
            f"s_min={config.s_min} is not below the last interior node "
            f"{grid[-2]:.3g}; reduce s_min or n_steps")
    grid = grid.copy()
    grid[-1] = config.s_min
    return grid


def _normals_shape(model: ExactScoreModel, config: SamplerConfig,
                   batch: int) -> tuple[int, int]:
    """(batch, (1 + n_noise) * d), a run's whole draw; ddim's n_noise is 0."""
    check_count(batch, "batch", 1)
    return batch, (1 + config.n_steps * (config.kind != "ddim")) * model.dataset.dim


def _step_noise(blocks: Iterator[np.ndarray], d: int) -> Iterator[np.ndarray]:
    """Each step's (batch, d) noise, from each of `blocks` in turn.  Each
    block is dropped before the next is drawn."""
    chunk = next(blocks, None)
    while chunk is not None:
        for j in range(0, chunk.shape[1], d):
            yield chunk[:, j:j + d]
        chunk = None
        chunk = next(blocks, None)


def _draw_chains(model: ExactScoreModel, config: SamplerConfig, batch: int,
                 normals: Optional[np.ndarray]
                 ) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """Per-chain init states and each step's noise, from streams keyed
    (seed, chain), or from `normals` once its shape is checked.

    Chain i's init is the first d normals of its stream and its step noise
    the next n_noise * d.  A run whose n_noise is at most
    max(_NOISE_BUDGET // (batch * d), k) steps, k = ceil(_STREAM_FLOATS / d),
    takes `chain_normals` as its `normals`.  A longer run draws its init
    alone, then k steps at a time as they are used, from `chain_blocks`,
    whose rows resume where they stopped, so the bytes are the same either
    way.  Given `normals` are only read, so they may be shared.
    """
    d, shape = model.dataset.dim, _normals_shape(model, config, batch)
    n_noise, k = shape[1] // d - 1, -(-_STREAM_FLOATS // d)
    if normals is None and n_noise <= max(_NOISE_BUDGET // (batch * d), k):
        normals = chain_normals(config.seed, *shape)
    if normals is None:
        blocks = chain_blocks(config.seed, batch, [d] + [
            min(k, n_noise - j) * d for j in range(0, n_noise, k)])
        init = next(blocks)
    else:
        z = np.asarray(normals, dtype=np.float64)
        if z.shape != shape:
            raise ShapeError(f"normals have shape {z.shape}, expected {shape}")
        init, blocks = z[:, :d], iter([z[:, d:]])
    if config.init == "gls":
        ginit = gls_init(model, config.s_start)
        # stacked mat-vec, bit-equal per row to L @ z; z @ L.T is a GEMM
        # whose rounding may depend on the batch and break the prefix property
        init = ginit.mean + np.matmul(ginit.cholesky, init[:, :, None])[:, :, 0]
    return init, _step_noise(blocks, d)


def _check_finite(X: np.ndarray, step: int) -> None:
    # A row whose squared norm overflows counts as diverged, though the
    # kernel's shifted logits stay finite far past it.  No entry above
    # sqrt(max / D) / 2 clears every row at once, 3-6x faster than the norms
    # at D = 2; a NaN or inf fails the comparison and makes its norm non-finite.
    if max(X.max(), -X.min()) < 0.5 * math.sqrt(sys.float_info.max / X.shape[1]):
        return
    if not np.all(np.isfinite(_sq_norms(X))):
        raise DivergedError(f"sampler state became non-finite at step {step}")


def _step_coefficients(kind: str, grid: np.ndarray, schedule: VpSchedule
                       ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Every step's a, b and c by `kind`'s rule in the module docstring;
    c is None for ddim, which draws no noise."""
    thetas = schedule.theta_at(grid)  # bit-equal to one scalar call per node
    th, th_next = thetas[:-1], thetas[1:]
    var = 1.0 - th * th
    q = (1.0 - th_next * th_next) / var
    if kind == "stochastic_sde":
        h = schedule.beta_at(grid[:-1]) * (grid[:-1] - grid[1:])
        return 1.0 + h * (0.5 - 1.0 / var), h * th / var, np.sqrt(h)
    if kind == "ancestral_ddpm":
        alpha = th * th / (th_next * th_next)
        return (np.sqrt(alpha) * q, th_next * (1.0 - alpha) / var,
                np.sqrt((1.0 - alpha) * q))
    a = np.sqrt(q)
    return a, th_next - th * a, None


def _run(model: ExactScoreModel, config: SamplerConfig, batch: int,
         keep_trajectories: bool, normals: Optional[np.ndarray]) -> SamplerRun:
    """Every kind's steps as x' = a x + b E[Y0 | x] + c z, one kernel pass
    each, updated in place; then the posterior-mean jump at s_min."""
    grid = _build_grid(model, config)
    X, noise = _draw_chains(model, config, batch, normals)
    a, b, c = _step_coefficients(config.kind, grid, model.schedule)
    traj = None
    if keep_trajectories:
        traj = np.empty((batch, config.n_steps + 1, model.dataset.dim))
        traj[:, 0] = X
    for i in range(config.n_steps):
        x_next = model.posterior_mean_batch(X, float(grid[i]))
        x_next *= b[i]
        tmp = X * a[i]
        x_next += tmp
        if c is not None:
            x_next += np.multiply(next(noise), c[i], out=tmp)
        del tmp  # held into the next step's kernel pass, it adds to the peak
        X = x_next
        _check_finite(X, i)
        if traj is not None:
            traj[:, i + 1] = X
    finals = model.posterior_mean_batch(X, float(grid[-1]))
    return SamplerRun(config, grid, finals, traj)


def sample_stochastic(model: ExactScoreModel, config: SamplerConfig,
                      batch: int, *, keep_trajectories: bool = False,
                      normals: Optional[np.ndarray] = None) -> SamplerRun:
    """Euler-Maruyama on the reverse SDE, or the DDPM posterior draw: the
    affine step of `_run` with the noise term c z.  `normals` replaces the
    run's own draw, as in `run_sampler`."""
    if config.kind not in ("stochastic_sde", "ancestral_ddpm"):
        raise DomainError("sample_stochastic handles the stochastic kinds; "
                          "use sample_ddim for ddim")
    return _run(model, config, batch, keep_trajectories, normals)


def sample_ddim(model: ExactScoreModel, config: SamplerConfig,
                batch: int, *, keep_trajectories: bool = False,
                normals: Optional[np.ndarray] = None) -> SamplerRun:
    """Deterministic probability-flow stepper (eta = 0); random only in init.
    `normals` replaces the run's own draw, as in `run_sampler`."""
    if config.kind != "ddim":
        raise DomainError("sample_ddim requires kind='ddim'")
    return _run(model, config, batch, keep_trajectories, normals)


def run_sampler(model: ExactScoreModel, config: SamplerConfig, batch: int, *,
                keep_trajectories: bool = False,
                normals: Optional[np.ndarray] = None) -> SamplerRun:
    """Run `batch` chains of `config`.

    `normals`, if given, replaces the run's own draw: a (batch,
    (1 + n_noise) * d) array, n_noise = n_steps for the stochastic kinds and
    0 for ddim, whose row i is chain i's init normals then its step noise.
    `rng.chain_normals(config.seed, ...)` of that shape reproduces the run
    bit for bit.  It is only read.  A wrong shape raises ShapeError.
    """
    runner = sample_ddim if config.kind == "ddim" else sample_stochastic
    return runner(model, config, batch, keep_trajectories=keep_trajectories,
                  normals=normals)


@dataclass(frozen=True)
class SweepResult:
    s_start_grid: np.ndarray
    values: np.ndarray  # (repeats, n_grid)

    def mean(self) -> np.ndarray:
        return self.values.mean(axis=0)

    def std(self) -> np.ndarray:
        return self.values.std(axis=0, ddof=1) if self.values.shape[0] > 1 \
            else np.zeros(self.values.shape[1])


def late_start_sweep(model: ExactScoreModel, kind: str, n_steps: int,
                     s_start_grid, metric: Callable[[np.ndarray], float], *,
                     init: str = "standard_normal", batch: int = 1000,
                     seed: int = 0, repeats: int = 1,
                     s_min: float = 1e-4) -> SweepResult:
    """Run the sampler at each s_start and score the finals with `metric`.

    Repeat r uses seed+r for every grid point (common random numbers across
    the grid, independent across repeats).  Its chain normals are drawn once,
    whole and read-only with `chain_normals`, as a lone run within its noise
    budget draws them, and every grid point of the repeat reuses them, so
    the sweep holds (batch, (1 + n_noise) * d) floats however long the run
    is, where a longer lone run holds a bounded chunk; row i is still stream
    (seed+r, i), so each value equals `metric(run_sampler(...).finals)` of
    that grid point's own run.  Every grid point's config and time grid, and
    the batch, are checked before anything is sampled.
    """
    grid = np.asarray(s_start_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ShapeError("s_start_grid must be a nonempty 1D array")
    check_count(repeats, "repeats", 1)
    check_seed(seed)
    check_seed(seed + repeats - 1, "seed + repeats - 1")  # before any sampling

    def config(i: int, r: int) -> SamplerConfig:
        return SamplerConfig(kind=kind, n_steps=n_steps, s_start=float(grid[i]),
                             init=init, s_min=s_min, seed=seed + r)

    for i in range(grid.size):  # only the seed differs between repeats
        _build_grid(model, config(i, 0))
    values = np.empty((repeats, grid.size))
    for r in range(repeats):
        z = chain_normals(seed + r, *_normals_shape(model, config(0, r), batch))
        z.flags.writeable = False
        for i in range(grid.size):
            run = run_sampler(model, config(i, r), batch, normals=z)
            values[r, i] = float(metric(run.finals))
    return SweepResult(grid, values)


@dataclass(frozen=True)
class KneeEstimate:
    s_start: float
    index: int
    second_difference: float
    low_confidence: bool


def estimate_knee(s_start_grid, metric_values) -> KneeEstimate:
    """Grid point maximizing the discrete second difference of the curve.

    Ties break toward the largest s_start.  A curve with no curvature
    (max second difference tiny relative to the values) is flagged
    low-confidence.
    """
    s = np.asarray(s_start_grid, dtype=np.float64)
    y = np.asarray(metric_values, dtype=np.float64)
    if s.shape != y.shape or s.ndim != 1:
        raise ShapeError("grid and values must be 1D arrays of equal length")
    if s.size < KNEE_MIN_POINTS:
        raise DomainError(
            f"estimate_knee requires at least {KNEE_MIN_POINTS} grid points")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(y))):
        raise DomainError("estimate_knee requires a finite grid and values")
    if np.any(s[1:] <= s[:-1]):  # a repeat divides by zero, a shuffle is meaningless
        raise DomainError("estimate_knee requires a strictly increasing grid")
    h_lo = s[1:-1] - s[:-2]
    h_hi = s[2:] - s[1:-1]
    d2 = 2.0 * ((y[2:] - y[1:-1]) / h_hi - (y[1:-1] - y[:-2]) / h_lo) / (h_hi + h_lo)
    best = int(np.flatnonzero(d2 == d2.max())[-1])
    scale = max(1.0, float(np.max(np.abs(y))))
    low = bool(d2[best] <= 1e-12 + 1e-6 * scale)
    return KneeEstimate(float(s[best + 1]), best + 1, float(d2[best]), low)
