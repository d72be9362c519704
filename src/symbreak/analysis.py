"""Quality metrics and landscape diagnostics.

The potential scan reconstructs u along the trigonometric interpolation
x(alpha) = cos(alpha) x1 + sin(alpha) x2 by integrating the analytic
gradient dotted with the path tangent (trapezoidal rule, each row anchored
to 0 at the first angle).  Because the gradient is exact, the line integral
must agree with direct potential differences to the quadrature order; tests
exploit that as a dual-route check.

Sample quality is summarized by the squared 2-Wasserstein distance between
Gaussian fits (mean + population covariance) of a reference and a generated
point set, plus the Shannon entropy of nearest-center mode assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ShapeError, check_count
from .exact_score import ExactScoreModel
from .samplers import SamplerRun

_ALPHA_LO = -np.pi / 5.0
_ALPHA_HI = 7.0 * np.pi / 10.0


def default_alpha_grid(n: int = 141) -> np.ndarray:
    """The standard scan window [-pi/5, 7*pi/10]; covers both data anchors."""
    check_count(n, "n", 2)
    return np.linspace(_ALPHA_LO, _ALPHA_HI, n)


def interpolation_path(x1, x2, alpha_grid) -> np.ndarray:
    """Points cos(a) x1 + sin(a) x2 for each angle a."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    a = np.asarray(alpha_grid, dtype=np.float64)
    if x1.shape != x2.shape or x1.ndim != 1:
        raise ShapeError("x1 and x2 must be 1D vectors of equal dimension")
    return np.cos(a)[:, None] * x1 + np.sin(a)[:, None] * x2


@dataclass(frozen=True)
class PotentialScan:
    alpha_grid: np.ndarray
    times: np.ndarray  # generative times, one per row
    values: np.ndarray  # (n_times, n_alpha), each row anchored to 0


def potential_scan(model: ExactScoreModel, x1_path, x2_path, alpha_grid,
                   times) -> PotentialScan:
    """Line-integral reconstruction of u along the interpolation path.

    x1_path[i], x2_path[i] are the two anchor states at generative time
    times[i].  The tangent of x(alpha) is -sin(alpha) x1 + cos(alpha) x2.
    """
    x1_path = np.asarray(x1_path, dtype=np.float64)
    x2_path = np.asarray(x2_path, dtype=np.float64)
    a = np.asarray(alpha_grid, dtype=np.float64)
    t = np.asarray(times, dtype=np.float64)
    if x1_path.ndim != 2 or x1_path.shape != x2_path.shape:
        raise ShapeError("anchor paths must be (n_times, D) arrays of equal shape")
    if t.ndim != 1 or t.size != x1_path.shape[0]:
        raise ShapeError("times must match the anchor paths row for row")
    if a.ndim != 1 or a.size < 2 or np.any(np.diff(a) <= 0):
        raise DomainError("alpha_grid must be strictly increasing with >= 2 points")
    cos_a, sin_a = np.cos(a), np.sin(a)
    da = np.diff(a)
    rows = np.empty((t.size, a.size))
    for i in range(t.size):
        x1, x2 = x1_path[i], x2_path[i]
        path = interpolation_path(x1, x2, a)
        tangent = -sin_a[:, None] * x1 + cos_a[:, None] * x2
        g = np.sum(model.potential_gradient_batch(path, float(t[i])) * tangent,
                   axis=1)
        rows[i, 0] = 0.0
        rows[i, 1:] = np.cumsum(0.5 * (g[:-1] + g[1:]) * da)
    return PotentialScan(a.copy(), t.copy(), rows)


def count_local_minima(values, smoothing_window: int = 3) -> int:
    """Strict local minima of the window-averaged curve, endpoints excluded."""
    y = np.asarray(values, dtype=np.float64)
    if check_count(smoothing_window, "smoothing_window", 1) % 2 == 0:
        raise DomainError("smoothing_window must be odd and >= 1")
    if y.ndim != 1 or y.size < 2 * smoothing_window + 1:
        raise DomainError("need at least 2*smoothing_window+1 points")
    if smoothing_window > 1:
        y = np.convolve(y, np.full(smoothing_window, 1.0 / smoothing_window),
                        mode="valid")
    interior = (y[1:-1] < y[:-2]) & (y[1:-1] < y[2:])
    return int(np.count_nonzero(interior))


@dataclass(frozen=True)
class QualityReport:
    frechet: float
    n_reference: int
    n_generated: int


def _gaussian_fit(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = pts.mean(axis=0)
    centered = pts - mean
    cov = centered.T @ centered / pts.shape[0]  # population fit
    return mean, cov


def frechet_gaussian(reference, generated) -> QualityReport:
    """Squared 2-Wasserstein distance between Gaussian fits of two point sets.

    |mu1-mu2|^2 + tr(S1 + S2 - 2 (S1^1/2 S2 S1^1/2)^1/2), computed by
    symmetric eigendecomposition with negative eigenvalues clamped to zero,
    so rank-deficient covariances need no special case.
    """
    ref = np.asarray(reference, dtype=np.float64)
    gen = np.asarray(generated, dtype=np.float64)
    if ref.ndim != 2 or gen.ndim != 2 or ref.shape[1] != gen.shape[1]:
        raise ShapeError("reference and generated must be (N, D) with equal D")
    if ref.shape[0] < 1 or gen.shape[0] < 1:
        raise DomainError("both point sets must be nonempty")
    mu1, cov1 = _gaussian_fit(ref)
    mu2, cov2 = _gaussian_fit(gen)

    def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh((mat + mat.T) / 2.0)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    root1 = _psd_sqrt(cov1)
    inner = _psd_sqrt(root1 @ cov2 @ root1)
    val = (np.sum((mu1 - mu2) ** 2)
           + np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(inner))
    return QualityReport(max(float(val), 0.0), ref.shape[0], gen.shape[0])


def nearest_center(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, first on ties."""
    d2 = np.sum(points * points, axis=1)[:, None] - 2.0 * points @ centers.T
    return np.argmin(d2 + np.sum(centers * centers, axis=1), axis=1)


def mode_entropy(generated, centers) -> float:
    """Shannon entropy (nats) of finite points' nearest-center assignments."""
    gen = np.asarray(generated, dtype=np.float64)
    cen = np.asarray(centers, dtype=np.float64)
    if gen.ndim != 2 or cen.ndim != 2 or gen.shape[1] != cen.shape[1]:
        raise ShapeError("generated and centers must be (N, D) with equal D")
    if not (gen.shape[0] and cen.shape[0]
            and np.isfinite(gen).all() and np.isfinite(cen).all()):
        raise DomainError("generated set and centers must be nonempty and finite")
    counts = np.bincount(nearest_center(gen, cen), minlength=cen.shape[0])
    p = counts[counts > 0] / gen.shape[0]
    return float(-np.sum(p * np.log(p)))


@dataclass(frozen=True)
class CorrelationTrajectory:
    values: np.ndarray  # (n_nodes, S) for D >= 2; (n_nodes, 1) pooled for D = 1
    flagged: np.ndarray  # True where a zero-variance state forced corr = 0
    pooled: bool


def correlation_trajectory(run: SamplerRun,
                           reference_index: int = 0) -> CorrelationTrajectory:
    """Per-step Pearson correlation against a reference trajectory.

    For D >= 2 the correlation is across coordinates, one value per
    (step, chain).  For D = 1 a per-pair correlation is undefined, so the
    batch is pooled: each step's batch state vector is correlated with the
    batch finals, one value per step (reference_index is checked, not used).
    """
    if run.trajectories is None:
        raise DomainError("run has no stored trajectories; "
                          "sample with keep_trajectories=True")
    check_count(reference_index, "reference_index", 0)
    traj = run.trajectories
    S, n_nodes, d = traj.shape
    if d == 1:
        values, flagged = _pearson(run.finals[:, 0], traj[:, :, 0].T)
        return CorrelationTrajectory(values[:, None], flagged[:, None], True)
    if reference_index >= S:
        raise DomainError(f"reference_index must lie in [0, {S})")
    values, flagged = _pearson(traj[reference_index], traj)
    return CorrelationTrajectory(values.T, flagged.T, False)


def _pearson(ref: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of each row of `states` with `ref` (broadcast).

    Rows are the last axis.  Where either side has zero variance the value
    is 0.0 and flagged.  One buffer the size of `states` holds the centered
    rows twice over, once per product; it is C-ordered so each row sums in
    the same order as a lone 1-D row.
    """
    ref = ref - ref.mean(axis=-1, keepdims=True)
    buf = np.array(states, order="C")
    mean = buf.mean(axis=-1, keepdims=True)
    buf -= mean
    buf *= ref
    num = np.sum(buf, axis=-1)
    np.subtract(states, mean, out=buf)
    np.square(buf, out=buf)
    denom = np.sqrt(np.sum(buf, axis=-1) * np.sum(ref * ref, axis=-1))
    flagged = denom == 0.0
    values = np.divide(num, denom, out=np.zeros_like(num), where=~flagged)
    return values, flagged


@dataclass(frozen=True)
class CoordinateTrajectories:
    values: np.ndarray  # (n_nodes, S, K), min-max normalized per coordinate
    constant: np.ndarray  # (K,) True where the coordinate had zero range


def coordinate_trajectories(run: SamplerRun, indices) -> CoordinateTrajectories:
    """Selected coordinates across steps, min-max normalized over the run.

    A coordinate with zero range maps to 0.5 everywhere and is flagged.
    """
    if run.trajectories is None:
        raise DomainError("run has no stored trajectories; "
                          "sample with keep_trajectories=True")
    idx = np.asarray(indices)
    d = run.trajectories.shape[2]
    if idx.ndim != 1 or idx.size == 0:
        raise ShapeError("indices must be a nonempty 1D sequence")
    idx = np.array([check_count(i, f"indices[{j}]", 0)
                    for j, i in enumerate(indices)])
    if np.any(idx >= d):
        raise DomainError(f"coordinate indices must lie in [0, {d})")
    sel = run.trajectories[:, :, idx]  # (S, n_nodes, K)
    lo = sel.min(axis=(0, 1))
    hi = sel.max(axis=(0, 1))
    span = hi - lo
    constant = span == 0.0
    safe = np.where(constant, 1.0, span)
    values = (sel - lo) / safe
    values = np.where(constant[None, None, :], 0.5, values)
    return CoordinateTrajectories(np.swapaxes(values, 0, 1), constant)
