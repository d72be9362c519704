"""Fixed points of the generative drift and their bifurcations.

Fixed points solve x = (2*theta/(1+theta^2)) * E_w[Y | x], the
self-consistency condition obtained by setting the generative drift
-grad u to zero at fixed theta.  For the two-point 1D dataset this
reduces to (theta^2+1) x = 2*theta*tanh(theta*x/(1-theta^2)), a pitchfork:
one root below the critical theta, three above.  critical_theta_cov owns
the critical level, from the largest eigenvalue of the data covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import EmpiricalDataset, write_csv
from .errors import DomainError, ShapeError, check_count, check_real
from .exact_score import ExactScoreModel, curvature, posterior
from .rng import stream

# Eigenvalues within this relative band of zero count as marginal when
# labeling stability (rings of fixed points have near-zero tangential modes).
_EIG_BAND = 1e-9
_NEAR_CRITICAL = 1e-12
# fixed_points_general's convergence residual and dedup distance
_TOL = 1e-10
_DEDUP = 1e-6
_N_RANDOM_SEEDS = 8  # random-direction starts in default_seed_points
_MAX_ITER = 10000  # fixed_points_general's iteration budget per call


@dataclass(frozen=True)
class FixedPoint:
    x: np.ndarray
    stability: str  # "stable" | "unstable" | "saddle"
    near_critical: bool = False


@dataclass(frozen=True)
class FixedPointBranch:
    label: str  # "zero" | "upper" | "lower"
    thetas: np.ndarray
    points: np.ndarray  # (M, D)
    stability: tuple[str, ...]


@dataclass(frozen=True)
class GeneralFixedPoints:
    points: tuple[FixedPoint, ...]
    n_seeds: int
    failed_seeds: tuple[int, ...]  # seed indices that exhausted the budget


def critical_theta_cov(lam: float) -> float:
    """sqrt(sqrt(1 + lam^2) - lam), lam the data covariance's top eigenvalue:
    where the origin loses stability.  Exact for centered data of one norm
    (the origin is then a fixed point), an estimate otherwise.  Evaluated as
    1 / sqrt(sqrt(1 + lam^2) + lam), which has no cancellation at large lam,
    and as 1 / sqrt(2 lam) where lam^2 overflows."""
    lam = float(check_real(lam, "lam"))
    if lam < 0:
        raise DomainError(f"critical_theta_cov requires lam >= 0: {lam}")
    if lam * lam < np.inf:
        return float(1.0 / np.sqrt(np.sqrt(1.0 + lam * lam) + lam))
    # sqrt(1 + lam^2) rounds to lam long before here; 2 lam may overflow
    return float(0.5 / np.sqrt(0.5 * lam))


def critical_theta_1d() -> float:
    """Signal level where the origin loses stability for the {-1,+1} dataset."""
    return critical_theta_cov(1.0)


def critical_theta_sphere(d: int, r: float) -> float:
    """critical_theta_cov at lam = r^2/d, where the origin's Laplacian flips."""
    check_count(d, "d", 1)
    if check_real(r, "r") <= 0:
        raise DomainError(f"critical_theta_sphere requires r > 0: {r}")
    return critical_theta_cov(r * r / d)


def _residual_1d(x: float, theta: float) -> float:
    var = 1.0 - theta * theta
    return (1.0 + theta * theta) * x - 2.0 * theta * np.tanh(theta * x / var)


def fixed_points_1d(theta: float) -> list[FixedPoint]:
    """All drift fixed points for the two-point 1D dataset at given theta.

    Nonzero roots are found by bisection on the self-consistency residual;
    theta within 1e-12 of critical returns the origin alone, flagged.
    """
    if not 0 < theta < 1:
        raise DomainError("fixed_points_1d requires theta in (0, 1)")
    tc = critical_theta_1d()
    origin = lambda st, flag=False: FixedPoint(np.zeros(1), st, flag)
    if abs(theta - tc) <= _NEAR_CRITICAL:
        return [origin("stable", True)]
    if theta < tc:
        return [origin("stable")]
    # Above critical: residual is negative just off the origin and positive
    # at 1.5 (tanh is bounded by 1), so a root is bracketed.
    lo, hi = 1e-12, 1.5
    if not _residual_1d(lo, theta) < 0 < _residual_1d(hi, theta):
        raise DomainError(f"root bracket failed at theta={theta}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _residual_1d(mid, theta) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return [FixedPoint(np.array([-root]), "stable"),
            origin("unstable"),
            FixedPoint(np.array([root]), "stable")]


def _label_stability(eigs: np.ndarray) -> str:
    band = _EIG_BAND * max(1.0, float(np.max(np.abs(eigs))))
    has_neg = bool(np.any(eigs < -band))
    all_neg = bool(np.all(eigs < -band))
    if all_neg:
        return "unstable"
    if has_neg:
        return "saddle"
    return "stable"


def default_seed_points(dataset: EmpiricalDataset,
                        theta: float) -> list[np.ndarray]:
    """Origin, each data point scaled by theta, and _N_RANDOM_SEEDS random
    directions from stream(0) at the dataset's mean radius scaled by theta."""
    pts = [np.zeros(dataset.dim)]
    pts += [theta * y for y in dataset.points]
    rbar = float(np.mean(np.linalg.norm(dataset.points, axis=1)))
    rng = stream(0)
    for _ in range(_N_RANDOM_SEEDS):
        v = rng.standard_normal(dataset.dim)
        nrm = np.linalg.norm(v)
        if nrm > 0:
            pts.append(theta * rbar * v / nrm)
    return pts


def fixed_points_general(model: ExactScoreModel, theta: float,
                         seeds: list | None = None) -> GeneralFixedPoints:
    """Self-consistency iteration x <- g(x) from multiple starting points.

    All seeds iterate as one batch through the model's posterior kernel,
    g(x) = (2 theta/(1+theta^2)) E_w[Y|x], whose Jacobian is a nonnegative
    multiple of Cov_w[Y], so the undamped map cannot oscillate.  A seed
    leaves the batch once its residual |g(x) - x| drops below _TOL.
    Converged points are deduplicated at distance _DEDUP in seed order and
    labeled by the eigenvalues of the analytic curvature matrix.  Seeds that
    exhaust the _MAX_ITER budget, or are not finite, are reported, not fatal.
    """
    if not 0 < theta < 1:
        raise DomainError("fixed_points_general requires theta in (0, 1)")
    if seeds is None:
        seeds = default_seed_points(model.dataset, theta)
    X = np.empty((len(seeds), model.dataset.dim))
    for idx, x0 in enumerate(seeds):
        x = np.asarray(x0, dtype=np.float64)
        if x.shape != X.shape[1:]:
            raise ShapeError(f"seed {idx} has shape {x.shape}, "
                             f"expected {X.shape[1:]}")
        X[idx] = x
    gain = 2.0 * theta / (1.0 + theta * theta)
    finite = np.isfinite(X).all(axis=1)  # a NaN seed would run the whole budget
    active = np.flatnonzero(finite)
    for _ in range(_MAX_ITER):
        if not active.size:
            break
        Xa = X[active]
        X[active] = g = gain * posterior(Xa, model.kernel, theta).mean
        # the step is the residual g(x) - x; a NaN one never counts as converged
        active = active[~(np.linalg.norm(g - Xa, axis=1) < _TOL)]
    failed = np.union1d(np.flatnonzero(~finite), active)
    converged = np.setdiff1d(np.arange(len(seeds)), failed)
    found = np.empty((converged.size, X.shape[1]))  # rows [:n] kept so far
    n = 0
    for idx in converged:
        if not np.any(np.linalg.norm(found[:n] - X[idx], axis=1) < _DEDUP):
            found[n] = X[idx]
            n += 1
    pts = tuple(
        FixedPoint(x, _label_stability(
            np.linalg.eigvalsh(curvature(x[None, :], model.kernel, theta))))
        for x in found[:n])
    return GeneralFixedPoints(pts, len(seeds), tuple(int(i) for i in failed))


def bifurcation_diagram_1d(theta_grid) -> list[FixedPointBranch]:
    """Solution branches of the 1D pitchfork over a theta grid."""
    thetas = np.asarray(theta_grid, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ShapeError("theta_grid must be a nonempty 1D array")
    zero_st, split_t, up_x, lo_x = [], [], [], []
    for th in thetas:
        pts = fixed_points_1d(float(th))  # [origin] or [lower, origin, upper]
        zero_st.append(pts[len(pts) // 2].stability)
        if len(pts) == 3:
            split_t.append(th)
            lo_x.append(pts[0].x)
            up_x.append(pts[2].x)
    branches = [FixedPointBranch("zero", thetas.copy(),
                                 np.zeros((thetas.size, 1)), tuple(zero_st))]
    if split_t:
        for label, xs in (("upper", up_x), ("lower", lo_x)):
            branches.append(FixedPointBranch(label, np.array(split_t), np.array(xs),
                                             ("stable",) * len(split_t)))
    return branches


def drift_field(model: ExactScoreModel, probes) -> np.ndarray:
    """Generative drift -grad u at each (x, theta) probe.

    theta must be reachable by the model's schedule (it is converted to a
    forward time internally).
    """
    out = []
    T = model.schedule.horizon
    for x, theta in probes:
        s = model.schedule.invert_theta(float(theta))
        if s == 0.0:
            raise DomainError("theta = 1 is a degenerate probe")
        out.append(-model.potential_gradient(np.asarray(x, dtype=float), T - s))
    return np.array(out)


def write_branches_csv(branches: list[FixedPointBranch], path) -> None:
    """One row per (branch, theta): branch, theta, x_0..x_{D-1}, stability."""
    if not branches:
        raise ShapeError("no branches to write")
    dim = branches[0].points.shape[1]
    write_csv(path, ([br.label, th, *x, st] for br in branches
                     for th, x, st in zip(br.thetas, br.points, br.stability)),
              header=["branch", "theta"] + [f"x_{i}" for i in range(dim)]
              + ["stability"])
