"""Independent checks of the workloads' outputs.

Every reference value here is computed from numpy/scipy and the closed forms
of the method, never by calling back into the code under test: the noise
schedule, the kernel width, the Fréchet distance, the per-row posterior and
score, the gls moments and the fixed-point equation are all rewritten here.
Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

BETA_MIN = 0.1  # the default linear noise-rate ramp every workload uses
BETA_MAX = 20.0


def theta(s: float) -> float:
    """Signal level of the linear-ramp VP schedule at forward time s."""
    return float(np.exp(-0.25 * s * s * (BETA_MAX - BETA_MIN) - 0.5 * s * BETA_MIN))


def invert_theta(th: float) -> float:
    """Forward time s with theta(s) = th (positive root of the exponent's quadratic)."""
    a, b, c = 0.25 * (BETA_MAX - BETA_MIN), 0.5 * BETA_MIN, np.log(th)
    return float((-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a))


def kernel_width(s: float) -> float:
    """Standard deviation sqrt(1 - theta^2) of the forward kernel at s."""
    return float(np.sqrt(1.0 - theta(s) ** 2))


def theta_c_1d() -> float:
    return float(np.sqrt(np.sqrt(2.0) - 1.0))


def gmm_critical_s(points: np.ndarray) -> float:
    """Critical forward time from the largest data-covariance eigenvalue."""
    lam = float(np.linalg.eigvalsh(np.cov(points.T, bias=True)).max())
    return invert_theta(float(np.sqrt(np.sqrt(1.0 + lam * lam) - lam)))


def frechet_sqrtm(reference: np.ndarray, generated: np.ndarray) -> float:
    """Squared W2 between Gaussian fits, via scipy's matrix square root."""
    mu1, mu2 = reference.mean(axis=0), generated.mean(axis=0)
    c1 = np.cov(reference.T, bias=True)
    c2 = np.cov(generated.T, bias=True)
    cross = np.real(scipy.linalg.sqrtm(c1 @ c2))
    return float(np.sum((mu1 - mu2) ** 2) + np.trace(c1 + c2 - 2.0 * cross))


def posterior_weights_row(x: np.ndarray, points: np.ndarray, th: float) -> np.ndarray:
    """Posterior over data points for one state, by direct differences."""
    var = 1.0 - th * th
    logits = -np.sum((x[None, :] - th * points) ** 2, axis=1) / (2.0 * var)
    return np.exp(logits - logsumexp(logits))


def score_row(x: np.ndarray, points: np.ndarray, s: float) -> np.ndarray:
    th = theta(s)
    w = posterior_weights_row(x, points, th)
    return (th * (w @ points) - x) / (1.0 - th * th)


# -- sweep_sde_gmm -----------------------------------------------------------

def frechet_matches(reference, finals, values, indices, rtol=1e-6) -> list[str]:
    out = []
    for i in indices:
        want = frechet_sqrtm(reference, finals[i])
        if not abs(values[i] - want) <= rtol * abs(want) + 1e-9:
            out.append(f"frechet at grid index {i}: {values[i]!r} != sqrtm route {want!r}")
    return out


def finals_on_data(finals, points, width, min_share) -> list[str]:
    """At least min_share of the finals lie within `width` of a data point."""
    d2 = np.sum((finals[:, None, :] - points[None, :, :]) ** 2, axis=2)
    share = float(np.mean(np.sqrt(d2.min(axis=1)) <= width))
    if share < min_share:
        return [f"only {share:.4f} of finals within {width:.3g} of a data point, "
                f"want >= {min_share}"]
    return []


def entropy_near(entropy, finals, centers, target, tol) -> list[str]:
    centers = np.asarray(centers, dtype=float)
    d2 = np.sum((finals[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    p = np.bincount(np.argmin(d2, axis=1), minlength=len(centers)) / len(finals)
    p = p[p > 0]
    mine = float(-np.sum(p * np.log(p)))
    out = []
    if abs(entropy - mine) > 1e-12:
        out.append(f"mode entropy {entropy!r} != recomputed {mine!r}")
    if abs(mine - target) > tol:
        out.append(f"mode entropy {mine:.5f} not within {tol} of {target:.5f}")
    return out


def degradation_exceeds_plateau(grid, values, s_critical, factor=5.0) -> list[str]:
    """Starts a cell above the critical time agree with the full start; the
    earliest start is worse than that plateau by more than `factor` widths."""
    base = values[-1]
    plateau = [i for i, g in enumerate(grid) if g >= s_critical + 0.1]
    if not plateau:
        return [f"no plateau grid point above s_c={s_critical:.4f}"]
    band = max(abs(values[i] - base) for i in plateau)
    degradation = values[0] - base
    if not degradation > factor * band:
        return [f"degradation at s={grid[0]} is {degradation:.6f}, "
                f"not above {factor} x plateau band {band:.6f}"]
    return []


# -- ddim_gls_short ----------------------------------------------------------

def gls_moments(inits, s_grid, points, tol=1e-12) -> list[str]:
    out = []
    mean_y = points.mean(axis=0)
    cov_y = np.cov(points.T, bias=True)
    eye = np.eye(points.shape[1])
    for init, s in zip(inits, s_grid):
        th = theta(s)
        want_mean = th * mean_y
        want_cov = th * th * cov_y + (1.0 - th * th) * eye
        if not np.allclose(init.mean, want_mean, rtol=tol, atol=tol):
            out.append(f"gls mean at s={s}: {init.mean} != {want_mean}")
        if not np.allclose(init.covariance, want_cov, rtol=1e-10, atol=tol):
            out.append(f"gls covariance at s={s} does not match theta^2 Cov + (1-theta^2) I")
        if not np.allclose(init.cholesky @ init.cholesky.T, want_cov, rtol=1e-10, atol=tol):
            out.append(f"gls cholesky at s={s} does not factor the covariance")
    return out


def gls_no_worse(values, steps) -> list[str]:
    """At each step budget, the best gls start is no worse than the best standard one."""
    out = []
    for n in steps:
        best_std = float(np.min(values[n, "standard_normal"]))
        best_gls = float(np.min(values[n, "gls"]))
        if not best_gls <= best_std:
            out.append(f"n={n}: best gls frechet {best_gls:.6f} worse than "
                       f"best standard {best_std:.6f}")
    return out


# -- wide_sphere -------------------------------------------------------------

def norms_equal(finals, radius, tol=1e-9) -> list[str]:
    err = float(np.max(np.abs(np.linalg.norm(finals, axis=1) - radius)))
    return [] if err <= tol else [f"final norms deviate from {radius} by {err:.3e}"]


def score_rows_match(probes, scores, points, s, rows, rtol=1e-8) -> list[str]:
    out = []
    for i in rows:
        want = score_row(probes[i], points, s)
        err = float(np.max(np.abs(scores[i] - want)))
        if err > rtol * max(1.0, float(np.max(np.abs(want)))):
            out.append(f"score_batch row {i} differs from per-row route by {err:.3e}")
    return out


# -- landscape ---------------------------------------------------------------

def exit_codes_zero(codes: dict) -> list[str]:
    return [f"cli {cmd} exited {code}" for cmd, code in codes.items() if code != 0]


def critical_value(report: dict) -> list[str]:
    got, want = report["theta_c_1d"], theta_c_1d()
    return [] if abs(got - want) <= 1e-12 else [f"theta_c_1d {got!r} != {want!r}"]


def branch_counts(rows: list[list[str]], thetas) -> list[str]:
    """One branch row per theta below the critical value, three above."""
    counts: dict[float, int] = {}
    for row in rows:
        counts[float(row[1])] = counts.get(float(row[1]), 0) + 1
    tc = theta_c_1d()
    out = []
    for th in thetas:
        want = 3 if th > tc else 1
        if counts.get(float(th), 0) != want:
            out.append(f"theta={th:.6f}: {counts.get(float(th), 0)} branches, want {want}")
    return out


def local_minima(values, window=3) -> int:
    """Strict interior minima of the moving average over `window` points."""
    y = np.convolve(values, np.full(window, 1.0 / window), mode="valid")
    return int(np.count_nonzero((y[1:-1] < y[:-2]) & (y[1:-1] < y[2:])))


def well_counts(profiles, thetas) -> list[str]:
    """One minimum below the critical level, at least two above it."""
    out = []
    for values, th in zip(profiles, thetas):
        n = local_minima(values)
        ok = n >= 2 if th > theta_c_1d() else n == 1
        if not ok:
            out.append(f"scan at theta={th}: {n} minima, want "
                       f"{'>= 2' if th > theta_c_1d() else '1'}")
    return out


def scan_matches_direct(table, direct_rows, rtol=1e-2) -> list[str]:
    """Line-integral rows agree with direct potential differences, and so do
    their minima counts.  The trapezoid rule on the default 141-point grid
    is good to a few 1e-3 where the wells are sharp (theta ~ 0.96)."""
    out = []
    for row, direct in zip(table, direct_rows):
        ref = direct - direct[0]
        err = float(np.max(np.abs(row["values"] - ref)) / np.max(np.abs(ref)))
        if not err < rtol:
            out.append(f"scan at t={row['time']:.4f}: rel err {err:.2e} vs direct potential")
        if row["n_minima"] != local_minima(ref):
            out.append(f"scan at t={row['time']:.4f}: {row['n_minima']} minima, "
                       f"direct profile has {local_minima(ref)}")
    return out


def inspect_report(report: dict, n_points: int, dim: int, tol=1e-9) -> list[str]:
    out = []
    if report["n_points"] != n_points or report["dim"] != dim:
        out.append(f"inspect shape {report['n_points']}x{report['dim']}, "
                   f"want {n_points}x{dim}")
    if max(abs(v) for v in report["mean"]) > tol:
        out.append(f"normalized mean {report['mean']} is not 0")
    if abs(report["min_norm"] - 1.0) > tol or abs(report["max_norm"] - 1.0) > tol:
        out.append(f"normalized norms span [{report['min_norm']}, "
                   f"{report['max_norm']}], want 1")
    return out


def finals_equal(cli_finals, api_finals) -> list[str]:
    if cli_finals.shape != api_finals.shape or not np.array_equal(cli_finals, api_finals):
        return ["sample finals written by the CLI differ from the API's"]
    return []


def correlation_entries(values, trajectories, entries, reference_index=0,
                        tol=1e-10) -> list[str]:
    out = []
    for k, i in entries:
        want = np.corrcoef(trajectories[reference_index, k], trajectories[i, k])[0, 1]
        if not abs(values[k, i] - want) <= tol:
            out.append(f"correlation[{k}, {i}] {values[k, i]!r} != corrcoef {want!r}")
    return out


def fixed_points_consistent(points, data, th, tol=1e-8) -> list[str]:
    """Each x satisfies x = 2 theta/(1+theta^2) * E_w[Y | x]."""
    gain = 2.0 * th / (1.0 + th * th)
    out = []
    if not points:
        out.append("no fixed points returned")
    for j, x in enumerate(points):
        resid = x - gain * (posterior_weights_row(x, data, th) @ data)
        if np.linalg.norm(resid) > tol:
            out.append(f"fixed point {j}: self-consistency residual "
                       f"{np.linalg.norm(resid):.3e}")
    return out
