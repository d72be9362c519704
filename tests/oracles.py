"""Independent numerical routes and frozen high-precision constants.

Everything here is computed without touching the package's own closed
forms: constants come from 40-digit mpmath evaluations of the defining
expressions, and the helpers implement generic central differences,
quadrature, and Monte Carlo moments of exact forward draws.  Tests compare
package output against these as a second route.
"""

from __future__ import annotations

import csv

import numpy as np

# exp(-0.25*1^2*(20-0.1) - 0.5*1*0.1) = exp(-5.025), signal left at s=1
THETA_AT_1 = 0.006571586494929615

# exp(-0.25*0.25*19.9 - 0.25*0.1) = exp(-1.26875)
THETA_AT_HALF = 0.28118288079675238

# exp(-0.25*0.04*19.9 - 0.1*0.1/2) = exp(-0.209)
THETA_AT_02 = 0.81139523564341143

# sqrt(sqrt(2) - 1); sign-change level of 1/2 + (2 th^2 - 1)/(1 - th^2)^2
THETA_C_1D = 0.6435942529055826

# sqrt((sqrt(5) - 1)/2); d=2, r=1 instance of sqrt((sqrt(d^2+r^4)-r^2)/d)
THETA_STAR_2_1 = 0.7861513777574233

# root of 4.975 u^2 + 0.05 u + ln(THETA_C_1D) = 0: forward time where the
# default schedule crosses the 1D critical signal level
S_CRITICAL_1D = 0.29264165432814316

# two-point {-1,+1} mixture at s=0.2, x=0.5 (mpmath, 40 digits):
# log(0.5 * (N(0.5; -theta, var) + N(0.5; theta, var))), theta=THETA_AT_02
LOGPDF_TWO_POINT_X05_S02 = -1.1280604181201081
SCORE_TWO_POINT_X05_S02 = 0.50726054066632043
# beta(0.2) * (-x^2/4 - log(exp(-(x+th)^2/(2v)) + exp(-(x-th)^2/(2v))))
POTENTIAL_TWO_POINT_X05_T08 = -0.038854534896336374

LN2 = 0.6931471805599453


def fd_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_second_diag(f, x, h=1e-4):
    """Central second differences along each axis (the Hessian diagonal)."""
    x = np.asarray(x, dtype=np.float64)
    f0 = f(x)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        out[i] = (f(x + e) - 2.0 * f0 + f(x - e)) / (h * h)
    return out


def fd_hessian(f, x, h=1e-4):
    """Full central-difference Hessian of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros_like(x)
        ei[i] = h
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h * h)
        for j in range(i + 1, n):
            ej = np.zeros_like(x)
            ej[j] = h
            H[i, j] = H[j, i] = (
                f(x + ei + ej) - f(x + ei - ej)
                - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
    return H


def quad_log_theta(s, beta_min=0.1, beta_max=20.0):
    """-0.5 * integral_0^s beta(u) du by adaptive quadrature."""
    from scipy.integrate import quad

    val, _ = quad(lambda u: beta_min + u * (beta_max - beta_min), 0.0, s,
                  epsabs=1e-12, epsrel=1e-12)
    return -0.5 * val


def mp_theta(s, dps=40):
    """theta(s) for the default schedule via mpmath."""
    import mpmath as mp

    with mp.workdps(dps):
        sm = mp.mpf(repr(float(s)))
        expo = -mp.mpf('0.25') * sm * sm * mp.mpf('19.9') \
            - mp.mpf('0.5') * sm * mp.mpf('0.1')
        return float(mp.e ** expo)


def mp_two_point_logpdf(x, s, dps=40):
    """High-precision two-point {-1,+1} mixture log-density."""
    import mpmath as mp

    with mp.workdps(dps):
        sm = mp.mpf(repr(float(s)))
        th = mp.e ** (-mp.mpf('0.25') * sm * sm * mp.mpf('19.9')
                      - mp.mpf('0.5') * sm * mp.mpf('0.1'))
        var = 1 - th * th
        xm = mp.mpf(repr(float(x)))

        def pdf(m):
            return mp.e ** (-(xm - m) ** 2 / (2 * var)) / mp.sqrt(2 * mp.pi * var)

        return float(mp.log(mp.mpf('0.5') * (pdf(-th) + pdf(th))))


def mc_moments(model, s, n, seed):
    """Monte Carlo mean and covariance of n exact draws at forward time s."""
    from symbreak.samplers import forward_sample

    draws = forward_sample(model, s, n, seed)
    d = model.dataset.dim
    return draws.mean(axis=0), np.cov(draws, rowvar=False, ddof=0).reshape(d, d)


def euler_maruyama_step(x, score, beta, dt, z):
    """One reverse VP-SDE step dx = -beta (x/2 + score) ds + sqrt(beta) dW,
    taken from s to s - dt by Euler-Maruyama."""
    return x + beta * dt * (score + 0.5 * x) + np.sqrt(beta * dt) * z


def ddpm_posterior_step(x, x0, abar, abar_next, z):
    """A draw from the DDPM posterior q(x_next | x, x0) (Ho et al., 2020,
    eqs. 6-7), with alpha = abar / abar_next the step's signal factor."""
    alpha = abar / abar_next
    mean = (np.sqrt(abar_next) * (1.0 - alpha) / (1.0 - abar) * x0
            + np.sqrt(alpha) * (1.0 - abar_next) / (1.0 - abar) * x)
    std = np.sqrt((1.0 - abar_next) / (1.0 - abar) * (1.0 - alpha))
    return mean + std * z


def ddim_step(x, x0, abar, abar_next):
    """One DDIM step at eta = 0 (Song et al., 2021, eq. 12): keep the
    predicted noise, move the predicted data to the next signal level."""
    eps = (x - np.sqrt(abar) * x0) / np.sqrt(1.0 - abar)
    return np.sqrt(abar_next) * x0 + np.sqrt(1.0 - abar_next) * eps


def posterior_max_shift(points, theta, X):
    """Posterior mean, weights and log-normalizer of each row of X by the
    textbook max shift: logits (theta/var) x.y_j - theta^2 |y_j|^2 / (2 var)
    by an explicit sum over coordinates, shifted by their row max before
    exp; the log-normalizer is their logsumexp."""
    var = 1.0 - theta * theta
    L = (theta / var) * np.sum(X[:, None, :] * points[None], axis=2) \
        - (theta * theta / (2.0 * var)) * np.sum(points * points, axis=1)
    top = L.max(axis=1, keepdims=True)
    w = np.exp(L - top)
    z = w.sum(axis=1, keepdims=True)
    w /= z
    return w @ points, w, top[:, 0] + np.log(z[:, 0])


def self_consistency_map(points, theta, X):
    """g(x) = (2 theta/(1+theta^2)) E_w[Y | x] per row of X, the posterior
    weights by a direct softmax of -|x - theta y|^2 / (2 (1 - theta^2))."""
    d2 = np.sum((X[:, None, :] - theta * points[None]) ** 2, axis=2)
    w = np.exp(-(d2 - d2.min(axis=1, keepdims=True))
               / (2.0 * (1.0 - theta * theta)))
    w /= w.sum(axis=1, keepdims=True)
    return 2.0 * theta / (1.0 + theta * theta) * (w @ points)


def damped_fixed_points(points, theta, seeds):
    """The damped iteration x <- (x + g(x)) / 2 from every seed, until the
    step norm drops below 1e-10.  Returns the converged points,
    deduplicated at distance 1e-6 in seed order, first wins, and the
    indices of the seeds still moving after 10000 steps."""
    X = np.array(seeds, dtype=np.float64)
    active = np.arange(len(X))
    for _ in range(10000):
        if not active.size:
            break
        step = 0.5 * (self_consistency_map(points, theta, X[active])
                      - X[active])
        X[active] += step
        active = active[~(np.linalg.norm(step, axis=1) < 1e-10)]
    kept = []
    for i in np.setdiff1d(np.arange(len(X)), active):
        if not any(np.linalg.norm(X[i] - x) < 1e-6 for x in kept):
            kept.append(X[i])
    return kept, tuple(int(i) for i in active)


def reference_csv(rows) -> bytes:
    """CSV bytes by the per-cell rule, one Python format call per cell: an
    integer as str writes it, any other number at 17 significant digits."""
    return "".join(",".join(str(v) if isinstance(v, (int, np.integer))
                            else format(float(v), ".17g") for v in row) + "\n"
                   for row in rows).encode()


def reference_load_csv(path):
    """A headerless numeric CSV read one cell at a time: each nonblank
    record of the csv module's default dialect is a row, and each cell
    goes through float().  Returns the (rows, width) array, or the text of
    the ParseError the file must raise."""
    rows = []
    with open(path, newline="") as fh:
        for i, raw in enumerate(csv.reader(fh), start=1):
            if not raw:
                continue
            if rows and len(raw) != len(rows[0]):
                return f"row {i}: expected {len(rows[0])} columns, found {len(raw)}"
            row = []
            for j, cell in enumerate(raw, start=1):
                try:
                    row.append(float(cell))
                except ValueError:
                    return f"row {i}, column {j}: not a number: {cell!r}"
            rows.append(row)
    return np.array(rows, dtype=np.float64) if rows else f"{path}: no data rows"
