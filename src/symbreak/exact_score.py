"""Exact score and potential for diffusion over a finite dataset.

With a variance-preserving forward kernel, the noised marginal of an
empirical dataset {y_j} is the Gaussian mixture

    p(x, s) = (1/N) sum_j Normal(x; theta*y_j, (1 - theta^2) I),  theta = theta(s),

so the score, the generative potential, and all its derivatives are
available in closed form.  Posterior weights over data points are softmax
of -|x - theta*y_j|^2 / (2*(1-theta^2)); every log-density goes through
max-subtracted log-sum-exp so saturated regimes (theta near 1) stay finite.

The potential u(x, t) at generative time t (forward time s = T - t) is

    u = beta(s) * ( -|x|^2/4 - logsumexp_j( -|x - theta*y_j|^2 / (2*(1-theta^2)) ) )

with the mixture's 1/N and the Gaussian normalizer dropped (they are
x-independent and would only shift u by a constant).  Its negative gradient
is the generative drift: -grad u = beta * score + beta * x / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .datasets import EmpiricalDataset
from .errors import DomainError, ShapeError
from .schedule import VpSchedule


def log_kernels(X: np.ndarray, points: np.ndarray, theta: float) -> np.ndarray:
    """Matrix a_ij = -|x_i - theta*y_j|^2 / (2 var), var = 1 - theta^2.

    The posterior kernel of a (B, D) batch at signal level theta.  Every pass
    after the GEMM runs in place on its one B x N buffer.
    """
    a = X @ points.T
    a *= 2.0 * theta
    np.subtract(np.sum(X * X, axis=1)[:, None], a, out=a)
    a += theta * theta * np.sum(points * points, axis=1)
    np.maximum(a, 0.0, out=a)  # guard cancellation at x ~ theta*y_j
    np.divide(a, -2.0 * (1.0 - theta * theta), out=a)  # bit-equal to -a / (2 var)
    return a


def _softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row softmax of `a`, overwriting it.

    The shift-then-exp sequence of scipy.special.softmax, so the bytes match.
    """
    a -= np.max(a, axis=1, keepdims=True)
    np.exp(a, out=a)
    a /= np.sum(a, axis=1, keepdims=True)
    return a


def posterior_weights(X: np.ndarray, points: np.ndarray, theta: float) -> np.ndarray:
    """Posterior weights over data points of a (B, D) batch at signal level theta."""
    return _softmax_rows(log_kernels(X, points, theta))


def curvature(x: np.ndarray, points: np.ndarray, theta: float) -> np.ndarray:
    """Hessian of the potential at one (1, D) state, up to the factor beta > 0.

    (1/var - 1/2) I - Cov_w[theta Y] / var^2 by the posterior-covariance
    identity, with var = 1 - theta^2.
    """
    var = 1.0 - theta * theta
    w = posterior_weights(x, points, theta)[0]
    Y = theta * points
    mean = w @ Y
    cov = (Y * w[:, None]).T @ Y - np.outer(mean, mean)
    return (1.0 / var - 0.5) * np.eye(points.shape[1]) - cov / (var * var)


@dataclass(frozen=True)
class ScoreEval:
    """One score evaluation: log-density, score vector, posterior weights."""

    log_density: float
    score: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class ExactScoreModel:
    dataset: EmpiricalDataset
    schedule: VpSchedule

    def _s_forward(self, s: float) -> tuple[float, float]:
        """theta and kernel variance at forward time s; s = 0 is degenerate."""
        if not 0 < s <= self.schedule.horizon:
            raise DomainError(
                f"forward time must lie in (0, {self.schedule.horizon}]; "
                f"the s = 0 kernel is atomic")
        theta = self.schedule.theta_at(s)
        return theta, 1.0 - theta * theta

    def _s_of_t(self, t: float) -> float:
        T = self.schedule.horizon
        if not 0 <= t < T:
            raise DomainError(f"generative time must lie in [0, {T})")
        return T - t

    def _as_batch(self, x) -> np.ndarray:
        X = np.asarray(x, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.dataset.dim:
            raise ShapeError(
                f"state must have dimension {self.dataset.dim}, got shape {np.shape(x)}")
        return X

    def _as_point(self, x) -> np.ndarray:
        """One state as a (1, D) batch; the single-point methods reject more."""
        X = self._as_batch(x)
        if X.shape[0] != 1:
            raise ShapeError(
                f"expected one state, got {X.shape[0]}; use the _batch method")
        return X

    def _log_kernels(self, X: np.ndarray, s: float):
        """log_kernels at forward time s, plus (theta, var)."""
        theta, var = self._s_forward(s)
        return log_kernels(X, self.dataset.points, theta), theta, var

    # -- density and score -------------------------------------------------

    def _logpdf_of_kernels(self, a: np.ndarray, var: float) -> np.ndarray:
        """Mixture log-density per row of log-kernels a at variance var."""
        n, d = self.dataset.n_points, self.dataset.dim
        return (logsumexp(a, axis=1) - np.log(n)
                - 0.5 * d * np.log(2.0 * np.pi * var))

    def mixture_logpdf_batch(self, X, s: float) -> np.ndarray:
        X = self._as_batch(X)
        a, _, var = self._log_kernels(X, s)
        return self._logpdf_of_kernels(a, var)

    def mixture_logpdf(self, x, s: float) -> float:
        return float(self.mixture_logpdf_batch(self._as_point(x), s)[0])

    def posterior_weights_batch(self, X, s: float) -> np.ndarray:
        X = self._as_batch(X)
        a, _, _ = self._log_kernels(X, s)
        return _softmax_rows(a)

    def score_batch(self, X, s: float) -> np.ndarray:
        """Gradient of log p(x, s) wrt x: sum_j w_j (theta*y_j - x) / var."""
        X = self._as_batch(X)
        a, theta, var = self._log_kernels(X, s)
        W = _softmax_rows(a)
        return (theta * (W @ self.dataset.points) - X) / var

    def posterior_mean_batch(self, X, s: float) -> np.ndarray:
        """Denoiser output E[Y0 | x at time s] = sum_j w_j y_j."""
        X = self._as_batch(X)
        a, _, _ = self._log_kernels(X, s)
        return _softmax_rows(a) @ self.dataset.points

    def score(self, x, s: float) -> ScoreEval:
        X = self._as_point(x)
        a, theta, var = self._log_kernels(X, s)
        logpdf = self._logpdf_of_kernels(a, var)
        W = _softmax_rows(a)  # after logsumexp: this overwrites a
        sc = (theta * (W @ self.dataset.points) - X) / var
        return ScoreEval(float(logpdf[0]), sc[0], W[0])

    # -- potential and curvature -------------------------------------------

    def potential_batch(self, X, t: float) -> np.ndarray:
        s = self._s_of_t(t)
        X = self._as_batch(X)
        a, _, _ = self._log_kernels(X, s)
        beta = self.schedule.beta_at(s)
        return beta * (-0.25 * np.sum(X * X, axis=1) - logsumexp(a, axis=1))

    def potential(self, x, t: float) -> float:
        return float(self.potential_batch(self._as_point(x), t)[0])

    def potential_gradient_batch(self, X, t: float) -> np.ndarray:
        """grad u = -beta * (score + x/2); -grad u is the generative drift."""
        s = self._s_of_t(t)
        X = self._as_batch(X)
        beta = self.schedule.beta_at(s)
        return -beta * (self.score_batch(X, s) + 0.5 * X)

    def potential_gradient(self, x, t: float) -> np.ndarray:
        return self.potential_gradient_batch(self._as_point(x), t)[0]

    def second_derivative_origin_1d(self, t: float) -> float:
        """Closed-form d^2u/dx^2 at x = 0 for the two-point dataset {-1, +1}.

        laplacian_origin at d = r = 1.  Vanishes exactly at
        theta = sqrt(sqrt(2) - 1); negative above (double well), positive
        below (single well).
        """
        ds = self.dataset
        if ds.dim != 1 or ds.n_points != 2 or not ds.centered \
                or abs(ds.radius - 1.0) > 1e-12:
            raise ShapeError(
                "second_derivative_origin_1d requires the two-point dataset {-1, +1}")
        return self.laplacian_origin(t)

    def laplacian_origin(self, t: float) -> float:
        """Closed-form Laplacian of u at the origin for centered norm-r data.

        -beta * ( D/2 + ((D + r^2) theta^2 - D) / (theta^2 - 1)^2 ).
        Sign encodes origin stability; the flip defines the critical theta.
        """
        ds = self.dataset
        if not ds.centered or ds.radius <= 0:
            raise DomainError(
                "laplacian_origin requires a centered dataset with a norm certificate")
        s = self._s_of_t(t)
        theta, var = self._s_forward(s)
        beta = self.schedule.beta_at(s)
        d = float(ds.dim)
        r2 = ds.radius * ds.radius
        return float(-beta * (0.5 * d + ((d + r2) * theta * theta - d) / (var * var)))

    def hessian(self, x, t: float) -> np.ndarray:
        """Analytic Hessian of u via the posterior-covariance identity.

        H = beta * ( (1/(1-theta^2) - 1/2) I - Cov_w[theta Y] / (1-theta^2)^2 ).
        """
        s = self._s_of_t(t)
        X = self._as_point(x)
        theta, _ = self._s_forward(s)
        return self.schedule.beta_at(s) * curvature(X, self.dataset.points, theta)
