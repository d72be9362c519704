"""Exact score and potential for diffusion over a finite dataset.

With a variance-preserving forward kernel, the noised marginal of an
empirical dataset {y_j} is the Gaussian mixture

    p(x, s) = (1/N) sum_j Normal(x; theta*y_j, (1 - theta^2) I),  theta = theta(s),

so the score, the generative potential, and all its derivatives are
available in closed form.  Posterior weights over data points are softmax
of -|x - theta*y_j|^2 / (2*(1-theta^2)); `posterior` evaluates them, their
mean and their max-subtracted log-sum-exp in one pass, so saturated regimes
(theta near 1) stay finite.  Its logits are one GEMM of the scaled batch and
the theta-free [Y^T ; -|y|^2/2], in row blocks, point-major from N rows up;
shifted logits are floored at -700 before exp.

The potential u(x, t) at generative time t (forward time s = T - t) is

    u = beta(s) * ( -|x|^2/4 - logsumexp_j( -|x - theta*y_j|^2 / (2*(1-theta^2)) ) )

with the mixture's 1/N and the Gaussian normalizer dropped (they are
x-independent and would only shift u by a constant).  Its negative gradient
is the generative drift: -grad u = beta * score + beta * x / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import EmpiricalDataset
from .errors import DomainError, ShapeError
from .schedule import VpSchedule


# Most scratch entries one call holds (1 MB of float64): rows go in blocks of
# k = max(1, _BLOCK_ENTRIES // (N + D + 2)): a (k, N) block, k rows of x, k sums.
_BLOCK_ENTRIES = 2 ** 17
# numpy's vector exp leaves its fast path below about -708; e^-700 ~ 1e-304.
_EXP_FLOOR = -700.0


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 per row, without a (B, D) temporary."""
    return np.einsum("ij,ij->i", X, X)


@dataclass(frozen=True)
class KernelConstants:
    """The theta-free operands of a dataset's posterior kernel, built once
    per model instead of once per call: the points, the (D + 1, N) GEMM
    operand [Y^T ; -|y|^2 / 2] and the ones vector of the row sums."""

    points: np.ndarray  # (N, D)
    operand: np.ndarray  # (D + 1, N), C-contiguous
    ones: np.ndarray  # (N,)

    @classmethod
    def of(cls, points: np.ndarray) -> "KernelConstants":
        operand = np.empty((points.shape[1] + 1, points.shape[0]))
        operand[:-1] = points.T
        np.multiply(_sq_norms(points), -0.5, out=operand[-1])
        consts = (operand, np.ones(points.shape[0]))
        for a in consts:
            a.setflags(write=False)
        return cls(points, *consts)


@dataclass(frozen=True)
class Posterior:
    """One pass of the posterior kernel over a (B, D) batch.

    log_norm is logsumexp_j of the shifted logits
    (theta/var) x.y_j - theta^2 |y_j|^2 / (2 var); the log-kernels
    -|x - theta*y_j|^2 / (2 var) sum to log_norm - |x|^2 / (2 var).
    """

    log_norm: np.ndarray  # (B,)
    mean: np.ndarray | None  # (B, D) posterior mean E_w[y], if asked for
    weights: np.ndarray | None  # (B, N) posterior weights, if asked for


def posterior(X: np.ndarray, kernel: KernelConstants, theta: float, *,
              mean: bool = True, weights: bool = False) -> Posterior:
    """The posterior kernel of a (B, D) batch at signal level theta, over
    the dataset whose constants `kernel` holds.

    Softmax is shift-invariant per row, so the logits drop the row constant
    -|x|^2 / (2 var): one GEMM [(theta/var) x, theta^2/var] @ [Y^T ; -|y|^2/2]
    adds the per-point bias with theta all on the batch side, so the operand
    is the model's.  Each row is shifted by its max, floored at -700 (so exp
    stays on its fast path; a weight below e^-700 of the row's top comes back
    as e^-700 / z, not 0 or a subnormal), exponentiated and summed by a gemv
    against ones; the mean divides the (B, D) product, and the weights each
    block, by the row sums.  Rows go in blocks through one reused buffer, for
    every output.  A block is point-major (column-major memory) when it holds
    at least N rows, so the row max runs down contiguous points, and row-major
    otherwise: wide rows reduce fast, and point-major (62, 2048) blocks made
    the N = 2048 kernel 5-20% slower.
    """
    points = kernel.points
    B, (N, D) = X.shape[0], points.shape
    var = 1.0 - theta * theta
    k = max(1, min(B, _BLOCK_ENTRIES // (N + D + 2)))
    order = "F" if N <= k else "C"  # point-major: max down contiguous rows
    log_norm = np.empty(B)
    M = None
    W = np.empty((B, N)) if weights else None
    buf = np.empty(k * N)
    for lo in range(0, B, k):
        m = min(k, B - lo)  # a contiguous block, also when the last is short
        e = buf[:m * N].reshape(m, N, order=order)
        # [x, theta] * (theta/var), scaled whole: a ufunc that writes a
        # strided column slice holds a buffer the size of the slice
        xa = np.empty((m, D + 1))
        xa[:, :D] = X[lo:lo + m]
        xa[:, D] = theta
        xa *= theta / var
        np.matmul(xa, kernel.operand, out=e)
        del xa  # a temporary's lifetime: held past here, it adds to the peak
        top = np.max(e, axis=1, out=log_norm[lo:lo + m])  # row max, for now
        e -= top[:, None]
        np.maximum(e, _EXP_FLOOR, out=e)
        np.exp(e, out=e)
        z = e @ kernel.ones  # row sums by gemv, after the broadcasts' ufunc buffers
        if mean:
            if M is None:  # after the broadcasts, each of which holds numpy's
                # 64 KB ufunc buffer: a one-block call then peaks lower
                M = np.empty((B, D))
            np.matmul(e, points, out=M[lo:lo + m])
            M[lo:lo + m] /= z[:, None]
        if weights:
            np.divide(e, z[:, None], out=W[lo:lo + m])
        top += np.log(z)
    if mean and M is None:  # an empty batch
        M = np.empty((0, D))
    return Posterior(log_norm, M, W)


def curvature(x: np.ndarray, kernel: KernelConstants,
              theta: float) -> np.ndarray:
    """Hessian of the potential at one (1, D) state, up to the factor beta > 0.

    (1/var - 1/2) I - Cov_w[theta Y] / var^2 by the posterior-covariance
    identity, with var = 1 - theta^2; the points' one scaled copy is P^T * w.
    """
    var = 1.0 - theta * theta
    post = posterior(x, kernel, theta, weights=True)
    P, mean = kernel.points, post.mean[0]
    cov = theta * theta * ((P.T * post.weights[0]) @ P - np.outer(mean, mean))
    return (1.0 / var - 0.5) * np.eye(P.shape[1]) - cov / (var * var)


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
    kernel: KernelConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kernel", KernelConstants.of(self.dataset.points))

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

    def _posterior(self, x, s: float, **want):
        """(X, post, theta, var): x as a checked batch, its posterior at s."""
        X = self._as_batch(x)
        theta, var = self._s_forward(s)
        return X, posterior(X, self.kernel, theta, **want), theta, var

    # -- density and score -------------------------------------------------

    def _logpdf(self, X: np.ndarray, post: Posterior, var: float) -> np.ndarray:
        """Mixture log-density per row of X: the row constant added back."""
        n, d = self.dataset.n_points, self.dataset.dim
        return (post.log_norm - _sq_norms(X) / (2.0 * var)
                - np.log(n) - 0.5 * d * np.log(2.0 * np.pi * var))

    def mixture_logpdf_batch(self, X, s: float) -> np.ndarray:
        X, post, _, var = self._posterior(X, s, mean=False)
        return self._logpdf(X, post, var)

    def mixture_logpdf(self, x, s: float) -> float:
        return float(self.mixture_logpdf_batch(self._as_point(x), s)[0])

    def posterior_weights_batch(self, X, s: float) -> np.ndarray:
        return self._posterior(X, s, mean=False, weights=True)[1].weights

    @staticmethod
    def _score(X: np.ndarray, mean: np.ndarray, theta: float,
               var: float) -> np.ndarray:
        """(theta * mean - X) / var, in place in the posterior mean."""
        mean *= theta
        mean -= X
        mean /= var
        return mean

    def score_batch(self, X, s: float) -> np.ndarray:
        """Gradient of log p(x, s) wrt x: sum_j w_j (theta*y_j - x) / var."""
        X, post, theta, var = self._posterior(X, s)
        return self._score(X, post.mean, theta, var)

    def posterior_mean_batch(self, X, s: float) -> np.ndarray:
        """Denoiser output E[Y0 | x at time s] = sum_j w_j y_j."""
        return self._posterior(X, s)[1].mean

    def score(self, x, s: float) -> ScoreEval:
        X, post, theta, var = self._posterior(self._as_point(x), s, weights=True)
        return ScoreEval(float(self._logpdf(X, post, var)[0]),
                         self._score(X, post.mean, theta, var)[0], post.weights[0])

    # -- potential and curvature -------------------------------------------

    def potential_batch(self, X, t: float) -> np.ndarray:
        s = self._s_of_t(t)
        X, post, _, var = self._posterior(X, s, mean=False)
        beta = self.schedule.beta_at(s)
        # -|x|^2/4 minus the log-kernel sum, log_norm - |x|^2 / (2 var)
        return beta * ((0.5 / var - 0.25) * _sq_norms(X) - post.log_norm)

    def potential(self, x, t: float) -> float:
        return float(self.potential_batch(self._as_point(x), t)[0])

    def potential_gradient_batch(self, X, t: float) -> np.ndarray:
        """grad u = -beta * (score + x/2); -grad u is the generative drift."""
        s = self._s_of_t(t)
        sc = self.score_batch(X, s)  # checks X
        beta = self.schedule.beta_at(s)
        return -beta * (sc + 0.5 * np.asarray(X, dtype=np.float64))

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
        return self.schedule.beta_at(s) * curvature(X, self.kernel, theta)
