"""Exact score and potential for diffusion over a finite dataset.

With a variance-preserving forward kernel, the noised marginal of an
empirical dataset {y_j} is the Gaussian mixture

    p(x, s) = (1/N) sum_j Normal(x; theta*y_j, (1 - theta^2) I),  theta = theta(s),

so the score, the generative potential, and all its derivatives are
available in closed form.  Posterior weights over data points are softmax
of -|x - theta*y_j|^2 / (2*(1-theta^2)); `posterior` evaluates them, their
mean and their shifted log-sum-exp in one pass, so saturated regimes
(theta near 1) stay finite.  Its logits are one GEMM of the scaled batch and
the theta-free [Y^T ; -|y|^2/2 ; 1], in row blocks, point-major from N rows
up; a row whose logits a bound from |x| certifies comes out shifted into
exp's range, and any other row is shifted by its max and floored at -700.

The potential u(x, t) at generative time t (forward time s = T - t) is

    u = beta(s) * ( -|x|^2/4 - logsumexp_j( -|x - theta*y_j|^2 / (2*(1-theta^2)) ) )

with the mixture's 1/N and the Gaussian normalizer dropped (they are
x-independent and would only shift u by a constant).  Its negative gradient
is the generative drift: -grad u = beta * score + beta * x / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import EmpiricalDataset
from .errors import DomainError, ShapeError
from .schedule import VpSchedule


# Most scratch entries one call holds (1 MB of float64): rows go in blocks of
# k = max(1, _BLOCK_ENTRIES // (N + D + 2)): a (k, N) block, k scaled rows.
_BLOCK_ENTRIES = 2 ** 17
# numpy's vector exp leaves its fast path below about -708; e^-700 ~ 1e-304.
_EXP_FLOOR = -700.0
# A certified row's shifted logits span at most this, 10 inside the floor.
_SPREAD = -_EXP_FLOOR - 10.0


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """|x|^2 per row, without a (B, D) temporary."""
    return np.einsum("ij,ij->i", X, X)


@dataclass(frozen=True)
class KernelConstants:
    """The theta-free operands of a dataset's posterior kernel, built once
    per model instead of once per call: the points, the (D + 2, N) GEMM
    operand [Y^T ; -|y|^2 / 2 ; 1], whose ones row also sums the rows, and
    what `posterior` bounds each row's logits by (see `_certified_radius`):
    the points' mean, their radius max|y - mean| and the least and greatest
    |y|^2."""

    points: np.ndarray  # (N, D)
    operand: np.ndarray  # (D + 2, N), C-contiguous
    center: np.ndarray  # (D,)
    radius: float
    sq_min: float
    sq_max: float

    @classmethod
    def of(cls, points: np.ndarray) -> "KernelConstants":
        sq, center = _sq_norms(points), points.mean(axis=0)
        operand = np.ascontiguousarray(
            np.vstack([points.T, -0.5 * sq, np.ones_like(sq)]))
        for a in (operand, center):
            a.setflags(write=False)
        return cls(points, operand, center,
                   float(np.sqrt(np.max(_sq_norms(points - center)))),
                   float(sq.min()), float(sq.max()))


@dataclass(frozen=True)
class Posterior:
    """One pass of the posterior kernel over a (B, D) batch.

    log_norm is logsumexp_j of the shifted logits
    (theta/var) x.y_j - theta^2 |y_j|^2 / (2 var), as the row's shift (its
    bound U or its max) plus the log of its row sum; the log-kernels
    -|x - theta*y_j|^2 / (2 var) sum to log_norm - |x|^2 / (2 var).
    """

    log_norm: np.ndarray  # (B,)
    mean: np.ndarray | None  # (B, D) posterior mean E_w[y], if asked for
    weights: np.ndarray | None  # (B, N) posterior weights, if asked for


def _certified_radius(kernel: KernelConstants, theta: float) -> float:
    """The |x| below which `posterior` certifies a row at signal level theta:
    with c = theta/var, the row's logits lie in [U - S, U] for
    U = c (x.mu + R|x| - theta min|y|^2 / 2) and
    S = c (2 R|x| + theta (max|y|^2 - min|y|^2) / 2) (mu and R the points'
    mean and radius), and S <= _SPREAD; and the GEMM's terms, at most
    c (4 |x| max|y| + theta max|y|^2), stay below 2^52 / (D + 2), so that
    the shift -U rounds by under 1/2 inside it."""
    c = theta / (1.0 - theta * theta)
    radius = math.inf
    for budget, rate in (
            (_SPREAD - 0.5 * c * theta * (kernel.sq_max - kernel.sq_min),
             2.0 * c * kernel.radius),
            (2.0 ** 52 / (kernel.points.shape[1] + 2) - c * theta * kernel.sq_max,
             4.0 * c * math.sqrt(kernel.sq_max))):
        if not budget >= 0:
            return -math.inf
        if rate > 0:
            radius = min(radius, budget / rate)
    return radius


def posterior(X: np.ndarray, kernel: KernelConstants, theta: float, *,
              mean: bool = True, weights: bool = False) -> Posterior:
    """The posterior kernel of a (B, D) batch at signal level theta, over
    the dataset whose constants `kernel` holds.

    Softmax is shift-invariant per row, so the logits drop the row constant
    -|x|^2 / (2 var) and take a shift in one GEMM, [(theta/var) x,
    theta^2/var, -shift] @ [Y^T ; -|y|^2/2 ; 1], with theta all on the batch
    side, so the operand is the model's.  A certified row
    (`_certified_radius`) is shifted by its bound U: its logits leave the
    GEMM within [-_SPREAD, 0] and go straight to exp, and log_norm =
    U + log z.  Any other row (near s = 0, far, non-finite) is shifted by 0,
    then by its row max, and floored at -700 (so exp stays on its fast path;
    a weight below e^-700 of the row's top comes back as e^-700 / z, not 0
    or a subnormal); those passes run only on a block that holds such a row,
    with shift 0 for its certified rows.  A gemv against the ones row sums
    the exponentials; the mean divides the (B, D) product, and the weights
    each block, by the row sums.  Rows go in blocks through one reused
    buffer, for every output, so a row's bytes depend only on the row and
    its place in its block.  A block is point-major (column-major memory)
    when it holds at least N rows, so the row max runs down contiguous
    points, and row-major otherwise: point-major (62, 2048) blocks made the
    N = 2048 kernel 5-20% slower.
    """
    points = kernel.points
    B, (N, D) = X.shape[0], points.shape
    c, ones = theta / (1.0 - theta * theta), np.ones(D)
    certified = _certified_radius(kernel, theta)
    k = max(1, min(B, _BLOCK_ENTRIES // (N + D + 2)))
    order = "F" if N <= k else "C"  # point-major: max down contiguous rows
    log_norm = np.empty(B)
    M = np.empty((B, D)) if mean else None
    W = np.empty((B, N)) if weights else None
    buf = np.empty(k * N)
    for j in range(-(-B // k)):
        # rows [j k, j k + k), the last block short; no offset held as a
        # Python int, so every full block holds the same objects
        xb, shift = X[j * k:(j + 1) * k], log_norm[j * k:(j + 1) * k]
        m = len(shift)
        e = buf[:m * N].reshape(m, N, order=order)
        # |x| (2x faster than einsum at D = 2), then the shift, U or 0, by
        # per-row dots in the row's log_norm slot; a far or non-finite row's
        # overflow or NaN here leaves it uncertified, with shift 0
        with np.errstate(over="ignore", invalid="ignore"):
            np.sqrt(np.matmul(np.square(xb), ones, out=shift), out=shift)
            cert = shift < certified  # NaN compares False: uncertified
            n = np.count_nonzero(cert)
            if n:
                shift *= kernel.radius
                shift += xb @ kernel.center
                shift -= 0.5 * theta * kernel.sq_min
                shift *= c
        if n < m:
            shift[~cert] = 0.0
        # point-major, so rows fill contiguously (14 us less at (1000, 4))
        xt = np.empty((D + 2, m))
        xt[:D] = xb.T
        xt[D] = theta
        xt[:D + 1] *= c
        np.negative(shift, out=xt[D + 1])
        np.matmul(xt.T, kernel.operand, out=e)
        del xt  # a temporary's lifetime: held past here, it adds to the peak
        if n < m:  # the row max for uncertified rows, 0 for certified ones
            top = np.max(e, axis=1)
            top[cert] = 0.0
            e -= top[:, None]
            np.maximum(e, _EXP_FLOOR, out=e)
            shift += top
            del top
        np.exp(e, out=e)
        z = e @ kernel.operand[D + 1]  # row sums by gemv against the ones row
        if mean:
            np.matmul(e, points, out=M[j * k:(j + 1) * k])
            M[j * k:(j + 1) * k] /= z[:, None]
        if weights:
            np.divide(e, z[:, None], out=W[j * k:(j + 1) * k])
        shift += np.log(z, out=z)
        del z  # held into the next block's GEMM, it adds to the peak
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
