"""Variance-preserving noise schedule with a linear noise-rate ramp.

The forward process is dY = -0.5*beta(s)*Y ds + sqrt(beta(s)) dW on
s in [0, 1].  Its transition kernel is Normal(theta(s)*y0, (1-theta(s)^2)*I)
with theta(s) = exp(-0.5 * integral_0^s beta(u) du), which is available in
closed form for the linear ramp used here.  Time is continuous on the fixed
unit horizon: forward time s in [0, 1], generative time t = 1 - s; step
indices on a 1000-step discretization map to s = index / 1000.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DomainError, check_count, check_real


@dataclass(frozen=True)
class VpSchedule:
    """Linear noise-rate schedule beta(s) = beta_min + s*(beta_max - beta_min).

    n_steps is the reference discretization used to interpret integer start
    times (s = index / n_steps); it does not constrain sampler step grids.
    """

    beta_min: float = 0.1
    beta_max: float = 20.0
    n_steps: int = 1000
    horizon: ClassVar[float] = 1.0

    def __post_init__(self):
        if check_real(self.beta_min, "beta_min") <= 0:
            raise DomainError(f"beta_min must be > 0, got {self.beta_min!r}",
                              name="beta_min")
        if check_real(self.beta_max, "beta_max") < self.beta_min:
            raise DomainError(f"beta_max must be >= beta_min, got "
                              f"{self.beta_max!r}", name="beta_max")
        check_count(self.n_steps, "n_steps", 2)

    def _check_time(self, s):
        """s in [0, horizon]: a Python float as itself, which skips the 0-d
        array round trip (10x faster per call), anything else, numpy
        scalars included, as a float array."""
        if type(s) is float:  # not np.float64, a float subclass
            inside = 0.0 <= s <= self.horizon
        else:
            s = np.asarray(s, dtype=float)
            inside = np.all((s >= 0) & (s <= self.horizon))
        if not inside:  # NaN fails every comparison
            raise DomainError(f"time must lie in [0, {self.horizon}]")
        return s

    def beta_at(self, s):
        """Noise rate at forward time s."""
        s = self._check_time(s)
        out = self.beta_min + s * (self.beta_max - self.beta_min)
        return out if isinstance(out, np.ndarray) else float(out)

    def theta_at(self, s):
        """Signal coefficient theta(s) = exp(-s^2*(bmax-bmin)/4 - s*bmin/2).

        Decreasing in s; theta(0) = 1.
        """
        s = self._check_time(s)
        expo = -0.25 * s * s * (self.beta_max - self.beta_min) - 0.5 * s * self.beta_min
        out = np.exp(expo)  # math.exp differs in the last bit on ~5% of s
        return out if isinstance(out, np.ndarray) else float(out)

    def invert_theta(self, theta: float) -> float:
        """Forward time s at which theta_at(s) equals the given value.

        Defined for theta in [theta_at(horizon), 1]; the exponent is a
        monotone quadratic so the inverse is the closed-form root in range.
        """
        theta_end = self.theta_at(self.horizon)
        if not theta_end <= check_real(theta, "theta") <= 1.0:
            raise DomainError(f"theta must lie in [{theta_end:.6g}, 1] to be "
                              f"invertible, got {theta!r}", name="theta")
        if theta == 1.0:
            return 0.0
        # Solve (dbeta/4) s^2 + (beta_min/2) s + ln(theta) = 0 for s.
        dbeta = self.beta_max - self.beta_min
        c = np.log(theta)
        if dbeta == 0.0:
            s = -2.0 * c / self.beta_min
        else:
            a = 0.25 * dbeta
            b = 0.5 * self.beta_min
            s = (-b + np.sqrt(b * b - 4.0 * a * c)) / (2.0 * a)
        return float(np.clip(s, 0.0, 1.0))

    def discrete_grid(self, n_sub: int, s_start: float) -> np.ndarray:
        """Equally spaced forward times from s_start down to 0, n_sub+1 nodes."""
        check_count(n_sub, "n_sub", 1)
        if not 0 < check_real(s_start, "s_start") <= self.horizon:
            raise DomainError(f"s_start must lie in (0, {self.horizon}]",
                              name="s_start")
        return np.linspace(s_start, 0.0, n_sub + 1)
