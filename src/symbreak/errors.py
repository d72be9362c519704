"""Exception types shared across the package.

The CLI maps these onto exit codes: NumericalError subclasses -> 3, every
other SymbreakError -> 2. Library callers can catch the narrower types.
Every public count or real argument passes `check_count` or `check_real`.
"""

import math
import numbers


class SymbreakError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SymbreakError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def check_count(value, name: str, least: int) -> int:
    """int(value) for an integer >= least, not a bool; else DomainError."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def check_real(value, name: str):
    """value itself if a finite real number, not a bool; else DomainError."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) < math.inf):  # NaN fails, a huge int passes
        raise DomainError(f"{name} must be a finite real number, got {value!r}")
    return value


class ShapeError(SymbreakError, ValueError):
    """An array argument has the wrong shape or an incompatible dataset was passed."""


class ParseError(SymbreakError, ValueError):
    """A CSV cell or config value could not be parsed; message names the location."""


class ConfigError(SymbreakError, ValueError):
    """An experiment config failed validation; message names the field path."""


class NumericalError(SymbreakError, RuntimeError):
    """Base for runtime numerical failures (exit code 3 in the CLI)."""


class ConvergenceError(NumericalError):
    """An iterative procedure exhausted its iteration budget."""


class DivergedError(NumericalError):
    """A sampler state became non-finite; message names the step index."""


class FactorizationError(NumericalError):
    """A covariance could not be factorized even after jitter."""


class DegenerateDataError(SymbreakError, ValueError):
    """A dataset cannot support the requested operation (e.g. a point at the origin)."""
