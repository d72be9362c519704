"""Exception types shared across the package.

The CLI maps these onto exit codes: NumericalError subclasses -> 3, every
other SymbreakError -> 2. Library callers can catch the narrower types.
"""


class SymbreakError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SymbreakError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


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
