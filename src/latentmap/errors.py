"""Exception types shared across the package.

The CLI maps each class onto a process exit code in ``cli.EXIT_CODES``:
ShapeError and DataError exit 3, DependencyError 4, NumericError 5.
"""


class LatentMapError(Exception):
    """Base class for all package errors."""


class ShapeError(LatentMapError, ValueError):
    """Tensor/matrix dimensions do not line up."""


class DataError(LatentMapError, ValueError):
    """Input data violates a contract (bad file, bad ids, empty result)."""


class DependencyError(LatentMapError, RuntimeError):
    """A required upstream artifact is missing or the run directory is in
    the wrong state (stage gating, locks, overwrite refusal)."""


class NumericError(LatentMapError, ArithmeticError):
    """A numeric invariant broke (non-finite loss, NaN gradient)."""
