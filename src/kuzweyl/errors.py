"""Exception and warning types shared across the package.

The CLI maps these onto process exit codes: ValidationError -> 1,
ToleranceError -> 2, ResourceGuardError -> 3.
"""


class ValidationError(ValueError):
    """Bad input: precondition violated, unparseable config, unsupported range."""


class TruncationRiskError(ValidationError):
    """A requested sum would silently truncate its inner spectral sum."""


class ToleranceError(RuntimeError):
    """A numerical target was not met (accuracy, convergence)."""


class AccuracyError(ToleranceError):
    """Quadrature accuracy target not met; carries the achieved estimate."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class NonConvergenceError(ToleranceError):
    """Extrapolation residuals failed to decrease."""


class ResourceGuardError(RuntimeError):
    """A computation would exceed the configured resource budget."""


class CacheCorruptionWarning(UserWarning):
    """A cache file could not be used and was rebuilt."""


class TailBoundWarning(UserWarning):
    """Spectral tail beyond the cached cutoff may not be negligible."""
