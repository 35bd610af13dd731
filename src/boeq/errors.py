"""Exception and warning types shared across the package."""


class BoeqError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(BoeqError):
    """A real field violates conjugate symmetry beyond tolerance."""


class IngestionError(BoeqError):
    """Input samples cannot be turned into a field (non-finite, malformed)."""


class ConfigurationError(BoeqError):
    """Run parameters are inconsistent (insufficient margin, bad grid, ...)."""


class DomainError(BoeqError):
    """Evaluation point lies outside the admissible domain (|z| >= 1, Im z <= 0)."""


class LinearAlgebraError(BoeqError):
    """A dense factorization failed its residual check."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class ConditioningError(BoeqError):
    """A linear solve left a residual above tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class BlowUpError(BoeqError):
    """The time stepper produced non-finite modes at truncation n."""

    def __init__(self, t: float, n: int):
        super().__init__(f"solution blew up at t = {t:.6g} at N = {n}")
        self.t = t
        self.n = n


class TruncationWarning(UserWarning):
    """Spectral content reached the truncation edge."""


class StabilityWarning(UserWarning):
    """Time step exceeds the documented stability guideline."""
