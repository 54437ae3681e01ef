"""Exception types shared across the package."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured resource limit (memory, sieve range)."""


class DomainError(ValueError):
    """Arguments lie outside the mathematical domain of an operation."""


class UnstableDifferentiationError(ArithmeticError):
    """Numerical differentiation estimates disagree beyond tolerance.

    Carries the conflicting estimates for diagnostics.
    """

    def __init__(self, message: str, estimates=None):
        super().__init__(message)
        self.estimates = estimates

