"""Exception types shared across the package."""


class ResourceError(RuntimeError):
    """A computation would exceed a configured resource limit (memory, sieve range)."""


class DomainError(ValueError):
    """Arguments lie outside the mathematical domain of an operation."""

