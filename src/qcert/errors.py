"""Exception types shared across the package."""


class QcertError(Exception):
    """Base class for all package-specific errors."""


class NonUnitConstantTerm(QcertError):
    """Series inversion requires an invertible constant term."""


class DivergentProduct(QcertError):
    """Infinite product whose factors do not eventually truncate."""


class RepeatedOddPart(QcertError):
    """Partition violates the distinct-odd-parts restriction."""


class BoundExceeded(QcertError):
    """Counting a tally past its weight limit (see require_limit)."""


class UnknownFormId(QcertError):
    """No closed form registered under the requested id."""


class InsufficientOrder(QcertError):
    """Truncation order too small to sample the check's progression."""
