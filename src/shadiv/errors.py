"""Exception types shared across the package."""


class ShadivError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(ShadivError):
    """An enumeration or scan exceeded its configured budget."""


class NonInvertibleGenerator(ShadivError):
    """A subgroup generator is singular mod p."""


class ModeUnsupported(ShadivError):
    """Enumeration mode not available for this prime."""


class InternalInconsistency(ShadivError):
    """An exhaustive case analysis fell through; indicates a bug."""


class SingularCurve(ShadivError):
    """Weierstrass data with discriminant zero."""


class BadReduction(ShadivError):
    """Operation requires good reduction at the given prime."""


class UnsupportedPrime(ShadivError):
    """The requested prime is outside the supported range (e.g. p = 2)."""
