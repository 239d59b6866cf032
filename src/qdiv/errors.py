"""Exception types raised across the package."""


class QdivError(Exception):
    """Base class for all package-specific errors."""


class EigenSolverError(QdivError):
    """Eigendecomposition failed to converge."""


class MatrixDomainError(QdivError):
    """A scalar function was evaluated at an eigenvalue outside its domain."""


class PSDViolationError(QdivError):
    """A matrix is negative beyond the clip tolerance."""


class SupportViolationError(QdivError):
    """A support-containment or support-equality precondition failed."""


class RankError(QdivError):
    """Input is rank deficient where full rank (or full support) is required."""


class DimensionCapError(QdivError):
    """A tensor power would exceed the configured dimension cap."""


class InfeasibleRateError(QdivError):
    """Asymptotic reverse test cannot meet the requested rate at this n."""

    def __init__(self, message, min_rate=None):
        super().__init__(message)
        self.min_rate = min_rate


class ValidationError(QdivError):
    """A value violates its type invariants (parsers and constructors)."""
