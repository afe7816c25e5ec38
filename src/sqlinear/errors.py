"""Exception hierarchy.

Two families: precondition/input problems (``ValidationError``, CLI exit
code 2) and numeric/solver failures (``NumericError``, CLI exit code 3).
"""


class SqlinearError(Exception):
    """Base class for all package errors."""


class ValidationError(SqlinearError):
    """Input or precondition violation."""


class NumericError(SqlinearError):
    """Numerical computation failed (solver, path tracking, ...)."""


class RankDeficient(ValidationError):
    """Coefficient matrix does not have the full rank an operation assumes."""


class ParallelRows(ValidationError):
    """Two hyperplane rows are parallel; states are labeled, so we refuse to merge."""

    def __init__(self, pairs):
        self.pairs = list(pairs)
        super().__init__(f"parallel coefficient rows: {self.pairs}")


class BudgetExceeded(ValidationError):
    """Subset-enumeration budget (n <= 24) exceeded."""


class ZeroPoint(ValidationError):
    """The zero vector does not represent a projective point."""


class OnHyperplane(NumericError):
    """Evaluation point lies on a model hyperplane with positive data weight."""


class DegenerateLeadingBlock(ValidationError):
    """Leading block of the squared-forms matrix is singular.

    Carries ``permutation``, a row order that repairs invertibility when one
    exists, so the caller can relabel states explicitly.
    """

    def __init__(self, message, permutation=None):
        self.permutation = permutation
        super().__init__(message)


class NoConvergence(NumericError):
    """Newton solve found no critical point in a region.

    ``trace`` holds (iteration, lambda / sqrt(sum(s))) pairs for diagnosis,
    lambda being the Newton decrement that ``tol`` bounds, and ``failures``
    the (region, error) pairs when it stands for several regions.
    """

    def __init__(self, message, trace=None, failures=None):
        self.trace = list(trace or [])
        self.failures = list(failures or [])
        super().__init__(message)


class BoundaryData(ValidationError):
    """Data vector has zero entries; use the degeneration routines instead."""


class AnchorNotUnique(ValidationError):
    """Minimum of the valuation vector is attained more than once."""


class PathLost(NumericError):
    """A warm-started solve left its region during path tracking."""


class ZeroCoordinate(ValidationError):
    """Model point has a zero coordinate where a nonzero one is required."""


class EmptyPolytope(NumericError):
    """Vertex enumeration produced no vertices (should not happen for valid input)."""


class DegenerateMinor(ValidationError):
    """A chamber determinant vanishes identically; the model is not generic."""


class ReductionFailed(ValidationError):
    """Row reduction of the fixed parameter block failed.

    ``block`` records the offending submatrix.
    """

    def __init__(self, message, block=None):
        self.block = block
        super().__init__(message)


class DimensionUnsupported(ValidationError):
    """Plotting is only available for parameter dimension 2 or 3."""
