"""Exception types raised by the library.

Validation problems (bad shapes, out-of-range parameters) raise plain
ValueError; everything that can only be discovered numerically derives
from EstimationError so callers can map it to a distinct failure path.
"""


class EstimationError(Exception):
    """Base class for numerical / solver failures."""


class NotObservable(EstimationError):
    """The (A, C) pair does not determine the state."""


class DegenerateSvd(EstimationError):
    """The stacked observation matrix is numerically rank deficient."""


class DimensionMismatch(ValueError):
    """Inconsistent array shapes."""


class WindowOutOfRange(ValueError):
    """Requested window does not lie inside the trajectory."""


class RankDeficient(EstimationError):
    """Effective observation matrix (positive-weight rows) loses rank."""


class SolverFailure(EstimationError):
    """LP solver did not reach the certified duality-gap tolerance."""


class RiccatiDivergence(EstimationError):
    """Fixed-point Riccati iteration did not converge."""


class SupportTooLarge(ValueError):
    """Attack support must leave at least one row untouched."""


class EmptySupport(ValueError):
    """Attack support must contain at least one row."""


class EmptyEstimate(ValueError):
    """Estimated safe set is empty where a nonempty one is required."""


class NumericalInstability(EstimationError):
    """Computation drifted beyond its accuracy contract."""


class ConditionViolated(EstimationError):
    """Recovery-bound condition fails; the bound is undefined."""


class BudgetZero(ValueError):
    """Support-enumeration budget must be positive."""
