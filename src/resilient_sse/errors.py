"""Exception types raised by the library.

There are two kinds of error, matching the CLI's exit codes.  Validation
problems (bad shapes, out-of-range parameters, input the package cannot
represent) raise plain ValueError: exit 1.  Everything that can only be
discovered numerically derives from EstimationError, one subclass per
failure, so callers can map it to a distinct failure path: exit 2.
"""


class EstimationError(Exception):
    """Base class for numerical / solver failures."""


class NotObservable(EstimationError):
    """The (A, C) pair does not determine the state."""


class DegenerateSvd(EstimationError):
    """The stacked observation matrix is numerically rank deficient."""


class RankDeficient(EstimationError):
    """Effective observation matrix (positive-weight rows) loses rank."""


class SolverFailure(EstimationError):
    """LP solver did not reach the certified duality-gap tolerance."""


class RiccatiDivergence(EstimationError):
    """Fixed-point Riccati iteration did not converge."""


class NumericalInstability(EstimationError):
    """Computation drifted beyond its accuracy contract."""


class ConditionViolated(EstimationError):
    """Recovery-bound condition fails; the bound is undefined."""
