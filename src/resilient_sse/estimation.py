"""State decoders, residual detector, and the Luenberger baseline.

Every decoder is one weighted l1 regression on the stacked observation
matrix H, solved exactly by the certified LP solve of ``lp``: ``decode`` with
unit weights, ``weighted_observer`` with weight 1 on the pruned safe rows and
omega elsewhere, and ``solve_weighted_l1`` with any nonnegative weights.
Each takes an optional ``start`` basis (row indices of H), and each result
carries the optimal ``basis`` to pass as the start of a related solve, such
as the next window of a moving-window run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RiccatiDivergence
from .lp import weighted_l1_regression
from .lti import HorizonModel, LtiSystem

_RICCATI_TOL = 1e-10
_RICCATI_MAX_ITER = 10**5


@dataclass(frozen=True)
class WeightVector:
    """Two-level weights: 1 on trusted rows, omega elsewhere."""

    values: np.ndarray
    omega: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if not ((values == 1.0) | (values == self.omega)).all():
            raise ValueError(
                f"weight entries must be 1 or omega={self.omega}, got levels {np.unique(values)}"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @classmethod
    def from_trusted(cls, size: int, trusted, omega: float) -> "WeightVector":
        if not isinstance(trusted, np.ndarray):
            trusted = list(trusted)
        trusted = np.asarray(trusted, dtype=int)
        if trusted.size and (trusted.min() < 0 or trusted.max() >= size):
            raise ValueError(f"trusted indices must lie in [0, {size})")
        values = np.full(size, float(omega))
        values[trusted] = 1.0
        return cls(values=values, omega=float(omega))


@dataclass(frozen=True)
class EstimateResult:
    """Decoded state with the solve diagnostics used by the experiments."""

    x_hat: np.ndarray
    objective: float
    residual_l1: float
    detector_flag: bool | None = None
    error_l2: float | None = None
    basis: np.ndarray | None = None   # optimal basis rows of H, a start for the next solve
    iterations: int = 0               # simplex pivots
    gap: float = 0.0                  # certified duality gap


def _weights_array(weights, rows: int) -> np.ndarray:
    w = weights.values if isinstance(weights, WeightVector) else np.asarray(weights, dtype=float)
    if w.shape != (rows,):
        raise DimensionMismatch(f"weights have shape {w.shape}, expected ({rows},)")
    return w


def solve_weighted_l1(
    model: HorizonModel,
    y_T,
    weights,
    epsilon: float | None = None,
    x_true=None,
    start=None,
) -> EstimateResult:
    """Exact minimizer of the weighted l1 measurement residual.

    Weight entries of zero are allowed only while the remaining rows keep
    full column rank (RankDeficient otherwise).  ``start`` is an optional
    warm-start basis, see ``lp.weighted_l1_regression``.
    """
    y_T = np.asarray(y_T, dtype=float).reshape(-1)
    if y_T.shape[0] != model.rows:
        raise DimensionMismatch(f"y_T has length {y_T.shape[0]}, expected {model.rows}")
    w = _weights_array(weights, model.rows)
    if x_true is not None:
        x_true = np.asarray(x_true, dtype=float)
        if x_true.shape != (model.n,):
            raise DimensionMismatch(f"x_true has shape {x_true.shape}, expected ({model.n},)")
    sol = weighted_l1_regression(model.H, y_T, w, start=start)
    flag = None if epsilon is None else detect(model, y_T, sol.z, epsilon)
    err = None if x_true is None else float(np.linalg.norm(sol.z - x_true))
    return EstimateResult(
        x_hat=sol.z,
        objective=sol.objective,
        residual_l1=float(np.abs(sol.residual).sum()),
        detector_flag=flag,
        error_l2=err,
        basis=sol.basis,
        iterations=sol.iterations,
        gap=sol.gap,
    )


def decode(
    model: HorizonModel,
    y_T,
    epsilon: float | None = None,
    x_true=None,
    start=None,
) -> EstimateResult:
    """Plain l1 decoder: the weighted solve with unit weights."""
    return solve_weighted_l1(
        model, y_T, np.ones(model.rows), epsilon=epsilon, x_true=x_true, start=start
    )


def detect(model: HorizonModel, y_T, x_hat, epsilon: float) -> bool:
    """Residual detector: flags iff the l1 residual strictly exceeds epsilon."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    y_T = np.asarray(y_T, dtype=float).reshape(-1)
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    return bool(np.abs(y_T - model.H @ x_hat).sum() > epsilon)


def weighted_observer(
    model: HorizonModel,
    y_T,
    pruned_safe_set,
    omega: float,
    epsilon: float | None = None,
    x_true=None,
    start=None,
) -> EstimateResult:
    """Weighted l1 observer: weight 1 on the pruned safe rows, omega elsewhere."""
    w = WeightVector.from_trusted(model.rows, pruned_safe_set, omega)
    return solve_weighted_l1(model, y_T, w, epsilon=epsilon, x_true=x_true, start=start)


# ---------------------------------------------------------------------------
# Luenberger baseline
# ---------------------------------------------------------------------------

def riccati_gain(sys: LtiSystem) -> np.ndarray:
    """Steady-state Kalman gain with unit process/measurement covariances.

    Fixed-point iteration of the Riccati recursion until successive gains
    change by at most 1e-10 (RiccatiDivergence after 10^5 iterations); the
    closed-loop matrix A - L C must end up strictly stable.
    """
    n, m = sys.n, sys.m
    P = np.eye(n)
    L = np.zeros((n, m))
    for _ in range(_RICCATI_MAX_ITER):
        S = sys.C @ P @ sys.C.T + np.eye(m)
        L_new = np.linalg.solve(S.T, sys.C @ P.T @ sys.A.T).T
        P = sys.A @ P @ sys.A.T - L_new @ S @ L_new.T + np.eye(n)
        if np.max(np.abs(L_new - L)) <= _RICCATI_TOL:
            L = L_new
            radius = np.max(np.abs(np.linalg.eigvals(sys.A - L @ sys.C)))
            if radius >= 1.0:
                raise RiccatiDivergence(f"closed-loop spectral radius {radius:.6f} >= 1")
            return L
        L = L_new
    raise RiccatiDivergence(f"gain did not settle within {_RICCATI_MAX_ITER} iterations")


def luenberger_baseline(sys: LtiSystem, measurements) -> np.ndarray:
    """Classic observer x_{i+1} = A x_i + L(y_i - C x_i) with the steady gain.

    Returns one estimate per measurement index, where estimate i uses
    measurements up to i-1 (prediction form); the initial estimate is the
    zero state.
    """
    Y = np.asarray(measurements, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != sys.m:
        raise DimensionMismatch(f"measurements have shape {Y.shape}, expected (*, {sys.m})")
    L = riccati_gain(sys)
    x_hat = np.zeros(sys.n)
    out = np.zeros((Y.shape[0], sys.n))
    for i in range(Y.shape[0]):
        out[i] = x_hat
        x_hat = sys.A @ x_hat + L @ (Y[i] - sys.C @ x_hat)
    return out


def best_k_sparse_error(e, k: int) -> float:
    """l1 mass left after removing the k largest-magnitude entries.

    Ties between equal magnitudes are broken by keeping the lowest index.
    """
    e = np.asarray(e, dtype=float).reshape(-1)
    if not 0 <= k <= e.shape[0]:
        raise ValueError(f"k must lie in [0, {e.shape[0]}], got {k}")
    order = np.argsort(-np.abs(e), kind="stable")  # stable: lowest index wins ties
    return float(np.abs(e[order[k:]]).sum())
