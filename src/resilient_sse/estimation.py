"""State decoders, residual detector, and the Luenberger baseline.

Every decoder is one weighted l1 regression on the stacked observation
matrix H, solved exactly by the certified LP solve of ``lp``: ``decode`` with
unit weights, ``weighted_observer`` with weight 1 on the pruned safe rows and
omega elsewhere, and ``solve_weighted_l1`` with any nonnegative weights.
Each takes an optional ``start`` basis (row indices of H) and returns the
solve's ``LpSolution`` as it stands: ``z`` is the state estimate, and
``basis`` is the start to pass to a related solve.  The residual detector
is ``detect``; a caller that thresholds a residual or measures an error
against a known state does so itself.
"""

from __future__ import annotations

import numpy as np

from .errors import EstimationError
from .lp import LpSolution, weighted_l1_regression
from .lti import HorizonModel, LtiSystem, row_indices

_RICCATI_TOL = 1e-10
_RICCATI_MAX_ITER = 10**5


def solve_weighted_l1(model: HorizonModel, y_T, weights, start=None) -> LpSolution:
    """Exact minimizer of the weighted l1 measurement residual.

    ``y_T`` and ``weights`` hold one entry per row of H (ValueError from
    the LP otherwise).  Zero weights are allowed only while the remaining
    rows keep full column rank (else an EstimationError names the deficiency).
    ``start`` is an optional warm-start basis, see ``lp.weighted_l1_regression``.
    """
    return weighted_l1_regression(model.H, y_T, weights, start=start)


def decode(model: HorizonModel, y_T, start=None) -> LpSolution:
    """Plain l1 decoder: the weighted solve with unit weights."""
    return solve_weighted_l1(model, y_T, np.ones(model.rows), start=start)


def detect(model: HorizonModel, y_T, x_hat, epsilon: float) -> bool:
    """Residual detector: flags iff the l1 residual strictly exceeds epsilon."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    y_T = np.asarray(y_T, dtype=float).reshape(-1)
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):  # a residual beyond the largest float flags, as inf
        return bool(np.abs(y_T - model.H @ x_hat).sum() > epsilon)


def weighted_observer(model: HorizonModel, y_T, pruned_safe_set, omega: float,
                      start=None) -> LpSolution:
    """Weighted l1 observer: weight 1 on the pruned safe rows, omega elsewhere."""
    return solve_weighted_l1(model, y_T, observer_weights(model, pruned_safe_set, omega),
                             start=start)


def observer_weights(model: HorizonModel, pruned_safe_set, omega: float) -> np.ndarray:
    """The row weights of ``weighted_observer``: 1 on the pruned safe rows, omega elsewhere."""
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    w = np.full(model.rows, float(omega))
    w[row_indices(pruned_safe_set, model.rows, "trusted indices")] = 1.0
    return w


# ---------------------------------------------------------------------------
# Luenberger baseline
# ---------------------------------------------------------------------------

def riccati_gain(sys: LtiSystem) -> np.ndarray:
    """Steady-state Kalman gain with unit process/measurement covariances.

    Fixed-point iteration of the Riccati recursion until successive gains
    change by at most 1e-10; an EstimationError names the failure when that
    takes over 10^5 iterations or A - L C is not strictly stable.
    """
    n, m = sys.n, sys.m
    I_n, I_m = np.eye(n), np.eye(m)
    P = I_n
    L = np.zeros((n, m))
    for _ in range(_RICCATI_MAX_ITER):
        S = sys.C @ P @ sys.C.T + I_m
        L_new = np.linalg.solve(S.T, sys.C @ P.T @ sys.A.T).T
        P = sys.A @ P @ sys.A.T - L_new @ S @ L_new.T + I_n
        if np.max(np.abs(L_new - L)) <= _RICCATI_TOL:
            L = L_new
            radius = np.max(np.abs(np.linalg.eigvals(sys.A - L @ sys.C)))
            if radius >= 1.0:
                raise EstimationError(f"closed-loop spectral radius {radius:.6f} >= 1")
            return L
        L = L_new
    raise EstimationError(f"gain did not settle within {_RICCATI_MAX_ITER} iterations")


def luenberger_baseline(sys: LtiSystem, measurements) -> np.ndarray:
    """Classic observer x_{i+1} = A x_i + L(y_i - C x_i) with the steady gain.

    Returns one estimate per measurement index, where estimate i uses
    measurements up to i-1 (prediction form); the initial estimate is the
    zero state.
    """
    Y = np.asarray(measurements, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != sys.m:
        raise ValueError(f"measurements have shape {Y.shape}, expected (*, {sys.m})")
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
