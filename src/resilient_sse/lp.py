"""Exact weighted least-absolute-deviations solver.

Solves  minimize_z  sum_j w_j |y_j - (A z)_j|  for dense A with full column
rank on the positive-weight rows, by the l1 simplex method of Barrodale and
Roberts ("An improved algorithm for discrete l1 linear approximation", SIAM
J. Numer. Anal. 10(5), 1973): a descent from vertex to vertex of the
piecewise-linear objective.

A vertex is a basis B of n positive-weight rows that the fit interpolates,
z = A_B^-1 y_B.  The dual of the regression problem is

    max  y^T nu   s.t.  A^T nu = 0,  |nu_j| <= w_j,

and complementary slackness completes the dual of a vertex uniquely:
nu_N = w_N sign(r_N) off the basis and nu_B = -A_B^-T A_N^T nu_N on it.  The
vertex is optimal iff |nu_B| <= w_B, and then y^T nu is a lower bound that
certifies it.  Otherwise the basis row with the worst violation is released
and the exact line search along that edge, a weighted median of the
breakpoints where residuals change sign, picks the row that enters.  The
rows whose residual changes sign along the edge h are those off the basis
with nu_j h_j > 0, since nu_j = +-w_j carries the sign of r_j and nu_B = 0.

Exact data makes the optimum degenerate (more than n rows fit with zero
residual), and plain pivoting cycles there.  The pivots therefore run on y
plus a tiny deterministic perturbation; the final basis is evaluated on the
original y, and its dual, which does not depend on y, certifies that point.
Should the pivots still cycle, after 10 pivots per row the solve switches
to Bland's rule, which cannot cycle in exact arithmetic: the violating
basis row of lowest index leaves, and the step stops at the first
breakpoint (the lowest row on a tie).  After as many pivots again the solve
raises SolverFailure.
The problem is positively homogeneous in (y, z), so the pivots run on y
scaled to unit max-norm, and the gap is checked in those units as well as in
the caller's.

Between pivots a tableau is updated instead of refactored: one (n+1) x N
array whose first n rows hold D^T, the transpose of D = A A_B^-1, and whose
last row holds the residual r = y - D y_B.  Then nu_B = -D^T nu_N, the edge
h is +-row k, and row j replacing basis row k is the rank-one update
Tab -= (Tab[:, j] - e_k) h^T / h_j: on the D^T rows the update
D -= D[:, k] (D[j] - e_k) / D[j, k] transposed, on the last row the step
r - (r_j / h_j) h along the edge to the breakpoint of row j.  When the
tableau reports optimality the basis is factored afresh and re-checked with
the formulas above, so the certificate never rests on updated quantities.  A
``start`` basis, such as the previous window's, replaces the cold start; the
cold start takes the rows the least-squares fit matches best, accepting the
first n of them after one QR when they are independent.  When every weight
is positive the rows are used in place, without copies or index maps.

A start is inverted first, and that inverse settles both rank tests when it
can: A_B is a row subset of the positive-weight rows A_act, so

    sigma_min(A_act) >= sigma_min(A_B) >= 1 / ||A_B^-1||_F,
    sigma_max(A_B) <= sigma_max(A_act) <= ||A_act||_F,

and 1 > 1e-10 ||A_act||_F ||A_B^-1||_F proves that both pass.  The inverse
is the one the first certificate uses, so the shortcut changes no result.  A
start this does not prove (or that fails to invert) is replaced by the cold
start, whose least-squares fit tests the rank of A_act.  Data with
sum(w) max|y| beyond the largest float are rejected up front: that product
bounds |y^T nu|, so below it the certificate cannot overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient, SolverFailure

_RANK_RTOL = 1e-10
_GAP_RTOL = 1e-8
_DUAL_RTOL = 1e-10     # box violation |nu_B| / w_B - 1 accepted as optimal
_PERTURBATION = 1e-9   # size of the pivoting perturbation, relative to max |y|
_BLAND_AFTER = 10      # pivots per row before Bland's rule takes over
_PIVOTS_PER_ROW = 20   # pivots per row before the solve gives up
_GOLDEN = 0.6180339887498949


@dataclass
class LpSolution:
    """Certified minimizer of the weighted l1 regression."""

    z: np.ndarray
    residual: np.ndarray       # y - A z
    objective: float
    dual_objective: float
    gap: float                 # certified duality gap (>= 0 up to roundoff)
    iterations: int            # simplex pivots
    basis: np.ndarray          # the n rows of A (original indices) interpolated by z


@functools.lru_cache(maxsize=8)
def _perturbation(rows):
    """The deterministic pivoting perturbation of `rows` rows, read-only."""
    pattern = _PERTURBATION * ((np.arange(rows) * _GOLDEN) % 1.0 - 0.5)
    pattern.flags.writeable = False
    return pattern


def _greedy_basis(A_act, order, n):
    """First n rows along `order` that are linearly independent, else None."""
    first = A_act[order[:n]]
    # one QR decides the common case: the first n rows are already independent
    R = np.linalg.qr(first.T, mode="r")
    if (np.abs(np.diagonal(R)) > 1e-10 * np.maximum(1.0, np.linalg.norm(first, axis=1))).all():
        return order[:n].copy()
    basis, span, k = np.empty(n, dtype=int), np.empty((n, A_act.shape[1])), 0
    for j in order:  # span[:k] holds orthonormal rows spanning the k picks
        row = A_act[j]
        resid = row - span[:k].T @ (span[:k] @ row)
        nrm = math.sqrt(resid @ resid)
        if nrm > 1e-10 * max(1.0, math.sqrt(row @ row)):
            basis[k], span[k], k = j, resid / nrm, k + 1
            if k == n:
                return basis
    return None


def weighted_l1_regression(A, y, w, start=None) -> LpSolution:
    """Minimize sum_j w_j |y_j - (A z)_j| with a certified duality gap.

    Entries must be finite, weights nonnegative and sum(w) * max|y| a finite
    float (ValueError otherwise);
    rows with w_j = 0 are ignored by the objective and are legal only while
    the remaining rows keep full column rank (checked, RankDeficient
    otherwise).  The returned gap is at most 1e-8 * (1 + |objective|), in
    the caller's units and in those of y scaled to max |y| = 1 alike.

    ``start`` names n distinct rows of A to begin at, e.g. the ``basis`` of a
    related solve (ValueError if malformed; ignored if it holds a zero-weight
    row or is not proven nonsingular, see the module docstring).  It changes
    neither the optimum nor the rank test.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    N, n = A.shape
    if y.shape[0] != N or w.shape[0] != N:
        raise ValueError(f"shape mismatch: A {A.shape}, y {y.shape}, w {w.shape}")
    if not (np.isfinite(A).all() and np.isfinite(y).all() and np.isfinite(w).all()):
        raise ValueError("A, y and w must be finite")
    w_min = float(w.min(initial=math.inf))
    if w_min < 0:
        raise ValueError("weights must be nonnegative")
    if start is not None:
        start = np.asarray(start)
        rows_start = start.tolist()
        if (start.shape != (n,) or start.dtype.kind not in "iu" or len(set(rows_start)) != n
                or min(rows_start) < 0 or max(rows_start) >= N):
            raise ValueError(f"start must be {n} distinct row indices in [0, {N})")

    every_row = w_min > 0  # then no row copies or index maps are needed
    if every_row:
        A_act, w_act, y_act = np.ascontiguousarray(A), w, y
    else:
        active = w > 0
        A_act, w_act, y_act = A[active], w[active], y[active]
    rows = A_act.shape[0]
    if rows < n:
        raise RankDeficient(f"{rows} positive-weight rows cannot determine {n} unknowns")
    scale = float(np.abs(y_act).max(initial=0.0)) or 1.0
    if not math.isfinite(scale * float(w_act.sum())):
        # the bound on |dual|; below it the certificate cannot overflow
        raise ValueError("y and w are too large to certify: sum(w) * max|y| overflows")
    y_act = y_act / scale
    y_piv = y_act + _perturbation(rows)

    # A start whose inverse proves both rank tests is used as is (see the
    # module docstring); otherwise the least-squares fit tests the rank and
    # the rows it matches best form the start.
    basis = inv = None
    if start is not None and every_row:
        basis = start.astype(np.intp)
    elif start is not None and active[start].all():
        basis = (np.cumsum(active) - 1)[start]
    if basis is not None:
        try:
            inv = np.linalg.inv(A_act[basis])
        except np.linalg.LinAlgError:
            pass
    if inv is None or not 1.0 > _RANK_RTOL * np.linalg.norm(A_act) * np.linalg.norm(inv):
        z_ls, _, _, sv = np.linalg.lstsq(A_act, y_piv, rcond=None)
        basis = _greedy_basis(A_act, np.argsort(np.abs(y_piv - A_act @ z_ls), kind="stable"), n)
        if basis is None or sv[-1] <= _RANK_RTOL * sv[0]:
            raise RankDeficient("positive-weight rows of A are numerically rank deficient")
        inv = np.linalg.inv(A_act[basis])

    # `inv` holds a fresh factorization of the basis, None while the tableau
    # Tab = [D^T; r] is updated; g = -nu_B, and w_B = w_act[basis]
    w_B, neg_w = w_act[basis], -w_act
    pivots = 0
    while True:
        fresh = inv is not None
        if fresh:
            r = y_piv - A_act @ (inv @ y_piv[basis])
        nu = np.where(r >= 0, w_act, neg_w)
        nu[basis] = 0.0
        g = inv.T @ (A_act.T @ nu) if fresh else Tab[:n] @ nu
        ratio = np.abs(g) / w_B
        k = int(ratio.argmax())
        if ratio[k] <= 1.0 + _DUAL_RTOL:
            if fresh:
                break
            inv = np.linalg.inv(A_act[basis])
            continue
        if pivots == _PIVOTS_PER_ROW * rows:
            raise SolverFailure(f"no optimal basis after {pivots} pivots")
        bland = pivots >= _BLAND_AFTER * rows
        if bland:  # Bland's rule: the violating basis row of lowest index leaves
            violating = (ratio > 1.0 + _DUAL_RTOL).nonzero()[0]
            k = int(violating[basis[violating].argmin()])
        if fresh:
            Tab = np.empty((n + 1, rows))
            Tab[:n] = (A_act @ inv).T
            Tab[n] = r
            r, inv = Tab[n], None
        # Release basis row k: along h the other basis rows stay interpolated
        # and the objective falls at rate |nu_k| - w_k until the breakpoints
        # passed (residuals changing sign) have raised the slope to zero.
        # Those are the rows with nu * h > 0 (module docstring); passing row i
        # raises the slope by 2 w_i |h_i| = 2 nu_i h_i, so the rises are summed
        # halved, against half the rate.
        g_k = float(g[k])
        h = Tab[k] if g_k > 0 else -Tab[k]
        nu_h = nu * h
        cand = (nu_h > 0).nonzero()[0]
        cand = cand[(r[cand] / h[cand]).argsort(kind="stable")]
        rise = nu_h[cand].cumsum()
        # Bland's rule stops at the first breakpoint, the lowest row on a tie
        stop = 0 if bland else int(rise.searchsorted(0.5 * (abs(g_k) - w_B[k])))
        if stop == cand.size:
            raise SolverFailure("no breakpoint along a descent edge")
        j = cand[stop]
        col = Tab[:, j].copy()
        col[k] -= 1.0
        Tab -= col[:, None] * (h / h[j])
        basis[k], w_B[k] = j, w_act[j]
        pivots += 1

    # Certify on the unperturbed data; the dual is feasible for any y.
    nu[basis] = -g
    nu /= max(1.0, float(ratio[k]))
    z = scale * (inv @ y_act[basis])
    residual = y - A @ z
    objective = float(w @ np.abs(residual))
    dual = scale * float(y_act @ nu)
    gap = objective - dual
    if not gap <= _GAP_RTOL * (min(1.0, scale) + abs(objective)):
        raise SolverFailure(
            f"basis not certified on the data: gap {gap:.3e}, objective {objective:.3e}"
        )
    return LpSolution(
        z=z,
        residual=residual,
        objective=objective,
        dual_objective=dual,
        gap=gap,
        iterations=pivots,
        basis=basis if every_row else np.flatnonzero(active)[basis],
    )
