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
plus a tiny perturbation, one fixed draw of uniform noise; the final basis
is evaluated on the original y, and its dual, which does not depend on y,
certifies that point.  The residual is computed afresh only at the start
basis and then carried by the tableau, also across the refactor below: a
perturbed residual that is zero up to roundoff would otherwise flip sign at
each refactor and send the pivots around a cycle.  A solve that takes more
than 10 pivots per row raises SolverFailure.
The problem is positively homogeneous in (y, z), so the pivots run on y
scaled to unit max-norm, and the gap is certified in those units, where it
is at most 1e-8 (1 + |objective|): a zero optimum, whose gap is roundoff of
order eps max|y|, certifies at any scale.  It is homogeneous in A too, and
every test of A is relative: rows are independent when each |R_ii| of one QR
of them exceeds 1e-10 max|A| (no squares, so nothing overflows), so a solve
of 2^k A takes the pivots of A's and returns its z / 2^k bit for bit.

Between pivots a tableau is updated instead of refactored: one (n+1) x N
array whose first n rows hold D^T, the transpose of D = A A_B^-1, and whose
last row holds the residual r = y - D y_B.  Then nu_B = -D^T nu_N, the edge
h is +-row k, and row j replacing basis row k is the rank-one update
Tab -= (Tab[:, j] - e_k) h^T / h_j: on the D^T rows the update
D -= D[:, k] (D[j] - e_k) / D[j, k] transposed, on the last row the step
r - (r_j / h_j) h along the edge to the breakpoint of row j.  When the
tableau reports optimality the basis is factored afresh and nu_B re-checked
with the formulas above, so the dual's feasibility never rests on updated
quantities (the carried signs of nu_N only decide how tight it is).  A
``start`` basis replaces the cold start: the first n independent rows in the
order of how well the least-squares fit from one thin QR matches them.  When
every weight is positive the rows are used in place, without copies or index
maps.

Every fresh factorization, of the start, the cold start or the basis at
reported optimality, is of the basis rows in ascending order.  The vertex is
fixed by its set of rows, but z = A_B^-1 y_B is rounded in the order of the
rows, so sorting first makes z, the residual, the objective, the dual and
the gap functions of the final row set (the carried signs of nu_N could
differ only on a perturbed residual within roundoff of zero).  So a warm and
a cold solve that end at the same rows agree bit for bit, and the returned
``basis`` is ascending.

Every start, the caller's or the cold one, is sorted and inverted, and the
inverse proves the rank of A_act when it can: A_B is a row subset of the
positive-weight rows A_act, so

    sigma_min(A_act) >= sigma_min(A_B) >= 1 / ||A_B^-1||_F,
    sigma_max(A_B) <= sigma_max(A_act) <= ||A_act||_F,

and 1 > 1e-10 ||A_act||_F ||A_B^-1||_F proves the rank test
sigma_min(A_act) > 1e-10 sigma_max(A_act).  The inverse is the one the first
certificate uses, so the proof changes no result.  A caller's start it does
not prove (or that fails to invert) gives way to the cold start; only a cold
start it does not prove leaves the test to the singular values of A_act, as
do entries above about 1e154 or below 1e-154, whose squares over- or
underflow in the proof: correct, but slower.  Data with sum(w) max|y| beyond
the largest float are rejected up front: that product bounds |y^T nu|, so
below it the certificate cannot overflow.

``search_bases`` finds the optimal rows of many positive-weight problems of
one shape at once.  It starts each at the first n rows of the cold start's
order, all fits from one stacked thin QR (one QR of the model when every
problem shares it, as a scenario's do), drops the problems whose first rows
are dependent, and pivots the others in lockstep with the single solve's
rule on each problem's own tableau until each reports optimality.  It
certifies nothing: a result depends only on its final rows, so the single
solve from a found basis gives what a cold solve ending at the same rows
gives, and certifies the basis from its own factorization (pivoting on if
its check disagrees).  The sweep runs one search per chunk, the scenario one
per run; on one problem the search is slower than the single solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient, SolverFailure

_RANK_RTOL = 1e-10
_GAP_RTOL = 1e-8
_DUAL_RTOL = 1e-10     # box violation |nu_B| / w_B - 1 accepted as optimal
_PERTURBATION = 1e-9   # size of the pivoting perturbation, relative to max |y|
_PIVOTS_PER_ROW = 10   # pivots per row before the solve gives up


@dataclass
class LpSolution:
    """Certified minimizer of the weighted l1 regression."""

    z: np.ndarray
    residual: np.ndarray       # y - A z
    objective: float
    dual_objective: float
    gap: float                 # certified duality gap (>= 0 up to roundoff)
    iterations: int            # simplex pivots
    basis: np.ndarray          # the n rows of A (original indices, ascending) interpolated by z


@functools.lru_cache(maxsize=8)
def _perturbation(rows):
    """The pivoting perturbation of `rows` rows, read-only: one fixed draw,
    uniform in +-_PERTURBATION / 2, with no rational structure for integer
    rows of A to cancel."""
    pattern = _PERTURBATION * (np.random.default_rng(0).random(rows) - 0.5)
    pattern.flags.writeable = False
    return pattern


def _independent(first, big):
    """Whether each k x n block of `first` has independent rows: every |R_ii|
    of one QR exceeds _RANK_RTOL * big, the largest |entry| of the block's A."""
    R = np.linalg.qr(np.swapaxes(first, -1, -2), mode="r")
    return np.abs(np.diagonal(R, axis1=-2, axis2=-1)).min(axis=-1) > _RANK_RTOL * big


def _greedy_basis(A_act, order, n):
    """First n rows along `order` that are linearly independent, else None."""
    big = np.abs(A_act).max()
    if _independent(A_act[order[:n]], big):  # one QR decides the common case
        return order[:n].copy()
    basis = []
    for j in order:  # else the basis grows one row at a time
        if _independent(A_act[basis + [j]], big):
            basis.append(j)
            if len(basis) == n:
                return np.array(basis)
    return None


def _fit_order(A, y_piv):
    """The rows of A (or of each matrix of a stack) by how well the
    least-squares fit from one thin QR matches them, best first."""
    Q = np.linalg.qr(A)[0]
    fit = y_piv - (Q @ (np.swapaxes(Q, -1, -2) @ y_piv[..., None]))[..., 0]
    return np.abs(fit).argsort(axis=-1, kind="stable")


def _proven_inverse(A_act, basis, A2):
    """Sort `basis` in place and invert A_act[basis]: the inverse if it proves that
    A_act, of squared Frobenius norm A2, has full column rank (module docstring), else None."""
    basis.sort()
    try:
        inv = np.linalg.inv(A_act[basis])
    except np.linalg.LinAlgError:
        return None
    return inv if 1.0 > _RANK_RTOL * math.sqrt(A2) * math.sqrt(np.vdot(inv, inv)) else None


def weighted_l1_regression(A, y, w, start=None) -> LpSolution:
    """Minimize sum_j w_j |y_j - (A z)_j| with a certified duality gap.

    y and w hold one entry per row of A (DimensionMismatch otherwise).
    Entries must be finite, weights nonnegative and sum(w) * max|y| a finite
    float (ValueError otherwise); rows with w_j = 0 are ignored by the
    objective and are legal only while the remaining rows keep full column
    rank (checked, RankDeficient otherwise).  The returned gap is at most
    1e-8 * (max|y| + |objective|), max|y| over the positive-weight rows (1
    when they are all zero): 1e-8 * (1 + |objective|) for max|y| = 1.

    ``start`` names n distinct rows of A to begin at, e.g. the ``basis`` of a
    related solve (ValueError if malformed; ignored if it holds a zero-weight
    row or its inverse does not prove the rank of the positive-weight rows,
    see the module docstring).  It changes neither the optimum nor the rank
    decision.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    N, n = A.shape
    if y.shape[0] != N or w.shape[0] != N:
        raise DimensionMismatch(f"shape mismatch: A {A.shape}, y {y.shape}, w {w.shape}")
    # finite sums prove every entry finite; w is summed only if it holds no -inf (nor nan)
    A2, y_max = float(np.vdot(A, A)), float(np.abs(y).max(initial=0.0))
    w_min = float(w.min(initial=math.inf))
    w_sum = float(w.sum()) if w_min > -math.inf else 0.0
    if not math.isfinite(A2 + y_max + w_min + w_sum) and not (
            np.isfinite(A).all() and np.isfinite(y).all() and np.isfinite(w).all()):
        raise ValueError("A, y and w must be finite")
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
        A2, y_max = float(np.vdot(A_act, A_act)), float(np.abs(y_act).max(initial=0.0))
    rows = A_act.shape[0]
    if rows < n:
        raise RankDeficient(f"{rows} positive-weight rows cannot determine {n} unknowns")
    scale = y_max or 1.0
    if not math.isfinite(scale * w_sum):
        # the bound on |dual|; below it the certificate cannot overflow
        raise ValueError("y and w are too large to certify: sum(w) * max|y| overflows")
    y_act = y_act / scale
    y_piv = y_act + _perturbation(rows)

    # The caller's start, else the cold start, once its inverse proves the rank
    # of A_act; else the singular values test the rank (module docstring).
    inv = None
    if start is not None and (every_row or active[start].all()):
        basis = start.astype(np.intp) if every_row else (np.cumsum(active) - 1)[start]
        inv = _proven_inverse(A_act, basis, A2)
    if inv is None:
        basis = _greedy_basis(A_act, _fit_order(A_act, y_piv), n)
        inv = None if basis is None else _proven_inverse(A_act, basis, A2)
        if inv is None:
            sv = np.linalg.svd(A_act, compute_uv=False)
            if basis is None or sv[-1] <= _RANK_RTOL * sv[0]:
                raise RankDeficient("positive-weight rows of A are numerically rank deficient")
            inv = np.linalg.inv(A_act[basis])

    # `inv` holds a fresh factorization of the basis, None while the tableau
    # Tab = [D^T; r] is updated; g = -nu_B, and w_B = w_act[basis]
    w_B, neg_w = w_act[basis], -w_act
    pivots, r = 0, y_piv - A_act @ (inv @ y_piv[basis])
    while True:
        fresh = inv is not None
        nu = np.where(r >= 0, w_act, neg_w)
        nu[basis] = 0.0
        g = inv.T @ (A_act.T @ nu) if fresh else Tab[:n] @ nu
        ratio = np.abs(g) / w_B
        k = int(ratio.argmax())
        if ratio[k] <= 1.0 + _DUAL_RTOL:
            if fresh:
                break
            basis.sort()
            w_B = w_act[basis]
            inv = np.linalg.inv(A_act[basis])
            continue
        if pivots >= _PIVOTS_PER_ROW * rows:
            raise SolverFailure(f"no optimal basis after {pivots} pivots")
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
        stop = int(rise.searchsorted(0.5 * (abs(g_k) - w_B[k])))
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
    if not gap <= _GAP_RTOL * (scale + abs(objective)):
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


def search_bases(A, y, w) -> list:
    """Optimal bases of K problems, found by pivoting them in lockstep.

    y and w are (K, N); A is (K, N, n), or one (N, n) model shared by every
    problem, then checked and factored once.  Each problem starts at the
    first n rows of the single solve's cold-start order and pivots by its
    rule until its tableau reports optimality (module docstring).  Entry i
    is that basis, or None where the search gives up: a zero or non-finite
    weight, non-finite data, dependent first rows, the pivot cap, or a
    descent edge without a breakpoint.  The single solve certifies a basis.
    """
    A, y, w = (np.asarray(v, dtype=float) for v in (A, y, w))
    (K, N), n, shared = y.shape, A.shape[-1], A.ndim == 2
    found = [None] * K
    scale = np.abs(y).max(axis=1, initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = ((w > 0).all(axis=1) & np.isfinite(scale * w.sum(axis=1))
              & np.isfinite(A).all(axis=(-2, -1)))
    live = ok.nonzero()[0]  # problem index of each row of the stacks below
    if live.size < K:  # the stacks are copied only where a problem is dropped
        A, y, w, scale = A if shared else A[live], y[live], w[live], scale[live]
    y_piv = y / np.where(scale > 0, scale, 1.0)[:, None] + _perturbation(N)
    basis = _fit_order(A, y_piv)[:, :n]
    A_B = A[basis] if shared else np.take_along_axis(A, basis[..., None], axis=1)
    keep = _independent(A_B, np.abs(A).max(axis=(-2, -1)))  # the rest: one inv serves all
    A_B[~keep] = np.eye(n)  # a stand-in for each dependent start, dropped below

    # Tab[i] = [D^T; r] is problem i's tableau, updated as in the single solve
    Tab = np.empty((live.size, n + 1, N))
    Tab[:, :n] = (A @ np.linalg.inv(A_B)).transpose(0, 2, 1)
    if not keep.all():
        live, w, y_piv, basis, Tab = (v[keep] for v in (live, w, y_piv, basis, Tab))
    rows, at = np.arange(live.size), N * np.arange(live.size)[:, None]  # at: rows of flat nu
    Tab[:, n] = y_piv - (y_piv[rows[:, None], basis][:, None, :] @ Tab[:, :n])[:, 0]
    w_B = w[rows[:, None], basis]
    pivots = 0
    while True:
        nu = np.where(Tab[:, n] >= 0, w, -w)
        nu.reshape(-1)[at + basis] = 0.0
        g = (Tab[:, :n] @ nu[..., None])[..., 0]
        ratio = np.abs(g) / w_B
        k = ratio.argmax(axis=1)
        optimal = ratio[rows, k] <= 1.0 + _DUAL_RTOL
        for i, b in zip(live[optimal], basis[optimal]):
            found[i] = b
        if optimal.all() or pivots >= _PIVOTS_PER_ROW * N:
            return found

        # The single solve's pivot on every problem: the breakpoints along
        # each edge h sorted by r / h, the non-candidates last, and the first
        # whose summed rise reaches half the rate.
        g_k = g[rows, k]
        h = Tab[rows, k] * np.sign(g_k)[:, None]
        nu_h = nu * h
        cand = nu_h > 0
        order = (np.where(cand, Tab[:, n], np.nan) / h).argsort(axis=1, kind="stable")
        rise = np.where(cand, nu_h, 0.0)[rows[:, None], order].cumsum(axis=1)
        stop = (rise < (0.5 * (np.abs(g_k) - w_B[rows, k]))[:, None]).sum(axis=1)
        go = ~optimal & (stop < cand.sum(axis=1))  # the rest leave, in one copy of the stacks
        if not go.all():
            live, w, Tab, basis, w_B, k, h, order, stop = (
                v[go] for v in (live, w, Tab, basis, w_B, k, h, order, stop))
            rows, at = rows[:live.size], at[:live.size]
        j = order[rows, stop]
        col = Tab[rows, :, j]
        col[rows, k] -= 1.0
        Tab -= col[:, :, None] * (h / h[rows, j][:, None])[:, None, :]
        basis[rows, k], w_B[rows, k] = j, w[rows, j]
        pivots += 1
