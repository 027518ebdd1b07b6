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
nu_N = w_N sign(r_N) off the basis and nu_B = -A_B^-T A_N^T nu_N on it
(priced from the tableau below).  The vertex is optimal iff |nu_B| <= w_B,
and then y^T nu is a lower bound that certifies it.  Otherwise the basis row
with the worst violation is released and the exact line search along that
edge, a weighted median of the breakpoints where residuals change sign,
picks the row that enters.  The rows whose residual changes sign along the
edge h are those off the basis with nu_j h_j > 0, since nu_j = +-w_j carries
the sign of r_j and nu_B = 0.

Exact data makes the optimum degenerate (more than n rows fit with zero
residual), and plain pivoting cycles there.  The pivots therefore run on y
plus a tiny perturbation, one fixed draw of uniform noise; the final basis
is evaluated on the original y, and its dual, which does not depend on y,
certifies that point.  The residual is computed afresh only at the start
basis and then carried by the tableau, also across the refactor below: a
perturbed residual that is zero up to roundoff would otherwise flip sign at
each refactor and send the pivots around a cycle.  A solve that takes more
than 10 pivots per row fails: every failure here is an EstimationError,
whose message names it.
The problem is positively homogeneous in (y, z), so the pivots run on y
scaled to unit max-norm, and the gap is certified in those units, where it
is at most 1e-8 (1 + |objective|): a zero optimum, whose gap is roundoff of
order eps max|y|, certifies at any scale.  It is homogeneous in A too, and
every test of A is relative: a row is independent of the rows before it when
its part orthogonal to them exceeds 1e-10 in A / max|A| (no squares), so a
solve of 2^k A takes the pivots of A's and returns its z / 2^k bit for bit.
An A with max|A| < 0.5 is scaled up by the power of two that brings max|A|
into [0.5, 1), and z with it, so entries near 1e-308 do not overflow the
inverse (a z or an objective beyond the largest float is a ValueError).
w is divided by the power of two that brings sum(w) into [0.5, 1), and the
dual multiplied back, so D^T nu stays within max|D| for weights of any size.
Both are exact unless a weight or the dual turns subnormal.

On exact data the perturbed pivots walk across the optimal face, the rows
the optimum fits exactly, to one particular vertex.  So a solve with at least
12 unknowns and 12 positive-weight rows per unknown (below, the try costs
more than the pivots it saves) tries once, at the first vertex where more
than n perturbed residuals r are within the perturbation u of zero and more
than n unperturbed ones, r - u + D u_B, within 1e-11, to certify that face:
at most 8 semismooth Newton steps on its piecewise-linear dual equation,
with D from the tableau of the sorted basis factored afresh, each completed
exactly on the basis, nu_B = -(sum of nu_i D_i off it), and accepted only
where |nu_B| <= w_B (1 + 1e-10).  A rejected dual pivots on, no second try.

Every vertex, the certified one included, is priced from one tableau: an
(n+1) x N array whose first n rows hold D^T, the transpose of D = A A_B^-1,
and whose last row holds the residual r = y - y_B D^T.  Then nu_B = -g with
g = D^T nu (nu zero on the basis), the edge h is +-row k, and between pivots
the tableau is updated instead of refactored: row j replacing basis row k is
the rank-one update Tab -= (Tab[:, j] - e_k) h^T / h_j, on the D^T rows the
update D -= D[:, k] (D[j] - e_k) / D[j, k] transposed, on the last row the
step r - (r_j / h_j) h along the edge to the breakpoint of row j.  When the
tableau reports optimality the basis is factored afresh, D^T rebuilt from
the new inverse with r carried, and g re-checked, so the dual's feasibility
never rests on updated quantities (the carried signs of nu_N only decide how
tight it is).  When every weight is positive the rows are used in place,
without copies or index maps.  A finite tableau always has a row to enter:
with h = -sign(nu_k) Tab[k], |nu_k| = sum_j nu_j h_j, so the rises
nu_j h_j > 0 sum to P >= |nu_k|, and the line search stops where they reach
(|nu_k| - w_k) / 2, short of P by at least P / 2 + w_k / 2, which rounding
of order N eps times these sums cannot close.  Where the tableau is not
finite that is nan: the single solve raises EstimationError, and the search
pivots on to its cap.

One routine, ``_factor``, factors every basis (the caller's start, the cold
start, the rescue, the search's starts, and the basis at reported optimality
or at a face): it sorts the rows, inverts that block and judges the inverse.
The vertex is fixed by its set of rows, but z = A_B^-1 y_B is rounded in the
order of the rows, so sorting first makes z, the residual, the objective,
the dual and the gap functions of the final row set (the carried signs of
nu_N could differ only on a perturbed residual within roundoff of zero).  So
a warm and a cold solve that end at the same rows agree bit for bit, and the
returned ``basis`` is ascending.

Every start is judged once, by the inverse the pivots start from: the
caller's ``start``, else the cold start, the search's (the first n rows in
the order of how well the least-squares fit from one thin QR matches them),
else the rescue, the rows one Gram-Schmidt pass keeps along that order.
With A_B that n x n block of the positive-weight rows A_act, big = max|A_act|,

    sigma_min(A_act) >= 1 / ||A_B^-1||_F >= 1 / (n max|A_B^-1|),
    sigma_max(A_act) <= ||A_act||_F <= sqrt(rows n) big,

and 1 > 1e-10 sqrt(rows n) n (big max|A_B^-1|) proves the rank test
sigma_min(A_act) > 1e-10 sigma_max(A_act), which is ``lti.build_horizon``'s
too.  No square is taken, and big max|A_B^-1| >= 1 / n (as A_B A_B^-1 = I)
does not depend on the units of A.  A start is usable only where that
inverse is finite (a singular block's is nan) and passes the bound, and the
first certificate uses it, so the proof changes no result.  A start that
is not usable gives way to the next.  An order without n independent rows
raises EstimationError (rank deficiency) at once; for a rescue that is not
usable the singular values of A_act decide the rank, and where the rank
passes but the inverse is not finite, the EstimationError names the start.
Data with sum(w) max|y| beyond the largest float are rejected up front:
that product bounds |y^T nu|, so below it the certificate cannot overflow.
So are data whose max|y| is subnormal, too coarse for the gap's tolerance.

``search_bases`` finds the optimal rows of many positive-weight problems of
one shape at once.  It starts each where the cold start does (the first n
rows of the fit order, sorted), all fits from one stacked thin QR (one QR of
the model when every problem shares it, as a scenario's do), and judges all
starts by the single solve's rule from one stacked inverse; a problem whose
start is not usable leaves, for the single solve's rescue.  The others pivot
in lockstep with the single solve's rule, each on a tableau built and priced
(g = D^T nu) with the single solve's formulas, though by batched products
whose last bits may differ from the single solve's; a problem leaves the
stacks as soon as it reports optimality, or, above the size rule, at the
vertex where the single solve tries to certify a face.
Both pivot loops take nu_N as copysign(w, r), which is the sign rule above
with r >= 0 counted positive: the carried residual is never -0.0, as
y_piv - D y_B and each update r - t are -0.0 only if the left operand is.
The search certifies nothing: a result depends only on its final rows, so the
single solve from a found basis gives what a cold solve ending at the same
rows gives, and certifies the basis from its own factorization (pivoting on
if its check disagrees).  The sweep runs one search per chunk, the scenario
one per run; on one problem the search is slower than the single solve.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError

_RANK_RTOL = 1e-10
_GAP_RTOL = 1e-8
_DUAL_RTOL = 1e-10     # box violation |nu_B| / w_B - 1 accepted as optimal
_PERTURBATION = 1e-9   # size of the pivoting perturbation, relative to max |y|
_PIVOTS_PER_ROW = 10   # pivots per row before the solve gives up
_FACE_SIZE = 12        # unknowns, and positive-weight rows per unknown, from which a face is tried
_FACE_ATOL = 1e-11     # |unperturbed residual| of a row fitted exactly, y in units of max|y|
_FACE_STEPS = 8        # Newton steps of that one try
_DEFICIENT = "positive-weight rows of A are numerically rank deficient"


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


def _greedy_basis(A_act, order, n, big):
    """First n rows along `order` whose part orthogonal to the rows kept before exceeds
    _RANK_RTOL, in one Gram-Schmidt pass on A_act / big (big = max|A_act|), else EstimationError."""
    basis, Q = [], np.empty((0, A_act.shape[1]))  # Q: the kept rows' orthonormal parts
    for j in order:
        part = A_act[j] / (big or 1.0)  # an A of zeros keeps no row
        part -= (Q @ part) @ Q
        norm = math.sqrt(part @ part)
        if norm > _RANK_RTOL:
            basis, Q = basis + [j], np.vstack([Q, part / norm])
            if len(basis) == n:
                return np.array(basis)
    raise EstimationError(_DEFICIENT)


def _fit_order(A, y_piv):
    """The rows of A (or of each matrix of a stack) by how well the
    least-squares fit from one thin QR matches them, best first."""
    Q = np.linalg.qr(A)[0]
    fit = y_piv - (Q @ (np.swapaxes(Q, -1, -2) @ y_piv[..., None]))[..., 0]
    return np.abs(fit).argsort(axis=-1, kind="stable")


def _factor(A, basis, big):
    """(`basis` sorted, the inverse of A at those rows, the verdict) for a basis of A, or for each
    of a stack ((K, N, n) A or (K, n) `basis`): usable only where the inverse is finite and proves
    full column rank of A, with `big` = max|A| (module docstring).  A stack whose inverse raises
    is inverted block by block, an exactly singular block to nan."""
    basis = np.sort(basis, axis=-1)
    A_B = A[basis] if A.ndim == 2 else np.take_along_axis(A, basis[..., None], axis=-2)
    try:
        inv = np.linalg.inv(A_B)
    except np.linalg.LinAlgError:
        inv = np.full(A_B.shape, np.nan)
        for i in np.ndindex(A_B.shape[:-2]):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[i] = np.linalg.inv(A_B[i])
    N, n = A.shape[-2:]
    if inv.ndim == 2:  # Python floats: a bound that is nan or inf (inv not finite) fails, silently
        return basis, inv, 1.0 > _RANK_RTOL * (math.sqrt(N * n) * n * (big * float(np.abs(inv).max())))
    with np.errstate(over="ignore"):
        return basis, inv, 1.0 > _RANK_RTOL * (math.sqrt(N * n) * n * (big * np.abs(inv).max(axis=(1, 2))))


def _on_face(Tab, u, basis):
    """Whether the tableau [D^T; r] (or each of a stack) has more than n of r within the perturbation
    of zero and an unperturbed fit exact on more than n rows; the first count keeps the try off
    vertices where large entries of D amplify the perturbation, whose duals certify loosely."""
    n = basis.shape[-1]
    near = (np.abs(Tab[..., n, :]) <= _PERTURBATION).sum(axis=-1) > n
    if not near.any():
        return near
    r0 = Tab[..., n, :] - u + (u[basis][..., None, :] @ Tab[..., :n, :])[..., 0, :]
    return near & ((np.abs(r0) <= _FACE_ATOL).sum(axis=-1) > n)


def _face_dual(D, basis, y_act, w_act):
    """(nu, g) of the vertex at the sorted `basis`: nu_F = w_F sign(r_F) off the face Z, zero on the
    basis, and |g| <= w_B (1 + _DUAL_RTOL) for its completion -g there; or None.  Each step is
    semismooth Newton on D_Z^T (w_Z clip(s)) + b = 0, s = D_Z v, where nu_Z = w_Z clip(s)."""
    r0 = y_act - D @ y_act[basis]
    face = np.abs(r0) <= _FACE_ATOL
    face[basis] = True
    nu = np.copysign(w_act, r0)
    nu[face] = 0.0
    D_Z, w_Z, b = D[face], w_act[face], D.T @ nu
    WDT, bound, s = D_Z.T * w_Z, w_act[basis] * (1.0 + _DUAL_RTOL), np.zeros(w_Z.size)
    with np.errstate(all="ignore"):
        for _ in range(_FACE_STEPS):
            quad = np.abs(s) < 1.0
            if np.count_nonzero(quad) < basis.size:  # no curvature left in some direction
                return None
            try:
                s = s - D_Z @ np.linalg.solve((WDT * quad) @ D_Z, WDT @ s.clip(-1.0, 1.0) + b)
            except np.linalg.LinAlgError:
                return None
            nu[face] = w_Z * s.clip(-1.0, 1.0)
            nu[basis] = 0.0
            g = D.T @ nu  # the completion: nu_B = -g, the sum of nu_i D_i off the basis
            if (np.abs(g) <= bound).all():
                return nu, g
    return None


def weighted_l1_regression(A, y, w, start=None) -> LpSolution:
    """Minimize sum_j w_j |y_j - (A z)_j| with a certified duality gap.

    A is a 2-D matrix with at least one column, and y and w hold one entry
    per row of A (ValueError otherwise).
    Entries must be finite, weights nonnegative and sum(w) * max|y| a finite
    float (ValueError otherwise); rows with w_j = 0 are ignored by the
    objective and are legal only while the remaining rows keep full column
    rank (else an EstimationError names the deficiency).  A minimizer or an
    objective beyond the largest float is a ValueError too, and so is a
    nonzero max|y| below the smallest normal float.  The returned gap is at most
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
    if A.ndim != 2 or A.shape[1] == 0 or y.shape[0] != A.shape[0] or w.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A {A.shape}, y {y.shape}, w {w.shape}")
    N, n = A.shape
    # finite maxima and sums prove every entry finite; w is summed only if free of -inf and nan
    big, y_max = float(np.abs(A).max(initial=0.0)), float(np.abs(y).max(initial=0.0))
    w_min = float(w.min(initial=math.inf))
    w_sum = float(w.sum()) if w_min > -math.inf else 0.0
    if not math.isfinite(big + y_max + w_min + w_sum) and not (
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
        big, y_max = (float(np.abs(v).max(initial=0.0)) for v in (A_act, y_act))
    rows = A_act.shape[0]
    if rows < n:
        raise EstimationError(f"{rows} positive-weight rows cannot determine {n} unknowns")
    scale = y_max or 1.0
    if not math.isfinite(scale * w_sum):
        # the bound on |dual|; below it the certificate cannot overflow
        raise ValueError("y and w are too large to certify: sum(w) * max|y| overflows")
    if 0 < y_max < sys.float_info.min:  # too few bits for the gap's relative tolerance
        raise ValueError(f"y is too small to certify: max|y| {y_max:.3e} is subnormal")
    e_A, e_w = min(math.frexp(big)[1], 0), math.frexp(w_sum)[1]  # A is scaled up only
    if e_A:
        A_act, big = np.ldexp(A_act, -e_A), math.ldexp(big, -e_A)
    w_act = np.ldexp(w_act, -e_w)
    y_act = y_act / scale
    u = _perturbation(rows)
    y_piv = y_act + u

    usable = False  # the caller's start, else the search's, else the rescue, each judged by its inverse
    if start is not None and (every_row or active[start].all()):
        basis = start.astype(np.intp) if every_row else (np.cumsum(active) - 1)[start]
        basis, inv, usable = _factor(A_act, basis, big)
    if not usable:
        order = _fit_order(A_act, y_piv)
        basis, inv, usable = _factor(A_act, order[:n], big)
    if not usable:
        basis, inv, usable = _factor(A_act, _greedy_basis(A_act, order, n, big), big)
        if not usable:
            sv = np.linalg.svd(A_act, compute_uv=False)
            if sv[-1] <= _RANK_RTOL * sv[0]:
                raise EstimationError(_DEFICIENT)
            if not np.isfinite(inv).all():
                raise EstimationError(f"the cold start's {n} rows of a full-rank A have no finite inverse")

    # the tableau Tab = [D^T; r] prices every vertex, g = D^T nu = -nu_B; D^T is rebuilt
    # at each factorization (`fresh` until the next pivot), r carried; w_B = w_act[basis]
    Tab = np.empty((n + 1, rows))
    Tab[:n] = (A_act @ inv).T
    Tab[n] = y_piv - y_piv[basis] @ Tab[:n]
    r, w_B, pivots, fresh = Tab[n], w_act[basis], 0, True
    face = n >= _FACE_SIZE and rows >= _FACE_SIZE * n  # the size rule of one try at a face
    while True:
        nu = np.copysign(w_act, r)
        nu[basis] = 0.0
        g = Tab[:n] @ nu
        ratio = np.abs(g) / w_B
        k = int(ratio.argmax())
        # the basis is factored afresh, sorted, at reported optimality and before a face try
        if ratio[k] <= 1.0 + _DUAL_RTOL or face and not fresh and _on_face(Tab, u, basis):
            if fresh:
                break
            basis, inv, _ = _factor(A_act, basis, big)
            Tab[:n], w_B, fresh = (A_act @ inv).T, w_act[basis], True
            continue
        if pivots >= _PIVOTS_PER_ROW * rows:
            raise EstimationError(f"no optimal basis after {pivots} pivots")
        if fresh and face and _on_face(Tab, u, basis):
            face = False  # a rejected dual pivots on, with no second try
            found = _face_dual(Tab[:n].T, basis, y_act, w_act)
            if found is not None:
                nu, g = found
                break
        fresh = False
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
            raise EstimationError(f"the tableau is not finite after {pivots} pivots")
        j = cand[stop]
        col = Tab[:, j].copy()
        col[k] -= 1.0
        Tab -= col[:, None] * (h / h[j])
        basis[k], w_B[k] = j, w_act[j]
        pivots += 1

    # Certify on the unperturbed data; the dual is feasible for any y.
    nu[basis] = -g
    nu /= max(1.0, float((np.abs(g) / w_B).max()))
    with np.errstate(over="ignore", invalid="ignore"):  # a result beyond the largest float: below
        z = scale * (inv @ y_act[basis])
        z = np.ldexp(z, -e_A) if e_A else z
        residual = y - A @ z
        objective = float(w @ np.abs(residual))
    # each column of A is nonzero on a positive-weight row, so a finite objective has a finite z
    if not math.isfinite(objective):
        raise ValueError(f"y is too large for the scale of A (max|A| {math.ldexp(big, e_A):.3e}): "
                         "the solution or its objective overflows")
    dual = math.ldexp(scale * float(y_act @ nu), e_w)
    gap = objective - dual
    if not gap <= _GAP_RTOL * (scale + abs(objective)):
        raise EstimationError(
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
    single solve's cold start (the first n rows of its fit order, sorted) and
    pivots by its rule until its tableau reports optimality, or, above the
    size rule, fits more than n rows exactly (module docstring).  Entry i is
    that basis, or None where the search gives up: a zero or non-finite
    weight, non-finite data, a start that is not usable, or the pivot cap
    (where a non-finite tableau ends).  The single solve certifies a basis.
    """
    A, y, w = (np.asarray(v, dtype=float) for v in (A, y, w))
    (K, N), n, shared = y.shape, A.shape[-1], A.ndim == 2
    found = [None] * K
    scale = np.abs(y).max(axis=1, initial=0.0)
    big = np.broadcast_to(np.abs(A).max(axis=(-2, -1)), K)  # max|A| of each problem, one pass
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (w > 0).all(axis=1) & np.isfinite(scale * w.sum(axis=1)) & np.isfinite(big)
    live = ok.nonzero()[0]  # problem index of each row of the stacks below
    A, y, w, scale, big = A if shared else A[live], y[live], w[live], scale[live], big[live]
    u, face = _perturbation(N), n >= _FACE_SIZE and N >= _FACE_SIZE * n  # the single solve's rule
    y_piv = y / np.where(scale > 0, scale, 1.0)[:, None] + u
    basis, inv, keep = _factor(A, _fit_order(A, y_piv)[:, :n], big)
    live, w, y_piv, basis, inv = (v[keep] for v in (live, w, y_piv, basis, inv))
    A = A if shared else A[keep]

    # Tab[i] = [D^T; r] is problem i's tableau, updated as in the single solve
    Tab = np.empty((live.size, n + 1, N))
    Tab[:, :n] = (A @ inv).transpose(0, 2, 1)
    rows = np.arange(live.size)
    Tab[:, n] = y_piv - (y_piv[rows[:, None], basis][:, None, :] @ Tab[:, :n])[:, 0]
    w_B = w[rows[:, None], basis]
    pivots = 0
    while True:
        nu = np.copysign(w, Tab[:, n])
        nu[rows[:, None], basis] = 0.0
        g = (Tab[:, :n] @ nu[..., None])[..., 0]
        ratio = np.abs(g) / w_B
        k = ratio.argmax(axis=1)
        found_now, g_k = ratio[rows, k] <= 1.0 + _DUAL_RTOL, g[rows, k]
        found_now |= face and _on_face(Tab, u, basis)  # where the single solve tries a face
        for i, b in zip(live[found_now], basis[found_now]):
            found[i] = b
        if found_now.all() or pivots >= _PIVOTS_PER_ROW * N:
            return found
        stay = ~found_now  # the found problems leave, in one copy of the stacks
        live, w, Tab, basis, w_B, nu, k, g_k = (
            v[stay] for v in (live, w, Tab, basis, w_B, nu, k, g_k))
        rows = rows[:live.size]

        # The single solve's pivot on every problem: the breakpoints along
        # each edge h sorted by r / h, the non-candidates last, and the first
        # whose summed rise reaches half the rate.
        h = Tab[rows, k] * np.sign(g_k)[:, None]
        nu_h = nu * h
        cand = nu_h > 0
        order = (np.where(cand, Tab[:, n], np.nan) / h).argsort(axis=1, kind="stable")
        rise = np.where(cand, nu_h, 0.0)[rows[:, None], order].cumsum(axis=1)
        half = 0.5 * (np.abs(g_k) - w_B[rows, k])
        j = order[rows, (rise < half[:, None]).sum(axis=1)]
        col = Tab[rows, :, j]
        col[rows, k] -= 1.0
        Tab -= col[:, :, None] * (h / h[rows, j][:, None])[:, None, :]
        basis[rows, k], w_B[rows, k] = j, w[rows, j]
        pivots += 1
