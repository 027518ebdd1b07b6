import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from resilient_sse import (
    EstimationError, SweepConfig, build_horizon, draw_instance,
    gen_random_system, synthesize_fdia,
)
from resilient_sse import lp
from resilient_sse.lp import _greedy_basis, weighted_l1_regression

DEFICIENT = "^positive-weight rows of A are numerically rank deficient$"  # the rank test's message


def line_search_oracle(column, y, w):
    """1-D weighted l1 minimizer by breakpoint enumeration.

    For a single column the objective is piecewise linear in z with kinks
    exactly at z = y_j / a_j, so scanning the kinks is exhaustive.
    """
    kinks = [yj / aj for yj, aj in zip(y, column) if aj != 0]
    best = min(kinks, key=lambda z: float(w @ np.abs(y - column * z)))
    return best, float(w @ np.abs(y - column * best))


def scipy_oracle(A, y, w):
    N, n = A.shape
    c = np.concatenate([np.zeros(n), w])
    I = np.eye(N)
    res = linprog(
        c,
        A_ub=np.block([[A, -I], [-A, -I]]),
        b_ub=np.concatenate([y, -y]),
        bounds=[(None, None)] * (n + N),
        method="highs",
    )
    assert res.success, res.message
    return res.fun


def test_unit_weight_median_outvotes_one_attacker():
    A = np.array([[1.0], [1.0], [1.0]])
    y = np.array([1.0, 1.0, 5.0])
    sol = weighted_l1_regression(A, y, np.ones(3))
    z_star, obj_star = line_search_oracle(A[:, 0], y, np.ones(3))
    assert z_star == 1.0 and obj_star == 4.0
    assert abs(sol.z[0] - 1.0) <= 1e-9
    assert abs(sol.objective - 4.0) <= 1e-8


def test_small_weights_restore_truth_under_majority_attack():
    A = np.array([[1.0], [1.0], [1.0]])
    y = np.array([5.0, 5.0, 1.0])
    w = np.array([0.1, 0.1, 1.0])
    sol = weighted_l1_regression(A, y, w)
    z_star, obj_star = line_search_oracle(A[:, 0], y, w)
    assert z_star == 1.0
    assert abs(sol.z[0] - z_star) <= 1e-9
    assert abs(sol.objective - obj_star) <= 1e-8


def test_consistent_data_gives_zero_objective():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 4))
    x = rng.standard_normal(4)
    sol = weighted_l1_regression(A, A @ x, rng.uniform(0.1, 1.0, 12))
    assert sol.objective <= 1e-10
    assert np.linalg.norm(sol.z - x) <= 1e-9


def lp_instance(family, seed):
    """One (A, y, w) of a named instance family."""
    rng = np.random.default_rng(seed)
    if family == "random":
        N, n = 18, 5
        A = rng.standard_normal((N, n))
        y = A @ rng.standard_normal(n)
        k = rng.integers(0, 7)
        y[rng.choice(N, size=k, replace=False)] += 8 * rng.standard_normal(k)
        w = rng.uniform(0.01, 1.0, N)
        if seed % 4 == 0:
            w[rng.choice(N, size=2, replace=False)] = 0.0
        return A, y, w
    if family in ("stealth20", "stealth240"):
        # exact data plus a stealth attack: many rows fit with zero residual
        m, n, T = (20, 10, 1) if family == "stealth20" else (60, 12, 4)
        model = build_horizon(gen_random_system(m, n, rng), T)
        y = model.H @ rng.standard_normal(n)
        support = rng.choice(model.rows, size=model.rows * 3 // 10, replace=False)
        y = y + synthesize_fdia(model, support, 0.01 * np.abs(y).sum()).e_T
        w = np.where(rng.random(model.rows) < 0.5, 1.0, 0.01) if T == 1 else np.ones(model.rows)
        return model.H, y, w
    if family == "integer":
        # small integers: exact data with a few gross errors, integer weights
        A = rng.integers(-4, 5, (16, 4)).astype(float)
        y = A @ rng.integers(-3, 4, 4).astype(float)
        y[:4] += rng.integers(-9, 10, 4)
        return A, y, rng.integers(1, 4, 16).astype(float)
    if family == "ties":
        # duplicated integer rows tie residuals and breakpoints
        B = rng.integers(-3, 4, (8, 4)).astype(float)
        yb = rng.integers(-5, 6, 8).astype(float)
        return np.vstack([B, B, B[:4]]), np.concatenate([yb, yb, yb[:4]]), np.ones(20)
    A = rng.standard_normal((30, 6))
    y = rng.standard_normal(30)
    w = rng.uniform(0.1, 1.0, 30)
    if family == "near_rank":
        A[:, 5] = A[:, 4] + 1e-6 * rng.standard_normal(30)
    elif family == "col_scale":
        A *= np.logspace(-3, 3, 6)
        y = A @ rng.standard_normal(6)
        y[:8] += rng.standard_normal(8)
    elif family == "zero_weights":
        w[rng.choice(30, size=10, replace=False)] = 0.0
    return A, y, w


FAMILIES = ("stealth20", "stealth240", "ties", "near_rank", "col_scale", "zero_weights")


@pytest.mark.parametrize(
    "family, seed",
    [pytest.param("random", seed, id=str(seed)) for seed in range(30)]
    + [pytest.param(f, seed, id=f"{f}-{seed}") for f in FAMILIES for seed in range(8)],
)
def test_matches_scipy_linprog(family, seed):
    A, y, w = lp_instance(family, seed)
    sol = weighted_l1_regression(A, y, w)
    best = scipy_oracle(A, y, w)
    assert abs(sol.objective - best) <= 1e-7 * (1 + abs(sol.objective))
    assert sol.gap <= 1e-8 * (1 + abs(sol.objective)) + 1e-15
    assert sol.dual_objective <= sol.objective + 1e-12
    assert sol.dual_objective <= best + 1e-9 * (1 + abs(best))


def test_certificate_fields_are_consistent():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((15, 4))
    y = rng.standard_normal(15)
    w = rng.uniform(0.2, 1.0, 15)
    sol = weighted_l1_regression(A, y, w)
    assert np.allclose(sol.residual, y - A @ sol.z)
    assert abs(sol.objective - float(w @ np.abs(sol.residual))) <= 1e-10
    assert abs(sol.gap - (sol.objective - sol.dual_objective)) <= 1e-12


def test_objective_never_exceeds_true_state_value():
    # the true state is always feasible, so the solve must do at least as well
    rng = np.random.default_rng(7)
    for _ in range(20):
        A = rng.standard_normal((16, 6))
        x = rng.standard_normal(6)
        y = A @ x
        k = rng.integers(1, 6)
        y[rng.choice(16, size=k, replace=False)] += 5 * rng.standard_normal(k)
        w = rng.uniform(0.05, 1.0, 16)
        sol = weighted_l1_regression(A, y, w)
        assert sol.objective <= float(w @ np.abs(y - A @ x)) + 1e-8


def test_zero_weights_need_rank():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((8, 4))
    y = rng.standard_normal(8)
    w = np.ones(8)
    w[:5] = 0.0  # only 3 active rows for 4 unknowns
    with pytest.raises(EstimationError, match="^3 positive-weight rows cannot determine 4 unknowns$"):
        weighted_l1_regression(A, y, w)
    with pytest.raises(EstimationError, match="^0 positive-weight rows cannot determine 4 unknowns$"):
        weighted_l1_regression(A, y, np.zeros(8))
    with warnings.catch_warnings():  # an A of zeros keeps no row, and divides no 0 by 0
        warnings.simplefilter("error")
        with pytest.raises(EstimationError, match=DEFICIENT):
            weighted_l1_regression(np.zeros((8, 4)), y, np.ones(8))


def test_zero_weight_rows_are_ignored():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 3))
    x = rng.standard_normal(3)
    y = A @ x
    y[0] += 100.0  # corrupted row carries no weight
    w = np.ones(10)
    w[0] = 0.0
    sol = weighted_l1_regression(A, y, w)
    assert np.linalg.norm(sol.z - x) <= 1e-8


@pytest.mark.parametrize("c", [1e-300, 1e-8, 1e8, 1e300])
def test_scale_invariance(c):
    # the problem is positively homogeneous in (y, z): scaling y scales the
    # minimizer and the optimum, and the gap stays within the contract of
    # the unscaled problem
    rng = np.random.default_rng(21)
    A = rng.standard_normal((24, 5))
    y = A @ rng.standard_normal(5)
    y[:6] += 4 * rng.standard_normal(6)
    w = rng.uniform(0.1, 1.0, 24)
    ref = weighted_l1_regression(A, y, w)
    sol = weighted_l1_regression(A, c * y, w)
    tol = 1e-8 * (1 + abs(ref.objective))
    assert abs(sol.objective / c - ref.objective) <= tol
    assert sol.gap / c <= tol
    assert np.linalg.norm(sol.z / c - ref.z) <= 1e-8 * (1 + np.linalg.norm(ref.z))


@pytest.mark.parametrize("c", [1e5, 1e6, 1e9])
def test_a_clean_window_certifies_in_large_units(c):
    # y = H x has optimum 0, where the objective and the dual are roundoff of
    # order eps * max|y|: a gap bound that does not scale with y fails there
    model = build_horizon(gen_random_system(60, 12, np.random.default_rng(1)), 4)
    x = c * np.random.default_rng(2).standard_normal(12)
    y = model.H @ x
    sol = weighted_l1_regression(model.H, y, np.ones(model.rows))
    assert sol.gap <= 1e-8 * (np.abs(y).max() + abs(sol.objective))
    assert np.linalg.norm(sol.z - x) <= 1e-8 * np.linalg.norm(x)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-600, -40, 40, 530])
@pytest.mark.parametrize("family", ["random", "integer", "ties"])
def test_the_solve_is_homogeneous_in_a(family, k):
    # every start screen compares against the largest |entry| of A and the
    # rank decision against sigma_max(A), so A in units of 2^k takes the same
    # pivots and returns z in units of 2^-k, bit for bit, with no warning:
    # squared norms of such A underflow (k = -600) or overflow (k = 530)
    A, y, w = lp_instance(family, 1)
    ref, sol = weighted_l1_regression(A, y, w), weighted_l1_regression(2.0**k * A, y, w)
    assert np.array_equal(sol.z * 2.0**k, ref.z)
    for field in ("basis", "iterations", "objective", "dual_objective", "gap", "residual"):
        assert np.array_equal(getattr(sol, field), getattr(ref, field)), field
    # the search finds the same bases, from one shared model or a stack of them
    Y, W = np.stack([y, y]), np.stack([w, np.ones_like(w)])
    for stack in (A, np.stack([A, A])):
        found, expected = lp.search_bases(2.0**k * stack, Y, W), lp.search_bases(stack, Y, W)
        assert len(found) == len(expected)
        assert all(e is None if f is None else np.array_equal(f, e) for f, e in zip(found, expected))
    if family != "ties":  # where the first rows are dependent, the search gives up
        assert all(b is not None for b in expected)


def test_shape_and_weight_validation():
    A = np.ones((4, 2))
    # y too short, an A with no column, and an A that is not 2-D: each names A's shape
    for A_bad, y, shape in [(A, np.ones(3), "(4, 2)"), (np.ones((3, 0)), np.ones(3), "(3, 0)"),
                            (np.ones(3), np.ones(3), "(3,)")]:
        with pytest.raises(ValueError, match=rf"^shape mismatch: A {re.escape(shape)}, "):
            weighted_l1_regression(A_bad, y, np.ones(y.size))
    with pytest.raises(ValueError, match=r"^weights must be nonnegative$"):
        weighted_l1_regression(A, np.ones(4), -np.ones(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_rejected(bad):
    # the solve reads finiteness off the sums it needs; a non-finite entry
    # anywhere, also in a zero-weight row, beside a negative weight or as
    # -inf beside inf in w, is still this one error
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    w = np.ones(6)
    zero = np.arange(6) == 4
    for args in ((A, np.where(np.arange(6) == 2, bad, y), w),
                 (np.where(np.eye(6, 2) > 0, bad, A), y, w),
                 (A, y, np.where(np.arange(6) == 5, bad, w)),
                 (A, y, np.where(np.arange(6) == 5, -bad, w)),
                 (A, np.where(zero, bad, y), np.where(zero, 0.0, w)),
                 (np.where(zero[:, None], bad, A), y, np.where(zero, 0.0, w)),
                 (A, y, np.array([-1.0, bad, 1, 1, 1, 1])),
                 (A, y, np.array([-bad, bad, 1, 1, 1, 1]))):
        with pytest.raises(ValueError, match=r"^A, y and w must be finite$"):
            weighted_l1_regression(*args)


def test_returned_basis_interpolates_and_restarts_without_pivots():
    A, y, w = lp_instance("zero_weights", 3)
    sol = weighted_l1_regression(A, y, w)
    assert sol.basis.shape == (A.shape[1],) and np.all(w[sol.basis] > 0)
    assert np.abs(sol.residual[sol.basis]).max() <= 1e-9 * (1 + np.abs(y).max())
    again = weighted_l1_regression(A, y, w, start=sol.basis)
    assert again.iterations == 0
    assert np.array_equal(again.basis, sol.basis)
    assert again.objective == sol.objective


@pytest.mark.parametrize("start", [[0, 1], [0, 1, 2, 3, 4, 5], [0, 0, 1, 2, 3],
                                   [0, 1, 2, 3, 30], [-1, 1, 2, 3, 4], [0.0, 1.0, 2.0, 3.0, 4.0]],
                         ids=["short", "long", "duplicate", "past_end", "negative", "float"])
def test_malformed_start_is_rejected(start):
    A, y, w = lp_instance("random", 1)  # 18 x 5
    with pytest.raises(ValueError, match="start"):
        weighted_l1_regression(A, y, w, start=start)


def test_the_pivoting_perturbation_is_read_only_and_within_half_its_size():
    # uniform in +-_PERTURBATION / 2 = +-5e-10, relative to max|y|
    pattern = lp._perturbation(1000)
    assert not pattern.flags.writeable
    assert np.any(pattern != 0) and np.abs(pattern).max() <= 5e-10


@st.composite
def warm_start_cases(draw):
    """A weighted instance with four starts: valid, zero-weight, singular and
    near-singular.

    Data are exact up to a sparse attack (a degenerate optimum), row 0 is
    duplicated as the second-to-last row and nearly as the last, and some
    weights may be zero.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    N = draw(st.integers(n + 3, 4 * n + 8))
    if draw(st.booleans()):
        A = rng.integers(-2, 3, (N, n)).astype(float)  # integer rows tie residuals
    else:
        A = rng.standard_normal((N, n))
    y = A @ rng.standard_normal(n)
    attacked = rng.choice(N, size=draw(st.integers(0, N // 3)), replace=False)
    y[attacked] += 5.0 * rng.standard_normal(attacked.size)
    w = rng.uniform(0.05, 1.0, N) if draw(st.booleans()) else np.ones(N)
    zeros = rng.choice(np.arange(1, N - 1), size=draw(st.integers(0, N - n)), replace=False)
    w[zeros] = 0.0
    A[-1], y[-1], w[-1] = A[0], y[0], w[0]
    others = rng.permutation(np.arange(1, N - 1))
    positive = np.flatnonzero(w > 0)
    starts = {"random": rng.choice(positive if positive.size >= n else N, size=n, replace=False)}
    if zeros.size:
        starts["zero_weight"] = np.concatenate([[zeros[0]], others[others != zeros[0]][: n - 1]])
    starts["singular"] = np.concatenate([[0, N - 1], others[: n - 2]])
    # a near copy of row 0 as an extra last row: a start that only the exact
    # rank tests reject
    A = np.vstack([A, A[0] + 1e-13 * rng.standard_normal(n)])
    y, w = np.append(y, y[0]), np.append(w, w[0])
    starts["near_singular"] = np.concatenate([[0, N], others[: n - 2]])
    return A, y, w, starts


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(warm_start_cases())
def test_warm_and_cold_starts_certify_against_highs(case):
    A, y, w, starts = case
    try:
        cold = weighted_l1_regression(A, y, w)
    except EstimationError as err:
        if "positive-weight rows" not in str(err):
            raise
        for start in starts.values():
            with pytest.raises(EstimationError, match=f"^{re.escape(str(err))}$"):
                weighted_l1_regression(A, y, w, start=start)
        return
    best = scipy_oracle(A, y, w)
    for sol in [cold] + [weighted_l1_regression(A, y, w, start=s) for s in starts.values()]:
        assert abs(sol.objective - best) <= 1e-7 * (1 + abs(best))
        assert sol.gap <= 1e-8 * (1 + abs(sol.objective))
        assert sol.dual_objective <= sol.objective + 1e-12
        assert len(set(sol.basis.tolist())) == A.shape[1] and np.all(w[sol.basis] > 0)


def count_rank_tests(monkeypatch, names=("lstsq", "svd")):
    """Record the calls of the np.linalg functions `names` by name."""
    calls = []
    for name in names:
        def counting(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    return calls


def test_certified_warm_start_skips_both_rank_tests(monkeypatch):
    # no solve fits by lstsq, and the singular values are computed only when
    # a cold start's inverse does not prove the rank
    A, y, w = lp_instance("random", 1)  # well-conditioned 18 x 5
    calls = count_rank_tests(monkeypatch)
    cold = weighted_l1_regression(A, y, w)
    warm = weighted_l1_regression(A, y, w, start=cold.basis)
    assert lp.search_bases(A[None], y[None], w[None])[0] is not None
    assert calls == []
    assert warm.iterations == 0
    for field in ("z", "basis", "objective", "gap"):  # bitwise, not approximately
        assert np.array_equal(getattr(warm, field), getattr(cold, field))
    # a start the bound does not prove is replaced by the cold start, proved
    A = np.vstack([A, A[0] + 1e-13 * np.random.default_rng(0).standard_normal(5)])
    y, w = np.append(y, y[0]), np.append(w, w[0])
    near = weighted_l1_regression(A, y, w, start=[0, 18, 1, 2, 3])
    assert calls == []
    assert 0 not in near.basis or 18 not in near.basis
    # two nearly equal columns: the cold start's proof fails, and so does the
    # proof of the rescue, which keeps the same rows; the singular values pass A
    # at 40 rows and reject it at 18; at 40 rows the pivots go on from the
    # rescue's inverse, after the cold start's, and the third is the refactor at
    # optimality
    rng = np.random.default_rng(0)
    A = rng.standard_normal((40, 5))
    A[:, 4] = A[:, 3] + 1e-9 * rng.standard_normal(40)
    inverses = count_rank_tests(monkeypatch, ("inv",))
    sol = weighted_l1_regression(A, rng.standard_normal(40), np.ones(40))
    assert calls == ["svd"]
    assert len(inverses) == 3 and sol.iterations > 0
    assert sol.gap <= 1e-8 * (1 + abs(sol.objective))
    A = rng.standard_normal((18, 5))
    A[:, 4] = A[:, 3] + 3e-10 * rng.standard_normal(18)
    with pytest.raises(EstimationError, match=DEFICIENT):
        weighted_l1_regression(A, A @ rng.standard_normal(5), np.ones(18))
    assert calls == ["svd", "svd"]


def test_a_usable_cold_start_is_the_search_start_proved_by_its_inverse(monkeypatch):
    # the cold start is the first n rows along the fit order, judged only by
    # the inverse the pivots start from: one QR (the fit order's) and one
    # inverse; window 0's start fits more than n rows exactly, and its face
    # is certified from that same inverse, without a pivot or a refactor
    model, y = estimate_window(0)  # 240 x 12
    calls = count_rank_tests(monkeypatch, ("qr", "inv", "svd", "lstsq"))
    sol = weighted_l1_regression(model.H, y, np.ones(model.rows))
    assert calls == ["qr", "inv"] and sol.iterations == 0
    assert sol.gap <= 1e-8 * (np.abs(y).max() + abs(sol.objective))


@pytest.mark.parametrize("k", [-600, 530])
def test_the_rank_proof_takes_no_square_of_a(monkeypatch, k):
    # the proof bounds ||A||_F by max|A| and ||A_B^-1||_F by max|A_B^-1| and
    # multiplies those two first, so a bench window in units of 2^k, whose
    # squared entries under- or overflow, is proved without its singular
    # values, cold and warm, and returns z in units of 2^-k bit for bit; the
    # warm solve may end at another vertex of the optimal face than the cold
    # one, so each is compared with its own solve of A
    model, y = estimate_window(0)
    w = np.ones(model.rows)
    start = weighted_l1_regression(model.H, estimate_window(1)[1], w).basis  # the next request's
    ref = weighted_l1_regression(model.H, y, w)
    ref_warm = weighted_l1_regression(model.H, y, w, start=start)
    calls = count_rank_tests(monkeypatch)
    cold = weighted_l1_regression(2.0**k * model.H, y, w)
    warm = weighted_l1_regression(2.0**k * model.H, y, w, start=start)
    assert calls == []
    for sol, base in ((cold, ref), (warm, ref_warm)):  # the warm start is taken, not replaced
        assert sol.iterations == base.iterations
        assert np.array_equal(sol.z * 2.0**k, base.z)


def test_rank_deficient_a_rejects_every_warm_start(monkeypatch):
    rng = np.random.default_rng(8)
    A = rng.standard_normal((20, 4))
    A[:, 3] = A[:, 1]  # a duplicated column: no four rows are independent
    y = A @ rng.standard_normal(4) + rng.standard_normal(20)
    w = rng.uniform(0.1, 1.0, 20)
    calls = count_rank_tests(monkeypatch)
    with pytest.raises(EstimationError, match=DEFICIENT):
        weighted_l1_regression(A, y, w)
    for _ in range(20):
        with pytest.raises(EstimationError, match=DEFICIENT):
            weighted_l1_regression(A, y, w, start=rng.choice(20, size=4, replace=False))
    # the cold start finds no four independent rows, which decides the rank:
    # no singular values are computed
    assert calls == []


def kahan_problem(n):
    """A = [L; I / 2], L unit lower-triangular with -1e3 below the diagonal,
    so sigma_min(A) = 0.5, and y = [k; -2 L^T k] with k = 1..n, so A^T y = 0:
    the least-squares fit is zero and puts L's rows first in the fit order,
    and L's inverse has entries up to about 1e3^(n - 1)."""
    L = np.eye(n) + np.tril(np.full((n, n), -1e3), -1)
    k = np.arange(1.0, n + 1)
    return np.vstack([L, 0.5 * np.eye(n)]), np.concatenate([k, -2 * L.T @ k])


@pytest.mark.parametrize("n", [104, 120])
def test_a_cold_start_that_does_not_invert_is_a_solver_failure(n):
    # the cold start keeps L's independent rows, whose inverse is not finite
    # (n 104) or whose LU meets an exactly zero pivot (n 120); A has full rank,
    # so the solve names the start, and neither rejects the rank nor pivots on nan
    A, y = kahan_problem(n)
    assert np.linalg.svd(A, compute_uv=False)[-1] > 0.49
    message = f"^the cold start's {n} rows of a full-rank A have no finite inverse$"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EstimationError, match=message):
            weighted_l1_regression(A, y, np.ones(2 * n))


def test_a_tableau_that_is_not_finite_is_a_solver_failure(monkeypatch):
    # a finite tableau always has a breakpoint along a descent edge (module
    # docstring); a nan inverse that passes as usable makes the tableau nan,
    # and the solve names it instead of indexing past its candidates
    rng = np.random.default_rng(0)
    A, y = rng.standard_normal((18, 5)), rng.standard_normal(18)
    monkeypatch.setattr(lp, "_factor", lambda A, basis, big: (np.sort(basis), np.full((5, 5), np.nan), True))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(EstimationError, match="^the tableau is not finite after 0 pivots$"):
            weighted_l1_regression(A, y, np.ones(18))


def test_data_too_large_to_certify_is_rejected():
    A, y, w = lp_instance("random", 2)
    message = r"^y and w are too large to certify: sum\(w\) \* max\|y\| overflows$"
    for weights in (w, np.where(np.arange(w.size) == 3, 0.0, w)):  # with a zero weight too
        with pytest.raises(ValueError, match=message):
            weighted_l1_regression(A, (1e308 / np.abs(y).max()) * y, weights)


SUBNORMAL_A = np.array([[3e-309], [4e-309], [-5e-309]])


@pytest.mark.filterwarnings("error")
def test_a_in_subnormal_units_certifies():
    # 1 / a overflows for a near 4e-309, but the pivots run on A times 2^1024,
    # and the solve of 2^1030 A is the same solve, its z in units of 2^-1030
    y, w = np.array([1e-10, 2e-10, 7e-10]), np.ones(3)
    sol = weighted_l1_regression(SUBNORMAL_A, y, w)
    assert sol.z[0] == pytest.approx(1e-10 / 3e-309, rel=1e-12)
    assert sol.gap <= 1e-8 * (np.abs(y).max() + abs(sol.objective))
    assert np.array_equal(np.ldexp(weighted_l1_regression(np.ldexp(SUBNORMAL_A, 1030), y, w).z, 1030),
                          sol.z)


@pytest.mark.filterwarnings("error")
def test_a_solution_beyond_the_largest_float_is_rejected():
    # the optimum 1 / 3e-309 exceeds the largest float: a validation error
    # naming the scale, not a failed certificate
    with pytest.raises(ValueError, match=r"^y is too large for the scale of A \(max\|A\| 5\.000e-309\)"):
        weighted_l1_regression(SUBNORMAL_A, [1.0, 2.0, 7.0], np.ones(3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("A,y,w", [
    # the minimizer 8e307 (1, 1) is finite, but the objective is not
    ([[1, 0], [0, 1], [3, 3]], [8e307] * 3, [1, 1, 1e-3]),
    # the minimizer 1e308 (1, -2) is beyond the largest float, at A's own scale
    ([[1, 0], [0, 1], [1, 1]], [1e308, -1e308, -1e308], [1, 0.01, 0.01]),
], ids=["objective", "minimizer"])
def test_a_result_beyond_the_largest_float_is_rejected_without_a_warning(A, y, w):
    # sum(w) max|y| passes the up-front screen, so the result is checked: an
    # infinite objective would certify against its infinite tolerance
    with pytest.raises(ValueError, match=r"^y is too large for the scale of A \(max\|A\| "):
        weighted_l1_regression(np.array(A, dtype=float), y, w)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("y_max", [5e-324, 1e-310, np.nextafter(2.0**-1022, 0)])
def test_a_subnormal_window_is_rejected_before_pivoting(y_max):
    # a subnormal max|y| over the positive-weight rows has too few bits for the
    # gap's relative tolerance; a subnormal entry on a zero-weight row is ignored
    A = np.array([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0], [1.0, 2.0]])
    with pytest.raises(ValueError, match=r"^y is too small to certify: max\|y\| \S+ is subnormal$"):
        weighted_l1_regression(A, [y_max, 0.0, 0.0, 0.0], np.ones(4))
    sol = weighted_l1_regression(A, [0.0, 2.0**-1022, 0.0, y_max], [1.0, 1.0, 1.0, 0.0])
    assert sol.gap <= 1e-8 * (2.0**-1022 + sol.objective)


@pytest.mark.filterwarnings("error")
def test_weights_near_the_largest_float_pivot_as_unit_weights():
    # sum(w) max|y| = 14 * 2^1020 passes the screen, but D^T nu would
    # overflow: the pivots run on w / 2^1024, as unit weights on w / 2^4
    w = np.full(14, 2.0**1020)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        A, y = rng.standard_normal((14, 3)), rng.standard_normal(14)
        y /= np.abs(y).max()
        ref, sol = weighted_l1_regression(A, y, np.ones(14)), weighted_l1_regression(A, y, w)
        for field in ("z", "residual", "basis", "iterations"):
            assert np.array_equal(getattr(sol, field), getattr(ref, field)), (seed, field)
        assert (sol.objective, sol.dual_objective) == (math.ldexp(ref.objective, 1020),
                                                        math.ldexp(ref.dual_objective, 1020))


def gram_schmidt_basis(A, order, n):
    """Reference for _greedy_basis: the first n rows along `order` whose part
    orthogonal to the rows before exceeds 1e-10 times the largest |entry| of A."""
    basis, span, big = [], [], np.abs(A).max()
    for j in order:
        row = A[j]
        resid = row - sum((q @ row) * q for q in span)
        nrm = math.sqrt(resid @ resid)
        if nrm > 1e-10 * big:
            basis.append(j)
            span.append(resid / nrm)
            if len(basis) == n:
                return basis
    return None


@pytest.mark.parametrize("family", ("random",) + FAMILIES)
def test_greedy_basis_matches_gram_schmidt(family):
    for seed in range(8):
        A, _, _ = lp_instance(family, seed)
        order = np.random.default_rng(seed).permutation(A.shape[0])
        got = _greedy_basis(A, order, A.shape[1], np.abs(A).max())
        assert got.tolist() == gram_schmidt_basis(A, order, A.shape[1])
    A = np.vstack([A[:1], A])  # a duplicated leading row: dependent first rows
    assert _greedy_basis(A, np.arange(A.shape[0]), A.shape[1],
                         np.abs(A).max()).tolist() == gram_schmidt_basis(
        A, np.arange(A.shape[0]), A.shape[1])


@st.composite
def invariance_cases(draw, zero_weights):
    """Exact data up to a sparse attack, a scale factor and a row permutation."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 6))
    N = draw(st.integers(n + 3, 4 * n + 8))
    if draw(st.booleans()):
        A = rng.integers(-2, 3, (N, n)).astype(float)  # integer rows tie residuals
    else:
        A = rng.standard_normal((N, n))
    y = A @ rng.standard_normal(n)
    attacked = rng.choice(N, size=draw(st.integers(0, N // 3)), replace=False)
    y[attacked] += 5.0 * rng.standard_normal(attacked.size)
    w = rng.uniform(0.05, 1.0, N) if draw(st.booleans()) else np.ones(N)
    if zero_weights:
        w[rng.choice(N, size=draw(st.integers(1, N - n)), replace=False)] = 0.0
    c = draw(st.sampled_from([-1e6, -3.0, -1.0, 1e-4, 0.5, 7.0, 1e3]))
    return A, y, w, c, rng.permutation(N)


def _invariance_property(case):
    A, y, w, c, perm = case
    try:
        base = weighted_l1_regression(A, y, w)
    except EstimationError as err:
        if "positive-weight rows" not in str(err):
            raise
        return
    best = scipy_oracle(A, y, w)
    # the reported gap is never below the true one
    assert base.gap >= base.objective - best - 1e-9 * (1 + abs(best))
    # the optimum scales with |c| and ignores the row order; each certified
    # objective lies within its gap above the common optimum
    scaled = weighted_l1_regression(A, c * y, w)
    tol = max(scaled.gap, abs(c) * base.gap) + 1e-9 * (1 + abs(c) * base.objective)
    assert abs(scaled.objective - abs(c) * base.objective) <= tol
    permuted = weighted_l1_regression(A[perm], y[perm], w[perm])
    tol = max(permuted.gap, base.gap) + 1e-9 * (1 + base.objective)
    assert abs(permuted.objective - base.objective) <= tol


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(invariance_cases(zero_weights=False))
# Both cycled until the pivot budget ran out: the first while the refactor
# recomputed the residual, whose zero entries flipped sign on roundoff; the
# second under a golden-ratio perturbation that integer A cancels.
@example((np.array([[-2, 2, 1], [-2, -1, 0], [1, 2, -1], [-2, -2, -1], [2, 1, -2], [1, 1, -1],
                    [-1, -2, 2]], dtype=float),
          np.array([2.747587897436283, 0.8462490674299149, -0.37656270043192797,
                    -0.18935613444783184, -2.0517258430567873, -0.8094295144962385,
                    0.9793010882453642]),
          np.array([0.4550957747510278, 0.6846276950821771, 0.09536668378871846,
                    0.7522040625698262, 0.14473088910030435, 0.45698954301437356,
                    0.38759832347659356]),
          -1e6, np.array([5, 0, 1, 4, 2, 6, 3])))
@example((np.array([[-2, 2], [0, -1], [-2, 0], [-1, -2], [1, 0], [0, -1]], dtype=float),
          np.array([-2.572137629400152, 1.8469292143367826, 1.1217207992734128,
                    4.2547188283102715, -0.5608603996367064, 1.8469292143367826]),
          np.ones(6), 1.0, np.arange(6)))
def test_objective_invariances_against_highs_positive_weights(case):
    _invariance_property(case)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(invariance_cases(zero_weights=True))
def test_objective_invariances_against_highs_zero_weights(case):
    _invariance_property(case)


def estimate_window(request):
    """Window `request` of the bench `estimate` workload at seed 125, rebuilt
    as bench/workloads.py::Estimate draws it: 240x12, 20-40 % attacked."""
    from resilient_sse import random_support
    from resilient_sse.experiments import epsilon_from_policy

    rng = np.random.default_rng(125)
    model = build_horizon(gen_random_system(60, 12, rng), 4)
    for i in range(request + 1):
        y_star = model.H @ rng.standard_normal(12)
        epsilon = epsilon_from_policy("rel:0.01", y_star)
        support = random_support(model.rows, (0.2, 0.3, 0.4)[i % 3], rng)
        y = y_star + synthesize_fdia(model, support, epsilon).e_T
    return model, y


def test_a_formerly_cycling_window_certifies_within_the_pivot_cap():
    # Request 63 (20 % attacked).  While the residual was recomputed at every
    # pivot, its largest-violation pivots cycled among degenerate vertices
    # for 2406 pivots; with the residual carried in the tableau it certifies
    # in a few dozen.
    model, y = estimate_window(63)
    sol = weighted_l1_regression(model.H, y, np.ones(model.rows))
    assert sol.iterations < lp._PIVOTS_PER_ROW * model.rows
    opt = scipy_oracle(model.H, y, np.ones(model.rows))
    assert abs(sol.objective - opt) <= 1e-7 * (1.0 + abs(opt))
    assert sol.gap <= 1e-8 * (1.0 + abs(sol.objective))


def face_tries(monkeypatch):
    """Record each face try of the single solve as (rows its unperturbed fit interpolates, n,
    the dual it returns or None, w_act, basis)."""
    tries, face_dual = [], lp._face_dual

    def spy(D, basis, y_act, w_act):
        found = face_dual(D, basis, y_act, w_act)
        exact = np.count_nonzero(np.abs(y_act - D @ y_act[basis]) <= lp._FACE_ATOL)
        tries.append((exact, basis.size, found and (found[0].copy(), found[1].copy()), w_act, basis))
        return found

    monkeypatch.setattr(lp, "_face_dual", spy)
    return tries


def assert_face_duals_in_their_box(tries):
    """Each dual a face try returns lies in the box |nu| <= w, completed on the basis."""
    for _, _, found, w_act, basis in tries:
        if found is not None:
            nu, g = found
            assert np.all(np.abs(nu) <= w_act) and np.all(nu[basis] == 0.0)
            assert np.all(np.abs(g) <= w_act[basis] * (1.0 + lp._DUAL_RTOL))


def test_the_face_certificate_ends_a_window_in_far_fewer_pivots(monkeypatch):
    # window 1 (30 % attacked): the vertex walk took 52 pivots, most of them
    # across the optimal face; the solve stops at the first vertex of that
    # face, after 6 pivots, certified by a dual from 7 Newton steps
    model, y = estimate_window(1)
    tries = face_tries(monkeypatch)
    sol = weighted_l1_regression(model.H, y, np.ones(model.rows))
    assert sol.iterations == 6
    assert len(tries) == 1 and tries[0][2] is not None
    assert_face_duals_in_their_box(tries)
    opt = scipy_oracle(model.H, y, np.ones(model.rows))
    assert abs(sol.objective - opt) <= 1e-7 * (1.0 + abs(opt))
    assert sol.gap <= 1e-8 * (np.abs(y).max() + abs(sol.objective))


def test_a_face_is_tried_once_where_more_than_n_rows_fit_exactly(monkeypatch):
    # the try runs only at a vertex whose unperturbed fit interpolates more
    # than n rows, and at most once; a rejected dual pivots on as the vertex
    # walk does: window 5's face is not optimal, window 281's Newton steps do
    # not reach the box, and window 389's reach it in 9, one more than a try takes
    tries = face_tries(monkeypatch)
    for request, certified in [(0, True), (3, True), (4, True), (5, False), (281, False), (389, False)]:
        model, y = estimate_window(request)
        del tries[:]
        sol = weighted_l1_regression(model.H, y, np.ones(model.rows))
        assert len(tries) == 1 and (tries[0][2] is not None) == certified, request
        exact, n = tries[0][:2]
        assert exact > n
        opt = scipy_oracle(model.H, y, np.ones(model.rows))
        assert abs(sol.objective - opt) <= 1e-7 * (1.0 + abs(opt))
        assert sol.gap <= 1e-8 * (np.abs(y).max() + abs(sol.objective))


def test_a_face_needs_more_than_n_rows_that_fit_without_the_perturbation():
    # the trigger reads the unperturbed fit off the tableau as r - u + u_B^T D^T:
    # a row whose perturbed residual is near zero only by the perturbation
    # does not make a face, however many of them there are
    u, basis = lp._perturbation(5), np.array([0, 1])
    DT = np.array([[1.0, 0.0, 0.0, 0.5, 2.0], [0.0, 1.0, 0.0, -1.0, 1.0]])
    for r0_2, on_face in [(0.0, True), (1e-10, False)]:
        r0 = np.array([0.0, 0.0, r0_2, 0.3, -0.2])
        Tab = np.vstack([DT, r0 + u - u[basis] @ DT])
        assert abs(Tab[2, 2]) <= lp._PERTURBATION  # row 2 is within the perturbation of zero
        assert bool(lp._on_face(Tab, u, basis)) == on_face
        assert lp._on_face(np.stack([Tab, Tab]), u, np.stack([basis, basis])).tolist() == [on_face] * 2


def test_a_face_needs_more_than_n_rows_within_the_perturbation_of_zero():
    # rows 2 and 3 are fitted exactly, but where D has large entries their perturbed
    # residuals u_i - (D u_B)_i lie farther than the perturbation from zero, and the
    # screen keeps the try off that vertex, however many rows fit exactly there
    u, basis = lp._perturbation(5), np.array([0, 1])
    r0 = np.array([0.0, 0.0, 0.0, 0.0, -0.2])
    for big, on_face in [(0.1, True), (1e3, False)]:
        DT = np.array([[1.0, 0.0, big, -big, 2.0], [0.0, 1.0, big, big, 1.0]])
        Tab = np.vstack([DT, r0 + u - u[basis] @ DT])
        assert (np.abs(Tab[2, 2:4]) <= lp._PERTURBATION).tolist() == [on_face] * 2
        assert bool(lp._on_face(Tab, u, basis)) == on_face
        assert lp._on_face(np.stack([Tab, Tab]), u, np.stack([basis, basis])).tolist() == [on_face] * 2


def size_rule_problem(m, n, T, seed=0):
    """A window of exact data with a stealth attack on 30 % of its rows."""
    from resilient_sse import random_support

    rng = np.random.default_rng(seed)
    model = build_horizon(gen_random_system(m, n, rng), T)
    y = model.H @ rng.standard_normal(n)
    support = random_support(model.rows, 0.3, rng)
    return model.H, y + synthesize_fdia(model, support, 0.01 * np.abs(y).sum()).e_T


@pytest.mark.parametrize("m, n, T, zeros, tried", [
    (60, 12, 4, 0, True), (60, 12, 4, 100, False), (30, 12, 4, 0, False), (60, 6, 4, 0, False),
], ids=["240x12", "140-positive-of-240x12", "120x12", "240x6"])
def test_the_size_rule_decides_which_solves_try_a_face(monkeypatch, m, n, T, zeros, tried):
    # a face is tried, by the single solve and by the search's hand-off, only
    # with at least 12 unknowns and 12 positive-weight rows per unknown
    A, y = size_rule_problem(m, n, T)
    w = np.ones(A.shape[0])
    w[:zeros] = 0.0
    stacks, on_face = [], lp._on_face
    monkeypatch.setattr(lp, "_on_face", lambda Tab, u, basis: stacks.append(Tab.ndim) or on_face(Tab, u, basis))
    weighted_l1_regression(A, y, w)
    assert (2 in stacks) == tried
    if not zeros:
        lp.search_bases(A, y[None], w[None])
        assert (3 in stacks) == tried


def face_case(seed, n, T, extra, fraction, integer, weights):
    """An exact-data window of n unknowns, T steps and 12 n // T + `extra` sensors, a `fraction`
    of its rows attacked by a stealth attack, as drawn or rounded to integers (integer rows of A,
    x and attack), with "unit", "two-level" or "zero" weights (12 n positive ones)."""
    from resilient_sse import random_support

    rng = np.random.default_rng(seed)
    model = build_horizon(gen_random_system(12 * n // T + extra, n, rng), T)
    x = rng.standard_normal(n)
    support = random_support(model.rows, fraction, rng)
    e = synthesize_fdia(model, support, 0.01 * np.abs(model.H @ x).sum()).e_T
    A = model.H
    if integer:
        A, x, e = np.round(100 * A), np.round(10 * x), np.round(100 * e)
    w = np.ones(model.rows)
    if weights == "two-level":
        w = np.where(rng.random(model.rows) < 0.5, 1.0, 0.01)
    elif weights == "zero":
        w[rng.choice(model.rows, size=model.rows - 12 * n, replace=False)] = 0.0
    return A, A @ x + e, w


# the values of face_case's arguments after the seed, as face_cases draws them: every window
# lies above the size rule of the face try (tools/scan_lp.py draws from them too)
FACE_RANGES = (range(12, 17), range(4, 7), range(1, 7), (0.1, 0.2, 0.3, 0.4), (False, True),
               ("unit", "two-level", "zero"))


@st.composite
def face_cases(draw):
    """face_case windows of 12-16 unknowns and T = 4-6, with more than 12 positive-weight rows
    per unknown (12 with zero weights) and 10-40 % of the rows attacked."""
    return face_case(draw(st.integers(0, 2**32 - 1)), *(
        draw(st.integers(v.start, v.stop - 1) if isinstance(v, range) else st.sampled_from(v))
        for v in FACE_RANGES))


def highs_gate(sol, A, y, w):
    """A single solve against HiGHS: (its objective's distance from HiGHS's optimum relative to
    1 + |optimum|, its gap relative to max|y| + |objective| over the weighted rows, whether the
    distance is within 1e-7, the gap within 1e-8 and the dual objective at most 1e-9 (1 +
    |optimum|) above the optimum)."""
    best = scipy_oracle(A, y, w)
    off = abs(sol.objective - best) / (1 + abs(best))
    rel_gap = sol.gap / (np.abs(y[w > 0]).max() + abs(sol.objective))
    holds = off <= 1e-7 and rel_gap <= 1e-8 and sol.dual_objective <= best + 1e-9 * (1 + abs(best))
    return off, rel_gap, holds


# the examples are T = 6 windows where an Armijo line search on the Huber-smoothed dual would
# halve a Newton step of the face try: 181 and 528 certify their face, 229 pivots on
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(face_cases())
@example(face_case(181, 15, 6, 6, 0.3, True, "two-level"))
@example(face_case(528, 12, 6, 3, 0.2, False, "two-level"))
@example(face_case(229, 14, 6, 3, 0.4, False, "unit"))
def test_face_certificates_agree_with_highs(case):
    A, y, w = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        tries = face_tries(monkeypatch)
        sol = weighted_l1_regression(A, y, w)
    assert_face_duals_in_their_box(tries)
    off, rel_gap, holds = highs_gate(sol, A, y, w)
    assert holds, (off, rel_gap, sol.dual_objective)


@pytest.mark.parametrize("constants, message", [
    ({"_GAP_RTOL": -1}, "basis not certified"),
    ({"_PIVOTS_PER_ROW": 0}, "no optimal basis after 0 pivots"),
], ids=["certificate-gate", "pivot-budget"])
def test_a_solve_that_cannot_certify_raises_solver_failure(monkeypatch, constants, message):
    model, y = estimate_window(1)  # window 0 certifies its face at the cold start
    assert weighted_l1_regression(model.H, y, np.ones(model.rows)).iterations > 0
    for name, value in constants.items():
        monkeypatch.setattr(lp, name, value)
    with pytest.raises(EstimationError, match=message):
        weighted_l1_regression(model.H, y, np.ones(model.rows))


def test_a_loop_that_stops_short_of_optimal_fails_the_certificate(monkeypatch):
    # a dual tolerance of 1e-2 stops the pivots at a basis that is not
    # optimal; its gap, 1.8e-4 at objective 0.35, lies inside a gap tolerance
    # loosened a million-fold, so only the certificate's own tolerance catches it
    cfg = SweepConfig(m=20, n=10, T=1, attack_grid=(0.3,), true_rate=0.6, eta=0.9, master_seed=3)
    inst = draw_instance(cfg, 0.3, 1)
    A, y, w = inst.model.H, inst.y_T, np.ones(inst.model.rows)
    assert weighted_l1_regression(A, y, w).gap <= 1e-13
    monkeypatch.setattr(lp, "_DUAL_RTOL", 1e-2)
    with pytest.raises(EstimationError, match="basis not certified on the data"):
        weighted_l1_regression(A, y, w)


def stacked_problems(m, n, T, K, seed):
    """K sweep-like problems of one shape: a fresh model per problem and a
    stealth attack on up to half the rows; unit and two-level weights."""
    rng = np.random.default_rng(seed)
    A, y, two_level = [], [], []
    for _ in range(K):
        model = build_horizon(gen_random_system(m, n, rng), T)
        y_star = model.H @ rng.standard_normal(n)
        support = rng.choice(model.rows, size=rng.integers(0, model.rows // 2), replace=False)
        e = synthesize_fdia(model, support, 0.01 * np.abs(y_star).sum()).e_T if support.size else 0.0
        A.append(model.H)
        y.append(y_star + e)
        two_level.append(np.where(rng.random(model.rows) < 0.4, 1.0, 0.01))
    return np.array(A), np.array(y), {"unit": np.ones((K, A[0].shape[0])), "two-level": np.array(two_level)}


def integer_problems(seed, weighted):
    """One seed's stack of exact integer problems (A, y, w): integer rows,
    states and attacks.  Weighted: 64 problems of 14 x 4, 20 % of the rows
    attacked, weights 1-3 on the odd problems; unit: 32 of 10 x 3, 30 %."""
    (K, N, n), share = ((64, 14, 4), 0.2) if weighted else ((32, 10, 3), 0.3)
    rng = np.random.default_rng(seed)
    A = rng.integers(-2, 3, (K, N, n)).astype(float)
    y = (A @ rng.integers(-3, 4, (K, n, 1)).astype(float))[..., 0]
    attacked = rng.random(y.shape) < share
    y[attacked] += rng.integers(-5, 6, attacked.sum())
    w = rng.integers(1, 4, (K, N)).astype(float) if weighted else np.ones((K, N))
    w[::2] = 1.0
    return A, y, w


def assert_found_bases_certify_as_cold_solves(A, y, w, found):
    """Each found basis holds the cold solve's rows, and the single solve
    started from it certifies it without a pivot, with the cold solve's
    numbers bit for bit.  Returns the cold solves' pivots."""
    pivots = 0
    for i, basis in enumerate(found):
        cold = weighted_l1_regression(A[i], y[i], w[i])
        warm = weighted_l1_regression(A[i], y[i], w[i], start=basis)
        assert sorted(basis.tolist()) == cold.basis.tolist()
        assert warm.iterations == 0
        for field in ("z", "residual", "objective", "dual_objective", "gap", "basis"):
            assert np.array_equal(getattr(warm, field), getattr(cold, field)), field
        pivots += cold.iterations
    return pivots


@pytest.mark.parametrize("m, n, T, K", [(20, 10, 1, 30), (20, 10, 3, 16), (60, 12, 4, 6)],
                         ids=["20x10", "60x10", "240x12"])
@pytest.mark.parametrize("weights, reweighted", [("unit", "two-level"), ("two-level", "unit")])
def test_search_finds_the_bases_of_the_single_solves(m, n, T, K, weights, reweighted):
    # one search over both weightings of every problem, stacked either way
    # round, as a sweep chunk stacks its strategies' problems
    A, y, w = stacked_problems(m, n, T, K, seed=m + T)
    A, y, w = np.concatenate([A, A]), np.concatenate([y, y]), np.concatenate([w[weights], w[reweighted]])
    found = lp.search_bases(A, y, w)
    assert all(basis is not None for basis in found)
    assert assert_found_bases_certify_as_cold_solves(A, y, w, found) > 2 * K


@pytest.mark.parametrize("family", ("random", "stealth20", "stealth240", "ties", "near_rank",
                                    "col_scale"))
def test_search_follows_the_single_solve_on_every_family(family):
    # a problem with a zero weight is left to the single solve, and so are the
    # ties family's, whose duplicated rows fit alike: the first rows of the
    # least-squares order are dependent
    A, y, w = (np.array(v) for v in zip(*(lp_instance(family, seed) for seed in range(8))))
    found = lp.search_bases(A, y, w)
    usable = [i for i in range(len(found)) if family != "ties" and (w[i] > 0).all()]
    assert [i for i, basis in enumerate(found) if basis is not None] == usable
    assert_found_bases_certify_as_cold_solves(A[usable], y[usable], w[usable],
                                              [found[i] for i in usable])


def test_search_follows_the_single_solve_on_exact_integer_data():
    # integer rows and states fit many rows exactly, so the optimum may have
    # more than one basis, ratios may meet the dual tolerance and breakpoint
    # sums the rate exactly; the search starts at the cold start's sorted rows
    # and pivots by its rule, so each basis it finds is the cold solve's.  On
    # the unit-weight draw the summed rises meet half the rate exactly: both
    # solvers step to that breakpoint, not past it.  On the seeds after the
    # first, a ulp of g_k decides which row enters: both walks price every
    # vertex from the tableau, g = D^T nu, so they take the same row
    # (tools/scan_lp.py runs every seed of both families)
    for weighted, seeds in ((True, (7, 18, 30, 47, 54, 65, 138, 151, 173)),
                            (False, (0, 17, 61, 65, 88, 108, 143, 151, 169, 176))):
        for seed in seeds:
            A, y, w = integer_problems(seed, weighted)
            found = lp.search_bases(A, y, w)
            usable = [i for i, basis in enumerate(found) if basis is not None]
            assert len(usable) >= len(found) // 2
            assert_found_bases_certify_as_cold_solves(A[usable], y[usable], w[usable],
                                                      [found[i] for i in usable])


def test_search_gives_up_where_the_single_solve_leaves_the_pivots(monkeypatch):
    A, y, w = stacked_problems(20, 10, 1, 12, seed=5)
    w = w["unit"]
    bases = lp.search_bases(A, y, w)
    assert all(basis is not None for basis in bases)
    # unusable problems give up and leave the others as they were
    A_bad, y_bad, w_bad = A.copy(), y.copy(), w.copy()
    A_bad[0, :, 3] = A_bad[0, :, 1]  # rank deficient: no n rows are independent
    w_bad[1, 4] = 0.0
    y_bad[2, 0] = np.nan
    A_bad[3, 5, 0] = np.inf
    found = lp.search_bases(A_bad, y_bad, w_bad)
    assert found[:4] == [None] * 4
    assert all(np.array_equal(f, b) for f, b in zip(found[4:], bases[4:]))
    # the pivot cap: only the problems whose start is optimal are found
    monkeypatch.setattr(lp, "_PIVOTS_PER_ROW", 0)
    capped = lp.search_bases(A, y, w)
    assert capped.count(None) > 0
    for i, basis in enumerate(capped):
        if basis is not None:
            assert np.array_equal(basis, bases[i])
            assert weighted_l1_regression(A[i], y[i], w[i], start=basis).iterations == 0


def test_search_on_one_shared_model_equals_the_search_on_its_copies():
    # one (N, n) model that every problem shares is checked and factored
    # once; what the search finds, and where it gives up, is what it finds on
    # the (K, N, n) stack of that model's copies
    rng = np.random.default_rng(3)
    N, n, K = 14, 3, 8
    A = rng.standard_normal((N, n))
    A[:5] = A[0]  # five copies of one row fit alike: a dependent start
    y = rng.standard_normal((K, n)) @ A.T
    y[:, 5:] += 3 * rng.standard_normal((K, N - 5))
    y[::2] = rng.standard_normal((K // 2, N))
    w = rng.uniform(0.5, 1.0, (K, N))
    y[1, 2], w[3, 7] = np.nan, 0.0  # a non-finite y and a zero weight
    shared, copies = lp.search_bases(A, y, w), lp.search_bases(np.array([A] * K), y, w)
    assert [i for i, b in enumerate(shared) if b is None] == [0, 1, 3, 5, 7]
    assert all(c is None if s is None else np.array_equal(s, c) for s, c in zip(shared, copies))
    for i in (0, 5, 7):  # dependent first rows, not a rank deficient problem
        first = lp._fit_order(A, y[i] / np.abs(y[i]).max() + lp._perturbation(N))[:n]
        assert gram_schmidt_basis(A, first, n) is None
        assert weighted_l1_regression(A, y[i], w[i]).gap <= 1e-8 * (1 + np.abs(y[i]).max())
    for i in (2, 4, 6):
        assert weighted_l1_regression(A, y[i], w[i], start=shared[i]).iterations == 0
    # the sweep-like stacks too: one model's problems, unit and two-level weights
    A, y, w = stacked_problems(20, 10, 1, 6, seed=11)
    y, w = np.concatenate([y, y]), np.concatenate([w["unit"], w["two-level"]])
    shared, copies = lp.search_bases(A[0], y, w), lp.search_bases(np.array([A[0]] * 12), y, w)
    assert all(s is not None and np.array_equal(s, c) for s, c in zip(shared, copies))
    # a shared model that is not finite gives up on every problem
    A_bad = A[0].copy()
    A_bad[4, 2] = np.nan
    assert lp.search_bases(A_bad, y, w) == [None] * 12


@pytest.mark.parametrize("family", ("random", "stealth20", "near_rank", "col_scale",
                                    "zero_weights"))
def test_a_result_depends_only_on_its_optimal_rows(family):
    # the solve factors its basis in ascending order, so a start that lists
    # the optimal rows in any order gives the cold solve's numbers bit for bit
    for seed in range(4):
        A, y, w = lp_instance(family, seed)
        cold = weighted_l1_regression(A, y, w)
        assert np.all(np.diff(cold.basis) > 0)
        rng = np.random.default_rng(seed)
        for start in [cold.basis[::-1]] + [rng.permutation(cold.basis) for _ in range(8)]:
            warm = weighted_l1_regression(A, y, w, start=start)
            assert warm.iterations == 0
            for field in ("z", "residual", "objective", "dual_objective", "gap", "basis"):
                assert np.array_equal(getattr(warm, field), getattr(cold, field)), field


def start_path_problem(seed, kind):
    """A 14 x 3 problem with a gross error on 9 rows whose search start is
    well posed ("plain"), has a condition number about 1e9 ("scaled": the
    columns span 1e9), or takes rows of five copies of one row ("copies",
    exact; "near", apart by 1e-13)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((14, 3))
    if kind == "scaled":
        A *= np.array([10**-4.5, 1.0, 10**4.5])
    elif kind in ("copies", "near"):
        A[:5] = A[0]
        if kind == "near":
            A[1:5] += 1e-13 * rng.standard_normal((4, 3))
    y = A @ rng.standard_normal(3)
    y[5:] += 3 * rng.standard_normal(9)
    return A, y


def test_search_proves_each_start_by_its_inverse():
    # a start stays only where the inverse the search takes is finite and
    # proves its rows independent; the others leave for the single solve:
    # the ill-conditioned start, whose rows are independent, the near copies,
    # and the exact copies, whose singular block makes the stacked inverse
    # raise, so each block is inverted alone and that one is nan
    specs = [(0, "plain"), (0, "scaled"), (4, "near"), (2, "plain"), (0, "copies")]
    A, y = (np.array(v) for v in zip(*(start_path_problem(*spec) for spec in specs)))
    w = np.random.default_rng(9).uniform(0.5, 1.0, y.shape)
    K, N, n = A.shape
    starts = np.array([lp._fit_order(A[i], y[i] / np.abs(y[i]).max() + lp._perturbation(N))[:n]
                       for i in range(K)])
    first = np.take_along_axis(A, np.sort(starts)[..., None], axis=1)
    big = np.abs(A).max(axis=(1, 2))
    assert [gram_schmidt_basis(A[i], starts[i], n) is not None for i in range(K)] == [
        True, True, False, True, False]
    assert 1e8 < np.linalg.cond(first[1]) < 1e10
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(first)
    basis, inv, usable = lp._factor(A, starts, big)
    assert np.array_equal(basis, np.sort(starts))
    assert usable.tolist() == [True, False, False, True, False]
    assert all(np.array_equal(inv[i], np.linalg.inv(first[i])) for i in range(4))
    assert np.isnan(inv[4]).all()
    for stack in (slice(None), slice(4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            found = lp.search_bases(A[stack], y[stack], w[stack])
        assert [basis is not None for basis in found] == usable[stack].tolist()
        for i, basis in enumerate(found):
            if basis is not None:
                assert sorted(basis.tolist()) == weighted_l1_regression(A[i], y[i], w[i]).basis.tolist()
    # the ill-conditioned problem the search leaves is certified by its cold solve
    cold = weighted_l1_regression(A[1], y[1], w[1])
    assert cold.gap <= 1e-8 * (np.abs(y[1]).max() + abs(cold.objective))


def test_search_leaves_a_start_that_does_not_invert():
    # the start of the n = 120 Kahan-type problem has independent rows whose
    # LU meets an exactly zero pivot: the stacked inverse raises, that block
    # alone inverts to nan, and the problem leaves; the other problem's start
    # is proven by its own block's inverse and the search finds its basis
    A, y = kahan_problem(120)
    rng = np.random.default_rng(0)
    G = rng.standard_normal((240, 120))
    y_G = G @ rng.standard_normal(120)
    y_G[rng.choice(240, size=40, replace=False)] += 5 * rng.standard_normal(40)
    w = np.ones((2, 240))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        found = lp.search_bases(np.array([A, G]), np.array([y, y_G]), w)
    assert found[0] is None
    assert sorted(found[1].tolist()) == weighted_l1_regression(G, y_G, w[1]).basis.tolist()


def test_search_gives_up_where_its_tableau_is_not_finite(monkeypatch):
    # in finite numbers the candidates' total rise is at least |g_k|, more
    # than half the rate, so every descent edge has a breakpoint (module
    # docstring).  Entries near 4e-309 are independent relative to max|A|,
    # but their inverses overflow: such a start leaves before its tableau is
    # built, unless a negative rank tolerance lets every inverse that is not
    # nan through; then g is nan, never tests optimal, and the problem gives
    # up at the pivot cap
    A = np.array([[[3e-309], [4e-309], [-5e-309]], [[1.0], [2.0], [3.0]]])
    y = np.array([[1.0, 2.0, 7.0], [1.0, 2.0, 7.0]])
    w = np.ones((2, 3))
    assert not lp._factor(A[0], np.array([0]), 5e-309)[2]
    found = lp.search_bases(A, y, w)
    assert found[0] is None
    monkeypatch.setattr(lp, "_RANK_RTOL", -1.0)
    with np.errstate(all="ignore"):
        found = lp.search_bases(A, y, w)
    assert found[0] is None
    assert np.array_equal(found[1], lp.search_bases(A[1:], y[1:], w[1:])[0])
