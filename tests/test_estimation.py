import inspect
import itertools

import numpy as np
import pytest

from resilient_sse import (
    EstimationError,
    LpSolution,
    LtiSystem,
    best_k_sparse_error,
    build_horizon,
    decode,
    detect,
    luenberger_baseline,
    riccati_gain,
    simulate,
    solve_weighted_l1,
    weighted_observer,
)
from conftest import make_system


def tiny_model():
    """rows = [1;1;1] observing a scalar state."""
    sys_ = LtiSystem(A=[[1.0]], C=[[1.0], [1.0], [1.0]])
    return build_horizon(sys_, 1)


def test_weighted_observer_puts_1_on_trusted_rows_and_omega_elsewhere():
    model = build_horizon(LtiSystem(A=[[1.0]], C=[[1.0], [1.0], [1.0], [1.0]]), 1)
    y = [1.0, 5.0, 2.0, 6.0]
    est = weighted_observer(model, y, [0, 2], 0.5)
    ref = solve_weighted_l1(model, y, [1.0, 0.5, 1.0, 0.5])
    assert est.z.tolist() == ref.z.tolist() == [2.0]
    assert est.objective == ref.objective == 4.5
    with pytest.raises(ValueError, match="omega must lie in"):
        weighted_observer(model, y, [0, 2], 1.5)
    for trusted in ([0, 4], [-1], range(5)):
        with pytest.raises(ValueError, match=r"trusted indices must lie in \[0, 4\)"):
            weighted_observer(model, y, trusted, 0.5)


def test_solve_weighted_l1_median_case():
    model = tiny_model()
    est = solve_weighted_l1(model, [1.0, 1.0, 5.0], np.ones(3))
    assert abs(est.z[0] - 1.0) <= 1e-8
    assert abs(est.objective - 4.0) <= 1e-8
    assert np.allclose(est.residual, [0.0, 0.0, 4.0], rtol=0.0, atol=1e-8)


def test_solve_weighted_l1_takes_one_weight_per_row():
    model = tiny_model()
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_weighted_l1(model, [1.0, 1.0, 5.0], np.ones(2))
    column = solve_weighted_l1(model, [1.0, 1.0, 5.0], np.ones((3, 1)))
    assert column.z.tolist() == [1.0] and column.objective == 4.0


def test_a_window_of_the_wrong_length_is_a_dimension_mismatch():
    model = tiny_model()  # three rows
    for window in ([1.0, 1.0], [1.0, 1.0, 5.0, 2.0]):
        for solve in (lambda y: decode(model, y), lambda y: weighted_observer(model, y, [0], 0.5),
                      lambda y: solve_weighted_l1(model, y, np.ones(3))):
            with pytest.raises(ValueError, match="shape mismatch"):
                solve(window)


def test_solve_weighted_l1_downweighted_majority():
    model = tiny_model()
    est = solve_weighted_l1(model, [5.0, 5.0, 1.0], [0.1, 0.1, 1.0])
    assert abs(est.z[0] - 1.0) <= 1e-8


def test_estimate_result_carries_solve_diagnostics_and_warm_start():
    sys_ = make_system(4, m=8, n=3)
    model = build_horizon(sys_, 2)
    x = np.array([1.0, -2.0, 0.5])
    y = model.H @ x
    y[[1, 6]] += 4.0
    est = weighted_observer(model, y, [0, 2, 3, 4, 5, 7, 8, 9], 0.1)
    assert est.basis.shape == (3,) and est.iterations >= 0
    assert -1e-12 <= est.gap <= 1e-8 * (1 + est.objective) + 1e-15
    warm = weighted_observer(model, y + 1e-3, [0, 2, 3, 4, 5, 7, 8, 9], 0.1, start=est.basis)
    cold = weighted_observer(model, y + 1e-3, [0, 2, 3, 4, 5, 7, 8, 9], 0.1)
    assert abs(warm.objective - cold.objective) <= 1e-9 * (1 + cold.objective)
    assert decode(model, y, start=est.basis).basis.shape == (3,)
    with pytest.raises(ValueError, match="start"):
        decode(model, y, start=[0, 0, 1])


def test_decoders_return_the_lp_solution_unchanged(monkeypatch):
    import resilient_sse.estimation as estimation

    model = tiny_model()
    y = [1.0, 1.0, 5.0]
    solved = estimation.weighted_l1_regression(model.H, y, np.ones(3))
    assert isinstance(solved, LpSolution)
    calls = []

    def recorded(A, y_T, w, start=None):
        calls.append((A, np.asarray(w).tolist(), start))
        return solved

    monkeypatch.setattr(estimation, "weighted_l1_regression", recorded)
    assert decode(model, y) is solved
    assert weighted_observer(model, y, [0], 0.5, start=[1]) is solved
    assert solve_weighted_l1(model, y, [1.0, 2.0, 3.0]) is solved
    assert [w for _, w, _ in calls] == [[1.0] * 3, [1.0, 0.5, 0.5], [1.0, 2.0, 3.0]]
    assert all(A is model.H for A, _, _ in calls) and calls[1][2] == [1]
    for solve in (decode, weighted_observer, solve_weighted_l1):
        assert {"epsilon", "x_true"}.isdisjoint(inspect.signature(solve).parameters)


def test_decode_tiny_majority_vote():
    model = tiny_model()
    est = decode(model, [1.0, 1.0, 5.0])
    assert abs(est.z[0] - 1.0) <= 1e-8


def test_estimate_result_objective_matches_weighted_residual():
    sys_ = make_system(5, m=9, n=4)
    model = build_horizon(sys_, 1)
    rng = np.random.default_rng(3)
    y = model.H @ rng.standard_normal(4)
    y[[1, 4]] += 2.5
    w = rng.uniform(0.05, 1.0, model.rows)
    est = solve_weighted_l1(model, y, w)
    direct = float(w @ np.abs(y - model.H @ est.z))
    assert abs(est.objective - direct) <= 1e-8


def test_zero_residual_point_is_optimal():
    sys_ = make_system(0, m=9, n=4)
    model = build_horizon(sys_, 2)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(4)
    est = solve_weighted_l1(model, model.H @ x, rng.uniform(0.1, 1.0, model.rows))
    assert est.objective <= 1e-9
    assert np.linalg.norm(est.z - x) <= 1e-8


def test_decode_agrees_with_direct_form():
    # the two parameterizations of the same programme must coincide
    for seed in range(100):
        sys_ = make_system(seed, m=10, n=4)
        model = build_horizon(sys_, 1)
        rng = np.random.default_rng(1000 + seed)
        y = model.H @ rng.standard_normal(4)
        k = rng.integers(0, 4)
        y[rng.choice(model.rows, size=k, replace=False)] += 6 * rng.standard_normal(k)
        a = decode(model, y)
        b = solve_weighted_l1(model, y, np.ones(model.rows))
        assert np.linalg.norm(a.z - b.z) <= 1e-6


def test_decode_attack_free_recovers_exactly():
    sys_ = make_system(7, m=12, n=5)
    model = build_horizon(sys_, 1)
    x = np.random.default_rng(2).standard_normal(5)
    est = decode(model, model.H @ x)
    assert np.linalg.norm(est.z - x) <= 1e-8
    assert est.objective <= 1e-9


def test_decode_survives_single_designed_attack():
    # one optimally placed corruption out of twenty sensors never fools the
    # decoder on these instances; larger supports do (see the sweep gates)
    from resilient_sse import gen_random_system, random_support, synthesize_fdia

    for trial in range(100):
        rng = np.random.default_rng([77, trial])
        sys_ = gen_random_system(20, 10, rng)
        model = build_horizon(sys_, 1)
        x = rng.standard_normal(10)
        y_star = model.H @ x
        eps = 0.01 * float(np.abs(y_star).sum())
        support = random_support(20, 0.05, rng)  # one row
        plan = synthesize_fdia(model, support, eps)
        est = decode(model, y_star + plan.e_T)
        assert np.linalg.norm(est.z - x) <= 1e-8 * np.linalg.norm(x)


def test_detect_strict_threshold():
    model = tiny_model()
    y = np.array([1.0, 1.0, 5.0])
    x_hat = np.array([1.0])
    assert detect(model, y, x_hat, 1.0) is True      # residual 4 > 1
    assert detect(model, y, x_hat, 4.0) is False     # boundary is not flagged
    assert detect(model, model.H @ np.array([2.0]), [2.0], 1e-12) is False
    for epsilon in (0.0, np.nan):  # NaN fails every comparison, `epsilon <= 0` too
        with pytest.raises(ValueError, match="epsilon"):
            detect(model, y, x_hat, epsilon)


def test_weighted_observer_degenerate_weights():
    sys_ = make_system(3, m=10, n=4)
    model = build_horizon(sys_, 1)
    rng = np.random.default_rng(5)
    y = model.H @ rng.standard_normal(4)
    y[2] += 4.0

    all_rows = weighted_observer(model, y, range(model.rows), 0.3)
    plain = decode(model, y)
    assert np.linalg.norm(all_rows.z - plain.z) <= 1e-6

    omega_one = weighted_observer(model, y, [0, 1], 1.0)
    assert np.linalg.norm(omega_one.z - plain.z) <= 1e-6


def test_weighted_observer_small_safe_set():
    model = tiny_model()
    est = weighted_observer(model, [5.0, 5.0, 1.0], [2], 0.1)
    assert abs(est.z[0] - 1.0) <= 1e-8


def test_weighted_objective_nonincreasing_in_omega_on_attacked_rows():
    # at a fixed point the objective is linear in the weights
    sys_ = make_system(11, m=8, n=3)
    model = build_horizon(sys_, 1)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(3)
    y = model.H @ x
    attacked = [0, 5]
    y[attacked] += 3.0
    last = np.inf
    for omega in (1.0, 0.5, 0.1, 0.01):
        w = np.ones(model.rows)
        w[attacked] = omega
        est = solve_weighted_l1(model, y, w)
        value = float(w @ np.abs(y - model.H @ est.z))
        assert value <= last + 1e-10
        last = value


def test_exact_recovery_for_any_full_rank_weights():
    rng = np.random.default_rng(6)
    for seed in range(10):
        sys_ = make_system(200 + seed, m=9, n=4)
        model = build_horizon(sys_, 1)
        x = rng.standard_normal(4)
        w = rng.uniform(0.05, 1.0, model.rows)
        est = solve_weighted_l1(model, model.H @ x, w)
        assert np.linalg.norm(est.z - x) <= 1e-8


# ---------------------------------------------------------------------------
# Luenberger baseline
# ---------------------------------------------------------------------------

def scalar_dare_fixed_point(a):
    """Independent solve of p = a^2 p/(1+p) + 1 by direct iteration."""
    p = 1.0
    for _ in range(200000):
        p_new = a * a * p / (1.0 + p) + 1.0
        if abs(p_new - p) < 1e-14:
            break
        p = p_new
    return p


def test_riccati_gain_scalar_oracle(monkeypatch):
    from resilient_sse import estimation

    a = 0.5
    sys_ = LtiSystem(A=[[a]], C=[[1.0]])
    L = riccati_gain(sys_)
    p = scalar_dare_fixed_point(a)
    assert abs(L[0, 0] - a * p / (1.0 + p)) <= 1e-8
    assert abs(a - L[0, 0]) < 1.0
    # an unobserved unstable state: the gain settles at 0 and leaves radius 2
    with pytest.raises(EstimationError, match="spectral radius"):
        riccati_gain(LtiSystem(A=[[2.0]], C=[[0.0]]))
    monkeypatch.setattr(estimation, "_RICCATI_MAX_ITER", 2)
    with pytest.raises(EstimationError, match="did not settle within 2 iterations"):
        riccati_gain(sys_)


def test_luenberger_attack_free_error_decays():
    sys_ = make_system(21, m=6, n=3)
    traj = simulate(sys_, np.array([3.0, -2.0, 1.0]), 60)
    est = luenberger_baseline(sys_, traj.clean_measurements)
    err = np.linalg.norm(est - traj.states, axis=1)
    assert err[-1] <= 1e-6 * max(1.0, err[0])
    # geometric envelope: later errors keep shrinking
    assert err[40] < err[10]
    for bad in (traj.clean_measurements[:, :-1], traj.clean_measurements.reshape(-1)):
        with pytest.raises(ValueError, match="measurements have shape"):
            luenberger_baseline(sys_, bad)


def test_luenberger_tracks_attack_without_resilience():
    # one corrupted sensor: the l1 decoder rejects it, the Luenberger
    # observer folds it into the estimate
    sys_ = make_system(22, m=6, n=3)
    rng = np.random.default_rng(0)
    model = build_horizon(sys_, 1)
    e = np.zeros(sys_.m)
    e[0] = 4.0
    steps = 50
    traj = simulate(sys_, rng.standard_normal(3), steps, np.tile(e, (steps, 1)))
    lo = luenberger_baseline(sys_, traj.attacked_measurements)
    lo_rms = np.sqrt(((lo - traj.states) ** 2).mean())
    l1_errs = []
    for i in range(steps):
        est = decode(model, traj.attacked_measurements[i])
        l1_errs.append(np.linalg.norm(est.z - traj.states[i]))
    assert max(l1_errs) <= 1e-7
    assert lo_rms > 10 * max(max(l1_errs), 1e-3)


# ---------------------------------------------------------------------------
# Best k-sparse approximation error
# ---------------------------------------------------------------------------

def enumeration_sigma_k(e, k):
    """Independent oracle: minimize the l1 mass off any k-support."""
    e = np.asarray(e, dtype=float)
    idx = range(len(e))
    best = np.inf
    for sup in itertools.combinations(idx, k):
        rest = [i for i in idx if i not in sup]
        best = min(best, float(np.abs(e[rest]).sum()))
    return best


def test_best_k_sparse_examples():
    assert best_k_sparse_error([3.0, -1.0, 2.0], 1) == 3.0
    assert best_k_sparse_error([3.0, -1.0, 2.0], 3) == 0.0
    assert best_k_sparse_error([3.0, -1.0, 2.0], 0) == 6.0


def test_best_k_sparse_matches_enumeration():
    rng = np.random.default_rng(8)
    for _ in range(5):
        e = np.round(rng.standard_normal(7), 3)
        for k in range(8):
            assert abs(best_k_sparse_error(e, k) - enumeration_sigma_k(e, k)) <= 1e-12


def test_best_k_sparse_tie_break_lowest_index():
    # both entries have magnitude 2; the first one is the one retained
    assert best_k_sparse_error([2.0, -2.0, 1.0], 1) == 3.0
    with pytest.raises(ValueError):
        best_k_sparse_error([1.0], 2)
