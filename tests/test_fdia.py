import numpy as np
import pytest

from resilient_sse import (
    HorizonModel,
    LtiSystem,
    build_horizon,
    decode,
    is_successful,
    random_support,
    synthesize_fdia,
)
from conftest import make_system


def model_from_U1(U1):
    """Wrap an orthonormal-column matrix as a horizon model with H = U1."""
    U1 = np.asarray(U1, dtype=float)
    return HorizonModel(H=U1, U1=U1, sigma_max=1.0)


def weak_safe_row_system(seed, n=None, c_size=None):
    """Random system whose low-gain sensors form the safe complement."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4)) if n is None else n
    m = int(rng.integers(n + 4, n + 9))
    c_size = n if c_size is None else c_size
    scale = 10.0 ** rng.uniform(-3.0, -1.5)
    C = rng.standard_normal((m, n))
    safe = np.sort(rng.choice(m, c_size, replace=False))
    C[safe, :] *= scale
    A = rng.standard_normal((n, n))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    sys_ = LtiSystem(A=A, C=C)
    support = np.setdiff1d(np.arange(m), safe)
    x_star = rng.standard_normal(n)
    return sys_, support, x_star


def test_synthesize_hand_example():
    s = 1.0 / np.sqrt(2.0)
    U1 = np.array([[s, 0.0], [s, 0.0], [0.0, 1.0]])
    model = model_from_U1(U1)
    plan = synthesize_fdia(model, [1], 1.0)
    assert not plan.unbounded
    assert np.allclose(plan.z_e, [1.0, 0.0], atol=1e-12)
    assert np.allclose(plan.e_T, [0.0, s, 0.0], atol=1e-12)


def test_synthesize_monte_carlo_optimality():
    # the closed form must beat a dense random search of the feasible set
    for seed in range(6):
        rng = np.random.default_rng(seed)
        sys_ = make_system(300 + seed, m=8, n=3)
        model = build_horizon(sys_, 1)
        support = np.sort(rng.choice(8, size=3, replace=False))
        comp = np.setdiff1d(np.arange(8), support)
        eps = 1.0
        plan = synthesize_fdia(model, support, eps)
        assert not plan.unbounded
        budget = eps / np.sqrt(comp.size)
        Uc = model.U1[comp, :]
        dirs = rng.standard_normal((100_000, 3))
        gains = np.linalg.norm(Uc @ dirs.T, axis=0)
        keep = gains > 1e-12
        best = np.max(np.linalg.norm(dirs[keep], axis=1) / gains[keep]) * budget
        assert np.linalg.norm(plan.z_e) >= (1 - 1e-3) * best


def test_synthesize_constraint_active():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        sys_ = make_system(400 + seed, m=9, n=3)
        model = build_horizon(sys_, 1)
        k = int(rng.integers(1, 6))
        support = np.sort(rng.choice(9, size=k, replace=False))
        comp = np.setdiff1d(np.arange(9), support)
        eps = float(rng.uniform(0.1, 2.0))
        plan = synthesize_fdia(model, support, eps)
        leak = np.linalg.norm(model.U1[comp, :] @ plan.z_e)
        assert leak <= eps / np.sqrt(comp.size) + 1e-9
        assert np.all(plan.e_T[comp] == 0.0)
        assert np.allclose(plan.e_T[support], model.U1[support, :] @ plan.z_e)


def test_synthesize_unbounded_branch_null_direction():
    s = 1.0 / np.sqrt(2.0)
    U1 = np.array([[s, 0.0], [s, 0.0], [0.0, 1.0]])
    model = model_from_U1(U1)
    # complement = row 0 only: its null space contains [0, 1]
    plan = synthesize_fdia(model, [1, 2], epsilon=0.5)
    assert plan.unbounded
    assert np.linalg.norm(plan.z_e) == pytest.approx(0.5 * 1e3)
    assert abs(U1[0] @ plan.z_e) <= 1e-9


def test_synthesize_zero_budget():
    sys_ = make_system(31, m=8, n=3)
    model = build_horizon(sys_, 1)
    plan = synthesize_fdia(model, [0, 1], 0.0)
    assert np.allclose(plan.e_T, 0.0)


def test_synthesize_support_validation():
    sys_ = make_system(32, m=6, n=2)
    model = build_horizon(sys_, 1)
    with pytest.raises(ValueError, match="^attack support is empty$"):
        synthesize_fdia(model, [], 1.0)
    with pytest.raises(ValueError, match="^support of size 6 covers every one of 6 rows$"):
        synthesize_fdia(model, range(6), 1.0)


def test_feasibility_single_weak_remaining_row():
    # support covers everything but one near-zero-gain sensor
    sys_, support, _ = weak_safe_row_system(8, c_size=1)
    model = build_horizon(sys_, 1)
    plan = synthesize_fdia(model, support, epsilon=1.0)
    assert plan.feasible and plan.alpha_guarantee > 0


def test_feasibility_examples():
    sys_, support, _ = weak_safe_row_system(0)
    model = build_horizon(sys_, 1)
    plan = synthesize_fdia(model, support, epsilon=1.0)
    assert plan.feasible and plan.alpha_guarantee > 0

    # linearity of the bound in epsilon
    plan10 = synthesize_fdia(model, support, epsilon=10.0)
    assert plan10.alpha_guarantee == pytest.approx(10 * plan.alpha_guarantee)

    # a complement block of spectral norm ~0.9 over 4 rows fails 0.9 < 1/4
    rng = np.random.default_rng(1)
    sys2 = make_system(33, m=7, n=3)
    model2 = build_horizon(sys2, 1)
    support2 = [0, 1, 2]
    comp = np.setdiff1d(np.arange(7), support2)
    sbar = np.linalg.norm(model2.U1[comp, :], 2)
    plan2 = synthesize_fdia(model2, support2, epsilon=1.0)
    assert plan2.feasible == (sbar < 1.0 / (2.0 * np.sqrt(4)))
    if not plan2.feasible:
        assert plan2.alpha_guarantee is None


def test_attack_guarantee_end_to_end():
    hits = 0
    for seed in range(25):
        sys_, support, x_star = weak_safe_row_system(seed)
        model = build_horizon(sys_, 1)
        y_star = model.H @ x_star
        eps = 0.01 * float(np.abs(y_star).sum())
        plan = synthesize_fdia(model, support, eps)
        if not plan.feasible:
            continue
        hits += 1
        verdict = is_successful(plan, model, x_star, eps, plan.alpha_guarantee)
        assert verdict.success
        assert verdict.residual_l1 <= eps + 1e-6
    assert hits >= 20  # the construction makes the condition typical


def test_no_attack_is_not_successful():
    sys_, support, x_star = weak_safe_row_system(3)
    model = build_horizon(sys_, 1)
    plan = synthesize_fdia(model, support, 0.0)
    verdict = is_successful(plan, model, x_star, epsilon=1.0, alpha=0.5)
    assert verdict.stealth_ok and not verdict.bias_ok and not verdict.success


def test_alpha_above_observed_bias_fails():
    sys_, support, x_star = weak_safe_row_system(4)
    model = build_horizon(sys_, 1)
    y_star = model.H @ x_star
    eps = 0.01 * float(np.abs(y_star).sum())
    plan = synthesize_fdia(model, support, eps)
    probe = is_successful(plan, model, x_star, eps, alpha=1e-9)
    verdict = is_successful(plan, model, x_star, eps, alpha=probe.bias * 10 + 1.0)
    assert not verdict.bias_ok


@pytest.mark.parametrize("epsilon, alpha", [(0.0, 1.0), (np.nan, 1.0), (1.0, 0.0), (1.0, np.nan)])
def test_is_successful_rejects_a_threshold_or_bias_that_is_not_positive(epsilon, alpha):
    sys_, support, x_star = weak_safe_row_system(3)
    model = build_horizon(sys_, 1)
    plan = synthesize_fdia(model, support, 1.0)
    with pytest.raises(ValueError, match="positive"):
        is_successful(plan, model, x_star, epsilon, alpha)


def test_random_support_contract():
    rng = np.random.default_rng(0)
    assert random_support(10, 0.0, rng).size == 0
    sup = random_support(10, 0.95, np.random.default_rng(1))
    assert sup.size == 9
    a = random_support(20, 0.4, np.random.default_rng(7))
    b = random_support(20, 0.4, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert len(np.unique(a)) == a.size == 8
    with pytest.raises(ValueError):
        random_support(10, 1.0, rng)
    # the largest fraction below 1 still leaves one safe row
    for rows in (1, 2, 7, 10, 999):
        assert random_support(rows, np.nextafter(1.0, 0.0), rng).size == rows - 1


@pytest.mark.parametrize("epsilon", [np.inf, np.nan, -1.0])
def test_synthesize_rejects_a_non_finite_or_negative_budget(epsilon):
    model = build_horizon(make_system(1, m=8, n=3), 1)
    with pytest.raises(ValueError, match="epsilon"):
        synthesize_fdia(model, [0], epsilon)


@pytest.mark.parametrize("cap", [np.inf, np.nan, 0.0, -1.0])
def test_synthesize_rejects_a_cap_factor_that_is_not_finite_and_positive(cap):
    model = build_horizon(make_system(1, m=8, n=3), 1)
    with pytest.raises(ValueError, match="magnitude_cap_factor"):
        synthesize_fdia(model, list(range(6)), 1.0, magnitude_cap_factor=cap)


@pytest.mark.parametrize("indices", [[], [4], [3, 1, 3, 0, 1], (7, 2, 2), {5, 1, 9}, [2.0, 1.0, 2.0],
                                     np.array([[3, 1], [1, 0]]), np.arange(6)[::-1],
                                     range(1, 9, 3), np.array([5, 1, 5], dtype=np.uint8)],
                         ids=["empty", "one", "duplicates", "tuple", "set", "floats", "2d", "reversed",
                              "range", "uint8"])
def test_sorted_unique_matches_np_unique(indices):
    # lti.row_indices returns the sorted unique rows, integral floats included
    from resilient_sse.lti import row_indices

    as_list = list(indices) if isinstance(indices, set) else indices
    expected = np.unique(np.asarray(as_list, dtype=int))
    got = row_indices(indices, 10, "rows")
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
