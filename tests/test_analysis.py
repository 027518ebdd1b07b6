import itertools
import math

import numpy as np
import pytest

from resilient_sse import (
    BoundInputs,
    BudgetZero,
    ConditionViolated,
    HorizonModel,
    LtiSystem,
    bound_condition,
    build_horizon,
    recovery_bound,
    rip_constant,
)
from resilient_sse import analysis
from conftest import make_system


def full_complement(model):
    """U2 from a full SVD of H computed here, not from the model's factors."""
    return np.linalg.svd(model.H, full_matrices=True)[0][:, model.n:]


def oracle_delta(model, supports):
    """Independent route: the Gram block of the selected columns of U2^T,
    compared against 1 one support at a time."""
    U2 = full_complement(model)
    best = 0.0
    for sup in supports:
        block = U2[list(sup), :]
        eig = np.linalg.eigvalsh(block @ block.T)
        best = max(best, eig[-1] - 1.0, 1.0 - eig[0])
    return best


def square_orthonormal_model(rows):
    """Edge case with an empty range block: U2 = I, square orthonormal."""
    return HorizonModel(
        T=1,
        H=np.zeros((rows, 0)),
        U1=np.zeros((rows, 0)),
        sigma_min=0.0,
        sigma_max=0.0,
    )


def test_rip_isometry_edge():
    model = square_orthonormal_model(6)
    for S in (1, 3, 6):
        est = rip_constant(model, S, budget=10**6)
        assert est.exact
        assert est.delta_S <= 1e-12


def test_rip_S1_is_column_norm_scan():
    sys_ = make_system(40, m=7, n=3)
    model = build_horizon(sys_, 1)
    est = rip_constant(model, 1, budget=100)
    U2 = full_complement(model)
    direct = max(abs(np.linalg.norm(U2[i, :]) ** 2 - 1.0) for i in range(7))
    assert est.delta_S == pytest.approx(direct, abs=1e-12)


def test_rip_exact_matches_oracle():
    sys_ = make_system(41, m=10, n=4)
    model = build_horizon(sys_, 1)
    est = rip_constant(model, 2, budget=45)
    assert est.exact and est.n_supports_checked == 45
    supports = itertools.combinations(range(model.rows), 2)
    assert est.delta_S == pytest.approx(oracle_delta(model, supports), abs=1e-10)


def test_rip_square_H_has_delta_one():
    # rows == n: H is invertible, U2 is empty and every Gram block of U2^T is 0
    rng = np.random.default_rng(45)
    model = build_horizon(LtiSystem(A=0.5 * np.eye(4), C=rng.standard_normal((4, 4))), 1)
    assert model.rows == model.n
    for S in (1, 2, 4):
        est = rip_constant(model, S, budget=10)
        assert est.exact
        assert est.delta_S == pytest.approx(1.0, abs=1e-12)
        supports = itertools.combinations(range(4), S)
        assert oracle_delta(model, supports) == pytest.approx(1.0, abs=1e-12)


def test_rip_exact_spans_several_batches():
    model = build_horizon(make_system(46, m=40, n=5), 1)
    assert math.comb(40, 3) > 2 * (analysis._RIP_BATCH_ROWS // 3)
    est = rip_constant(model, 3, budget=10**4)
    assert est.exact and est.n_supports_checked == 9880
    supports = itertools.combinations(range(40), 3)
    assert est.delta_S == pytest.approx(oracle_delta(model, supports), abs=1e-12)


def test_rip_sampled_replays_its_support_stream():
    model = build_horizon(make_system(47, m=30, n=4), 1)
    S, budget = 4, 5000
    assert math.comb(30, S) > budget > analysis._RIP_BATCH_ROWS // S
    rng = np.random.default_rng(7)
    est = rip_constant(model, S, budget=budget, rng=rng)
    assert not est.exact and est.n_supports_checked == budget
    replay = np.random.default_rng(7)
    supports = [np.sort(replay.choice(30, S, replace=False)) for _ in range(budget)]
    assert est.delta_S == pytest.approx(oracle_delta(model, supports), abs=1e-12)
    assert rng.random() == replay.random()  # the call drew exactly budget supports


def test_rip_monotone_in_S():
    sys_ = make_system(42, m=9, n=3)
    model = build_horizon(sys_, 1)
    deltas = [rip_constant(model, S, budget=10**5).delta_S for S in (1, 2, 3, 4)]
    assert all(a <= b + 1e-12 for a, b in zip(deltas, deltas[1:]))


def test_rip_sampled_is_lower_bound():
    sys_ = make_system(43, m=12, n=4)
    model = build_horizon(sys_, 1)
    exact = rip_constant(model, 3, budget=10**6)
    sampled = rip_constant(model, 3, budget=20, rng=np.random.default_rng(0))
    assert exact.exact and not sampled.exact
    assert sampled.n_supports_checked == 20
    assert sampled.delta_S <= exact.delta_S + 1e-12


def test_rip_budget_validation():
    sys_ = make_system(44, m=6, n=2)
    model = build_horizon(sys_, 1)
    with pytest.raises(BudgetZero):
        rip_constant(model, 2, budget=0)
    with pytest.raises(ValueError):
        rip_constant(model, 0, budget=10)


def test_bound_condition_examples():
    zero_delta = BoundInputs(
        a=4, rho=2.0, omega=0.0, sparsity=1, delta_ak=0.0, delta_a1k=0.0,
        sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=1.0,
    )
    assert bound_condition(zero_delta)  # C=4: 0 <= 3

    boundary = BoundInputs(
        a=1, rho=1.0, omega=1.0, sparsity=1, delta_ak=0.0, delta_a1k=0.0,
        sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0,
    )
    assert bound_condition(boundary)  # C=1: 0 <= 0, boundary included

    # C = 3/2.5 = 1.2 with delta_ak = 0.5 fails for every delta_a1k
    for d1 in (0.0, 0.2, 0.9):
        failing = BoundInputs(
            a=3, rho=3.5, omega=0.0, sparsity=1, delta_ak=0.5, delta_a1k=d1,
            sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0,
        )
        assert not bound_condition(failing)

    # omega 0 and rho 1 leave no base: C is infinite, and only delta_a1k < 1 counts
    assert analysis.weighting_constant(1, 0.0, 1.0) == math.inf
    infinite_C = BoundInputs(
        a=1, rho=1.0, omega=0.0, sparsity=1, delta_ak=0.9, delta_a1k=0.9,
        sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0,
    )
    assert bound_condition(infinite_C)


def test_bound_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(a=1, rho=3.0, omega=0.0, sparsity=1, delta_ak=0.0,
                    delta_a1k=0.0, sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0)
    with pytest.raises(ValueError):
        BoundInputs(a=2, rho=2.0, omega=0.0, sparsity=1, delta_ak=1.0,
                    delta_a1k=0.0, sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0)
    valid = dict(a=2, rho=2.0, omega=0.0, sparsity=1, delta_ak=0.0, delta_a1k=0.0,
                 sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0)
    for field, bad, message in (("omega", -0.1, "omega"), ("omega", 1.5, "omega"),
                                ("sparsity", 0, "sparsity"), ("sigma_min_H", 0.0, "sigma_min_H"),
                                ("sigma_min_H", -1.0, "sigma_min_H")):
        with pytest.raises(ValueError, match=message):
            BoundInputs(**{**valid, field: bad})


def test_recovery_bound_closed_form():
    inputs = BoundInputs(
        a=4, rho=2.0, omega=0.0, sparsity=1, delta_ak=0.0, delta_a1k=0.0,
        sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=1.0,
    )
    assert recovery_bound(inputs) == pytest.approx(8.0 / 3.0)

    clean = BoundInputs(
        a=4, rho=2.0, omega=0.0, sparsity=1, delta_ak=0.0, delta_a1k=0.0,
        sigma_min_H=1.0, sigma_k_e=0.5, e_pruned_l1=0.0,
    )
    assert recovery_bound(clean) == 0.0  # omega=0 kills the only nonzero term

    attack_free = BoundInputs(
        a=4, rho=2.0, omega=0.3, sparsity=1, delta_ak=0.1, delta_a1k=0.1,
        sigma_min_H=2.0, sigma_k_e=0.0, e_pruned_l1=0.0,
    )
    assert recovery_bound(attack_free) == 0.0


def test_recovery_bound_condition_violated():
    bad = BoundInputs(
        a=3, rho=3.5, omega=0.0, sparsity=1, delta_ak=0.5, delta_a1k=0.2,
        sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0,
    )
    with pytest.raises(ConditionViolated):
        recovery_bound(bad)
    # C = 1 meets the condition on its boundary, but the leading constant's
    # denominator 1 - 1/C vanishes
    boundary = BoundInputs(
        a=1, rho=1.0, omega=1.0, sparsity=1, delta_ak=0.0, delta_a1k=0.0,
        sigma_min_H=1.0, sigma_k_e=0.0, e_pruned_l1=0.0,
    )
    assert bound_condition(boundary)
    with pytest.raises(ConditionViolated, match="denominator"):
        recovery_bound(boundary)


def test_recovery_bound_scales_with_error_terms():
    base = dict(a=4, rho=2.0, omega=0.25, sparsity=2, delta_ak=0.05,
                delta_a1k=0.08, sigma_min_H=1.5)
    one = recovery_bound(BoundInputs(**base, sigma_k_e=1.0, e_pruned_l1=2.0))
    two = recovery_bound(BoundInputs(**base, sigma_k_e=2.0, e_pruned_l1=4.0))
    assert two == pytest.approx(2 * one)
