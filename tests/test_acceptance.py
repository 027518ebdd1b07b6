"""Acceptance suite: one test per gate criterion, each printing a summary
line (run with `pytest tests/test_acceptance.py -v -s`).

Stochastic gates use fixed seeds, so the suite is deterministic.  Rate
comparisons use a conservative binomial three-sigma margin at worst-case
variance, slack = 3 * sqrt(0.25 / trials).
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from resilient_sse import (
    BoundInputs,
    LtiSystem,
    SweepConfig,
    best_k_sparse_error,
    bound_condition,
    build_horizon,
    decode,
    gen_confidences,
    gen_random_system,
    indicator_from_support,
    is_successful,
    load_surrogate,
    poisson_binomial_pmf,
    ppv_guarantee_check,
    prune_offline,
    prune_product,
    recovery_bound,
    rip_constant,
    run_scenario,
    sample_prior,
    sweep,
    synthesize_fdia,
    weighted_observer,
)
from resilient_sse.cli import parse_and_dispatch


def report(name: str, detail: str):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_exact_recovery_attack_free():
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng([101, trial])
        sys_ = gen_random_system(20, 10, rng)
        model = build_horizon(sys_, 1)
        x_star = rng.standard_normal(10)
        est = decode(model, model.H @ x_star)
        rel = np.linalg.norm(est.z - x_star) / np.linalg.norm(x_star)
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report("01 exact recovery, attack-free", f"200/200, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_collapse_beyond_half():
    cfg = SweepConfig(
        m=20, n=10, T=1, attack_grid=(0.55, 0.6, 0.7), trials=500,
        strategies=("none",), master_seed=0,
    )
    result = sweep(cfg)
    rates = {row.attack_fraction: row.success_rate for row in result.rows}
    for p_a, rate in rates.items():
        assert rate <= 0.05, f"plain decoder survived at fraction {p_a}: {rate}"
    report("02 collapse beyond 1/2", ", ".join(f"{p}:{r:.3f}" for p, r in sorted(rates.items())))


def test_criterion_03_strategy_ordering():
    t0 = time.monotonic()
    trials = 500
    cfg = SweepConfig(
        m=20, n=10, T=1, attack_grid=(0.3, 0.4, 0.5, 0.6, 0.7), trials=trials,
        true_rate=0.6, eta=0.9, omega=0.01,
        strategies=("none", "prior", "pruned_product"), master_seed=0,
    )
    result = sweep(cfg)
    slack = 3.0 * math.sqrt(0.25 / trials)
    lines = []
    for p_a in cfg.attack_grid:
        none = result.row(p_a, "none").success_rate
        prior = result.row(p_a, "prior").success_rate
        pruned = result.row(p_a, "pruned_product").success_rate
        assert pruned >= prior - slack, f"pruned {pruned} < prior {prior} - slack at {p_a}"
        assert prior >= none - slack, f"prior {prior} < none {none} - slack at {p_a}"
        lines.append(f"{p_a}:[{pruned:.3f}>={prior:.3f}>={none:.3f}]")
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    report("03 strategy ordering", " ".join(lines) + f", slack {slack:.3f}, {elapsed:.0f}s")


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.95])
def test_criterion_04_pruning_reliability(eta):
    rows, trials = 30, 10_000
    rng = np.random.default_rng(int(eta * 1000))
    p = gen_confidences(rows, 0.9, 0.09, rng)

    def q_source(r):
        k = int(r.integers(0, rows // 2))
        return indicator_from_support(r.choice(rows, size=k, replace=False) if k else [], rows)

    rate = ppv_guarantee_check(q_source, p, eta, trials, rng)
    stderr = math.sqrt(max(rate * (1.0 - rate), 1e-9) / trials)
    assert rate >= eta - 3 * stderr
    report(f"04 pruning reliability eta={eta}", f"rate {rate:.4f} >= {eta} - 3*{stderr:.4f}")


def test_criterion_05_attack_guarantee():
    made, tries = 0, 0
    master = np.random.default_rng(505)
    while made < 200:
        tries += 1
        assert tries < 4000, "instance construction should not be this hard"
        rng = np.random.default_rng(master.integers(2**63))
        n = int(rng.integers(2, 4))
        m = int(rng.integers(n + 4, n + 9))
        C = rng.standard_normal((m, n))
        safe = np.sort(rng.choice(m, n, replace=False))
        C[safe, :] *= 10.0 ** rng.uniform(-3.0, -1.5)  # low-gain safe sensors
        A = rng.standard_normal((n, n))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
        model = build_horizon(LtiSystem(A=A, C=C), 1)
        support = np.setdiff1d(np.arange(m), safe)
        x_star = rng.standard_normal(n)
        eps = 0.01 * float(np.abs(model.H @ x_star).sum())
        plan = synthesize_fdia(model, support, eps)
        if not plan.feasible:
            continue
        made += 1
        alpha = plan.alpha_guarantee
        verdict = is_successful(plan, model, x_star, eps, alpha)
        assert verdict.stealth_ok, f"instance {made}: detector fired"
        assert verdict.bias_ok, f"instance {made}: bias {verdict.bias} < {alpha}"
        assert verdict.residual_l1 <= eps + 1e-6
    report("05 attack guarantee", f"200/200 successful over {tries} candidate draws")


def test_criterion_06_pmf_exactness():
    worst = 0.0
    rng = np.random.default_rng(606)
    for _ in range(100):
        N = int(rng.integers(1, 13))
        p = rng.uniform(0.05, 1.0, N)
        r = poisson_binomial_pmf(p)
        masks = (np.arange(2**N)[:, None] >> np.arange(N)) & 1
        probs = np.prod(np.where(masks == 1, p, 1.0 - p), axis=1)
        exact = np.bincount(masks.sum(axis=1), weights=probs, minlength=N + 1)
        worst = max(worst, float(np.max(np.abs(r - exact))))
        assert worst <= 1e-12
    report("06 pmf exactness", f"100 vectors, worst abs dev {worst:.2e}")


def test_criterion_07_pruning_optimality():
    rng = np.random.default_rng(707)
    for _ in range(100):
        N = int(rng.integers(2, 16))
        p = rng.uniform(0.2, 1.0, N)
        eta = float(rng.uniform(0.1, 0.95))
        bits = (np.arange(2**N)[:, None] >> np.arange(N)) & 1
        log_products = bits @ np.log(p)
        best = int(bits.sum(axis=1)[log_products >= math.log(eta) - 1e-12].max(initial=0))
        assert prune_offline(p, eta).size == best
    report("07 offline pruning optimality", "100 random (p, eta) pairs vs subset enumeration")


def test_criterion_08_rip_oracle_equivalence():
    rng = np.random.default_rng(808)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(n + 2, 13))
        sys_ = gen_random_system(m, n, rng)
        model = build_horizon(sys_, 1)
        for S in (1, 2, 3):
            est = rip_constant(model, S, budget=10**6)
            assert est.exact
            # independent oracle through the range-basis complement identity
            best = 0.0
            for sup in itertools.combinations(range(m), S):
                sv = np.linalg.svd(model.U1[list(sup), :], compute_uv=False)
                lam_max = 1.0 - (sv[-1] ** 2 if S >= n else 0.0)
                lam_min = 1.0 - sv[0] ** 2
                best = max(best, lam_max - 1.0, 1.0 - lam_min)
            assert abs(est.delta_S - best) <= 1e-10
            checked += 1
    report("08 rip oracle equivalence", f"{checked} (system, S) pairs")


def _tiny_instance(rng):
    """One filtered draw for the recovery-bound gate; None if rejected."""
    m, K = 12, 1
    if rng.random() < 0.5:
        n = 1
        C = rng.choice([-1.0, 1.0], size=(m, 1))
        A = np.array([[0.9]])
    else:
        n = 2
        C = rng.standard_normal((m, 2))
        C /= np.linalg.norm(C, axis=1, keepdims=True)
        A = rng.standard_normal((2, 2))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    model = build_horizon(LtiSystem(A=A, C=C), 1)
    support = np.array([int(rng.integers(0, m))])
    x_star = rng.standard_normal(n)
    eps = 0.01 * float(np.abs(model.H @ x_star).sum())
    plan = synthesize_fdia(model, support, eps)
    y = model.H @ x_star + plan.e_T

    q = indicator_from_support(support, m)
    p = gen_confidences(m, 0.95, 0.04, rng)
    prior = sample_prior(q, p, rng)
    pruned = prune_product(prior, 0.5)
    trusted = pruned.safe_set
    if trusted.size == 0 or np.any(q.q[trusted] == 0):
        return None  # pruning event did not occur
    rho = (m - trusted.size) / K
    if rho < 1:
        return None
    omega = 0.01
    for a in range(max(int(np.ceil(rho - 1)), 1), m - K):
        if (a + 1) * K > m:
            break
        d_a = rip_constant(model, a * K, budget=10**6).delta_S
        d_a1 = rip_constant(model, (a + 1) * K, budget=10**6).delta_S
        if d_a >= 1.0 or d_a1 >= 1.0:
            continue
        inputs = BoundInputs(
            a=a, rho=rho, omega=omega, sparsity=K, delta_ak=d_a, delta_a1k=d_a1,
            sigma_min_H=float(np.linalg.svd(model.H, compute_uv=False)[-1]),
            sigma_k_e=best_k_sparse_error(plan.e_T, K),
            e_pruned_l1=float(np.abs(plan.e_T[trusted]).sum()),
        )
        if bound_condition(inputs):
            est = weighted_observer(model, y, trusted, omega)
            err = float(np.linalg.norm(est.z - x_star))
            return err, recovery_bound(inputs)
    return None


def test_criterion_09_recovery_bound_soundness():
    rng = np.random.default_rng(909)
    made, tries = 0, 0
    worst_excess = -np.inf
    while made < 50:
        tries += 1
        assert tries < 3000, "filtered instance generation stalled"
        out = _tiny_instance(rng)
        if out is None:
            continue
        err, bound = out
        worst_excess = max(worst_excess, err - bound)
        assert err <= bound + 1e-6, f"observed {err} above bound {bound}"
        made += 1
    report("09 recovery bound soundness",
           f"50/50 within bound over {tries} draws, worst err-bound {worst_excess:.2e}")


def test_criterion_10_scenario_ordering():
    sys_, x0 = load_surrogate()
    metrics = run_scenario(sys_, x0)
    for coord in range(sys_.n):
        lo = metrics.rms["LO"][coord]
        wl = metrics.rms["WL1P"][coord]
        assert lo >= 100.0 * wl, f"coordinate {coord}: rms {lo} vs {wl}"
        assert metrics.max_abs["WL1P"][coord] <= metrics.max_abs["L1O"][coord]
    report(
        "10 scenario ordering",
        f"min rms LO/WL1P ratio {min(l / max(w, 1e-300) for l, w in zip(metrics.rms['LO'], metrics.rms['WL1P'])):.1e}",
    )


def test_criterion_11_cli_determinism(tmp_path):
    runs = {
        "sweep.csv": ["sweep", "--m", "12", "--n", "5", "--grid", "0.0,0.3,0.6",
                      "--trials", "25", "--seed", "21"],
        "sweep.json": ["sweep", "--m", "12", "--n", "5", "--grid", "0.3",
                       "--trials", "25", "--seed", "21", "--format", "json"],
        "scenario.json": ["scenario", "--steps", "25", "--seed", "4"],
        "attack.json": None,  # filled below, needs the system file
        "prune.json": None,
        "rip.json": None,
    }
    sys_, x0 = load_surrogate()
    sys_path = tmp_path / "sys.json"
    sys_path.write_text(json.dumps({"A": sys_.A.tolist(), "C": sys_.C.tolist(), "x0": list(x0)}))
    prior_path = tmp_path / "prior.json"
    prior_path.write_text(json.dumps({"p": [0.9, 0.8, 0.7, 0.95], "q": [1, 0, 1, 1], "seed": 3}))
    runs["attack.json"] = ["attack", "--system", str(sys_path), "--epsilon", "0.4",
                          "--fraction", "0.3", "--seed", "13"]
    runs["prune.json"] = ["prune", "--input", str(prior_path), "--eta", "0.6"]
    runs["rip.json"] = ["rip", "--system", str(sys_path), "--S", "3",
                        "--budget", "50", "--seed", "2"]

    for name, argv in runs.items():
        first, second = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        assert parse_and_dispatch(argv + ["--out", str(first)]) == 0
        assert parse_and_dispatch(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), f"{name} differs between runs"
    report("11 cli determinism", f"{len(runs)} seeded runs byte-identical")
