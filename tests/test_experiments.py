import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from resilient_sse import (
    BoundInputs,
    ScenarioAttack,
    ScenarioConfig,
    SweepConfig,
    best_k_sparse_error,
    bound_condition,
    build_horizon,
    draw_instance,
    gen_random_system,
    load_surrogate,
    recovery_bound,
    rip_constant,
    run_scenario,
    run_trial,
    simulate,
    sweep,
    weighted_observer,
)
from resilient_sse.errors import EstimationError
from resilient_sse.estimation import decode
from resilient_sse.experiments import (
    SUCCESS_RTOL, TrialOutcome, canonical_json, epsilon_from_policy, trusted_rows,
)
from resilient_sse.lp import weighted_l1_regression
from resilient_sse.fdia import random_support, synthesize_fdia
from resilient_sse.pruning import (
    gen_confidences,
    indicator_from_support,
    prune_product,
    sample_prior,
)


def small_cfg(**kw):
    base = dict(m=8, n=3, T=1, attack_grid=(0.0, 0.25), trials=5, master_seed=11)
    base.update(kw)
    return SweepConfig(**base)


def test_gen_random_system_contract():
    a = gen_random_system(10, 4, np.random.default_rng(3))
    b = gen_random_system(10, 4, np.random.default_rng(3))
    assert np.array_equal(a.A, b.A) and np.array_equal(a.C, b.C)
    build_horizon(a, 1)  # a full-column-rank H implies an observable pair
    assert np.max(np.abs(np.linalg.eigvals(a.A))) == pytest.approx(0.95)
    for m, n in ((4, 4), (4, 0), (4, -1)):
        with pytest.raises(ValueError, match=f"m={m}, n={n}"):
            gen_random_system(m, n, np.random.default_rng(0))


def test_epsilon_policy_parsing():
    assert epsilon_from_policy("rel:0.01", [1.0, -2.0, 3.0]) == pytest.approx(0.06)
    assert epsilon_from_policy("abs:2.5", [9.0]) == 2.5
    for bad in ("rel", "pct:1", "rel:x", "rel:-1"):
        with pytest.raises(ValueError):
            epsilon_from_policy(bad, [1.0])


def test_draw_instance_is_strategy_independent_and_deterministic():
    cfg = small_cfg()
    a = draw_instance(cfg, 0.25, 3)
    b = draw_instance(cfg, 0.25, 3)
    assert np.array_equal(a.model.H, b.model.H)
    assert np.array_equal(a.x_star, b.x_star)
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.prior.q_hat, b.prior.q_hat)
    assert np.array_equal(a.prior.p, b.prior.p)
    assert np.array_equal(a.y_T, b.y_T)

    other_trial = draw_instance(cfg, 0.25, 4)
    assert not np.array_equal(a.x_star, other_trial.x_star)
    with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
        trusted_rows(a, "bogus", cfg.eta)



def test_product_pruning_keeps_its_promise_on_the_harness_draws():
    # at the scenario's confidence model product pruning trusts rows (9.4 a
    # draw here, 3 at least), and the set it trusts is fully safe with
    # probability at least eta; the raw prior's estimated safe set is fully
    # safe in only 0.283 of these draws, the pruned set in 0.880
    eta, draws = 0.7, 300
    cfg = SweepConfig(m=20, n=10, T=3, attack_grid=(0.4,), true_rate=0.95, jitter=0.04,
                      eta=eta, master_seed=5)
    safe = 0
    for trial in range(draws):
        inst = draw_instance(cfg, 0.4, trial)
        trusted = trusted_rows(inst, "pruned_product", eta)
        assert trusted.size >= 1
        safe += not np.isin(trusted, inst.support).any()
    assert safe / draws >= eta - 3 * math.sqrt(eta * (1 - eta) / draws)


def reweighted_l1(model, y, rounds):
    """Reweighted l1 (Candes, Wakin & Boyd, J. Fourier Anal. Appl. 14(5-6), 2008) from the
    window alone: from the plain decoder's residual r, each round weighs row i by
    1 / (|r_i| + 1e-3 max|y|), scaled to max 1, and solves again."""
    sol = decode(model, y)
    for _ in range(rounds):
        w = 1.0 / (np.abs(sol.residual) + 1e-3 * np.abs(y).max())
        sol = weighted_l1_regression(model.H, y, w / w.max())
    return sol.z


def test_the_prior_beats_reweighting_from_the_window_alone():
    # the localization prior brings information from outside the window: from
    # p_a 0.4 the synthesized attack makes a wrong state the better l1 fit,
    # and 4 rounds of reweighting from the data converge on it.  Measured
    # (100 trials, master seed 0): reweighted 0.03 / 0 against prior 1.0 /
    # 1.0 at p_a 0.4 / 0.5 (none 0.02 / 0)
    trials, rounds = 100, 4
    cfg = SweepConfig(m=20, n=10, T=3, attack_grid=(0.4, 0.5), trials=trials, true_rate=0.95,
                      jitter=0.04, eta=0.7, omega=0.01, master_seed=0)
    for p_a in cfg.attack_grid:
        reweighted = prior = 0
        for t in range(trials):
            inst = draw_instance(cfg, p_a, t)
            err = np.linalg.norm(reweighted_l1(inst.model, inst.y_T, rounds) - inst.x_star)
            reweighted += err <= SUCCESS_RTOL * np.linalg.norm(inst.x_star)
            prior += run_trial(cfg, p_a, "prior", t).success
        rates = reweighted / trials, prior / trials
        se = math.sqrt(sum(r * (1 - r) for r in rates) / trials)
        assert rates[0] < rates[1] - 3 * se, (p_a, rates)


@pytest.mark.parametrize("m, n", [(9, 2), (10, 1)])
def test_product_pruning_keeps_the_recovery_bound_on_the_harness_draws(m, n):
    # the weighted-l1 bound with partial support information (Friedlander,
    # Mansour, Saab & Yilmaz, IEEE Trans. Inf. Theory 58(2), 2012) on every
    # draw whose pruned set is fully safe and whose isometry condition holds
    # with exact constants.  The drawn attack is K-sparse and spares the
    # trusted rows, so there the bound is 0 and the pruned_product trial
    # recovers x* exactly; with dense noise of 1e-3 max|e| added to every
    # row, the K largest errors stay off the trusted rows (the bound's
    # premise) and the bound is positive.  These are the largest sizes
    # probed where at least 50 of 600 draws at T 1, p_a 0.4 bind (85, 58)
    eta, p_a = 0.7, 0.4
    cfg = SweepConfig(m=m, n=n, T=1, attack_grid=(p_a,), true_rate=0.95, jitter=0.04, eta=eta)
    bind = 0
    for trial in range(600):
        inst = draw_instance(cfg, p_a, trial)
        trusted = trusted_rows(inst, "pruned_product", eta)
        if np.isin(trusted, inst.support).any():
            continue
        model, K = inst.model, inst.support.size
        e = inst.y_T - model.H @ inst.x_star
        y = inst.y_T + 1e-3 * np.abs(e).max() * np.random.default_rng(trial).standard_normal(model.rows)
        e_noisy = y - model.H @ inst.x_star
        rho = (model.rows - trusted.size) / K
        for a in range(max(math.ceil(rho - 1), 1), model.rows // K):  # (a + 1) K <= rows
            rips = [rip_constant(model, s * K, budget=math.comb(model.rows, s * K)) for s in (a, a + 1)]
            assert all(rip.exact for rip in rips)
            if max(rip.delta_S for rip in rips) >= 1.0:
                continue
            inputs = BoundInputs(a=a, rho=rho, omega=cfg.omega, sparsity=K,
                                 delta_ak=rips[0].delta_S, delta_a1k=rips[1].delta_S,
                                 sigma_min_H=float(np.linalg.svd(model.H, compute_uv=False)[-1]),
                                 sigma_k_e=best_k_sparse_error(e, K),
                                 e_pruned_l1=float(np.abs(e[trusted]).sum()))
            if bound_condition(inputs):
                bind += 1
                err = run_trial(cfg, p_a, "pruned_product", trial).error_l2
                assert err <= recovery_bound(inputs) + 1e-6, trial
                assert not np.isin(np.argsort(-np.abs(e_noisy))[:K], trusted).any(), trial
                noisy = replace(inputs, sigma_k_e=best_k_sparse_error(e_noisy, K),
                                e_pruned_l1=float(np.abs(e_noisy[trusted]).sum()))
                x_hat = weighted_observer(model, y, trusted, cfg.omega).z
                assert 0 < np.linalg.norm(x_hat - inst.x_star) <= recovery_bound(noisy), trial
                break
    assert bind >= 50


def test_trusting_strategies_beat_the_plain_decoder_where_the_rates_carry_information():
    # the scenario's confidence model at the sweep's T 3, where product
    # pruning trusts rows and some rate lies strictly within (0.1, 0.9) at
    # every grid point.  Measured at p_a 0.3 / 0.4 / 0.5: none 0.46 / 0.01 /
    # 0, prior 1.0 / 1.0 / 0.995, pruned_product 0.9 / 0.735 / 0.375,
    # pruned_quantile 1.0 / 1.0 / 0.995.  Every strategy that trusts rows
    # beats the plain decoder by more than the slack, and the quantile rule
    # keeps up with the raw prior; pruned_product >= prior does not
    # reproduce here (README)
    trials = 200
    cfg = SweepConfig(m=20, n=10, T=3, attack_grid=(0.3, 0.4, 0.5), trials=trials,
                      true_rate=0.95, jitter=0.04, eta=0.7, omega=0.01, master_seed=0)
    result = sweep(cfg)
    slack = 3 * math.sqrt(0.25 / trials)
    for p_a in cfg.attack_grid:
        rate = {s: result.row(p_a, s).success_rate for s in cfg.strategies}
        assert any(0.1 < r < 0.9 for r in rate.values()), (p_a, rate)
        for strategy in ("prior", "pruned_product", "pruned_quantile"):
            assert rate[strategy] > rate["none"] + slack, (p_a, strategy, rate)
        assert rate["pruned_quantile"] >= rate["prior"] - slack, (p_a, rate)


def test_run_trial_no_attack_succeeds_for_all_strategies():
    cfg = small_cfg()
    for strategy in cfg.strategies:
        out = run_trial(cfg, 0.0, strategy, 0)
        assert out.success and out.error_l2 <= 1e-9


def test_high_fraction_attack_defeats_plain_decoder():
    cfg = small_cfg(m=12, n=4, attack_grid=(0.6,), trials=12, master_seed=5)
    successes = sum(run_trial(cfg, 0.6, "none", t).success for t in range(cfg.trials))
    assert successes == 0


def test_sweep_row_bookkeeping_and_determinism():
    cfg = small_cfg()
    res1 = sweep(cfg)
    res2 = sweep(cfg)
    assert res1.to_csv() == res2.to_csv()
    assert res1.to_json() == res2.to_json()

    zero = res1.row(0.0, "none")
    assert zero.success_rate == 1.0 and zero.successes == zero.trials
    for row in res1.rows:
        assert row.success_rate == row.successes / row.trials
    with pytest.raises(KeyError):
        res1.row(0.5, "none")  # not a grid point of this sweep


def test_sweep_worker_count_does_not_change_bytes():
    cfg = small_cfg(trials=4)
    serial = sweep(cfg)
    parallel = sweep(SweepConfig(**{**cfg.__dict__, "workers": 2}))
    assert serial.to_csv() == parallel.to_csv()
    assert serial.to_json() == parallel.to_json()


def test_sweep_pool_has_no_more_workers_than_cpus_or_chunks(monkeypatch):
    # no process starts: the pool is an in-process fake, on two usable CPUs
    import concurrent.futures
    import os

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = small_cfg(trials=4)
    serial = sweep(cfg).to_csv()
    assert pools == []
    assert sweep(SweepConfig(**{**cfg.__dict__, "workers": 10_000})).to_csv() == serial
    assert pools == [2]
    # one trial index is one chunk, which needs no pool
    sweep(SweepConfig(**{**cfg.__dict__, "trials": 1, "workers": 10_000}))
    assert pools == [2]


def test_scenario_no_attack_everything_converges():
    sys_, x0 = load_surrogate()
    metrics = run_scenario(
        sys_, x0,
        attack=ScenarioAttack(support=()),
        scenario=ScenarioConfig(steps=40, T=2),
    )
    assert max(metrics.max_abs["L1O"]) <= 1e-8
    assert max(metrics.max_abs["WL1P"]) <= 1e-8
    # the Luenberger transient dies off: compare against its own start
    assert min(metrics.rms["LO"]) < max(np.abs(x0))


def test_scenario_metrics_shape_and_invariants():
    sys_, x0 = load_surrogate()
    metrics = run_scenario(sys_, x0, scenario=ScenarioConfig(steps=20, T=3))
    assert metrics.windows == 18
    for obs in metrics.observers:
        assert len(metrics.rms[obs]) == sys_.n
        for r, mx in zip(metrics.rms[obs], metrics.max_abs[obs]):
            assert 0.0 <= r <= mx + 1e-15


def test_scenario_default_attack_targets_high_gain_sensors():
    sys_, _ = load_surrogate()
    sup = ScenarioAttack().resolve_support(sys_.C)
    norms = np.linalg.norm(sys_.C, axis=1)
    assert np.array_equal(sup, np.sort(np.argsort(-norms)[:3]))


def test_scenario_three_observer_ordering():
    sys_, x0 = load_surrogate()
    metrics = run_scenario(sys_, x0)
    for lo, wl in zip(metrics.rms["LO"], metrics.rms["WL1P"]):
        assert lo >= 100 * wl
    for wl, l1 in zip(metrics.max_abs["WL1P"], metrics.max_abs["L1O"]):
        assert wl <= l1


def _spy_solves(monkeypatch, experiments):
    """Record (solver, start, trusted set or None, pivots) of every certifying
    solve of experiments, and the result of every search."""
    calls, searches = [], []

    def spy(solve):
        def wrapped(model, y_T, *args, start=None, **kw):
            est = solve(model, y_T, *args, start=start, **kw)
            trusted = args[0] if solve.__name__ == "weighted_observer" else None
            calls.append((solve.__name__, start, trusted, est.iterations))
            return est
        return wrapped

    search = experiments.search_bases

    def spy_search(A, y, w):
        searches.append(search(A, y, w))
        return searches[-1]

    monkeypatch.setattr(experiments, "decode", spy(experiments.decode))
    monkeypatch.setattr(experiments, "weighted_observer", spy(experiments.weighted_observer))
    monkeypatch.setattr(experiments, "search_bases", spy_search)
    return calls, searches


def test_scenario_windows_start_at_their_searched_bases(monkeypatch):
    # one search covers every l1 problem of the run, window-major (L1O then
    # WL1P per window), and each solve certifies its searched basis without a
    # pivot; a result depends only on its optimal rows, so cold solves of
    # every window give the same bits
    import resilient_sse.experiments as experiments

    sys_, x0 = load_surrogate()
    scenario = ScenarioConfig(steps=30, T=3)
    calls, searches = _spy_solves(monkeypatch, experiments)
    searched = run_scenario(sys_, x0, scenario=scenario)
    assert len(searches) == 1 and len(searches[0]) == 2 * searched.windows == len(calls)
    assert [name for name, *_ in calls] == ["decode", "weighted_observer"] * searched.windows
    assert any(found is not None for found in searches[0])
    for found, (_, start, _, pivots) in zip(searches[0], calls):
        assert start is found and (found is None or pivots == 0)

    monkeypatch.setattr(experiments, "search_bases", lambda A, y, w: [None] * len(y))
    assert run_scenario(sys_, x0, scenario=scenario) == searched


def test_an_empty_or_full_trusted_set_shares_the_decoders_solve(monkeypatch):
    # weights omega on every row, or 1 on every row, are positive multiples
    # of the decoder's unit weights: one problem, one search entry, one solve
    import resilient_sse.experiments as experiments

    model = build_horizon(gen_random_system(8, 2, np.random.default_rng(3)), 1)
    y = model.H @ np.array([1.0, -2.0])
    y[0] += 5.0
    calls, searches = _spy_solves(monkeypatch, experiments)
    sets = [None, np.arange(model.rows), np.array([], dtype=int), np.array([0, 1, 2])]
    (ests,) = experiments._certify_all([(model, y, sets)], 0.3)
    assert ests[0] is ests[1] is ests[2] and ests[3] is not ests[0]
    assert [name for name, *_ in calls] == ["decode", "weighted_observer"]
    assert len(searches) == 1 and len(searches[0]) == 2


def scenario_safe_set(sys_, T):
    """WL1P's trusted rows in a scenario on `sys_` with windows of T steps and the default
    attacked sensors, drawn as run_scenario draws them, and the rows of those sensors."""
    from resilient_sse.experiments import _ETA, _JITTER, _PRIOR_SEED, _TRUE_RATE

    sensors = ScenarioAttack().resolve_support(sys_.C)
    attacked = np.concatenate([r * sys_.m + sensors for r in range(T)])
    rng = np.random.default_rng(_PRIOR_SEED)
    p = gen_confidences(T * sys_.m, _TRUE_RATE, _JITTER, rng)
    q = indicator_from_support(attacked, T * sys_.m)
    return prune_product(sample_prior(q, p, rng), _ETA).safe_set, attacked


def test_scenario_prior_is_drawn_once_for_every_window(monkeypatch):
    # WL1P's trusted set comes from default_rng(_PRIOR_SEED): one draw, which
    # serves every window
    import resilient_sse.experiments as experiments

    sys_, x0 = load_surrogate()
    scenario = ScenarioConfig(steps=12, T=3)
    expected, _ = scenario_safe_set(sys_, scenario.T)
    calls, _ = _spy_solves(monkeypatch, experiments)
    run_scenario(sys_, x0, scenario=scenario)
    trusted = [tr for name, _, tr, _ in calls if name == "weighted_observer"]
    assert len(trusted) == scenario.steps - scenario.T + 1
    assert all(np.array_equal(t, expected) for t in trusted)


def guarantee_bound(model, w, attacked):
    """sum over i in S of w_i / m_i, m_i the certified lower bound (dual objective) of
    min{||W_{S^c} H_{S^c} d||_1 : h_i^T d = 1}, S the `attacked` rows: below 1, no attack on
    S, of any size, moves the weighted l1 decoder (Juditsky & Nemirovski, Math. Program.
    127(1), 2011), since |h_i^T d| <= ||W_{S^c} H_{S^c} d||_1 / m_i for every d."""
    H, rest = model.H, np.setdiff1d(np.arange(model.rows), attacked)
    B, total = H[rest], 0.0
    for i in attacked:
        h = H[i]
        j = int(np.abs(h).argmax())  # h^T d = 1 fixes d_j, so B d = B_j / h_j + M d_{-j}
        others = np.arange(model.n) != j
        M = B[:, others] - np.outer(B[:, j], h[others]) / h[j]
        total += w[i] / weighted_l1_regression(M, -B[:, j] / h[j], w[rest]).dual_objective
    return total


def test_the_scenarios_wl1p_is_proved_robust_to_any_attack_on_its_sensors():
    # the bundled surrogate at the default T = 3, attacked on its default sensors 1, 4 and 7
    # (9 rows): WL1P trusts 10 rows, none of them attacked, and its bound is below 1, so no
    # attack on those sensors, of any size, moves it; L1O's bound is above 1, which proves
    # nothing either way
    from resilient_sse.estimation import observer_weights
    from resilient_sse.experiments import _OMEGA

    sys_, x0 = load_surrogate()
    scenario = ScenarioConfig()
    model = build_horizon(sys_, scenario.T)
    safe, attacked = scenario_safe_set(sys_, scenario.T)
    assert attacked.tolist() == [1, 4, 7, 11, 14, 17, 21, 24, 27]
    assert safe.size == 10 and not np.isin(safe, attacked).any()
    wl1p = guarantee_bound(model, observer_weights(model, safe, _OMEGA), attacked)
    l1o = guarantee_bound(model, np.ones(model.rows), attacked)
    assert wl1p == pytest.approx(0.170, abs=5e-4) and l1o == pytest.approx(6.85, abs=5e-3)
    # so WL1P's error stays at roundoff however large the attack grows
    states = np.abs(simulate(sys_, x0, scenario.steps).states).max()
    for magnitude in (3.0, 3e6):
        metrics = run_scenario(sys_, x0, ScenarioAttack(magnitude=magnitude), observers=("WL1P",))
        assert max(metrics.max_abs["WL1P"]) <= 1e-9 * states


def test_scenario_solves_cold_where_the_search_gives_up(monkeypatch):
    import resilient_sse.experiments as experiments

    sys_, x0 = load_surrogate()
    scenario = ScenarioConfig(steps=20, T=3)
    full = run_scenario(sys_, x0, scenario=scenario)
    search = experiments.search_bases
    monkeypatch.setattr(experiments, "search_bases",
                        lambda A, y, w: [b if i % 2 else None for i, b in enumerate(search(A, y, w))])
    assert run_scenario(sys_, x0, scenario=scenario) == full


def test_scenario_with_only_lo_runs_no_search(monkeypatch):
    import resilient_sse.experiments as experiments

    sys_, x0 = load_surrogate()
    scenario = ScenarioConfig(steps=20, T=3)
    full = run_scenario(sys_, x0, scenario=scenario)

    def no_search(*args):
        raise AssertionError("a run without an l1 observer searched")

    monkeypatch.setattr(experiments, "search_bases", no_search)
    lo = run_scenario(sys_, x0, scenario=scenario, observers=("LO",))
    assert lo.rms == {"LO": full.rms["LO"]} and lo.max_abs == {"LO": full.max_abs["LO"]}


def test_scenario_wl1p_shares_l1os_solve_where_its_weights_are_uniform(monkeypatch):
    # where pruning trusts no row WL1P weighs every row alike, so in every
    # window it poses L1O's problem: one search entry and one solve per window
    import resilient_sse.experiments as experiments

    sys_, x0 = load_surrogate()
    prune, none = experiments.prune_product, np.array([], dtype=int)
    monkeypatch.setattr(experiments, "prune_product",
                        lambda prior, eta: replace(prune(prior, eta), safe_set=none))
    calls, searches = _spy_solves(monkeypatch, experiments)
    metrics = run_scenario(sys_, x0, scenario=ScenarioConfig(steps=20, T=3))
    assert len(searches) == 1 and len(searches[0]) == metrics.windows
    assert [name for name, *_ in calls] == ["decode"] * metrics.windows
    assert metrics.rms["WL1P"] == metrics.rms["L1O"]
    assert metrics.max_abs["WL1P"] == metrics.max_abs["L1O"]


@pytest.mark.parametrize("observers", [("L1O",), ("WL1P",), ("WL1P", "L1O")])
def test_scenario_l1_observers_alone_match_a_full_run(observers):
    sys_, x0 = load_surrogate()
    scenario = ScenarioConfig(steps=20, T=3)
    full = run_scenario(sys_, x0, scenario=scenario)
    part = run_scenario(sys_, x0, scenario=scenario, observers=observers)
    for obs in observers:
        assert part.rms[obs] == full.rms[obs] and part.max_abs[obs] == full.max_abs[obs]


def test_scenario_validation():
    sys_, x0 = load_surrogate()
    with pytest.raises(ValueError):
        run_scenario(sys_, x0, scenario=ScenarioConfig(steps=2, T=3))
    with pytest.raises(ValueError):
        run_scenario(sys_, x0, observers=("LO", "nope"))
    with pytest.raises(ValueError, match="at least one"):
        run_scenario(sys_, x0, observers=())
    with pytest.raises(ValueError, match="observer 'LO' is listed twice"):
        run_scenario(sys_, x0, observers=("LO", "WL1P", "LO"))
    with pytest.raises(ValueError, match="T must be >= 1"):
        ScenarioConfig(T=0)


def test_wl1p_recovers_the_state_exactly_on_the_surrogate():
    # criterion 10 compares LO against WL1P errors of pure roundoff; this
    # states the recovery itself, relative to the states the windows target
    sys_, x0 = load_surrogate()
    scenario = ScenarioConfig()
    metrics = run_scenario(sys_, x0, scenario=scenario)
    states = simulate(sys_, x0, scenario.steps).states[:metrics.windows]
    assert max(metrics.max_abs["WL1P"]) <= 1e-9 * float(np.abs(states).max())


@pytest.mark.parametrize("seed", range(3))
def test_wl1p_recovers_the_state_where_l1o_does_not(seed):
    # WL1P's margin over L1O is not roundoff: the default attack corrupts more
    # rows than plain l1 corrects, and the trusted rows let WL1P recover x
    sys_, x0 = load_surrogate()
    metrics = run_scenario(sys_, x0, attack=ScenarioAttack(seed=seed),
                           scenario=ScenarioConfig(steps=20), observers=("L1O", "WL1P"))
    assert max(metrics.rms["WL1P"]) <= 1e-9
    assert max(metrics.rms["L1O"]) >= 0.1


@pytest.mark.parametrize("config", [SweepConfig])
@pytest.mark.parametrize("field,value,message", [
    ("true_rate", 0.0, "true rate"), ("true_rate", 1.5, "true rate"),
    ("true_rate", np.nan, "true rate"), ("jitter", -1.0, "jitter"), ("jitter", np.inf, "jitter"),
    ("jitter", 1e308, "jitter"),
])
def test_configs_reject_a_confidence_model_gen_confidences_rejects(config, field, value, message):
    # the config fails with gen_confidences' message before anything is drawn
    with pytest.raises(ValueError, match=message) as rejected:
        config(**{field: value})
    kw = {"true_rate": 0.5, "jitter": 0.1, field: value}
    with pytest.raises(ValueError) as drawn:
        gen_confidences(4, kw["true_rate"], kw["jitter"], np.random.default_rng(0))
    assert str(rejected.value) == str(drawn.value)


@pytest.mark.parametrize("magnitude", [np.nan, np.inf, -np.inf])
def test_scenario_attack_rejects_a_non_finite_magnitude(magnitude):
    with pytest.raises(ValueError, match="magnitude"):
        ScenarioAttack(magnitude=magnitude)


def test_config_validation():
    for n in (5, 0, -1):
        with pytest.raises(ValueError, match=f"need m > n >= 1, got m=5, n={n}"):
            SweepConfig(m=5, n=n)
    with pytest.raises(ValueError):
        SweepConfig(attack_grid=(1.0,))
    with pytest.raises(ValueError):
        SweepConfig(strategies=("none", "magic"))
    with pytest.raises(ValueError):
        SweepConfig(trials=0)
    for empty in ("attack_grid", "strategies"):
        with pytest.raises(ValueError, match="at least one entry"):
            SweepConfig(**{empty: ()})
    with pytest.raises(ValueError, match="attack fraction 0.3 is listed twice"):
        SweepConfig(attack_grid=(0.3, 0.1, 0.3))
    with pytest.raises(ValueError, match="attack fraction 0.0 is listed twice"):
        SweepConfig(attack_grid=(0, 0.0))
    with pytest.raises(ValueError, match="strategy 'none' is listed twice"):
        SweepConfig(strategies=("none", "prior", "none"))
    # the plain decoder neither prunes nor weighs, so no later call would check these
    for field, values in (("eta", (0.0, 1.0, 1.5, math.nan)), ("omega", (-0.1, 2.0, math.nan))):
        for value in values:
            with pytest.raises(ValueError, match=f"{field} must lie in"):
                SweepConfig(strategies=("none",), **{field: value})


def test_canonical_json_writes_dataclasses_and_arrays_and_rejects_the_rest():
    doc = {"outcome": TrialOutcome(success=True, error_l2=0.5), "rows": np.arange(3)}
    assert canonical_json(doc) == '{"outcome":{"error_l2":0.5,"success":true},"rows":[0,1,2]}\n'
    for value in (object(), {1, 2}, np.int64(3), TrialOutcome):
        with pytest.raises(TypeError):
            canonical_json({"value": value})


ACCEPTANCE_03 = dict(m=20, n=10, T=1, attack_grid=(0.3, 0.4, 0.5, 0.6, 0.7),
                     true_rate=0.6, eta=0.9, omega=0.01, master_seed=0)


def test_paired_strategies_certify_their_searched_bases(monkeypatch):
    # one solve per distinct problem: pruned_product trusts no row here, so
    # its weights are omega times those of none, and it shares none's solve.
    # One search covers every distinct problem, and each solve certifies its
    # searched basis without a pivot.
    import resilient_sse.experiments as experiments

    cfg = SweepConfig(**{**ACCEPTANCE_03, "attack_grid": (0.3,), "trials": 1})
    assert len(cfg.strategies) == 4
    calls, searches = [], []  # (start, returned basis, pivots) per solve; result per search

    def spy(solve):
        def wrapped(*args, start=None, **kw):
            est = solve(*args, start=start, **kw)
            calls.append((start, est.basis, est.iterations))
            return est
        return wrapped

    search = experiments.search_bases

    def spy_search(A, y, w):
        searches.append(search(A, y, w))
        return searches[-1]

    monkeypatch.setattr(experiments, "decode", spy(experiments.decode))
    monkeypatch.setattr(experiments, "weighted_observer", spy(experiments.weighted_observer))
    monkeypatch.setattr(experiments, "search_bases", spy_search)
    outcomes = experiments._paired_chunk((cfg, range(1)))[0]
    assert len(calls) == 3 and len(searches) == 1 and len(searches[0]) == 3
    for found, (start, basis, pivots) in zip(searches[0], calls):
        assert start is found and np.array_equal(np.sort(start), basis) and pivots == 0
    assert outcomes["pruned_product"] == outcomes["none"]


def test_paired_trial_at_omega_1_solves_once(monkeypatch):
    # at omega 1 every trusted set weighs every row alike: one problem
    import resilient_sse.experiments as experiments

    cfg = SweepConfig(**{**ACCEPTANCE_03, "attack_grid": (0.3,), "trials": 1, "omega": 1.0})
    solves = []

    def spy(solve):
        def wrapped(*args, **kw):
            solves.append(solve)
            return solve(*args, **kw)
        return wrapped

    monkeypatch.setattr(experiments, "decode", spy(experiments.decode))
    monkeypatch.setattr(experiments, "weighted_observer", spy(experiments.weighted_observer))
    outcomes = experiments._paired_chunk((cfg, range(1)))[0]
    assert len(solves) == 1
    assert all(o == outcomes["none"] for o in outcomes.values())


def test_weights_are_built_once_per_distinct_problem(monkeypatch):
    import resilient_sse.experiments as experiments

    built = []
    observer_weights = experiments.observer_weights

    def spy(model, trusted, omega):
        built.append(trusted)
        return observer_weights(model, trusted, omega)

    monkeypatch.setattr(experiments, "observer_weights", spy)
    sys_, x0 = load_surrogate()
    run_scenario(sys_, x0, scenario=ScenarioConfig(steps=20, T=3))
    assert len(built) == 1  # one trusted set serves every window

    built.clear()  # a sweep chunk: each weighted problem is certified by one weighted_observer
    calls, _ = _spy_solves(monkeypatch, experiments)
    experiments._paired_chunk((SweepConfig(**ACCEPTANCE_03, trials=4), range(4)))
    assert 1 <= len(built) <= sum(name == "weighted_observer" for name, *_ in calls)


def test_sweep_rejects_omega_0_with_a_weighted_strategy():
    # a strategy may trust too few rows to fix x when the others weigh 0
    with pytest.raises(ValueError, match="omega must be positive"):
        small_cfg(omega=0.0)
    with pytest.raises(ValueError, match="omega must be positive"):
        small_cfg(omega=0.0, strategies=("none", "pruned_product"))
    assert small_cfg(omega=0.0, strategies=("none",)).omega == 0.0


def fresh_draw(cfg, p_a, t):
    """draw_instance written out from scratch: one generator, every call in order."""
    rng = np.random.default_rng([cfg.master_seed, t])
    model = build_horizon(gen_random_system(cfg.m, cfg.n, rng), cfg.T)
    x_star = rng.standard_normal(cfg.n)
    y_star = model.H @ x_star
    epsilon = epsilon_from_policy(cfg.epsilon_policy, y_star)
    support = random_support(model.rows, p_a, rng)
    y_T = y_star + synthesize_fdia(model, support, epsilon).e_T if support.size else y_star
    p = gen_confidences(model.rows, cfg.true_rate, cfg.jitter, rng)
    prior = sample_prior(indicator_from_support(support, model.rows), p, rng)
    return model, x_star, support, y_T, prior


def assert_is_fresh_draw(inst, cfg, p_a, t):
    model, x_star, support, y_T, prior = fresh_draw(cfg, p_a, t)
    assert np.array_equal(inst.model.H, model.H)
    assert np.array_equal(inst.x_star, x_star)
    assert np.array_equal(inst.support, support)
    assert np.array_equal(inst.y_T, y_T)
    assert np.array_equal(inst.prior.q_hat, prior.q_hat)
    assert np.array_equal(inst.prior.p, prior.p)


def test_shared_draw_equals_a_draw_from_scratch():
    # configs and trial indices interleave, so a stale cached draw would show
    cfgs = [small_cfg(attack_grid=(0.0, 0.25, 0.5)),
            small_cfg(attack_grid=(0.0, 0.25, 0.5), T=3),
            small_cfg(attack_grid=(0.0, 0.25, 0.5), master_seed=12)]
    for t in (0, 1, 0, 2, 2, 1):
        for cfg in cfgs:
            for p_a in cfg.attack_grid:
                assert_is_fresh_draw(draw_instance(cfg, p_a, t), cfg, p_a, t)


def test_a_draw_never_advances_the_trials_cached_generator():
    # the grid points of one trial out of order and repeated, from a warm and
    # then a cleared cache: each draw restores the trial's saved state on the
    # one cached generator before it draws the support and the prior
    import resilient_sse.experiments as experiments

    cfg = SweepConfig(**ACCEPTANCE_03, trials=1)
    for cached in (True, False):
        if not cached:
            experiments._shared_draw.cache_clear()
        for p_a in (0.7, 0.3, 0.7):
            assert_is_fresh_draw(draw_instance(cfg, p_a, 0), cfg, p_a, 0)
    assert experiments._shared_draw.cache_info().hits == 2  # one generator served all three


def test_sweep_builds_one_horizon_per_trial_index(monkeypatch):
    import resilient_sse.experiments as experiments

    built = []

    def spy(*args):
        built.append(args)
        return build_horizon(*args)

    monkeypatch.setattr(experiments, "build_horizon", spy)
    cfg = small_cfg(attack_grid=(0.0, 0.25, 0.5), trials=4, master_seed=13)
    sweep(cfg)
    assert len(built) == cfg.trials


def test_shared_draw_hands_out_a_read_only_x_star():
    inst = draw_instance(small_cfg(), 0.0, 0)
    with pytest.raises(ValueError, match="read-only"):
        inst.x_star[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        inst.y_T[0] = 1.0  # no attack: y_T is the shared y*


def test_paired_sweep_matches_cold_trials():
    # 100 paired trials: a result depends only on its optimal rows, so the
    # solves from searched bases give the cold solves' outcomes bit for bit
    import resilient_sse.experiments as experiments

    cfg = SweepConfig(**ACCEPTANCE_03, trials=20)
    chunk = experiments._paired_chunk((cfg, range(cfg.trials)))
    for t in range(cfg.trials):
        for gi, p_a in enumerate(cfg.attack_grid):
            paired = chunk[t * len(cfg.attack_grid) + gi]
            for strategy in cfg.strategies:
                assert paired[strategy] == run_trial(cfg, p_a, strategy, t)


def test_a_draw_with_no_safe_label_trusts_no_row_in_the_sweep_as_alone():
    # at true rate 0.5 a draw can label every row attacked: quantile pruning
    # then trusts no row, and the paired sweep gives the cold trial's outcome
    import resilient_sse.experiments as experiments

    cfg = SweepConfig(m=3, n=1, T=1, attack_grid=(0.67,), trials=20, true_rate=0.5,
                      jitter=0.0, master_seed=5)
    instances = [draw_instance(cfg, 0.67, t) for t in range(cfg.trials)]
    empty = [t for t, inst in enumerate(instances) if inst.prior.estimated_safe.size == 0]
    assert empty  # trials 2, 4, 9, 11, 13 and 18
    for t in empty:
        assert trusted_rows(instances[t], "pruned_quantile", cfg.eta).size == 0
    chunk = experiments._paired_chunk((cfg, range(cfg.trials)))
    for t in range(cfg.trials):
        assert chunk[t]["pruned_quantile"] == run_trial(cfg, 0.67, "pruned_quantile", t)


def single_solve_outcomes(cfg, trials):
    """The paired trials of `trials` as cold lone solves, one per strategy,
    task by task."""
    return [{s: run_trial(cfg, p_a, s, t) for s in cfg.strategies}
            for t in trials for p_a in cfg.attack_grid]


def test_chunked_sweep_matches_single_solves():
    # 60 trial indices x 5 grid points = 300 tasks: more than one chunk at
    # either worker count
    import resilient_sse.experiments as experiments

    cfg = small_cfg(attack_grid=(0.0, 0.3, 0.5, 0.6, 0.7), trials=60, omega=0.05)
    grid = len(cfg.attack_grid)
    assert cfg.trials * grid > experiments._CHUNK_TASKS
    reference = single_solve_outcomes(cfg, range(cfg.trials))
    assert experiments._paired_chunk((cfg, range(cfg.trials))) == reference

    for workers in (1, 2):
        result = sweep(SweepConfig(**{**cfg.__dict__, "workers": workers}))
        for gi, p_a in enumerate(cfg.attack_grid):
            outs = reference[gi::grid]  # tasks run trial-major
            for s in cfg.strategies:
                row = result.row(p_a, s)
                assert row.successes == sum(o[s].success for o in outs)
                assert row.mean_error == float(np.mean([o[s].error_l2 for o in outs]))


def test_a_sweep_above_the_face_size_rule_matches_single_solves(monkeypatch):
    # 240 x 12 windows: the search hands each problem over at the vertex where
    # the single solve tries to certify a face, so the certified solves from
    # the handed-over bases give the cold trials' outcomes bit for bit
    import resilient_sse.experiments as experiments
    from resilient_sse import lp

    cfg = SweepConfig(m=60, n=12, T=4, attack_grid=(0.2, 0.4), trials=2,
                      strategies=("none", "prior", "pruned_product"), master_seed=7)
    grid = len(cfg.attack_grid)
    reference = single_solve_outcomes(cfg, range(cfg.trials))
    tried, face_dual = [], lp._face_dual
    monkeypatch.setattr(lp, "_face_dual", lambda *args: tried.append(1) or face_dual(*args))
    assert experiments._paired_chunk((cfg, range(cfg.trials))) == reference
    assert tried  # the hand-off happened
    for workers in (1, 2):
        result = sweep(SweepConfig(**{**cfg.__dict__, "workers": workers}))
        for gi, p_a in enumerate(cfg.attack_grid):
            outs = reference[gi::grid]
            for s in cfg.strategies:
                row = result.row(p_a, s)
                assert row.successes == sum(o[s].success for o in outs)
                assert row.mean_error == float(np.mean([o[s].error_l2 for o in outs]))


@pytest.mark.parametrize("constants", [{"_GAP_RTOL": -1}, {"_PIVOTS_PER_ROW": 0}],
                         ids=["certificate-gate", "pivot-budget"])
def test_a_failing_solve_fails_the_sweep_as_it_fails_alone(monkeypatch, constants):
    from resilient_sse import lp

    cfg = small_cfg(trials=3)
    for name, value in constants.items():
        monkeypatch.setattr(lp, name, value)
    with pytest.raises(Exception) as alone:
        single_solve_outcomes(cfg, range(cfg.trials))
    with pytest.raises(type(alone.value)) as swept:
        sweep(cfg)
    assert str(swept.value) == str(alone.value)


@pytest.mark.parametrize("policy", ["rel:nan", "abs:inf"])
def test_epsilon_policy_rejects_non_finite_values(policy):
    with pytest.raises(ValueError, match="finite"):
        epsilon_from_policy(policy, [1.0])


def test_sweep_errors_that_overflow_are_a_numerical_failure():
    # a budget of 1e200 lets the attacked estimates' errors pass the largest
    # float: the sweep names the policy instead of writing inf, and no overflow warns
    cfg = SweepConfig(m=6, n=2, trials=2, attack_grid=(0.0, 0.3), epsilon_policy="abs:1e200")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError,
                           match="^the mean error overflows at epsilon policy abs:1e200$"):
            sweep(cfg)


def test_a_budget_too_large_to_certify_names_the_epsilon_policy(monkeypatch):
    # a budget beyond the largest float, and an attacked window whose T m max|y|
    # bound passes it, are rejected before any solve, naming the policy
    with pytest.raises(ValueError, match="^epsilon policy rel:1e308 gives a budget beyond"):
        epsilon_from_policy("rel:1e308", [1.0, -2.0])
    cfg = SweepConfig(m=6, n=2, trials=2, attack_grid=(0.3,), epsilon_policy="abs:1e308")

    def no_call(*args, **kwargs):
        raise AssertionError("a solve ran before the draw was rejected")

    monkeypatch.setattr("resilient_sse.experiments.search_bases", no_call)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the attacked measurements are too large to "
                                             "certify at epsilon policy abs:1e308$"):
            sweep(cfg)
