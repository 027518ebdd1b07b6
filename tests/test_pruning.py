import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from resilient_sse import (
    EmptyEstimate,
    NumericalInstability,
    SupportIndicator,
    SupportPrior,
    gen_confidences,
    indicator_from_support,
    oracle_advantage,
    poisson_binomial_pmf,
    ppv,
    ppv_guarantee_check,
    prune_offline,
    prune_online,
    prune_product,
    prune_quantile,
    reliability_ceiling,
    sample_prior,
    trust_count,
)


def brute_force_pmf(p):
    """Exhaustive enumeration over all 2^N outcomes."""
    N = len(p)
    out = np.zeros(N + 1)
    for bits in itertools.product((0, 1), repeat=N):
        prob = 1.0
        for b, pi in zip(bits, p):
            prob *= pi if b else (1.0 - pi)
        out[sum(bits)] += prob
    return out


def test_indicator_from_support():
    assert np.array_equal(indicator_from_support([], 4).q, [1, 1, 1, 1])
    assert np.array_equal(indicator_from_support(range(4), 4).q, [0, 0, 0, 0])
    assert np.array_equal(indicator_from_support([1], 4).q, [1, 0, 1, 1])
    with pytest.raises(ValueError):
        indicator_from_support([4], 4)


def test_sample_prior_no_flips_and_determinism():
    q = indicator_from_support([0, 2], 5)
    prior = sample_prior(q, np.ones(5), np.random.default_rng(0))
    assert np.array_equal(prior.q_hat, q.q)

    a = sample_prior(q, np.full(5, 0.7), np.random.default_rng(9))
    b = sample_prior(q, np.full(5, 0.7), np.random.default_rng(9))
    assert np.array_equal(a.q_hat, b.q_hat)
    assert a.true_rate == pytest.approx(0.7)


def test_true_rate_is_derived_not_passed():
    prior = SupportPrior(q_hat=np.array([1, 0, 1]), p=np.array([0.5, 0.7, 0.9]))
    assert prior.true_rate == pytest.approx(0.7)
    with pytest.raises(TypeError):
        SupportPrior(q_hat=np.array([1, 0, 1]), p=np.array([0.5, 0.7, 0.9]), true_rate=0.9)


def test_sample_prior_law_of_large_numbers():
    rows = 10_000
    q = indicator_from_support(range(0, rows, 2), rows)
    prior = sample_prior(q, np.full(rows, 0.5), np.random.default_rng(123))
    flip_rate = np.mean(prior.q_hat != q.q)
    assert abs(flip_rate - 0.5) <= 0.02


def test_sample_prior_marginal_flip_rate():
    q = indicator_from_support([1], 3)
    p = np.array([0.9, 0.6, 0.3])
    rng = np.random.default_rng(3)
    trials = 4000
    flips = np.zeros(3)
    for _ in range(trials):
        prior = sample_prior(q, p, rng)
        flips += prior.q_hat != q.q
    for i in range(3):
        stderr = math.sqrt(p[i] * (1 - p[i]) / trials)
        assert abs(flips[i] / trials - (1 - p[i])) <= 3 * stderr + 1e-9


def test_ppv_counts():
    q = SupportIndicator(q=[1, 0, 1, 1])
    assert ppv(q, np.array([1, 1, 0, 1])) == pytest.approx(2.0 / 3.0)
    assert ppv(q, np.array([1, 0, 1, 1])) == 1.0
    ones = SupportIndicator(q=[1, 1, 1])
    assert ppv(ones, np.array([0, 1, 1])) == 1.0
    with pytest.raises(EmptyEstimate):
        ppv(q, np.zeros(4, dtype=int))


def test_pmf_small_cases():
    assert np.allclose(poisson_binomial_pmf([0.5, 0.5]).r, [0.25, 0.5, 0.25])
    assert np.allclose(poisson_binomial_pmf([1.0, 1.0, 1.0]).r, [0, 0, 0, 1])
    assert np.allclose(poisson_binomial_pmf([0.9, 0.8]).r, [0.02, 0.26, 0.72])


def test_pmf_matches_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(10):
        N = int(rng.integers(1, 13))
        p = rng.uniform(0.05, 1.0, N)
        r = poisson_binomial_pmf(p).r
        assert np.max(np.abs(r - brute_force_pmf(p))) <= 1e-12


def test_pmf_rejects_tiny_confidences():
    # factors (1-p)/p explode and the normalization drifts
    with pytest.raises((NumericalInstability, ValueError)):
        poisson_binomial_pmf([1e-300] * 20)


def brute_force_offline(p, eta):
    best = 0
    for size in range(len(p), -1, -1):
        for sub in itertools.combinations(range(len(p)), size):
            if np.prod([p[i] for i in sub]) >= eta:
                return size
    return best


def test_prune_offline_examples():
    I = prune_offline([0.9, 0.8, 0.95], 0.7)
    assert np.array_equal(I, [0, 2])  # keeps 0.95 and 0.9

    assert prune_offline([0.3, 0.2], 1e-9).size == 2
    assert np.array_equal(prune_offline([1.0, 1.0, 1.0], 0.999), [0, 1, 2])
    assert prune_offline([0.5, 0.5], 0.9).size == 0
    with pytest.raises(ValueError):
        prune_offline([0.5], 1.0)


def test_prune_offline_is_optimal():
    rng = np.random.default_rng(5)
    for _ in range(25):
        N = int(rng.integers(2, 11))
        p = rng.uniform(0.3, 1.0, N)
        eta = float(rng.uniform(0.2, 0.95))
        assert prune_offline(p, eta).size == brute_force_offline(p, eta)


def test_prune_offline_tie_break():
    I = prune_offline([0.9, 0.9, 0.9], 0.85)
    assert np.array_equal(I, [0])


def test_prune_online_intersection():
    prior = SupportPrior(q_hat=np.array([1, 0, 1]), p=np.array([0.9, 0.9, 0.9]))
    pruned = prune_online(np.array([0, 1, 2]), prior, 0.5)
    assert np.array_equal(pruned.safe_set, [0, 2])
    assert pruned.strategy == "product"

    assert prune_online(np.array([], dtype=int), prior, 0.5).safe_set.size == 0
    empty_prior = SupportPrior(q_hat=np.zeros(3, dtype=int), p=np.full(3, 0.9))
    assert prune_online(np.array([0, 1, 2]), empty_prior, 0.5).safe_set.size == 0
    # unsorted and repeated offline rows give the sorted intersection
    assert np.array_equal(prune_online([2, 0, 2], prior, 0.5).safe_set, [0, 2])
    for stale in ([0, 3], [-1, 2]):  # rows of another prior are rejected
        with pytest.raises(ValueError, match="offline rows"):
            prune_online(np.array(stale), prior, 0.5)


def test_trust_count_and_quantile_examples():
    prior = SupportPrior(q_hat=np.ones(2, dtype=int), p=np.array([0.5, 0.5]))
    # at least one correct label with prob 0.75 >= 0.7; two only with 0.25
    assert trust_count(prior, 0.7) == 1
    pruned = prune_quantile(prior, 0.7)
    assert pruned.l_eta == 1
    assert np.array_equal(pruned.safe_set, [0])  # tie broken to the lower index

    certain = SupportPrior(q_hat=np.ones(4, dtype=int), p=np.ones(4))
    assert prune_quantile(certain, 0.99).safe_set.size == 4

    shaky = SupportPrior(q_hat=np.ones(3, dtype=int), p=np.full(3, 0.9))
    assert prune_quantile(shaky, 0.9995).safe_set.size == 0

    with pytest.raises(EmptyEstimate):
        prune_quantile(SupportPrior(q_hat=np.zeros(2, dtype=int), p=np.full(2, 0.9)), 0.5)


def test_quantile_ranking_uses_confidence():
    prior = SupportPrior(
        q_hat=np.array([1, 1, 0, 1]),
        p=np.array([0.8, 0.95, 0.99, 0.9]),
    )
    pruned = prune_quantile(prior, 0.5)
    if pruned.l_eta >= 2:
        assert 1 in pruned.safe_set  # highest-confidence estimated-safe row
    assert 2 not in pruned.safe_set  # estimated-attacked rows never enter


def test_ppv_guarantee_trivial_cases():
    q = indicator_from_support([2, 3], 6)
    assert ppv_guarantee_check(q, np.ones(6), 0.8, 50, np.random.default_rng(0)) == 1.0
    single = ppv_guarantee_check(q, np.full(6, 0.7), 0.6, 1, np.random.default_rng(1))
    assert single in (0.0, 1.0)


@pytest.mark.parametrize("eta", [0.5, 0.8, 0.95])
def test_ppv_guarantee_inequality(eta):
    rows = 24
    rng = np.random.default_rng(int(eta * 100))
    p = gen_confidences(rows, 0.9, 0.09, rng)

    def q_source(r):
        k = int(r.integers(0, rows // 2))
        sup = r.choice(rows, size=k, replace=False) if k else []
        return indicator_from_support(sup, rows)

    trials = 3000
    rate = ppv_guarantee_check(q_source, p, eta, trials, rng)
    stderr = math.sqrt(max(rate * (1 - rate), 1e-6) / trials)
    assert rate >= eta - 3 * stderr


def test_quantile_containment_under_correct_pruning():
    # whenever the pruned rows are all truly safe they sit inside both the
    # estimated-safe set and the true safe set
    rng = np.random.default_rng(77)
    rows = 18
    for _ in range(200):
        q = indicator_from_support(rng.choice(rows, size=5, replace=False), rows)
        p = gen_confidences(rows, 0.85, 0.1, rng)
        prior = sample_prior(q, p, rng)
        if prior.estimated_safe.size == 0:
            continue
        pruned = prune_quantile(prior, 0.8)
        sel = pruned.safe_set
        if sel.size and np.all(q.q[sel] == 1):
            assert np.all(prior.q_hat[sel] == 1)
            assert np.all(q.q[sel] == 1)


def test_gen_confidences_range_and_clipping():
    rng = np.random.default_rng(2)
    p = gen_confidences(1000, 0.95, 0.1, rng)
    assert np.all(p > 0) and np.all(p <= 1.0)
    assert np.any(p == 1.0)  # clipped above
    with pytest.raises(ValueError):
        gen_confidences(10, 0.0, 0.1, rng)


def test_diagnostics():
    assert oracle_advantage([0.9, 0.9, 0.9], 0.5)
    assert not oracle_advantage([0.1, 0.1], 0.5)
    ceiling = reliability_ceiling([0.9] * 10, 10)
    assert ceiling < 1.0
    # formula check against a direct evaluation
    e = math.e
    expect = 1.0 - e * (1.0 - (e - 1.0) * 9.0 / (e * 10.0)) ** 10
    assert ceiling == pytest.approx(expect)


@pytest.mark.parametrize("rows,p", [(1200, 0.5), (600, 0.25), (200, 2.0**-7)])
def test_pmf_of_long_vectors_matches_the_binomial(rows, p):
    # the product of the confidences underflows at these sizes
    q = Fraction(p)  # the exact value of the double p
    exact = [float(math.comb(rows, k) * q**k * (1 - q) ** (rows - k)) for k in range(rows + 1)]
    r = poisson_binomial_pmf([p] * rows).r
    assert np.max(np.abs(r - exact)) <= 1e-12


@pytest.mark.parametrize("check", ["SupportPrior", "sample_prior", "poisson_binomial_pmf"])
def test_nan_confidences_are_rejected(check):
    p = np.array([0.9, np.nan, 0.8])
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        if check == "SupportPrior":
            SupportPrior(q_hat=[1, 1, 0], p=p)
        elif check == "sample_prior":
            sample_prior(indicator_from_support([2], 3), p, np.random.default_rng(0))
        else:
            poisson_binomial_pmf(p)


@pytest.mark.parametrize("jitter", [np.nan, np.inf, -0.1])
def test_gen_confidences_rejects_bad_jitter(jitter):
    with pytest.raises(ValueError, match="jitter"):
        gen_confidences(10, 0.6, jitter, np.random.default_rng(0))
