"""Uncertain safe-node priors, precision, and the two pruning strategies.

A localization oracle labels each of the N stacked measurement rows safe or
attacked; its per-row confidence p_i is the probability that the label is
correct.  Pruning shrinks the estimated-safe set to a subset whose complete
correctness holds with a required reliability:

* product strategy - offline, keep the largest index set whose confidence
  product still clears the reliability level, then intersect online with
  the estimated-safe rows;
* quantile strategy - bound how many estimated-safe labels are correct with
  the required probability (sum of independent Bernoullis), then keep that
  many rows in decreasing confidence order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .lti import row_indices


@dataclass(frozen=True)
class SupportIndicator:
    """Row labels: 1 marks a safe row, 0 an attacked one."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q)
        if q.ndim != 1 or np.count_nonzero((q == 0) | (q == 1)) != q.size:
            raise ValueError("indicator entries must be 0 or 1")
        q = q.astype(int)  # a copy
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    @property
    def size(self) -> int:
        return self.q.shape[0]


@dataclass(frozen=True)
class SupportPrior:
    """Oracle output: estimated labels plus per-row confidences."""

    q_hat: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q_hat = np.asarray(self.q_hat)
        p = np.asarray(self.p, dtype=float)
        if q_hat.shape != p.shape or q_hat.ndim != 1:
            raise ValueError(f"q_hat {q_hat.shape} and p {p.shape} must be equal-length vectors")
        if p.size == 0:
            raise ValueError("a prior needs at least one row")
        if np.count_nonzero((q_hat == 0) | (q_hat == 1)) != q_hat.size:
            raise ValueError("estimated indicator entries must be 0 or 1")
        q_hat, p = q_hat.astype(int), _confidences(p).copy()
        q_hat.flags.writeable = False
        p.flags.writeable = False
        object.__setattr__(self, "q_hat", q_hat)
        object.__setattr__(self, "p", p)

    @property
    def estimated_safe(self) -> np.ndarray:
        return np.flatnonzero(self.q_hat == 1)


@dataclass(frozen=True)
class PrunedPrior:
    """Result of pruning: the trusted (pruned safe) rows."""

    offline_set: np.ndarray
    safe_set: np.ndarray
    eta: float
    strategy: str
    l_eta: int | None = None


def _confidences(p) -> np.ndarray:
    """p as a flat float vector; ValueError unless every entry lies in (0, 1]."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if np.count_nonzero((p > 0) & (p <= 1)) != p.size:
        raise ValueError("confidences must lie in (0, 1]")
    return p


def indicator_from_support(support, rows: int) -> SupportIndicator:
    """Indicator with zeros exactly on the attacked rows."""
    q = np.ones(rows, dtype=int)
    q[row_indices(support, rows, "support indices")] = 0
    return SupportIndicator(q=q)


def sample_prior(q: SupportIndicator, p, rng: np.random.Generator) -> SupportPrior:
    """Draw the oracle's labels: row i keeps its true label with probability p_i."""
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.shape[0] != q.size:
        raise ValueError(f"confidence vector has length {p.shape[0]}, expected {q.size}")
    correct = rng.random(q.size) < p
    q_hat = np.where(correct, q.q, 1 - q.q)
    return SupportPrior(q_hat=q_hat, p=p)


def check_confidence_model(true_rate: float, jitter: float) -> None:
    """ValueError unless ``gen_confidences`` accepts true_rate and jitter."""
    if not 0.0 < true_rate <= 1.0:
        raise ValueError(f"true rate must lie in (0, 1], got {true_rate}")
    if not 0 <= jitter < 2.0**1023:  # the width 2 * jitter of the draw must be finite
        raise ValueError(f"jitter must be nonnegative and below 2**1023, got {jitter}")


def gen_confidences(
    rows: int,
    true_rate: float,
    jitter: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Confidence vector true_rate +/- uniform jitter, clipped into (0, 1]."""
    check_confidence_model(true_rate, jitter)
    p = true_rate + rng.uniform(-jitter, jitter, size=rows)
    return np.clip(p, 1e-12, 1.0)


def ppv(q: SupportIndicator, q_hat) -> float | None:
    """Precision of the estimated-safe set: fraction that is truly safe,
    None when no row is estimated safe."""
    q_hat = np.asarray(q_hat, dtype=int)
    if q_hat.shape[0] != q.size:
        raise ValueError(f"estimate has length {q_hat.shape[0]}, expected {q.size}")
    flagged = int(q_hat.sum())
    return float((q.q * q_hat).sum() / flagged) if flagged else None


def poisson_binomial_pmf(p) -> np.ndarray:
    """Exact distribution of a sum of independent non-identical Bernoullis,
    read-only: entry k is Pr{sum = k}.

    Computed as the convolution of the two-point factors [1 - p_i, p_i]:
    every term is nonnegative, so nothing overflows or cancels, and entries
    below the smallest double underflow to zero.  A confidence so small that
    1 - p_i rounds to 1 is rejected, as the factor cannot represent it.
    """
    p = _confidences(p)
    if (1.0 - p == 1.0).any():
        raise ValueError("confidences of 2**-54 or less are lost in 1 - p")
    r = np.array([1.0])
    for pi in p:
        r = np.convolve(r, [1.0 - pi, pi])
    drift = abs(r.sum() - 1.0)
    if not drift <= 1e-9:
        raise EstimationError(f"pmf mass drifted by {drift:.3e}")
    r = r / r.sum()
    r.flags.writeable = False
    return r


def prune_offline(p, eta: float) -> np.ndarray:
    """Largest index set whose confidence product reaches eta.

    Sorting by confidence (ties to the lowest index) and taking the longest
    admissible prefix is optimal because every confidence lies in (0, 1],
    which is checked.  The result may be empty.
    """
    return _prefix_set(_confidences(p), eta)


def _prefix_set(p, eta: float) -> np.ndarray:
    """``prune_offline`` on confidences already checked to lie in (0, 1]."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    order = np.argsort(-p, kind="stable")
    running = np.cumprod(p[order])
    count = int(np.searchsorted(-running, -eta, side="right"))
    return np.sort(order[:count])


def prune_online(offline_set, prior: SupportPrior, eta: float) -> PrunedPrior:
    """Intersect the offline set with the rows the oracle marked safe."""
    rows = prior.q_hat.shape[0]
    offline_set = row_indices(offline_set, rows, "offline rows")
    safe = offline_set[prior.q_hat[offline_set] == 1]
    return PrunedPrior(offline_set=offline_set, safe_set=safe, eta=float(eta), strategy="product")


def prune_product(prior: SupportPrior, eta: float) -> PrunedPrior:
    """Offline + online product pruning in one call."""
    return prune_online(_prefix_set(prior.p, eta), prior, eta)  # SupportPrior checked p


def trust_count(prior: SupportPrior, eta: float) -> int:
    """Largest k such that at least k estimated-safe labels are correct
    with probability eta or better: 0 when no row is estimated safe."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    r = poisson_binomial_pmf(prior.p[prior.estimated_safe])
    tail = np.cumsum(r[::-1])[::-1]  # tail[k] = Pr{count >= k}
    ks = np.flatnonzero(tail >= eta)
    return int(ks.max()) if ks.size else 0


def prune_quantile(prior: SupportPrior, eta: float) -> PrunedPrior:
    """Keep the trust_count most confident estimated-safe rows."""
    l_eta = trust_count(prior, eta)
    scores = prior.p * prior.q_hat
    order = np.argsort(-scores, kind="stable")
    safe = np.sort(order[:l_eta])
    return PrunedPrior(
        offline_set=safe,
        safe_set=safe,
        eta=float(eta),
        strategy="quantile",
        l_eta=l_eta,
    )


def ppv_guarantee_check(
    q_source,
    p,
    eta: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of Pr{every row kept by product pruning is truly safe}.

    q_source is a fixed SupportIndicator or a callable rng -> indicator.
    An empty pruned set counts as vacuously correct.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p = np.asarray(p, dtype=float).reshape(-1)
    offline = prune_offline(p, eta)
    hits = 0
    for _ in range(trials):
        q = q_source(rng) if callable(q_source) else q_source
        pruned = prune_online(offline, sample_prior(q, p, rng), eta)
        hits += bool(np.all(q.q[pruned.safe_set] == 1))
    return hits / trials


# ---------------------------------------------------------------------------
# Optional diagnostics on prior quality (reported, never enforced)
# ---------------------------------------------------------------------------

def oracle_advantage(p, attack_fraction: float) -> bool:
    """True when the summed confidences beat a blind guess at this attack rate."""
    p = np.asarray(p, dtype=float).reshape(-1)
    return bool(p.sum() > p.shape[0] * attack_fraction)


def reliability_ceiling(p_est_safe, true_safe_count: int) -> float:
    """Heuristic upper limit for the reliability level of quantile pruning,
    from a binomial moment-generating-function bound."""
    p = np.asarray(p_est_safe, dtype=float).reshape(-1)
    if true_safe_count < 1:
        raise ValueError("true_safe_count must be >= 1")
    e = math.e
    base = 1.0 - (e - 1.0) * p.sum() / (e * true_safe_count)
    return 1.0 - e * base ** true_safe_count
