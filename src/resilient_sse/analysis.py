"""Restricted-isometry diagnostics and the recovery-bound calculator.

The coding matrix here is U2^T (the transposed null-space basis of the
stacked observation matrix, never formed: U2 U2^T = I - U1 U1^T): it
annihilates every consistent measurement, so its near-isometry on sparse
vectors governs how well the weighted l1 observer separates attacks from
state motion.  Sparsity is bookkept by the stacked-window count
K = |support| throughout (for a per-step budget k on m sensors over T steps
the mapping is K = T * k).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .lti import HorizonModel

# rows of U1 gathered per batch of supports, so that a batch's memory does
# not grow with the support budget
_RIP_BATCH_ROWS = 2**13


@dataclass(frozen=True)
class RipEstimate:
    """Estimated isometry constant of U2^T at sparsity S."""

    S: int
    delta_S: float
    supports_checked: int
    exact: bool


@dataclass(frozen=True)
class BoundInputs:
    """Everything the recovery bound needs, gathered in one place.

    rho is the untrusted-row count divided by the sparsity K; a is the
    integer block-size multiplier, at least max(rho - 1, 1).  delta_ak and
    delta_a1k are isometry constants at sparsities a*K and (a+1)*K.
    """

    a: int
    rho: float
    omega: float
    sparsity: int
    delta_ak: float
    delta_a1k: float
    sigma_min_H: float
    sigma_k_e: float
    e_pruned_l1: float

    def __post_init__(self):
        if self.a < 1 or self.a < self.rho - 1:
            raise ValueError(f"need integer a >= max(rho-1, 1); got a={self.a}, rho={self.rho}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        for name in ("delta_ak", "delta_a1k"):
            val = getattr(self, name)
            if not 0.0 <= val < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {val}")
        if self.sparsity < 1:
            raise ValueError(f"sparsity must be >= 1, got {self.sparsity}")
        if self.sigma_min_H <= 0:
            raise ValueError(f"sigma_min_H must be positive, got {self.sigma_min_H}")


def rip_constant(
    model: HorizonModel,
    S: int,
    budget: int,
    rng: np.random.Generator | None = None,
) -> RipEstimate:
    """Isometry constant of U2^T over supports of size S.

    Every support is enumerated when their count fits within `budget`;
    otherwise `budget` supports are sampled uniformly and the result is a
    lower bound (exact=False).  The Gram matrix of the selected columns of
    U2^T is I - B B^T with B = U1[support], whose eigenvalues lie in [0, 1],
    so its largest deviation from 1 is lambda_max(B B^T): delta_S is the
    largest such value over the supports.  B B^T and B^T B share it, and the
    smaller of the two is decomposed, one stacked eigvalsh per batch.
    """
    rows = model.rows
    if not 1 <= S <= rows:
        raise ValueError(f"S must lie in [1, {rows}], got {S}")
    if budget < 1:
        raise ValueError(f"support budget must be >= 1, got {budget}")

    total = math.comb(rows, S)
    exact = total <= budget
    if exact:
        supports = itertools.combinations(range(rows), S)
        checked = total
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        supports = (np.sort(rng.choice(rows, size=S, replace=False)) for _ in range(budget))
        checked = budget

    flat = itertools.chain.from_iterable(supports)
    batch = max(1, _RIP_BATCH_ROWS // S)
    delta = 0.0
    for start in range(0, checked, batch):
        k = min(batch, checked - start)
        B = model.U1[np.fromiter(flat, dtype=np.intp, count=k * S).reshape(k, S)]
        Bt = B.transpose(0, 2, 1)
        gram = B @ Bt if S <= model.n else Bt @ B
        delta = float(np.linalg.eigvalsh(gram).max(initial=delta))
    return RipEstimate(S=S, delta_S=delta, supports_checked=checked, exact=exact)


def weighting_constant(a: int, omega: float, rho: float) -> float:
    """C = a / (omega + (1-omega) sqrt(rho-1))^2, infinite at a vanishing base."""
    base = omega + (1.0 - omega) * math.sqrt(max(rho - 1.0, 0.0))
    if base == 0.0:
        return math.inf
    return a / base**2


def bound_condition(inputs: BoundInputs) -> bool:
    """Check delta_ak + C * delta_a1k <= C - 1."""
    C = weighting_constant(inputs.a, inputs.omega, inputs.rho)
    if math.isinf(C):
        return inputs.delta_a1k < 1.0
    return inputs.delta_ak + C * inputs.delta_a1k <= C - 1.0


def recovery_bound(inputs: BoundInputs) -> float:
    """Upper bound on the estimation error of the weighted l1 observer.

    Valid only under bound_condition; otherwise, or where the leading
    constant's denominator vanishes, an EstimationError's message says which.
    """
    if not bound_condition(inputs):
        raise EstimationError("isometry condition fails; the bound does not apply")
    C = weighting_constant(inputs.a, inputs.omega, inputs.rho)
    inv_C = 0.0 if math.isinf(C) else 1.0 / C
    lo = math.sqrt(1.0 - inputs.delta_a1k)
    hi = math.sqrt(1.0 + inputs.delta_ak)
    denom = lo - inv_C * hi
    if denom <= 1e-12:
        raise EstimationError(f"bound denominator {denom:.3e} is not positive")
    C1 = 2.0 / math.sqrt(inputs.a) * (lo + hi) / denom
    mix = inputs.omega * inputs.sigma_k_e + (1.0 - inputs.omega) * inputs.e_pruned_l1
    return C1 / (inputs.sigma_min_H * math.sqrt(inputs.sparsity)) * mix
