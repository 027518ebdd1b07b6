"""Stealth-attack synthesis against the l1 decoder / residual detector pair.

The attacker picks a seed direction z maximizing the induced measurement
shift ||U1 z||_2 (= ||z||_2 by orthonormality) subject to the energy it
leaks onto the untouched rows:

    max ||z||_2   s.t.  ||U1[complement] z||_2 <= epsilon / sqrt(#complement)

whose closed-form optimum is the right singular direction of the
complement block for its smallest singular value.  When the complement
block loses column rank the program is unbounded; the attack then follows
a null-space direction with a configurable magnitude cap.  The same SVD
decides the guarantee (the block's spectral norm below 1 / (2 sqrt(#complement)))
and its bias bound alpha, the plan's ``feasible`` and ``alpha_guarantee``; the
bound scales linearly with epsilon and is None when the guarantee fails.
Supports are read by ``lti.row_indices``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimation import decode, detect
from .lp import _RANK_RTOL
from .lti import HorizonModel, row_indices


@dataclass(frozen=True)
class AttackPlan:
    """Synthesized sparse attack for a fixed support and stealth budget."""

    support: np.ndarray
    epsilon: float
    z_e: np.ndarray
    e_T: np.ndarray
    alpha_guarantee: float | None
    feasible: bool
    unbounded: bool = False


@dataclass(frozen=True)
class SuccessVerdict:
    """Outcome of checking an attack against the decoder-detector pair."""

    bias_ok: bool
    stealth_ok: bool
    success: bool
    bias: float
    residual_l1: float


def _normalize_support(support, rows: int) -> np.ndarray:
    sup = row_indices(support, rows, "support indices")
    if sup.size == 0:
        raise ValueError("attack support is empty")
    if sup.size >= rows:
        raise ValueError(f"support of size {sup.size} covers every one of {rows} rows")
    return sup


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity of a singular vector deterministically."""
    big = np.abs(v) > 1e-12
    first = big.argmax()
    return -v if big[first] and v[first] < 0 else v


def synthesize_fdia(
    model: HorizonModel,
    support,
    epsilon: float,
    magnitude_cap_factor: float = 1e3,
) -> AttackPlan:
    """Closed-form attack seed and vector for the given support.

    The attack vector vanishes off the support and equals U1[support] z_e
    on it.  Where the complement block fails the l1 solve's rank rule,
    sigma_min <= 1e-10 sigma_max(U1) = 1e-10, the attack is unbounded and
    the seed is a null-space direction scaled to magnitude_cap_factor * epsilon.
    """
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if not 0 < magnitude_cap_factor < np.inf:
        raise ValueError(f"magnitude_cap_factor must be finite and positive, "
                         f"got {magnitude_cap_factor}")
    sup = _normalize_support(support, model.rows)
    complement = np.ones(model.rows, dtype=bool)
    complement[sup] = False
    Uc = model.U1[complement]
    root = math.sqrt(Uc.shape[0])

    # the full Vt is needed only when Vt[-1] must span a null direction
    _, s, Vt = np.linalg.svd(Uc, full_matrices=Uc.shape[0] < model.n)
    sigma_min = float(s[-1]) if Uc.shape[0] >= model.n else 0.0
    v = _canonical_sign(Vt[-1, :])
    if sigma_min <= _RANK_RTOL:  # relative to sigma_max(U1) = 1
        z_e = v * (magnitude_cap_factor * epsilon)
        unbounded = True
    else:
        z_e = (epsilon / root / sigma_min) * v
        unbounded = False

    e_T = np.zeros(model.rows)
    e_T[sup] = model.U1[sup, :] @ z_e
    # s[0] is the complement block's spectral norm, which decides the guarantee
    sbar = float(s[0])
    holds = bool(sbar < 1.0 / (2.0 * root))
    alpha = float(epsilon / (2.0 * math.sqrt(model.rows) * model.sigma_max)
                  * (1.0 / (sbar * root) - 2.0)) if holds else None
    return AttackPlan(
        support=sup,
        epsilon=float(epsilon),
        z_e=z_e,
        e_T=e_T,
        alpha_guarantee=alpha,
        feasible=holds,
        unbounded=unbounded,
    )


def is_successful(
    plan: AttackPlan,
    model: HorizonModel,
    x_star,
    epsilon: float,
    alpha: float,
) -> SuccessVerdict:
    """Run the decoder on the attacked window and grade the attack.

    Success requires an estimation bias of at least alpha together with a
    silent detector at threshold epsilon.
    """
    if not epsilon > 0 or not alpha > 0:
        raise ValueError("epsilon and alpha must be positive")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    y_T = model.H @ x_star + plan.e_T
    sol = decode(model, y_T)
    bias = float(np.linalg.norm(x_star - sol.z))
    bias_ok = bias >= alpha
    stealth_ok = not detect(model, y_T, sol.z, epsilon)
    return SuccessVerdict(
        bias_ok=bias_ok,
        stealth_ok=stealth_ok,
        success=bias_ok and stealth_ok,
        bias=bias,
        residual_l1=float(np.abs(sol.residual).sum()),
    )


def random_support(rows: int, attack_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform random support of size floor(attack_fraction * rows)."""
    if not 0.0 <= attack_fraction < 1.0:
        raise ValueError(f"attack fraction must lie in [0, 1), got {attack_fraction}")
    k = int(np.floor(attack_fraction * rows))  # < rows, as f * rows rounds below rows for f < 1
    if k == 0:
        return np.array([], dtype=int)
    return np.sort(rng.choice(rows, size=k, replace=False))
