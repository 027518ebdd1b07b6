"""Stealth-attack synthesis against the l1 decoder / residual detector pair.

The attacker picks a seed direction z maximizing the induced measurement
shift ||U1 z||_2 (= ||z||_2 by orthonormality) subject to the energy it
leaks onto the untouched rows:

    max ||z||_2   s.t.  ||U1[complement] z||_2 <= epsilon / sqrt(#complement)

whose closed-form optimum is the right singular direction of the
complement block for its smallest singular value.  When the complement
block loses column rank the program is unbounded; the attack then follows
a null-space direction with a configurable magnitude cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupport, SupportTooLarge
from .estimation import decode, detect
from .lti import HorizonModel

_NULLSPACE_TOL = 1e-10


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


def sorted_unique(indices) -> np.ndarray:
    """np.unique of an integer index array, by sorting: np.unique imports numpy.ma."""
    out = np.sort(np.asarray(indices, dtype=int), axis=None)
    keep = np.ones(out.size, dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _normalize_support(support, rows: int) -> np.ndarray:
    sup = sorted_unique(list(support))
    if sup.size == 0:
        raise EmptySupport("attack support is empty")
    if sup.size >= rows:
        raise SupportTooLarge(f"support of size {sup.size} covers every one of {rows} rows")
    if sup.min() < 0 or sup.max() >= rows:
        raise ValueError(f"support indices must lie in [0, {rows})")
    return sup


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Fix the sign ambiguity of a singular vector deterministically."""
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if nz.size and v[nz[0]] < 0:
        return -v
    return v


def fdia_feasibility(model: HorizonModel, support, epsilon: float = 1.0):
    """Guarantee condition for the synthesized attack.

    Returns (condition_holds, alpha_bound); the bound scales linearly with
    epsilon and is None when the condition fails.
    """
    sup = _normalize_support(support, model.rows)
    Uc = model.U1[_complement(sup, model.rows)]
    return _feasibility(model, float(np.linalg.norm(Uc, 2)), Uc.shape[0], epsilon)


def _complement(sup: np.ndarray, rows: int) -> np.ndarray:
    """Boolean mask of the rows outside the support."""
    comp = np.ones(rows, dtype=bool)
    comp[sup] = False
    return comp


def _feasibility(model: HorizonModel, sbar_comp: float, comp_rows: int, epsilon: float):
    """fdia_feasibility given the spectral norm sbar_comp of the complement
    block U1[complement], which has comp_rows rows."""
    root = np.sqrt(comp_rows)
    holds = sbar_comp < 1.0 / (2.0 * root)
    if not holds:
        return False, None
    alpha = epsilon / (2.0 * np.sqrt(model.rows) * model.sigma_max) * (
        1.0 / (sbar_comp * root) - 2.0
    )
    return True, float(alpha)


def synthesize_fdia(
    model: HorizonModel,
    support,
    epsilon: float,
    magnitude_cap_factor: float = 1e3,
) -> AttackPlan:
    """Closed-form attack seed and vector for the given support.

    The attack vector vanishes off the support and equals U1[support] z_e
    on it.  In the unbounded (rank-deficient complement) regime the seed is
    a null-space direction scaled to magnitude_cap_factor * epsilon.
    """
    if not 0 <= epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and nonnegative, got {epsilon}")
    if not 0 < magnitude_cap_factor < np.inf:
        raise ValueError(f"magnitude_cap_factor must be finite and positive, "
                         f"got {magnitude_cap_factor}")
    sup = _normalize_support(support, model.rows)
    Uc = model.U1[_complement(sup, model.rows)]
    budget = epsilon / np.sqrt(Uc.shape[0])

    # the full Vt is needed only when Vt[-1] must span a null direction
    _, s, Vt = np.linalg.svd(Uc, full_matrices=Uc.shape[0] < model.n)
    sigma_min = float(s[-1]) if Uc.shape[0] >= model.n else 0.0
    v = _canonical_sign(Vt[-1, :])
    if sigma_min <= _NULLSPACE_TOL:
        z_e = v * (magnitude_cap_factor * epsilon)
        unbounded = True
    else:
        z_e = (budget / sigma_min) * v
        unbounded = False

    e_T = np.zeros(model.rows)
    e_T[sup] = model.U1[sup, :] @ z_e
    holds, alpha = _feasibility(model, float(s[0]), Uc.shape[0], epsilon)
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
    if epsilon <= 0 or alpha <= 0:
        raise ValueError("epsilon and alpha must be positive")
    x_star = np.asarray(x_star, dtype=float).reshape(-1)
    y_T = model.H @ x_star + plan.e_T
    est = decode(model, y_T)
    bias = float(np.linalg.norm(x_star - est.x_hat))
    flagged = detect(model, y_T, est.x_hat, epsilon)
    bias_ok = bias >= alpha
    stealth_ok = not flagged
    return SuccessVerdict(
        bias_ok=bias_ok,
        stealth_ok=stealth_ok,
        success=bias_ok and stealth_ok,
        bias=bias,
        residual_l1=est.residual_l1,
    )


def random_support(rows: int, attack_fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform random support of size floor(attack_fraction * rows)."""
    if not 0.0 <= attack_fraction < 1.0:
        raise ValueError(f"attack fraction must lie in [0, 1), got {attack_fraction}")
    k = int(np.floor(attack_fraction * rows))
    if k >= rows:
        raise ValueError("attack fraction leaves no safe row")
    if k == 0:
        return np.array([], dtype=int)
    return np.sort(rng.choice(rows, size=k, replace=False))
