"""Monte Carlo harness: random systems, attack-percentage sweeps, and the
dynamic three-observer scenario.

Determinism contract: every stochastic quantity derives from a seed plus
the trial index through an explicit Generator, trials are aggregated in a
fixed order, and the serializers format floats by shortest round-trip, so
repeated runs (with any worker count) produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .errors import EmptyEstimate, NumericalInstability
from .estimation import decode, luenberger_baseline, weighted_observer
from .fdia import random_support, sorted_unique, synthesize_fdia
from .lti import (
    HorizonModel,
    LtiSystem,
    build_horizon,
    simulate,
    stack_window,
)
from .pruning import (
    SupportPrior,
    gen_confidences,
    indicator_from_support,
    prune_product,
    prune_quantile,
    sample_prior,
)

STRATEGIES = ("none", "prior", "pruned_product", "pruned_quantile")


def gen_random_system(
    m: int,
    n: int,
    rng: np.random.Generator,
    spectral_radius_target: float = 0.95,
) -> LtiSystem:
    """Random Gaussian (A, C) with A rescaled to the target spectral radius.

    A and C are drawn once and not checked for observability: a Gaussian
    pair is observable with probability one, and ``build_horizon``, which
    every caller runs next, rejects an H without full column rank.
    """
    if m <= n:
        raise ValueError(f"need more sensors than states, got m={m}, n={n}")
    if not 0 < spectral_radius_target < math.inf:
        raise ValueError(f"spectral radius target must be finite and positive, "
                         f"got {spectral_radius_target}")
    A = rng.standard_normal((n, n))
    A = A * (spectral_radius_target / np.max(np.abs(np.linalg.eigvals(A))))
    return LtiSystem(A=A, C=rng.standard_normal((m, n)))


def epsilon_from_policy(policy: str, y_star) -> float:
    """Detector/attacker budget from a policy string 'rel:<f>' or 'abs:<f>'."""
    try:
        mode, raw = policy.split(":", 1)
        value = float(raw)
    except ValueError:
        raise ValueError(f"epsilon policy must look like 'rel:0.01' or 'abs:2.0', got {policy!r}")
    if not 0 <= value < math.inf:
        raise ValueError(f"epsilon policy value must be finite and nonnegative, got {value}")
    if mode == "rel":
        return value * float(np.abs(np.asarray(y_star)).sum())
    if mode == "abs":
        return value
    raise ValueError(f"unknown epsilon policy mode {mode!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of one attack-percentage sweep."""

    m: int = 20
    n: int = 10
    T: int = 1
    attack_grid: tuple = (0.0, 0.2, 0.4, 0.6)
    trials: int = 100
    true_rate: float = 0.6
    jitter: float = 0.1
    eta: float = 0.9
    omega: float = 0.01
    epsilon_policy: str = "rel:0.01"
    strategies: tuple = STRATEGIES
    master_seed: int = 0
    spectral_radius: float = 0.95
    success_rtol: float = 1e-3
    workers: int = 1

    def __post_init__(self):
        if self.m <= self.n:
            raise ValueError(f"need m > n, got m={self.m}, n={self.n}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for p_a in self.attack_grid:
            if not 0.0 <= p_a < 1.0:
                raise ValueError(f"attack fractions must lie in [0, 1), got {p_a}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        if not 0.0 <= self.jitter < math.inf:
            raise ValueError(f"jitter must be finite and nonnegative, got {self.jitter}")
        if not 0.0 < self.spectral_radius < math.inf:
            raise ValueError(f"spectral radius must be finite and positive, got {self.spectral_radius}")
        epsilon_from_policy(self.epsilon_policy, ())  # parses and checks the policy
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies {sorted(unknown)}; pick from {STRATEGIES}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "attack_grid", tuple(float(v) for v in self.attack_grid))
        object.__setattr__(self, "strategies", tuple(self.strategies))


@dataclass(frozen=True)
class TrialInstance:
    """Everything one trial draws before any strategy-specific step."""

    system: LtiSystem
    model: HorizonModel
    x_star: np.ndarray
    epsilon: float
    support: np.ndarray
    y_T: np.ndarray
    prior: SupportPrior


@dataclass(frozen=True)
class TrialOutcome:
    success: bool
    error_l2: float


def draw_instance(cfg: SweepConfig, p_a: float, trial_index: int) -> TrialInstance:
    """Deterministic paired draw: identical for every strategy."""
    rng = np.random.default_rng([cfg.master_seed, trial_index])
    sys = gen_random_system(cfg.m, cfg.n, rng, cfg.spectral_radius)
    model = build_horizon(sys, cfg.T)
    x_star = rng.standard_normal(cfg.n)
    y_star = model.H @ x_star
    epsilon = epsilon_from_policy(cfg.epsilon_policy, y_star)
    support = random_support(model.rows, p_a, rng)
    if support.size:
        plan = synthesize_fdia(model, support, epsilon)
        y_T = y_star + plan.e_T
    else:
        y_T = y_star
    q = indicator_from_support(support, model.rows)
    p = gen_confidences(model.rows, cfg.true_rate, cfg.jitter, rng)
    prior = sample_prior(q, p, rng)
    return TrialInstance(
        system=sys, model=model, x_star=x_star, epsilon=epsilon,
        support=support, y_T=y_T, prior=prior,
    )


def trusted_rows(instance: TrialInstance, strategy: str, eta: float):
    """Strategy-specific trusted row set; None means the unweighted decoder."""
    if strategy == "none":
        return None
    if strategy == "prior":
        return instance.prior.estimated_safe
    if strategy == "pruned_product":
        return prune_product(instance.prior, eta).safe_set
    if strategy == "pruned_quantile":
        try:
            return prune_quantile(instance.prior, eta).safe_set
        except EmptyEstimate:
            return np.array([], dtype=int)
    raise ValueError(f"unknown strategy {strategy!r}")


def _grade(instance: TrialInstance, cfg: SweepConfig, strategy: str, start=None):
    """Outcome of one strategy on the instance, and the basis its solve ended at."""
    trusted = trusted_rows(instance, strategy, cfg.eta)
    if trusted is None:
        est = decode(instance.model, instance.y_T, start=start)
    else:
        est = weighted_observer(instance.model, instance.y_T, trusted, cfg.omega, start=start)
    err = float(np.linalg.norm(est.x_hat - instance.x_star))
    ok = err <= cfg.success_rtol * float(np.linalg.norm(instance.x_star))
    return TrialOutcome(success=ok, error_l2=err), est.basis


def run_trial(cfg: SweepConfig, p_a: float, strategy: str, trial_index: int) -> TrialOutcome:
    """One end-to-end trial for one strategy, solved from a cold start."""
    return _grade(draw_instance(cfg, p_a, trial_index), cfg, strategy)[0]


def _paired_trial(args):
    """Every strategy on one instance.  The first solves cold; the others
    start from its basis, not from each other's: strategies reweight the
    first problem, so its optimum is close to theirs (and is theirs when a
    strategy trusts no row)."""
    cfg, p_a, trial_index = args
    instance = draw_instance(cfg, p_a, trial_index)
    outcomes, first_basis = {}, None
    for s in cfg.strategies:
        outcomes[s], basis = _grade(instance, cfg, s, start=first_basis)
        if first_basis is None:
            first_basis = basis
    return outcomes


@dataclass(frozen=True)
class SweepRow:
    attack_fraction: float
    strategy: str
    trials: int
    successes: int
    success_rate: float
    stderr: float
    mean_error: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple

    def row(self, p_a: float, strategy: str) -> SweepRow:
        for r in self.rows:
            if r.attack_fraction == p_a and r.strategy == strategy:
                return r
        raise KeyError((p_a, strategy))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["attack_fraction", "strategy", "trials", "successes",
             "success_rate", "stderr", "mean_error"]
        )
        for r in self.rows:
            writer.writerow(
                [repr(r.attack_fraction), r.strategy, r.trials, r.successes,
                 repr(r.success_rate), repr(r.stderr), repr(r.mean_error)]
            )
        return buf.getvalue()

    def to_json(self) -> str:
        cfg = asdict(self.config)
        cfg.pop("workers")  # execution detail, not part of the experiment identity
        doc = {"config": cfg, "rows": [asdict(r) for r in self.rows]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def sweep(cfg: SweepConfig) -> SweepResult:
    """Paired Monte Carlo sweep over the attack grid.

    Every strategy sees the same instance at a given (fraction, trial)
    pair; the worker count changes only the wall time.
    """
    tasks = [(cfg, p_a, t) for p_a in cfg.attack_grid for t in range(cfg.trials)]
    if cfg.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly to import; only pools need it

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_paired_trial, tasks, chunksize=16))
    else:
        outcomes = [_paired_trial(t) for t in tasks]

    rows = []
    for gi, p_a in enumerate(cfg.attack_grid):
        chunk = outcomes[gi * cfg.trials:(gi + 1) * cfg.trials]
        for strategy in cfg.strategies:
            outs = [c[strategy] for c in chunk]
            successes = sum(o.success for o in outs)
            rate = successes / cfg.trials
            stderr = float(np.sqrt(rate * (1.0 - rate) / cfg.trials))
            mean_error = float(np.mean([o.error_l2 for o in outs]))
            rows.append(
                SweepRow(
                    attack_fraction=p_a, strategy=strategy, trials=cfg.trials,
                    successes=successes, success_rate=rate, stderr=stderr,
                    mean_error=mean_error,
                )
            )
    return SweepResult(config=cfg, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Dynamic scenario: Luenberger vs l1 vs weighted-l1-with-pruning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioAttack:
    """Persistent sensor attack: fixed support, per-step Gaussian values."""

    fraction: float = 0.3
    magnitude: float = 3.0
    support: tuple | None = None  # default: the highest-gain sensors
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.magnitude):
            raise ValueError(f"attack magnitude must be finite, got {self.magnitude}")

    def resolve_support(self, C: np.ndarray) -> np.ndarray:
        if self.support is not None:
            sup = sorted_unique(self.support)
            if sup.size and (sup.min() < 0 or sup.max() >= C.shape[0]):
                raise ValueError(f"attack support must lie in [0, {C.shape[0]})")
            return sup
        k = int(np.floor(self.fraction * C.shape[0]))
        norms = np.linalg.norm(C, axis=1)
        return np.sort(np.argsort(-norms, kind="stable")[:k])


@dataclass(frozen=True)
class ScenarioConfig:
    steps: int = 60
    T: int = 3
    true_rate: float = 0.95
    jitter: float = 0.04
    eta: float = 0.7
    omega: float = 0.01
    prior_mode: str = "static"  # one localization of the persistent attack
    prior_seed: int = 1

    def __post_init__(self):
        if self.prior_mode not in ("static", "per_window"):
            raise ValueError(f"prior_mode must be 'static' or 'per_window', got {self.prior_mode!r}")
        if self.steps < self.T:
            raise ValueError(f"need steps >= T, got steps={self.steps}, T={self.T}")


@dataclass(frozen=True)
class ScenarioMetrics:
    """Per-coordinate RMS and worst-case estimation error per observer."""

    observers: tuple
    windows: int
    rms: dict
    max_abs: dict

    def to_json(self) -> str:
        doc = {
            "observers": list(self.observers),
            "windows": self.windows,
            "rms": {k: list(v) for k, v in self.rms.items()},
            "max_abs": {k: list(v) for k, v in self.max_abs.items()},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def run_scenario(
    system: LtiSystem,
    x0,
    attack: ScenarioAttack = ScenarioAttack(),
    scenario: ScenarioConfig = ScenarioConfig(),
    observers: tuple = ("LO", "L1O", "WL1P"),
) -> ScenarioMetrics:
    """Simulate a persistently attacked run and compare observers.

    Window estimates target the window-start state; the Luenberger estimate
    is aligned to the same time index.  WL1P trusts the product-pruned rows
    of a simulated localization prior.  Every window is decoded with the same
    H, so each l1 observer warm-starts from its previous window's basis.
    """
    for obs in observers:
        if obs not in ("LO", "L1O", "WL1P"):
            raise ValueError(f"unknown observer {obs!r}")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    n, m, T = system.n, system.m, scenario.T
    sup = attack.resolve_support(system.C)

    rng_attack = np.random.default_rng(attack.seed)
    schedule = np.zeros((scenario.steps, m))
    # a magnitude near the largest float overflows here and in the Luenberger
    # recursion; the error metrics are checked for it below
    if sup.size:
        with np.errstate(over="ignore"):
            schedule[:, sup] = attack.magnitude * rng_attack.standard_normal((scenario.steps, sup.size))

    traj = simulate(system, x0, scenario.steps, schedule)
    model = build_horizon(system, T)

    stacked_support = np.concatenate([r * m + sup for r in range(T)]) if sup.size else np.array([], int)
    q = indicator_from_support(stacked_support, model.rows)
    rng_prior = np.random.default_rng(scenario.prior_seed)

    def draw_trusted():
        p = gen_confidences(model.rows, scenario.true_rate, scenario.jitter, rng_prior)
        prior = sample_prior(q, p, rng_prior)
        return prune_product(prior, scenario.eta).safe_set

    trusted_static = draw_trusted() if scenario.prior_mode == "static" else None

    lo_est = None
    if "LO" in observers:
        with np.errstate(over="ignore", invalid="ignore"):
            lo_est = luenberger_baseline(system, traj.attacked_measurements)

    errors = {obs: [] for obs in observers}
    basis = {"L1O": None, "WL1P": None}
    for end in range(T - 1, scenario.steps):
        y_T, x_start, _ = stack_window(traj, end, T)
        target = traj.states[end - T + 1]
        if "LO" in observers:
            errors["LO"].append(lo_est[end - T + 1] - target)
        if "L1O" in observers:
            est = decode(model, y_T, start=basis["L1O"])
            basis["L1O"] = est.basis
            errors["L1O"].append(est.x_hat - target)
        if "WL1P" in observers:
            trusted = trusted_static if trusted_static is not None else draw_trusted()
            est = weighted_observer(model, y_T, trusted, scenario.omega, start=basis["WL1P"])
            basis["WL1P"] = est.basis
            errors["WL1P"].append(est.x_hat - target)

    windows = scenario.steps - T + 1
    rms, max_abs = {}, {}
    for obs in observers:
        E = np.asarray(errors[obs])
        with np.errstate(over="ignore"):
            rms[obs] = tuple(float(v) for v in np.sqrt((E**2).mean(axis=0)))
        max_abs[obs] = tuple(float(v) for v in np.abs(E).max(axis=0))
        if not np.isfinite(rms[obs] + max_abs[obs]).all():
            raise NumericalInstability(
                f"{obs} error metrics overflow at attack magnitude {attack.magnitude}")
    return ScenarioMetrics(observers=tuple(observers), windows=windows, rms=rms, max_abs=max_abs)


def load_surrogate():
    """Bundled 5-state demonstration system (synthetic, not a standard grid).

    Returns (system, x0).  Three high-gain sensors are intended as the
    default attack target, exercising the observer comparison out of the
    box.
    """
    path = resources.files("resilient_sse").joinpath("data/surrogate.json")
    doc = json.loads(path.read_text())
    sys = LtiSystem(A=np.asarray(doc["A"], float), C=np.asarray(doc["C"], float))
    return sys, np.asarray(doc["x0"], float)
