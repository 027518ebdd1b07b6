"""Monte Carlo harness: random systems, attack-percentage sweeps, and the
dynamic three-observer scenario.

Determinism contract: every stochastic quantity derives from a seed plus
the trial index through an explicit Generator, trials are aggregated in a
fixed order, and the serializers format floats by shortest round-trip, so
repeated runs (with any worker count) produce byte-identical outputs.  A
sweep's system, H, x* and epsilon depend on the trial index alone (common
random numbers across attack fractions), so they are drawn once per trial
index and shared by every attack fraction; each draw then restores the trial's
saved generator state on its one generator, so a shared draw equals a fresh
one bit for bit.

Both experiments hand their weighted-l1 problems to ``_certify_all``: a
sweep the strategies of each instance of a chunk of trial indices, a scenario
the l1 observers of each window (open-loop, so all known once the run is
simulated).  Trusted sets of one window whose weights are positive multiples
of each other are solved once.  One stacked search (``lp.search_bases``)
finds the optimal bases of all distinct problems, and each problem's single
solve, started from its basis (cold where the search gives up), certifies it
and gives every reported number.  A certified result depends only on its
optimal rows, so the outputs equal those of cold solves and depend on
neither the chunking nor the worker count.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass
from importlib import resources

import numpy as np

from .errors import EstimationError
from .estimation import decode, luenberger_baseline, observer_weights, weighted_observer
from .fdia import random_support, synthesize_fdia
from .lp import search_bases
from .lti import (
    HorizonModel,
    LtiSystem,
    build_horizon,
    load_system_json,
    row_indices,
    simulate,
    stack_window,
)
from .pruning import (
    SupportPrior,
    check_confidence_model,
    gen_confidences,
    indicator_from_support,
    prune_product,
    prune_quantile,
    sample_prior,
)

STRATEGIES = ("none", "prior", "pruned_product", "pruned_quantile")
OBSERVERS = ("LO", "L1O", "WL1P")
SUCCESS_RTOL = 1e-3  # a trial succeeds when ||x_hat - x*|| <= SUCCESS_RTOL * ||x*||
_CHUNK_TASKS = 256   # paired trials per stacked search, at most (whole trial indices)


def _json_value(obj):
    """A dataclass as its fields, an array as nested lists; nothing else."""
    if is_dataclass(obj):  # asdict raises TypeError on a dataclass type
        return asdict(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def canonical_json(doc) -> str:
    """The one serialization of every JSON result: sorted keys, no spaces, a newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_value) + "\n"


def _reject_repeats(values, what: str) -> None:
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ValueError(f"{what} {v!r} is listed twice")


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
    if not 1 <= n < m:
        raise ValueError(f"need more sensors than states, and n >= 1, got m={m}, n={n}")
    if not 0 < spectral_radius_target < math.inf:
        raise ValueError(f"spectral radius target must be finite and positive, "
                         f"got {spectral_radius_target}")
    A = rng.standard_normal((n, n))
    with np.errstate(over="ignore"):  # a target near the largest float: checked below
        A = A * (spectral_radius_target / np.max(np.abs(np.linalg.eigvals(A))))
    if not np.isfinite(A).all():
        raise ValueError(f"spectral radius target {spectral_radius_target} overflows A")
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
    if mode not in ("rel", "abs"):
        raise ValueError(f"unknown epsilon policy mode {mode!r}")
    budget = value * float(np.abs(np.asarray(y_star)).sum()) if mode == "rel" else value
    if not math.isfinite(budget):
        raise ValueError(f"epsilon policy {policy} gives a budget beyond the largest float")
    return budget


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
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.n < self.m:
            raise ValueError(f"need m > n >= 1, got m={self.m}, n={self.n}")
        if self.T < 1:
            raise ValueError(f"window length T must be >= 1, got {self.T}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.master_seed < 0:
            raise ValueError(f"master seed must be >= 0, got {self.master_seed}")
        if not self.attack_grid or not self.strategies:
            raise ValueError("attack grid and strategies must each hold at least one entry")
        for p_a in self.attack_grid:
            if not 0.0 <= p_a < 1.0:
                raise ValueError(f"attack grid fractions must lie in [0, 1), got {p_a}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        check_confidence_model(self.true_rate, self.jitter)
        if not 0.0 < self.spectral_radius < math.inf:
            raise ValueError(f"spectral radius must be finite and positive, got {self.spectral_radius}")
        epsilon_from_policy(self.epsilon_policy, ())  # parses and checks the policy
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise ValueError(f"unknown strategies {sorted(unknown)}; pick from {STRATEGIES}")
        if self.omega == 0 and set(self.strategies) - {"none"}:
            raise ValueError("omega must be positive for a weighted strategy: omega 0 leaves "
                             "weight only on trusted rows, and a strategy may trust too few")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "attack_grid", tuple(float(v) for v in self.attack_grid))
        object.__setattr__(self, "strategies", tuple(self.strategies))
        _reject_repeats(self.attack_grid, "attack fraction")
        _reject_repeats(self.strategies, "strategy")


@dataclass(frozen=True)
class TrialInstance:
    """Everything one trial draws before any strategy-specific step."""

    model: HorizonModel
    x_star: np.ndarray
    support: np.ndarray
    y_T: np.ndarray
    prior: SupportPrior


@dataclass(frozen=True)
class TrialOutcome:
    success: bool
    error_l2: float


@functools.lru_cache(maxsize=1)
def _shared_draw(cfg: SweepConfig, trial_index: int):
    """The draws of a trial index that no attack fraction changes: the model
    of its system, read-only x* and y*, epsilon, and the trial's one
    generator with its saved state after them."""
    rng = np.random.default_rng([cfg.master_seed, trial_index])
    model = build_horizon(gen_random_system(cfg.m, cfg.n, rng, cfg.spectral_radius), cfg.T)
    x_star = rng.standard_normal(cfg.n)
    y_star = model.H @ x_star
    x_star.flags.writeable = y_star.flags.writeable = False
    epsilon = epsilon_from_policy(cfg.epsilon_policy, y_star)
    return model, x_star, y_star, epsilon, rng, rng.bit_generator.state


def draw_instance(cfg: SweepConfig, p_a: float, trial_index: int) -> TrialInstance:
    """Deterministic paired draw: identical for every strategy.

    Seeded from (master_seed, trial_index) alone, so the system, H, x* and
    epsilon are the same at every attack fraction of a trial index; they come
    from a one-entry cache of the last (cfg, trial_index), which ``sweep``
    hits by running the grid points of a trial index back to back.  The
    support and the prior restore the trial's saved generator state on its
    one generator, so the result equals a draw from scratch in any order of
    grid points.
    """
    model, x_star, y_star, epsilon, rng, state = _shared_draw(cfg, trial_index)
    rng.bit_generator.state = state  # past the shared draws
    support = random_support(model.rows, p_a, rng)
    if support.size:
        plan = synthesize_fdia(model, support, epsilon)
        y_T = y_star + plan.e_T
        if not math.isfinite(model.rows * float(np.abs(y_T).max())):  # bounds sum(w) * max|y|
            raise ValueError(f"the attacked measurements are too large to certify at epsilon "
                             f"policy {cfg.epsilon_policy}")
    else:
        y_T = y_star
    q = indicator_from_support(support, model.rows)
    p = gen_confidences(model.rows, cfg.true_rate, cfg.jitter, rng)
    prior = sample_prior(q, p, rng)
    return TrialInstance(model=model, x_star=x_star, support=support, y_T=y_T, prior=prior)


def trusted_rows(instance: TrialInstance, strategy: str, eta: float):
    """Strategy-specific trusted row set; None means the unweighted decoder."""
    if strategy == "none":
        return None
    if strategy == "prior":
        return instance.prior.estimated_safe
    if strategy == "pruned_product":
        return prune_product(instance.prior, eta).safe_set
    if strategy == "pruned_quantile":
        return prune_quantile(instance.prior, eta).safe_set
    raise ValueError(f"unknown strategy {strategy!r}")


def _problem_key(trusted, rows: int, omega: float) -> frozenset:
    """Equal for trusted sets whose weights are positive multiples of each
    other, and so pose one problem; empty for uniform weights.  Needs
    omega > 0, which SweepConfig requires of every weighted strategy and
    run_scenario of WL1P."""
    if trusted is None or omega == 1.0:
        return frozenset()
    key = frozenset(trusted.tolist())
    return frozenset() if len(key) in (0, rows) else key


def _estimate(model: HorizonModel, y_T, trusted, omega: float, start=None):
    """Certified estimate of one trusted row set (None: the unweighted decoder)."""
    if trusted is None:
        return decode(model, y_T, start=start)
    return weighted_observer(model, y_T, trusted, omega, start=start)


def _certify_all(groups, omega: float) -> list:
    """Certified estimates of every trusted set of every group, one list per
    group; a group is (model, y_T, trusted sets).

    The sets of a group with one ``_problem_key`` have one minimizer, so they
    share the estimate of the first of them.  One stacked search finds the
    optimal basis of every distinct problem, with one weights array per
    distinct model and key, and each problem's single solve, started from its
    basis (cold where the search gives up), certifies it.
    """
    todo, weights, index, built, picks = [], [], {}, {}, []  # picks: each set's problem
    for g, (model, y_T, sets) in enumerate(groups):
        picks.append([])
        for trusted in sets:
            key = _problem_key(trusted, model.rows, omega)
            if (g, key) not in index:
                index[g, key] = len(todo)
                todo.append((model, y_T, trusted))
                if (id(model), key) not in built:  # positive multiples share optimal rows
                    built[id(model), key] = (np.ones(model.rows) if trusted is None
                                             else observer_weights(model, trusted, omega))
                weights.append(built[id(model), key])
            picks[-1].append(index[g, key])
    H = [model.H for model, _, _ in todo]  # one shared model is passed, and factored, once
    bases = search_bases(H[0] if all(h is H[0] for h in H) else np.array(H),
                         np.array([y_T for _, y_T, _ in todo]), np.array(weights)) if todo else []
    ests = [_estimate(*problem, omega, start=b) for problem, b in zip(todo, bases)]
    return [[ests[i] for i in group] for group in picks]


def _grade(instance: TrialInstance, ests) -> list:
    """The outcome of each estimate."""
    x_star, outcomes = instance.x_star, []
    bound = SUCCESS_RTOL * math.sqrt(x_star.dot(x_star))  # the 2-norm as np.linalg.norm takes it
    with np.errstate(over="ignore"):  # an error beyond the largest float is inf: sweep checks it
        for est in ests:
            d = est.z - x_star
            err = math.sqrt(d.dot(d))
            outcomes.append(TrialOutcome(success=err <= bound, error_l2=err))
    return outcomes


def run_trial(cfg: SweepConfig, p_a: float, strategy: str, trial_index: int) -> TrialOutcome:
    """One end-to-end trial for one strategy, solved from a cold start."""
    inst = draw_instance(cfg, p_a, trial_index)
    return _grade(inst, [_estimate(inst.model, inst.y_T, trusted_rows(inst, strategy, cfg.eta),
                                   cfg.omega)])[0]


def _paired_chunk(args):
    """Every strategy on the instances of a run of trial indices, outcomes in
    task order.  Strategies that pose one problem (``_problem_key``: equal
    trusted sets, an empty or full set, which poses the problem of ``none``,
    and any set at omega 1) share one solve, whose outcome equals the cold
    solve of ``run_trial`` bit for bit."""
    cfg, trials = args
    instances = [draw_instance(cfg, p_a, t) for t in trials for p_a in cfg.attack_grid]
    groups = [(inst.model, inst.y_T, [trusted_rows(inst, s, cfg.eta) for s in cfg.strategies])
              for inst in instances]
    return [dict(zip(cfg.strategies, _grade(inst, ests)))
            for inst, ests in zip(instances, _certify_all(groups, cfg.omega))]


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
        writer.writerow(f.name for f in fields(SweepRow))
        writer.writerows(astuple(r) for r in self.rows)  # floats print as repr
        return buf.getvalue()

    def to_json(self) -> str:
        cfg = asdict(self.config)
        cfg.pop("workers")  # execution detail, not part of the experiment identity
        return canonical_json({"config": cfg, "rows": self.rows})


def sweep(cfg: SweepConfig) -> SweepResult:
    """Paired Monte Carlo sweep over the attack grid.

    Every strategy sees the same instance at a given (fraction, trial)
    pair; the worker count changes only the wall time.  Tasks run
    trial-major, so the grid points of a trial index share one draw of the
    system (see ``draw_instance``), in chunks of whole trial indices, at
    most ``_CHUNK_TASKS`` tasks and few enough trial indices that every
    worker gets a chunk (see ``_paired_chunk``).
    """
    grid = len(cfg.attack_grid)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.workers, cpus or 1)  # a forked pool starts all its workers at once
    per_chunk = max(1, min(_CHUNK_TASKS // grid, -(-cfg.trials // workers)))
    chunks = [(cfg, range(t, min(t + per_chunk, cfg.trials)))
              for t in range(0, cfg.trials, per_chunk)]
    workers = min(workers, len(chunks))  # and needs none beyond the chunks
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly to import; only pools need it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = [o for chunk in pool.map(_paired_chunk, chunks) for o in chunk]
    else:
        outcomes = [o for chunk in map(_paired_chunk, chunks) for o in chunk]

    rows = []
    for gi, p_a in enumerate(cfg.attack_grid):
        chunk = outcomes[gi::grid]
        for strategy in cfg.strategies:
            outs = [c[strategy] for c in chunk]
            successes = sum(o.success for o in outs)
            rate = successes / cfg.trials
            stderr = float(np.sqrt(rate * (1.0 - rate) / cfg.trials))
            mean_error = float(np.mean([o.error_l2 for o in outs]))
            if not math.isfinite(mean_error):
                raise EstimationError(
                    f"the mean error overflows at epsilon policy {cfg.epsilon_policy}")
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
        if not 0.0 <= self.fraction < 1.0:
            raise ValueError(f"attack fraction must lie in [0, 1), got {self.fraction}")
        if not math.isfinite(self.magnitude):
            raise ValueError(f"attack magnitude must be finite, got {self.magnitude}")
        if self.seed < 0:
            raise ValueError(f"attack seed must be >= 0, got {self.seed}")

    def resolve_support(self, C: np.ndarray) -> np.ndarray:
        if self.support is not None:
            return row_indices(self.support, C.shape[0], "attack support")
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
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.prior_seed < 0:
            raise ValueError(f"prior seed must be >= 0, got {self.prior_seed}")
        if self.steps < self.T:
            raise ValueError(f"need steps >= T, got steps={self.steps}, T={self.T}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")
        check_confidence_model(self.true_rate, self.jitter)


@dataclass(frozen=True)
class ScenarioMetrics:
    """Per-coordinate RMS and worst-case estimation error per observer."""

    observers: tuple
    windows: int
    rms: dict
    max_abs: dict

    def to_json(self) -> str:
        return canonical_json(self)


def run_scenario(
    system: LtiSystem,
    x0,
    attack: ScenarioAttack = ScenarioAttack(),
    scenario: ScenarioConfig = ScenarioConfig(),
    observers: tuple = OBSERVERS,
) -> ScenarioMetrics:
    """Simulate a persistently attacked run and compare observers.

    Window estimates target the window-start state; the Luenberger estimate
    is aligned to the same time index.  WL1P trusts the product-pruned rows
    of a simulated localization prior, and shares L1O's solve where its
    weights are uniform (module docstring).
    """
    if not observers:
        raise ValueError(f"observers must hold at least one of {', '.join(OBSERVERS)}")
    for obs in observers:
        if obs not in OBSERVERS:
            raise ValueError(f"observers must be among {', '.join(OBSERVERS)}, got {obs!r}")
    _reject_repeats(observers, "observer")
    if scenario.omega == 0 and "WL1P" in observers:
        raise ValueError("omega must be positive for WL1P: omega 0 leaves weight only on "
                         "the pruned rows, and pruning may trust too few")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    m, T = system.m, scenario.T
    sup = attack.resolve_support(system.C)

    rng_attack = np.random.default_rng(attack.seed)
    schedule = np.zeros((scenario.steps, m))
    # simulate rejects a plant that overflows; a magnitude near the largest float
    # overflows here, as the checks below find; a run that passes them may still
    # overflow in the Luenberger recursion or in the squared errors, checked at the end
    with np.errstate(over="ignore", invalid="ignore"):
        schedule[:, sup] = attack.magnitude * rng_attack.standard_normal((scenario.steps, sup.size))
        traj = simulate(system, x0, scenario.steps, schedule)
    # every observer fails alike on a window the l1 solves cannot certify:
    # weights are at most 1, so rows * max|y| bounds their sum(w) * max|y|
    if not math.isfinite(T * m * float(np.abs(traj.clean_measurements).max())):
        raise ValueError(f"the clean measurements are too large to certify within --steps "
                         f"{scenario.steps}")
    if not math.isfinite(T * m * float(np.abs(traj.attacked_measurements).max())):
        raise EstimationError(
            f"attacked measurements overflow at attack magnitude {attack.magnitude}")
    model = build_horizon(system, T)
    windows = scenario.steps - T + 1
    ys, targets = zip(*(stack_window(traj, end, T) for end in range(T - 1, scenario.steps)))

    errors = {obs: [] for obs in observers}
    if "LO" in observers:
        with np.errstate(over="ignore", invalid="ignore"):
            lo_est = luenberger_baseline(system, traj.attacked_measurements)
        errors["LO"] = [lo_est[i] - target for i, target in enumerate(targets)]

    l1 = [obs for obs in observers if obs != "LO"]
    if "WL1P" in observers:
        q = indicator_from_support(np.concatenate([r * m + sup for r in range(T)]), model.rows)
        rng_prior = np.random.default_rng(scenario.prior_seed)
        trusted = []
        for i in range(windows):  # static: the first window's draw serves every window
            if i == 0 or scenario.prior_mode == "per_window":
                p = gen_confidences(model.rows, scenario.true_rate, scenario.jitter, rng_prior)
                safe = prune_product(sample_prior(q, p, rng_prior), scenario.eta).safe_set
            trusted.append(safe)
    groups = [(model, ys[i], [None if obs == "L1O" else trusted[i] for obs in l1])
              for i in range(windows)]
    for i, ests in enumerate(_certify_all(groups, scenario.omega)):
        for obs, est in zip(l1, ests):
            errors[obs].append(est.z - targets[i])

    rms, max_abs = {}, {}
    for obs in observers:
        E = np.asarray(errors[obs])
        with np.errstate(over="ignore"):
            rms[obs] = tuple(float(v) for v in np.sqrt((E**2).mean(axis=0)))
        max_abs[obs] = tuple(float(v) for v in np.abs(E).max(axis=0))
        if not np.isfinite(rms[obs] + max_abs[obs]).all():
            raise EstimationError(
                f"{obs} error metrics overflow at attack magnitude {attack.magnitude}")
    return ScenarioMetrics(observers=tuple(observers), windows=windows, rms=rms, max_abs=max_abs)


def load_surrogate():
    """Bundled 5-state demonstration system (synthetic, not a standard grid).

    Returns (system, x0).  Three high-gain sensors are intended as the
    default attack target, exercising the observer comparison out of the
    box.
    """
    with resources.as_file(resources.files("resilient_sse") / "data" / "surrogate.json") as path:
        return load_system_json(path)
