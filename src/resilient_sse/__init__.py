"""Resilient state estimation for linear systems under sparse sensor attacks.

Building blocks: exact l1 / weighted-l1 decoding with a certified LP core,
stealth-attack synthesis, pruning of uncertain safe-sensor priors with
reliability guarantees, restricted-isometry diagnostics with a recovery
bound, and a deterministic Monte Carlo experiment harness with a CLI.
"""

from .analysis import BoundInputs, RipEstimate, bound_condition, recovery_bound, rip_constant
from .errors import (
    BudgetZero,
    ConditionViolated,
    DegenerateSvd,
    DimensionMismatch,
    EmptyEstimate,
    EmptySupport,
    EstimationError,
    NotObservable,
    NumericalInstability,
    RankDeficient,
    RiccatiDivergence,
    SolverFailure,
    SupportTooLarge,
    WindowOutOfRange,
)
from .estimation import (
    best_k_sparse_error,
    decode,
    detect,
    luenberger_baseline,
    riccati_gain,
    solve_weighted_l1,
    weighted_observer,
)
from .experiments import (
    STRATEGIES,
    ScenarioAttack,
    ScenarioConfig,
    ScenarioMetrics,
    SweepConfig,
    SweepResult,
    draw_instance,
    gen_random_system,
    load_surrogate,
    run_scenario,
    run_trial,
    sweep,
)
from .fdia import AttackPlan, SuccessVerdict, is_successful, random_support, synthesize_fdia
from .lp import LpSolution, weighted_l1_regression
from .lti import (
    HorizonModel,
    LtiSystem,
    ObservabilityReport,
    Trajectory,
    build_horizon,
    check_observability,
    load_system_csv,
    load_system_json,
    simulate,
    stack_window,
)
from .pruning import (
    PrunedPrior,
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

__version__ = "0.1.0"
