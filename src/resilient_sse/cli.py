"""Command-line front end.

Exit codes: 0 success, 1 argument/validation problem, 2 numerical or
solver failure.  Results are serialized to stdout or, with --out, written
atomically (nothing is left behind on failure).  Every stochastic
subcommand is fully determined by its --seed.

A JSON config file may supply any long-option value (keys use underscores,
e.g. {"true_rate": 0.9}); explicit command-line flags win over the file, and
each file value is converted and checked as the flag's argument would be.

The argument parser is built once per process and reused by every call of
parse_and_dispatch; with --config, a second parser without defaults (also
built once) tells which flags the command line gave.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .analysis import rip_constant
from .errors import EmptyEstimate, EstimationError
from .estimation import decode, weighted_observer
from .experiments import (
    STRATEGIES,
    ScenarioAttack,
    ScenarioConfig,
    SweepConfig,
    load_surrogate,
    run_scenario,
    sweep,
)
from .fdia import random_support, synthesize_fdia
from .lti import build_horizon, load_system_csv, load_system_json
from .pruning import (
    SupportIndicator,
    SupportPrior,
    ppv,
    prune_product,
    prune_quantile,
    sample_prior,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_result_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_indices(text, flag):
    text = text.strip()
    if not text:
        return []
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _parse_floats(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated numbers, got {text!r}") from None


def _load_system(args):
    if getattr(args, "system", None):
        sys_, x0 = load_system_json(args.system)
        return sys_, x0
    if getattr(args, "system_a", None) and getattr(args, "system_c", None):
        return load_system_csv(args.system_a, args.system_c), None
    raise ValueError("provide --system (JSON) or both --system-a and --system-c (CSV)")


def _read_vector(path) -> np.ndarray:
    """A flat JSON list of finite numbers, or a numeric CSV read row by row."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in data
        ):
            raise ValueError(f"{path}: expected a flat JSON list of numbers")
        out = np.asarray(data, dtype=float)
        if not np.isfinite(out).all():
            raise ValueError(f"{path}: entries must be finite")
        return out
    from .lti import read_matrix_csv

    return read_matrix_csv(path).reshape(-1)


def _merge_config(args, argv, actions):
    """Apply config-file values to the options absent from the command line."""
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    given = vars(_flags_parser().parse_args(argv))
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValueError(f"config key {key!r} is not an option of this subcommand")
        if attr not in given:
            setattr(args, attr, _config_value(key, value, actions[attr]))
    return args


def _config_value(key, value, action):
    """Convert and check a config value as argparse would the flag's argument."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r}: expected a string or a number, got {value!r}")
    try:
        converted = (action.type or str)(str(value))
    except (TypeError, ValueError):
        raise ValueError(f"config key {key!r}: invalid value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValueError(f"config key {key!r}: {value!r} is not one of {list(action.choices)}")
    return converted


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_attack(args) -> str:
    _require(0 < args.cap_factor < math.inf, "cap-factor must be finite and positive")
    sys_, _ = _load_system(args)
    model = build_horizon(sys_, args.T)
    if args.support is not None:
        support = _parse_indices(args.support, "--support")
    else:
        _require(args.fraction is not None, "provide --support or --fraction")
        rng = np.random.default_rng(args.seed)
        support = random_support(model.rows, args.fraction, rng)
    plan = synthesize_fdia(model, support, args.epsilon, magnitude_cap_factor=args.cap_factor)
    return _json_dumps(
        {
            "support": [int(i) for i in plan.support],
            "epsilon": plan.epsilon,
            "z_e": list(plan.z_e),
            "e_T": list(plan.e_T),
            "alpha_guarantee": plan.alpha_guarantee,
            "feasible": plan.feasible,
            "unbounded": plan.unbounded,
        }
    )


def _cmd_estimate(args) -> str:
    _require(0 <= args.omega <= 1, "omega must lie in [0, 1]")
    if args.epsilon is not None:
        _require(args.epsilon > 0, "epsilon must be positive")
    sys_, _ = _load_system(args)
    model = build_horizon(sys_, args.T)
    y_T = _read_vector(args.y)
    x_true = _read_vector(args.x_true) if args.x_true else None
    if args.safe is not None:
        trusted = _parse_indices(args.safe, "--safe")
        # with omega 0 only the trusted rows carry weight: too few cannot
        # determine the state, whatever the window holds
        _require(args.omega > 0 or len(set(trusted)) >= model.n,
                 f"--omega 0 needs at least {model.n} distinct --safe rows, "
                 f"got {len(set(trusted))}")
        est = weighted_observer(model, y_T, trusted, args.omega, epsilon=args.epsilon, x_true=x_true)
    else:
        est = decode(model, y_T, epsilon=args.epsilon, x_true=x_true)
    return _json_dumps(
        {
            "x_hat": list(est.x_hat),
            "objective": est.objective,
            "residual_l1": est.residual_l1,
            "detector_flag": est.detector_flag,
            "error_l2": est.error_l2,
            "iterations": est.iterations,
            "gap": est.gap,
        }
    )


def _cmd_prune(args) -> str:
    _require(0 < args.eta < 1, "eta must lie in (0,1)")
    with open(args.input) as fh:
        doc = json.load(fh)
    _require("p" in doc, "prune input needs a confidence vector 'p'")
    p = np.asarray(doc["p"], dtype=float)
    q = None
    if "q_hat" in doc:
        prior = SupportPrior(q_hat=np.asarray(doc["q_hat"], dtype=int), p=p)
        if "q" in doc:
            q = SupportIndicator(q=np.asarray(doc["q"], dtype=int))
    elif "q" in doc:
        _require("seed" in doc, "sampling an estimate from 'q' needs a 'seed'")
        q = SupportIndicator(q=np.asarray(doc["q"], dtype=int))
        prior = sample_prior(q, p, np.random.default_rng(int(doc["seed"])))
    else:
        raise ValueError("prune input needs 'q_hat' or ('q', 'seed')")

    if args.strategy == "product":
        pruned = prune_product(prior, args.eta)
    else:
        pruned = prune_quantile(prior, args.eta)
    precision, precision_pruned = None, None
    if q is not None:
        try:
            precision = ppv(q, prior)
        except EmptyEstimate:
            precision = None
        if pruned.safe_set.size:
            precision_pruned = float(np.mean(q.q[pruned.safe_set] == 1))
    return _json_dumps(
        {
            "offline_set": [int(i) for i in pruned.offline_set],
            "pruned_set": [int(i) for i in pruned.safe_set],
            "l_eta": pruned.l_eta,
            "ppv": precision,
            "ppv_pruned": precision_pruned,
            "strategy": pruned.strategy,
        }
    )


def _cmd_rip(args) -> str:
    sys_, _ = _load_system(args)
    model = build_horizon(sys_, args.T)
    est = rip_constant(model, args.S, args.budget, rng=np.random.default_rng(args.seed))
    return _json_dumps(
        {
            "S": est.S,
            "delta_S": est.delta_S,
            "exact": est.exact,
            "supports_checked": est.n_supports_checked,
        }
    )


def _cmd_sweep(args) -> str:
    cfg = SweepConfig(
        m=args.m,
        n=args.n,
        T=args.T,
        attack_grid=tuple(_parse_floats(args.grid, "--grid")),
        trials=args.trials,
        true_rate=args.true_rate,
        jitter=args.jitter,
        eta=args.eta,
        omega=args.omega,
        epsilon_policy=args.epsilon_policy,
        strategies=tuple(args.strategies.split(",")),
        master_seed=args.seed,
        spectral_radius=args.spectral_radius,
        workers=args.workers,
    )
    result = sweep(cfg)
    return result.to_json() if args.format == "json" else result.to_csv()


def _cmd_scenario(args) -> str:
    if args.system or (args.system_a and args.system_c):
        sys_, x0 = _load_system(args)
        _require(x0 is not None, "scenario needs an x0 entry in the system file")
    else:
        sys_, x0 = load_surrogate()
    support = None
    if args.attack_support:
        support = tuple(_parse_indices(args.attack_support, "--attack-support"))
    attack = ScenarioAttack(
        fraction=args.attack_fraction,
        magnitude=args.attack_magnitude,
        support=support,
        seed=args.seed,
    )
    _require(0 <= attack.fraction < 1, "attack-fraction must lie in [0, 1)")
    scenario = ScenarioConfig(
        steps=args.steps,
        T=args.T,
        true_rate=args.true_rate,
        jitter=args.jitter,
        eta=args.eta,
        omega=args.omega,
        prior_mode=args.prior_mode,
        prior_seed=args.prior_seed,
    )
    _require(0 < scenario.eta < 1, "eta must lie in (0,1)")
    _require(0 <= scenario.omega <= 1, "omega must lie in [0, 1]")
    observers = tuple(args.observers.split(","))
    metrics = run_scenario(sys_, x0, attack=attack, scenario=scenario, observers=observers)
    return metrics.to_json()


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_system_flags(p):
    p.add_argument("--system", help="system JSON file with A, C and optional x0")
    p.add_argument("--system-a", help="CSV file holding A (with --system-c)")
    p.add_argument("--system-c", help="CSV file holding C (with --system-a)")
    p.add_argument("--config", help="JSON file of option defaults; flags win")
    p.add_argument("--out", help="write the result here instead of stdout")


def build_parser():
    parser = _Parser(prog="resilient-sse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["attack"] = sub.add_parser("attack", help="synthesize a stealth attack")
    _add_system_flags(p)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--epsilon", type=float, required=True, help="stealth budget")
    p.add_argument("--support", help="comma-separated 0-based attacked row indices")
    p.add_argument("--fraction", type=float, help="random support of this fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-factor", type=float, default=1e3)
    p.set_defaults(handler=_cmd_attack)

    p = subparsers["estimate"] = sub.add_parser("estimate", help="decode a stacked measurement window")
    _add_system_flags(p)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--y", required=True, help="stacked window (JSON list or CSV)")
    p.add_argument("--omega", type=float, default=0.01)
    p.add_argument("--safe", help="trusted rows; omitted = plain l1 decoding")
    p.add_argument("--epsilon", type=float, help="detector threshold")
    p.add_argument("--x-true", help="ground-truth state for the error field")
    p.set_defaults(handler=_cmd_estimate)

    p = subparsers["prune"] = sub.add_parser("prune", help="prune an uncertain safe-row prior")
    p.add_argument("--input", required=True, help="JSON with p and q_hat, or p, q, seed")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--strategy", default="product", choices=("product", "quantile"))
    p.add_argument("--config", help="JSON file of option defaults; flags win")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_prune)

    p = subparsers["rip"] = sub.add_parser("rip", help="isometry constant of the null-space basis")
    _add_system_flags(p)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_rip)

    p = subparsers["sweep"] = sub.add_parser("sweep", help="Monte Carlo attack-percentage sweep")
    p.add_argument("--m", type=int, default=20, help="sensor count")
    p.add_argument("--n", type=int, default=10, help="state dimension")
    p.add_argument("--T", type=int, default=1, help="window length")
    p.add_argument("--grid", default="0.0,0.2,0.4,0.6", help="attack fractions, comma-separated")
    p.add_argument("--trials", type=int, default=100, help="paired trials per grid point")
    p.add_argument("--true-rate", type=float, default=0.6, help="oracle confidence level")
    p.add_argument("--jitter", type=float, default=0.1, help="confidence jitter half-width")
    p.add_argument("--eta", type=float, default=0.9, help="pruning reliability level")
    p.add_argument("--omega", type=float, default=0.01, help="weight on untrusted rows")
    p.add_argument("--epsilon-policy", default="rel:0.01", help="'rel:<f>' of ||y*||_1 or 'abs:<f>'")
    p.add_argument("--strategies", default=",".join(STRATEGIES),
                   help=f"comma-separated subset of {','.join(STRATEGIES)}")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--spectral-radius", type=float, default=0.95)
    p.add_argument("--workers", type=int, default=1, help="parallel trial workers")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--config", help="JSON file of option defaults; flags win")
    p.add_argument("--out", help="write the result here instead of stdout")
    p.set_defaults(handler=_cmd_sweep)

    p = subparsers["scenario"] = sub.add_parser("scenario", help="dynamic observer comparison")
    _add_system_flags(p)
    p.add_argument("--steps", type=int, default=60, help="trajectory length")
    p.add_argument("--T", type=int, default=3, help="moving-window length")
    p.add_argument("--attack-fraction", type=float, default=0.3,
                   help="fraction of sensors under persistent attack")
    p.add_argument("--attack-magnitude", type=float, default=3.0)
    p.add_argument("--attack-support", help="explicit attacked sensors (else: highest-gain)")
    p.add_argument("--seed", type=int, default=0, help="attack value seed")
    p.add_argument("--prior-seed", type=int, default=1, help="localization prior seed")
    p.add_argument("--true-rate", type=float, default=0.95, help="oracle confidence level")
    p.add_argument("--jitter", type=float, default=0.04)
    p.add_argument("--eta", type=float, default=0.7, help="pruning reliability level")
    p.add_argument("--omega", type=float, default=0.01, help="weight on untrusted rows")
    p.add_argument("--prior-mode", default="static", choices=("static", "per_window"),
                   help="sample the prior once, or afresh per window")
    p.add_argument("--observers", default="LO,L1O,WL1P")
    p.set_defaults(handler=_cmd_scenario)

    return parser, subparsers


@functools.cache
def _parsers():
    """build_parser(), built once per process and never mutated."""
    return build_parser()


@functools.cache
def _flags_parser():
    """A parser in which no option has a default, so parsing yields only the given flags."""
    parser, subparsers = build_parser()
    for sub in subparsers.values():
        for action in sub._actions:
            action.default = argparse.SUPPRESS
    return parser


def parse_and_dispatch(argv=None) -> int:
    parser, subparsers = _parsers()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    actions = {a.dest: a for a in subparsers[args.command]._actions if a.dest != "help"}
    try:
        args = _merge_config(args, argv, actions)
        text = args.handler(args)
        _write_output(text, getattr(args, "out", None))
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), 1)
    except EstimationError as exc:
        return _fail(str(exc), 2)


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
