"""Command-line front end.

Exit codes: 0 success, 1 argument/validation problem, 2 numerical or
solver failure.  Results are serialized to stdout or, with --out, written
atomically (nothing is left behind on failure).  Every stochastic
subcommand is fully determined by its --seed.

sweep and scenario build their configs from the flags named like the
config fields, each flag's default read from the dataclass; results print
through canonical_json, which writes a dataclass field for field.

A JSON config file may supply any long-option value, required ones included
(keys use underscores, e.g. {"true_rate": 0.9}); explicit command-line flags
win over the file, and each file value is converted and checked as the
flag's argument would be.

The argument parser is built once per process and reused by every call of
parse_and_dispatch.  With --config, the subcommand's parser parses the
command line again into a namespace that holds the file's values: argparse
fills in a default only where the namespace lacks a value, and every flag
given overwrites one.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import fields

import numpy as np

from .analysis import rip_constant
from .errors import EmptyEstimate, EstimationError
from .estimation import decode, weighted_observer
from .experiments import (
    OBSERVERS,
    ScenarioAttack,
    ScenarioConfig,
    SweepConfig,
    canonical_json,
    load_surrogate,
    run_scenario,
    sweep,
)
from .fdia import random_support, synthesize_fdia
from .lti import build_horizon, load_system_csv, load_system_json, numeric_array, read_matrix_csv
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


def _parse_list(text, flag, convert):
    """The comma-separated value of `flag`, each token through `convert`; blank text is []."""
    tokens = text.split(",") if text.strip() else []
    try:
        if all(tok.strip() for tok in tokens):
            return [convert(tok) for tok in tokens]
    except ValueError:
        pass
    raise ValueError(f"{flag} must be comma-separated {convert.__name__} values without blanks, "
                     f"got {text!r}")


def _load_system(args):
    if args.system:
        return load_system_json(args.system)
    if args.system_a and args.system_c:
        return load_system_csv(args.system_a, args.system_c), None
    raise ValueError("provide --system (JSON) or both --system-a and --system-c (CSV)")


def _read_vector(path) -> np.ndarray:
    """A flat JSON list of finite numbers, or a numeric CSV read row by row."""
    if str(path).endswith(".json"):
        with open(path) as fh:
            return numeric_array(json.load(fh), str(path), 1)
    return read_matrix_csv(path).reshape(-1)


def _merge_config(path, parser, argv):
    """Parse argv with the subcommand's `parser`, config-file values in place of defaults."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    values = argparse.Namespace()
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr not in actions:
            raise ValueError(f"config key {key!r} is not an option of this subcommand")
        setattr(values, attr, _config_value(key, value, actions[attr]))
    # not through the top-level parser, which parses into a fresh namespace
    # and copies every default over the file's values
    return parser.parse_args(argv, namespace=values)


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


def _from_flags(cls, args, **given):
    """A `cls` whose fields missing from `given` are the parsed flags of the same name."""
    return cls(**given, **{f.name: getattr(args, f.name) for f in fields(cls) if f.name not in given})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_attack(args) -> str:
    _require(0 < args.cap_factor < math.inf, "cap-factor must be finite and positive")
    sys_, _ = _load_system(args)
    model = build_horizon(sys_, args.T)
    if args.support is not None:
        support = _parse_list(args.support, "--support", int)
    else:
        _require(args.fraction is not None, "provide --support or --fraction")
        rng = np.random.default_rng(args.seed)
        support = random_support(model.rows, args.fraction, rng)
    return canonical_json(synthesize_fdia(model, support, args.epsilon,
                                          magnitude_cap_factor=args.cap_factor))


def _cmd_estimate(args) -> str:
    _require(0 <= args.omega <= 1, "omega must lie in [0, 1]")
    sys_, _ = _load_system(args)
    model = build_horizon(sys_, args.T)
    y_T = _read_vector(args.y)
    x_true = _read_vector(args.x_true) if args.x_true else None
    if args.safe is not None:
        trusted = _parse_list(args.safe, "--safe", int)
        # with omega 0 only the trusted rows carry weight: too few cannot
        # determine the state, whatever the window holds
        _require(args.omega > 0 or len(set(trusted)) >= model.n,
                 f"--omega 0 needs at least {model.n} distinct --safe rows, "
                 f"got {len(set(trusted))}")
        est = weighted_observer(model, y_T, trusted, args.omega, epsilon=args.epsilon, x_true=x_true)
    else:
        est = decode(model, y_T, epsilon=args.epsilon, x_true=x_true)
    # the basis is a warm start for a library caller's next solve, not a result
    return canonical_json({k: v for k, v in vars(est).items() if k != "basis"})


def _cmd_prune(args) -> str:
    _require(0 < args.eta < 1, "eta must lie in (0,1)")
    with open(args.input) as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict), "prune input must hold a JSON object")
    _require("p" in doc, "prune input needs a confidence vector 'p'")
    p = numeric_array(doc["p"], "confidences 'p' in (0, 1]", 1)
    q = SupportIndicator(q=numeric_array(doc["q"], "q", 1)) if "q" in doc else None
    if "q_hat" in doc:
        prior = SupportPrior(q_hat=numeric_array(doc["q_hat"], "q_hat", 1), p=p)
    else:
        _require(q is not None and type(doc.get("seed")) is int,
                 "prune input needs 'q_hat', or 'q' and an integer 'seed'")
        prior = sample_prior(q, p, np.random.default_rng(doc["seed"]))

    if args.strategy == "product":
        pruned = prune_product(prior, args.eta)
    else:
        pruned = prune_quantile(prior, args.eta)
    precision, precision_pruned = None, None
    if q is not None:
        try:
            precision = ppv(q, prior.q_hat)
        except EmptyEstimate:
            precision = None
        if pruned.safe_set.size:
            precision_pruned = float(np.mean(q.q[pruned.safe_set] == 1))
    return canonical_json(
        {
            "offline_set": pruned.offline_set,
            "pruned_set": pruned.safe_set,
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
    return canonical_json(
        {
            "S": est.S,
            "delta_S": est.delta_S,
            "exact": est.exact,
            "supports_checked": est.n_supports_checked,
        }
    )


def _cmd_sweep(args) -> str:
    result = sweep(_from_flags(SweepConfig, args, master_seed=args.seed,
                               attack_grid=_parse_list(args.grid, "--grid", float),
                               strategies=_parse_list(args.strategies, "--strategies", str)))
    return result.to_json() if args.format == "json" else result.to_csv()


def _cmd_scenario(args) -> str:
    if args.system:
        sys_, x0 = load_system_json(args.system)
        _require(x0 is not None, "scenario needs an x0 entry in the system file")
    else:
        sys_, x0 = load_surrogate()
    support = None
    if args.attack_support:
        support = tuple(_parse_list(args.attack_support, "--attack-support", int))
    attack = ScenarioAttack(fraction=args.attack_fraction, magnitude=args.attack_magnitude,
                            support=support, seed=args.seed)
    observers = _parse_list(args.observers, "--observers", str)
    return run_scenario(sys_, x0, attack=attack, scenario=_from_flags(ScenarioConfig, args),
                        observers=observers).to_json()


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_system_flags(p):
    p.add_argument("--system", help="system JSON file with A, C and optional x0")
    p.add_argument("--system-a", help="CSV file holding A (with --system-c)")
    p.add_argument("--system-c", help="CSV file holding C (with --system-a)")


def build_parser():
    parser = _Parser(prog="resilient-sse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["attack"] = sub.add_parser("attack", help="synthesize a stealth attack")
    _add_system_flags(p)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--epsilon", type=float, help="stealth budget (required)")
    p.add_argument("--support", help="comma-separated 0-based attacked row indices")
    p.add_argument("--fraction", type=float, help="random support of this fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap-factor", type=float, default=1e3)
    p.set_defaults(handler=_cmd_attack, required=("--epsilon",))

    p = subparsers["estimate"] = sub.add_parser("estimate", help="decode a stacked measurement window")
    _add_system_flags(p)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--y", help="stacked window (JSON list or CSV; required)")
    p.add_argument("--omega", type=float, default=0.01)
    p.add_argument("--safe", help="trusted rows; omitted = plain l1 decoding")
    p.add_argument("--epsilon", type=float, help="detector threshold")
    p.add_argument("--x-true", help="ground-truth state for the error field")
    p.set_defaults(handler=_cmd_estimate, required=("--y",))

    p = subparsers["prune"] = sub.add_parser("prune", help="prune an uncertain safe-row prior")
    p.add_argument("--input", help="JSON with p and q_hat, or p, q, seed (required)")
    p.add_argument("--eta", type=float, help="pruning reliability level (required)")
    p.add_argument("--strategy", default="product", choices=("product", "quantile"))
    p.set_defaults(handler=_cmd_prune, required=("--input", "--eta"))

    p = subparsers["rip"] = sub.add_parser("rip", help="isometry constant of the null-space basis")
    _add_system_flags(p)
    p.add_argument("--T", type=int, default=1)
    p.add_argument("--S", type=int, help="support size (required)")
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_rip, required=("--S",))

    p = subparsers["sweep"] = sub.add_parser("sweep", help="Monte Carlo attack-percentage sweep")
    cfg = SweepConfig
    p.add_argument("--m", type=int, default=cfg.m, help="sensor count")
    p.add_argument("--n", type=int, default=cfg.n, help="state dimension")
    p.add_argument("--T", type=int, default=cfg.T, help="window length")
    p.add_argument("--grid", default=",".join(map(str, cfg.attack_grid)),
                   help="attack fractions, comma-separated")
    p.add_argument("--trials", type=int, default=cfg.trials, help="paired trials per grid point")
    p.add_argument("--true-rate", type=float, default=cfg.true_rate, help="oracle confidence level")
    p.add_argument("--jitter", type=float, default=cfg.jitter, help="confidence jitter half-width")
    p.add_argument("--eta", type=float, default=cfg.eta, help="pruning reliability level")
    p.add_argument("--omega", type=float, default=cfg.omega, help="weight on untrusted rows")
    p.add_argument("--epsilon-policy", default=cfg.epsilon_policy,
                   help="'rel:<f>' of ||y*||_1 or 'abs:<f>'")
    p.add_argument("--strategies", default=",".join(cfg.strategies),
                   help=f"comma-separated subset of {','.join(cfg.strategies)}")
    p.add_argument("--seed", type=int, default=cfg.master_seed, help="master seed")
    p.add_argument("--spectral-radius", type=float, default=cfg.spectral_radius)
    p.add_argument("--workers", type=int, default=cfg.workers, help="parallel trial workers")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(handler=_cmd_sweep)

    p = subparsers["scenario"] = sub.add_parser("scenario", help="dynamic observer comparison")
    p.add_argument("--system", help="system JSON file with A, C and x0 (else: the surrogate)")
    cfg, attack = ScenarioConfig, ScenarioAttack
    p.add_argument("--steps", type=int, default=cfg.steps, help="trajectory length")
    p.add_argument("--T", type=int, default=cfg.T, help="moving-window length")
    p.add_argument("--attack-fraction", type=float, default=attack.fraction,
                   help="fraction of sensors under persistent attack")
    p.add_argument("--attack-magnitude", type=float, default=attack.magnitude)
    p.add_argument("--attack-support", help="explicit attacked sensors (else: highest-gain)")
    p.add_argument("--seed", type=int, default=attack.seed, help="attack value seed")
    p.add_argument("--prior-seed", type=int, default=cfg.prior_seed, help="localization prior seed")
    p.add_argument("--true-rate", type=float, default=cfg.true_rate, help="oracle confidence level")
    p.add_argument("--jitter", type=float, default=cfg.jitter)
    p.add_argument("--eta", type=float, default=cfg.eta, help="pruning reliability level")
    p.add_argument("--omega", type=float, default=cfg.omega, help="weight on untrusted rows")
    p.add_argument("--prior-mode", default=cfg.prior_mode, choices=("static", "per_window"),
                   help="sample the prior once, or afresh per window")
    p.add_argument("--observers", default=",".join(OBSERVERS))
    p.set_defaults(handler=_cmd_scenario)

    for p in subparsers.values():
        p.add_argument("--config", help="JSON file of option defaults; flags win")
        p.add_argument("--out", help="write the result here instead of stdout")
    return parser, subparsers


@functools.cache
def _parsers():
    """build_parser(), built once per process and never mutated."""
    return build_parser()


def parse_and_dispatch(argv=None) -> int:
    parser, subparsers = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.config:
            args = _merge_config(args.config, subparsers[args.command], argv[1:])
        # checked here, not by argparse, so that --config can supply them
        missing = [flag for flag in getattr(args, "required", ()) if getattr(args, flag[2:]) is None]
        if missing:
            raise ValueError(f"the following arguments are required: {', '.join(missing)}")
        text = args.handler(args)
        _write_output(text, args.out)
        return 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), 1)
    except EstimationError as exc:
        return _fail(str(exc), 2)


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
