"""Command-line front end.

Exit codes: 0 success, 1 argument/validation problem, 2 numerical or
solver failure.  Results are serialized to stdout or, with --out, written
atomically (nothing is left behind on failure).  Every stochastic
subcommand is fully determined by its --seed.

argparse converts every input: a file flag holds its file's checked
contents, and an error names the flag and the path; a list flag is one
typed tuple; sweep and scenario store each flag under the name of the config
field it sets, with the dataclass's default, so their configs are built
from the parsed flags as they stand; results print through canonical_json,
which writes a dataclass field for field.

A JSON config file may supply any long-option value, required ones included
(keys use underscores, e.g. {"true_rate": 0.9}).  Its values become
--flag=value arguments placed before the command line's own, so argparse
converts and checks them as it does every flag, and an explicit flag wins
because it is parsed last.

The argument parser is built once per process and reused by every call of
parse_and_dispatch, next to a small parser that only finds --config.
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
from .errors import EstimationError
from .estimation import decode, detect, weighted_observer
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
from .lti import (LtiSystem, build_horizon, load_system_json, numeric_array, read_matrix_csv,
                  row_indices)
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
        raise SystemExit(_fail(message, 1))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_output(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out_path)),
                                   prefix=".tmp_result_")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:  # its own text names the temporary file
        raise ValueError(f"argument --out: {out_path}: {exc.strerror}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _list_of(convert):
    """An argparse type: comma-separated values, each through `convert`; blank text is ()."""
    def parse(text):
        tokens = text.split(",") if text.strip() else []
        try:
            if all(tok.strip() for tok in tokens):
                return tuple(convert(tok) for tok in tokens)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"must be comma-separated {convert.__name__} values without blanks, got {text!r}")
    return parse


def _file(read):
    """An argparse type: what `read` makes of the file at a path; an error names the path."""
    def convert(path):
        try:
            return read(path)
        except (OSError, ValueError) as exc:
            why = str(getattr(exc, "strerror", None) or exc)  # an OSError's text repeats the path
            raise argparse.ArgumentTypeError(why if why.startswith(path) else f"{path}: {why}")
    return convert


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _in_a_directory(path):
    """`path`, once its directory is found to exist (the trailing separator fails on a file)."""
    os.stat(os.path.join(os.path.dirname(os.path.abspath(path)), ""))
    return path


def _read_vector(path) -> np.ndarray:
    """A flat JSON list of finite numbers (a path ending in .json, any case), else a numeric CSV."""
    if path.lower().endswith(".json"):
        return numeric_array(_read_json(path), path, 1)
    return read_matrix_csv(path).reshape(-1)


def _load_system(args) -> LtiSystem:
    """The --system plant, or the plant of the --system-a/--system-c pair, once --T is checked."""
    _require(args.system or args.system_a is not None and args.system_c is not None,
             "provide --system (JSON) or both --system-a and --system-c (CSV)")
    _require(args.T >= 1, f"window length T must be >= 1, got {args.T}")  # build_horizon's message
    try:
        return args.system[0] if args.system else LtiSystem(A=args.system_a, C=args.system_c)
    except ValueError as exc:  # each matrix is fine alone: the pair does not fit
        raise ValueError(f"argument --system-a/--system-c: {exc}") from None


def _norm(d) -> float:
    """np.linalg.norm(d) taken on d scaled by a power of two, so that no square overflows."""
    e = math.frexp(float(np.abs(d).max()))[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(d, -e)), e))


def _config_flags(doc, parser):
    """The config file's contents `doc` as --flag=value arguments of the subcommand's `parser`."""
    _require(isinstance(doc, dict), "config file must hold a JSON object")
    flags = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        _require(flag in parser._option_string_actions,
                 f"config key {key!r} is not an option of this subcommand")
        _require(isinstance(value, (str, int, float)) and not isinstance(value, bool),
                 f"config key {key!r}: expected a string or a number, got {value!r}")
        flags.append(f"{flag}={value}")
    return flags


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _from_flags(cls, args):
    """A `cls` whose every field is the parsed flag stored under its name."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_attack(args) -> str:
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    _require(0 <= args.epsilon < math.inf,  # synthesize_fdia's message
             f"epsilon must be finite and nonnegative, got {args.epsilon}")
    system, support = _load_system(args), args.support
    # before the model, whose H has T*m rows however long --T makes it
    if support is None:
        _require(args.fraction is not None, "provide --support or --fraction")
        support = random_support(args.T * system.m, args.fraction, np.random.default_rng(args.seed))
    else:
        row_indices(support, args.T * system.m, "support indices")
    return canonical_json(synthesize_fdia(build_horizon(system, args.T), support, args.epsilon))


def _cmd_estimate(args) -> str:
    _require(0 <= args.omega <= 1, "omega must lie in [0, 1]")
    _require(args.epsilon is None or args.epsilon > 0, f"epsilon must be positive, got {args.epsilon}")
    system, y_T, x_true = _load_system(args), args.y, args.x_true
    rows, n = args.T * system.m, system.n
    # before the model, whose H has T*m rows however long --T makes it
    if args.safe is not None:
        trusted = row_indices(args.safe, rows, "--safe rows")
        # with omega 0 only the trusted rows carry weight: too few cannot
        # determine the state, whatever the window holds
        _require(args.omega > 0 or trusted.size >= n,
                 f"--omega 0 needs at least {n} distinct --safe rows, got {trusted.size}")
    if x_true is not None:
        _require(x_true.shape == (n,), f"x_true has shape {x_true.shape}, expected ({n},)")
    _require(y_T.size == rows,
             f"--y holds {y_T.size} entries, but --T {args.T} asks for T*m = {rows} rows")
    model = build_horizon(system, args.T)
    sol = (decode(model, y_T) if args.safe is None
           else weighted_observer(model, y_T, trusted, args.omega))
    # the basis is a warm start for a library caller's next solve, not a result
    with np.errstate(over="ignore"):  # a sum beyond the largest float is rejected below
        doc = {
            "x_hat": sol.z,
            "objective": sol.objective,
            "residual_l1": float(np.abs(sol.residual).sum()),
            "detector_flag": None if args.epsilon is None else detect(model, y_T, sol.z, args.epsilon),
            "error_l2": None if x_true is None else _norm(sol.z - x_true),
            "iterations": sol.iterations,
            "gap": sol.gap,
        }
    for name in ("residual_l1", "error_l2"):
        _require(doc[name] is None or math.isfinite(doc[name]), f"{name} is beyond the largest float")
    return canonical_json(doc)


def _cmd_prune(args) -> str:
    doc = args.input
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

    pruned = (prune_product if args.strategy == "product" else prune_quantile)(prior, args.eta)
    precision, precision_pruned = None, None
    if q is not None:
        precision = ppv(q, prior.q_hat)
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
    _require(args.seed >= 0, f"--seed must be >= 0, got {args.seed}")
    _require(args.budget >= 1, f"support budget must be >= 1, got {args.budget}")  # rip_constant's
    system = _load_system(args)
    # S before the model, as in attack
    _require(1 <= args.S <= args.T * system.m, f"S must lie in [1, {args.T * system.m}], got {args.S}")
    return canonical_json(rip_constant(build_horizon(system, args.T), args.S, args.budget,
                                       rng=np.random.default_rng(args.seed)))


def _cmd_sweep(args) -> str:
    result = sweep(_from_flags(SweepConfig, args))
    return result.to_json() if args.format == "json" else result.to_csv()


def _cmd_scenario(args) -> str:
    if args.system:
        sys_, x0 = args.system
        _require(x0 is not None, "scenario needs an x0 entry in the system file")
    else:
        sys_, x0 = load_surrogate()
    return run_scenario(sys_, x0, attack=_from_flags(ScenarioAttack, args),
                        scenario=_from_flags(ScenarioConfig, args),
                        observers=args.observers).to_json()


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _add_system_flags(p):
    p.add_argument("--system", type=_file(load_system_json),
                   help="system JSON file with A, C and optional x0")
    p.add_argument("--system-a", type=_file(read_matrix_csv), help="CSV file of A, with --system-c")
    p.add_argument("--system-c", type=_file(read_matrix_csv), help="CSV file of C, with --system-a")
    p.add_argument("--T", type=int, default=1)


def build_parser():
    parser = _Parser(prog="resilient-sse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = subparsers["attack"] = sub.add_parser("attack", help="synthesize a stealth attack")
    _add_system_flags(p)
    p.add_argument("--epsilon", type=float, required=True, help="stealth budget")
    p.add_argument("--support", type=_list_of(int),
                   help="comma-separated 0-based attacked row indices")
    p.add_argument("--fraction", type=float, help="random support of this fraction")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_attack)

    p = subparsers["estimate"] = sub.add_parser("estimate", help="decode a stacked measurement window")
    _add_system_flags(p)
    p.add_argument("--y", type=_file(_read_vector), required=True,
                   help="stacked window (JSON list or CSV)")
    p.add_argument("--omega", type=float, default=0.01)
    p.add_argument("--safe", type=_list_of(int), help="trusted rows; omitted = plain l1 decoding")
    p.add_argument("--epsilon", type=float, help="detector threshold")
    p.add_argument("--x-true", type=_file(_read_vector), help="ground-truth state for the error field")
    p.set_defaults(handler=_cmd_estimate)

    p = subparsers["prune"] = sub.add_parser("prune", help="prune an uncertain safe-row prior")
    p.add_argument("--input", type=_file(_read_json), required=True,
                   help="JSON with p and q_hat, or p, q, seed")
    p.add_argument("--eta", type=float, required=True, help="pruning reliability level")
    p.add_argument("--strategy", default="product", choices=("product", "quantile"))
    p.set_defaults(handler=_cmd_prune)

    p = subparsers["rip"] = sub.add_parser("rip", help="isometry constant of the null-space basis")
    _add_system_flags(p)
    p.add_argument("--S", type=int, required=True, help="support size")
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_rip)

    p = subparsers["sweep"] = sub.add_parser("sweep", help="Monte Carlo attack-percentage sweep")
    cfg = SweepConfig
    p.add_argument("--m", type=int, default=cfg.m, help="sensor count")
    p.add_argument("--n", type=int, default=cfg.n, help="state dimension")
    p.add_argument("--T", type=int, default=cfg.T, help="window length")
    p.add_argument("--grid", dest="attack_grid", type=_list_of(float), default=cfg.attack_grid,
                   help="attack fractions, comma-separated")
    p.add_argument("--trials", type=int, default=cfg.trials, help="paired trials per grid point")
    p.add_argument("--true-rate", type=float, default=cfg.true_rate, help="oracle confidence level")
    p.add_argument("--jitter", type=float, default=cfg.jitter, help="confidence jitter half-width")
    p.add_argument("--eta", type=float, default=cfg.eta, help="pruning reliability level")
    p.add_argument("--omega", type=float, default=cfg.omega, help="weight on untrusted rows")
    p.add_argument("--epsilon-policy", default=cfg.epsilon_policy,
                   help="'rel:<f>' of ||y*||_1 or 'abs:<f>'")
    p.add_argument("--strategies", type=_list_of(str), default=cfg.strategies,
                   help=f"comma-separated subset of {','.join(cfg.strategies)}")
    p.add_argument("--seed", dest="master_seed", type=int, default=cfg.master_seed,
                   help="master seed")
    p.add_argument("--workers", type=int, default=cfg.workers, help="parallel trial workers")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.set_defaults(handler=_cmd_sweep)

    p = subparsers["scenario"] = sub.add_parser("scenario", help="dynamic observer comparison")
    p.add_argument("--system", type=_file(load_system_json),
                   help="system JSON file with A, C and x0 (else: the surrogate)")
    cfg, attack = ScenarioConfig, ScenarioAttack
    p.add_argument("--steps", type=int, default=cfg.steps, help="trajectory length")
    p.add_argument("--T", type=int, default=cfg.T, help="moving-window length")
    p.add_argument("--attack-magnitude", dest="magnitude", type=float, default=attack.magnitude)
    p.add_argument("--attack-support", dest="support", type=_list_of(int),
                   help="explicit attacked sensors (else: the 30%% highest-gain)")
    p.add_argument("--seed", type=int, default=attack.seed, help="attack value seed")
    p.add_argument("--observers", type=_list_of(str), default=OBSERVERS)
    p.set_defaults(handler=_cmd_scenario)

    for p in subparsers.values():
        p.add_argument("--config", help="JSON file of option defaults; flags win")
        p.add_argument("--out", type=_file(_in_a_directory),
                       help="write the result here instead of stdout")
    return parser, subparsers


@functools.cache
def _parsers():
    """build_parser() and a parser that finds --config, built once per process and never mutated."""
    config = _Parser(add_help=False)
    config.add_argument("--config", type=_file(_read_json), default=argparse.SUPPRESS)
    return build_parser(), config


def parse_and_dispatch(argv=None) -> int:
    (parser, subparsers), config = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        found = config.parse_known_args(argv)[0]
        if "config" in found and argv[0] in subparsers:
            # the file's flags come first, so that the command line's win
            argv = argv[:1] + _config_flags(found.config, subparsers[argv[0]]) + argv[1:]
        args = parser.parse_args(argv)
        text = args.handler(args)
        _write_output(text, args.out)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError) as exc:
        return _fail(str(exc), 1)
    except EstimationError as exc:
        return _fail(str(exc), 2)


def main(argv=None) -> int:
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
