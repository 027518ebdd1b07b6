"""Hostile command lines for all six subcommands, and a table of rejected ones.

Whatever the flags hold, the CLI exits 0, 1 or 2 without a traceback, and a
result on stdout is strict JSON or a CSV whose numeric fields are finite.
Each hostile value alone is a result or a validation error (exit 0 or 1)
whose message names the flag, except the listed numerical failures.  Every
file flag, --config included, is also given a missing path, a directory and
malformed JSON, each CSV flag a cell that is not a number, and --out a path
in a missing directory and a directory.
Sizes stay small, so no example builds a large H or runs a long sweep, and
`--workers` never asks for a process pool.

`REJECTIONS` holds one row per command line that the CLI must reject: its
exit code, its message, and where the rejection must come before any run, the
function that must not be called.  A new rule is one more row, which
`test_each_rejection` runs under the row's id.
"""

import contextlib
import csv
import io
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_sse import EstimationError, build_horizon, cli, errors, gen_random_system
from resilient_sse.cli import build_parser, parse_and_dispatch

FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e308", "-1e-300", "x", "", "0.5", "0.9", "0.01", "2"]
SIZES = ["-1", "0", "1", "2", "x", "1.5"]
ROWS = ["", "0", "0,2", "0,1,2,3,4", "0,0", "-1", "99", "x", "0,,1"]
BAD_SYSTEMS = ["sys_object_entry", "sys_string", "sys_object_x0", "sys_bool_entry"]
BAD_PRUNE_INPUTS = ["pnan", "empty", "p_object", "prune_array", "seed_null", "seed_float"]


def command_line(name, base, overrides):
    """`name` with the valid options `base`, some replaced by `overrides`
    (None leaves the flag out).  Flags are written '--flag=value', so that
    argparse takes '-inf' as a value."""
    options = {**base, **dict(overrides)}
    return [name] + [f"--{k.replace('_', '-')}={v}" for k, v in options.items() if v is not None]


def command(name, base, hostile):
    """`name` with the valid options `base`, of which up to three are replaced
    by a value drawn from `hostile` (None leaves the flag out)."""
    keys = st.lists(st.sampled_from(sorted(hostile)), min_size=1, max_size=3, unique=True)
    return keys.flatmap(lambda ks: st.tuples(*(
        st.sampled_from([None] + hostile[k]).map(lambda v, k=k: (k, v)) for k in ks
    ))).map(lambda overrides: command_line(name, base, overrides))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("hostile")
    sys_ = gen_random_system(6, 2, np.random.default_rng(0))
    x = np.array([0.5, -1.0])
    docs = {"system": {"A": sys_.A.tolist(), "C": sys_.C.tolist(), "x0": x.tolist()},
            "x": x.tolist(), "ynan": [float("nan")] * 6, "ybig": [1e308, -1e308] * 3,
            "yshort": [1.0], "prior": {"p": [0.9, 0.8, 0.99], "q_hat": [1, 0, 1]},
            "sampled": {"p": [0.9, 0.8, 0.99], "q": [1, 0, 1], "seed": 3},
            "pnan": {"p": [float("nan"), 0.8], "q_hat": [1, 1]}, "empty": {}}
    good, nan = docs["system"], float("nan")
    small = {"A": [[0.5, 0.0], [0.0, 0.4]], "C": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
             "x0": [1.0, -1.0]}
    # a full-rank H whose cold start is a Kahan-type block: L unit lower-triangular
    # with -1e3 below the diagonal, whose inverse is not finite
    L = np.eye(120) + np.tril(np.full((120, 120), -1e3), -1)
    k = np.arange(1.0, 121)
    docs.update({
        "sys_object_entry": {**good, "A": [[{}]]}, "sys_string": "A C",
        "sys_object_x0": {**good, "x0": {"a": 1}},
        "sys_bool_entry": {**good, "A": [[True, False], [False, True]]},
        "sys_numeric_string": {**small, "C": [[1, "0.5"], [0, 1], [1, 1]]},
        "sys_int_beyond_float": {**small, "A": [[10**400, 0], [0, 0.4]]},
        "sys_x0_length": {**small, "x0": [1.0, -1.0, 0.0]}, "sys_empty_A": {**small, "A": []},
        "sys_no_x0": {"A": small["A"], "C": small["C"]},
        "sys_nan_A": {**small, "A": [[0.5, nan], [0.0, 0.4]]},
        "sys_nan_C": {**small, "C": [[1.0, nan], [0.0, 1.0], [1.0, 1.0]]},
        "sys_nan_x0": {**small, "x0": [1.0, nan]},
        "sys_unobservable": {"A": np.eye(3).tolist(), "C": [[1, 0, 0], [2, 0, 0], [0, 1, 0],
                                                            [0, 2, 0]]},
        "sys_kahan": {"A": (0.5 * np.eye(120)).tolist(),
                      "C": np.vstack([L, 0.5 * np.eye(120)]).tolist()},
        "y_kahan": np.concatenate([k, -2 * L.T @ k]).tolist(),
        # sigma_min / sigma_max of H about 4e-12: no model
        "sys_band": {"A": [[0, 1], [-1, 0]], "C": [[1, 1.000000000008], [1, 0.999999999992]] * 2},
        # A's 1e30 mode passes the largest float within 20 steps whatever the attack
        "sys_unstable": {"A": [[1e30, 0], [0, 0.5]], "C": [[1, 0], [0, 1], [1, 1]], "x0": [1, 1]},
        # a finite trajectory whose rows * max|y| bound passes the largest float
        "sys_huge_x0": {**small, "x0": [1e308, 0.0]},
        "sys_power": {"A": (1e200 * np.eye(3)).tolist(), "C": [[1, 0, 0]]},
        # H's entries are finite for T=3, but its singular values are not
        "sys_big_modes": {"A": [[1.2e154, 0], [0, 1.2e154]], "C": [[1, 1], [1, -1], [1, 0]]},
        # an unbounded attack on rows 0 and 2, and plants whose estimates overflow
        "sys_tilted": {"A": small["A"], "C": [[1, 0], [1e-12, 1], [1, 1e-12], [1e-300, 1e-300]]},
        "sys_gain3": {"A": small["A"], "C": [[1, 0], [0, 1], [3, 3]]},
        "sys_scalar": {"A": [[0.5]], "C": [[1], [1], [1], [1]]},
        "y_8e307": [8e307] * 3, "y_opposed": [1e308, -1e308, -1e308], "y_subnormal": [5e-324, 0, 0],
        "y_huge_tail": [0, 1e308, 1e308, 1e308], "y_123": [1, 2, 3], "x_far": [-1.7e308, 1.7e308],
        "y_object": {"y": [1.0, 2.0]}, "y_nested": [[1.0], [2.0]], "y_bool": [1.0, True],
        "y_null": [1.0, None], "y_string": "1.0", "y_zeros4": [0.0] * 4,
        "y_zeros9": [0.0] * 9, "y_zeros10": [0.0] * 10, "y_nan10": [nan] + [0.0] * 9, "x_short": [0.5],
        "p_object": {"p": {"a": 1}, "q_hat": [1]}, "prune_array": ["p"], "p_missing": {"q_hat": [1]},
        "cfg_list": [1], "cfg_bogus": {"bogus": 1}, "cfg_bool": {"trials": True},
        "seed_null": {**docs["sampled"], "seed": None},
        "seed_float": {**docs["sampled"], "seed": 1.7},
        "half_label": {"p": [0.9, 0.8], "q_hat": [0.5, 1]},
        "q_hat_p_lengths": {"p": [0.9, 0.8, 0.7], "q_hat": [1, 0]},
        "q_p_lengths": {"p": [0.9, 0.8, 0.7], "q": [1, 0], "seed": 1},
        "q_q_hat_lengths": {"p": [0.9, 0.8], "q_hat": [1, 0], "q": [1, 0, 1]},
        "empty_q_hat": {"p": [], "q_hat": []}, "empty_sampled": {"p": [], "q": [], "seed": 1},
    })
    for T in (1, 2):
        docs[f"y{T}"] = (build_horizon(sys_, T).H @ x).tolist()
    out = {}
    for name, doc in docs.items():
        out[name] = str(root / f"{name}.json")
        with open(out[name], "w") as fh:
            json.dump(doc, fh)
    # the system as a CSV pair, and pairs whose halves are fine alone but do not fit
    csvs = {"sys_A.csv": sys_.A, "sys_C.csv": sys_.C, "wide_A.csv": np.eye(2, 3),
            "wide_C.csv": np.eye(6, 3), "nan_A.csv": docs["sys_nan_A"]["A"],
            "nan_C.csv": docs["sys_nan_C"]["C"]}
    for name, rows in csvs.items():
        (root / name).write_text("".join(",".join(map(repr, row)) + "\n"
                                         for row in np.asarray(rows).tolist()))
    # broken files, named so that no path holds a flag's name
    (root / "folder").mkdir()
    (root / "garbled.json").write_text("{'a': 1}")
    (root / "cells.csv").write_text("1,x\n0,1\n")
    out.update({k: str(root / k) for k in ("absent.json", "folder", "garbled.json", "cells.csv",
                                           *csvs)})
    out["gone"] = str(root / "gone" / "result.json")  # in a directory that does not exist
    out["under_a_file"] = str(root / "x.json" / "result.json")  # x.json is a file
    out["surrogate"] = str(Path(cli.__file__).parent / "data" / "surrogate.json")
    return out


def tables(files):
    """(subcommand, valid options, hostile values per flag) for all six."""
    system = files["system"]
    broken = [files[k] for k in ("absent.json", "folder", "garbled.json")]
    cells = broken + [files["cells.csv"]]
    systems = [system] + [files[k] for k in BAD_SYSTEMS] + broken
    system_a, system_c = cells + [files["wide_A.csv"]], cells + [files["wide_C.csv"]]
    windows = [files[k] for k in ("y1", "y2", "ynan", "ybig", "yshort")] + cells
    table = [
        ("attack", dict(system=system, T=1, epsilon=0.5, support="0"), dict(
            system=systems, system_a=system_a, system_c=system_c, T=SIZES, epsilon=FLOATS,
            support=ROWS, fraction=FLOATS, seed=["0", "-1", "x"])),
        ("estimate", dict(system=system, T=1, y=files["y1"]), dict(
            system=systems, system_a=system_a, system_c=system_c, T=SIZES, y=windows,
            omega=FLOATS, safe=ROWS, epsilon=FLOATS, x_true=[files["x"]] + cells)),
        ("prune", dict(input=files["prior"], eta=0.9), dict(
            input=[files[k] for k in ["sampled"] + BAD_PRUNE_INPUTS] + broken, eta=FLOATS,
            strategy=["product", "quantile", "bogus"])),
        # rip reads its system as a CSV pair, so that each half can be one that does not fit
        ("rip", dict(system_a=files["sys_A.csv"], system_c=files["sys_C.csv"], T=1, S=2), dict(
            system=systems, system_a=system_a, system_c=system_c, T=SIZES, S=SIZES + ["3", "99"],
            budget=SIZES + ["5", "100"], seed=["0", "-1"])),
        ("sweep", dict(m=6, n=2, trials=2, grid="0.0,0.3"), dict(
            m=SIZES + ["3", "6"], n=SIZES, T=SIZES, trials=SIZES,
            grid=["0.0", "0.3", "0.2,0.5", "nan", "1", "-0.1", "", "x"],
            true_rate=FLOATS, jitter=FLOATS, eta=FLOATS, omega=FLOATS,
            epsilon_policy=["rel:0.01", "abs:1", "rel:nan", "abs:inf", "rel:-1", "pct:1", "rel",
                            "", "abs:1e200", "rel:1e308", "abs:1e308"],
            strategies=["none", "prior,pruned_quantile", "pruned_product", "bogus", ""],
            seed=["0", "-1", "x"], workers=["-1", "0", "1"],
            format=["csv", "json", "xml"])),
        ("scenario", dict(steps=8, T=2), dict(
            system=systems, steps=SIZES + ["3", "8"], T=SIZES + ["3"],
            attack_magnitude=FLOATS, attack_support=ROWS,
            seed=["0", "-1"], observers=["LO,L1O,WL1P", "LO", "L1O", "WL1P", "bogus", ""])),
    ]
    for _, _, hostile in table:
        hostile.update(config=broken, out=[files["gone"], files["folder"]])
    return table


def command_lines(files):
    return st.one_of(*(command(*table) for table in tables(files)))


def _no_constant(name):
    raise ValueError(f"non-finite constant {name} in JSON output")


def check_output(argv, out):
    if argv[0] == "sweep" and "--format=json" not in argv:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows and rows[0][0] == "attack_fraction"
        for row in rows[1:]:
            for field in row:
                try:
                    value = float(field)
                except ValueError:
                    continue  # the strategy name
                assert math.isfinite(value), (field, row)
    else:
        json.loads(out, parse_constant=_no_constant)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_hostile_command_lines_exit_cleanly(files, data):
    argv = data.draw(command_lines(files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_dispatch(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        check_output(argv, out.getvalue())
    else:
        assert out.getvalue() == "", argv


# The values that alone fail numerically, not as validation errors: a
# magnitude of 1e308 lets the attacked measurements overflow, which shows
# only once the run is simulated, and a budget of 1e200 lets the attacked
# estimates' errors overflow, which shows only once they are graded.  Each
# maps to what its stderr must hold: the message is all that names a failure.
NUMERICAL_FAILURES = {("scenario", "attack_magnitude", "1e308"): "attacked measurements overflow",
                      ("sweep", "epsilon_policy", "abs:1e200"): "mean error overflows"}

# A data file's validation error may name the field it rejects, not the flag.
FILE_FIELDS = {"system": ("A", "C", "x0"), "input": ("'p'", "q_hat", "'q'", "'seed'")}


def names_of(subparser, flag):
    """What an exit-1 message about `flag` may name: the flag, with or without
    its dashes, its dest (as written or in words), or a field of its file."""
    dest = subparser._option_string_actions["--" + flag.replace("_", "-")].dest
    return {flag.replace("_", "-"), dest, dest.replace("_", " "), *FILE_FIELDS.get(flag, ())}


def names_any(message, names):
    """Whether `message` holds one of `names` as a whole token, dashes and all:
    'n' is not found in 'dimensions', nor 'support' in '--attack-support'."""
    return any(re.search(rf"(?<![\w-])(?:--)?{re.escape(name)}(?![\w-])", message)
               for name in names)


def test_each_hostile_value_alone_exits_cleanly(files):
    # every value of the tables above, one flag at a time: a result or a
    # validation error that names the flag, except the numerical failures
    # listed above
    subparsers = build_parser()[1]
    for name, base, hostile in tables(files):
        for flag, values in hostile.items():
            names = names_of(subparsers[name], flag)
            for value in [None] + values:
                line = command_line(name, base, [(flag, value)])
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = parse_and_dispatch(line)
                expected = (2,) if (name, flag, value) in NUMERICAL_FAILURES else (0, 1)
                assert code in expected, (line, code, err.getvalue())
                assert "Traceback" not in err.getvalue()
                if code == 2:
                    assert NUMERICAL_FAILURES[name, flag, value] in err.getvalue(), line
                if code == 0:
                    check_output(line, out.getvalue())
                else:
                    assert out.getvalue() == "", line
                if code == 1:
                    # a path such as .../system.json would name --system by itself
                    message = err.getvalue()
                    for path in set(files.values()) & {arg.partition("=")[2] for arg in line}:
                        message = message.replace(path, "")
                    assert names_any(message, names), (line, err.getvalue())


def test_a_numerical_failure_is_one_class_named_by_its_message():
    # exit 2 is an EstimationError, and no subclass tells failures apart: only the message does
    assert EstimationError.__subclasses__() == []
    assert [v for v in vars(errors).values() if isinstance(v, type)] == [EstimationError]


def row(name, line, code, message, absent=None, never=None):
    """A command line that the CLI rejects, run by test_each_rejection: its exit code, its
    message, text it must not hold, and the function (module.name) that must not run before it.

    A message that begins with 'error: ' begins stderr (with its newline, it is all of
    it); any other is found in it.  A word of the line that is a key of `files` is that
    file, and the message names the file by its key."""
    return pytest.param((shlex.split(line), code, message, absent, never), id=name)


ESTIMATE, RIP = "estimate --system system", "rip --system system"
ATTACK = "attack --system system --epsilon"
SCENARIO_SYSTEM, SWEEP = "scenario --steps 5 --T 1 --system", "sweep --m 6 --n 2 --trials 2 --grid"
PAIR = "error: provide --system (JSON) or both --system-a and --system-c (CSV)\n"
T_0 = "error: window length T must be >= 1, got 0\n"
DRAW, CERTIFY = "experiments.draw_instance", "experiments._certify_all"
SIMULATE, SCENARIO = "experiments.simulate", "cli.run_scenario"

REJECTIONS = [
    row("prune-eta-1.5", "prune --input prior --eta 1.5", 1,
        "error: eta must lie in (0, 1), got 1.5\n"),
    row("prune-nan-confidence", "prune --input pnan --eta 0.5", 1, "(0, 1]"),
    row("prune-no-p", "prune --input p_missing --eta 0.5", 1,
        "error: prune input needs a confidence vector 'p'\n", never="cli.prune_product"),
    *(row(name, f"prune --input {key} --eta 0.5", 1, message) for name, key, message in [
        ("object-p", "p_object", "'p' in (0, 1] must be a flat JSON list"),
        ("array", "prune_array", "must hold a JSON object"),
        ("null-seed", "seed_null", "integer 'seed'"),
        ("float-seed", "seed_float", "integer 'seed'"),
        ("half-label", "half_label", "0 or 1"),
        ("q_hat-p-lengths", "q_hat_p_lengths", "must be equal-length vectors"),
        ("q-p-lengths", "q_p_lengths", "confidence vector has length 3, expected 2"),
        ("q-q_hat-lengths", "q_q_hat_lengths", "estimate has length 2, expected 3")]),
    *(row(f"prune-empty-{prior}-{strategy}",
          f"prune --input empty_{prior} --eta 0.5 --strategy {strategy}", 1,
          "error: a prior needs at least one row\n")
      for prior in ("q_hat", "sampled") for strategy in ("product", "quantile")),
    row("sweep-unknown-flag", "sweep --frobnicate 3", 1,
        "error: unrecognized arguments: --frobnicate 3\n"),
    *(row(f"sweep-config-{name}", f"sweep --config {key}", 1, message, never=DRAW)
      for name, key, message in [
        ("list", "cfg_list", "error: config file must hold a JSON object\n"),
        ("bogus-key", "cfg_bogus", "error: config key 'bogus' is not an option of this subcommand\n"),
        ("bool-value", "cfg_bool", "error: config key 'trials': expected a string or a number, got True\n")]),
    # system files
    *(row(f"json-{field}", f"{SCENARIO_SYSTEM} sys_nan_{field}", 1, f"{field} must be finite")
      for field in ("A", "C", "x0")),
    row("csv-A", "rip --S 1 --T 1 --system-a nan_A.csv --system-c sys_C.csv", 1,
        "A.csv must be finite"),
    row("csv-C", "rip --S 1 --T 1 --system-a sys_A.csv --system-c nan_C.csv", 1,
        "C.csv must be finite"),
    *(row(name, f"{SCENARIO_SYSTEM} {key}", 1, message) for name, key, message in [
        ("object-entry", "sys_object_entry", "A must be a list of rows of numbers"),
        ("string", "sys_string", "must hold a JSON object"),
        ("object-x0", "sys_object_x0", "x0 must be a flat JSON list"),
        ("bool-entry", "sys_bool_entry", "A must be a list of rows of numbers"),
        ("numeric-string", "sys_numeric_string", "C must be a list of rows of numbers"),
        ("int-beyond-float", "sys_int_beyond_float", "A must be finite"),
        ("x0-length", "sys_x0_length", "x0 has length 3, expected 2"),
        ("empty-A", "sys_empty_A", "A: empty matrix"),
        ("no-x0", "sys_no_x0", "scenario needs an x0 entry in the system file")]),
    row("rip-pair-C-too-wide", "rip --system-a sys_A.csv --system-c wide_C.csv --S 1", 1,
        "error: argument --system-a/--system-c: C has 3 columns but the state dimension is 2\n"),
    row("rip-pair-A-not-square", "rip --system-a wide_A.csv --system-c sys_C.csv --S 1", 1,
        "error: argument --system-a/--system-c: A must be square, got shape (2, 3)\n"),
    *(row(f"scenario-half-pair-{flag[2:]}", f"scenario --steps 8 {flag} sys_A.csv", 1,
          f"error: unrecognized arguments: {flag}") for flag in ("--system-a", "--system-c")),
    *(row(f"half-pair-{flag[2:]}-{command.split()[0]}", f"{command} {flag} sys_A.csv", 1, PAIR)
      for flag in ("--system-a", "--system-c")
      for command in ("rip --S 1", "estimate --y yshort", "attack --epsilon 0.5 --fraction 0.3")),
    # estimate
    row("estimate-nan-window", f"{ESTIMATE} --y ynan", 1, "finite"),
    row("estimate-nan-window-surrogate", "estimate --system surrogate --y y_nan10", 1, "--y"),
    *(row(f"estimate-window-{kind}", f"{ESTIMATE} --y y_{kind}", 1, "flat JSON list")
      for kind in ("object", "nested", "bool", "null", "string")),
    row("estimate-window-too-large", f"{ESTIMATE} --y ybig", 1, "too large"),
    # sum(w) max|y| is finite, but the objective, or the minimizer itself, is not
    row("estimate-objective-overflows",
        "estimate --system sys_gain3 --safe 0,1 --omega 1e-3 --y y_8e307", 1,
        "error: y is too large for the scale of A (max|A| 3.000e+00): the solution or its "
        "objective overflows\n"),
    row("estimate-minimizer-overflows", "estimate --system sys_no_x0 --safe 0 --y y_opposed", 1,
        "error: y is too large for the scale of A (max|A| 1.000e+00): the solution or its "
        "objective overflows\n"),
    row("estimate-subnormal-window", "estimate --system sys_no_x0 --y y_subnormal", 1,
        "error: y is too small to certify: max|y| 4.941e-324 is subnormal\n"),
    # the weighted objective is finite, the unweighted fields are not
    row("estimate-residual-l1-overflows",
        "estimate --system sys_scalar --safe 0 --omega 1e-3 --y y_huge_tail", 1,
        "error: residual_l1 is beyond the largest float\n"),
    row("estimate-error-l2-overflows", "estimate --system sys_no_x0 --y y_123 --x-true x_far", 1,
        "error: error_l2 is beyond the largest float\n"),
    row("estimate-y-length", f"{ESTIMATE} --T 2 --y y1", 1,
        "--y holds 6 entries, but --T 2 asks for T*m = 12 rows", absent="shape mismatch"),
    # checked before the model is built, whose H would hold 2,000,000 rows
    row("estimate-y-length-before-the-model", "estimate --system surrogate --y y_zeros10 --T 200000", 1,
        "error: --y holds 10 entries, but --T 200000 asks for T*m = 2000000 rows\n",
        never="cli.build_horizon"),
    # so is each flag that depends only on its own value, n or T*m, before --y's length
    *(row(f"estimate-{name}-before-the-model",
          f"estimate --system surrogate --y y_zeros10 {flags} --T 200000", 1, message,
          never="cli.build_horizon") for name, flags, message in [
        ("epsilon", "--epsilon -1", "error: epsilon must be positive, got -1.0\n"),
        ("safe", "--safe 2000005", "error: --safe rows must lie in [0, 2000000)\n"),
        ("omega-0", "--omega 0 --safe 0", "error: --omega 0 needs at least 5 distinct --safe rows, got 1\n"),
        ("x-true", "--x-true x", "error: x_true has shape (2,), expected (5,)\n")]),
    row("estimate-x-true-length", f"{ESTIMATE} --y y1 --x-true x_short", 1, "x_true"),
    row("estimate-x-true-length-surrogate",
        "estimate --system surrogate --y y_zeros10 --x-true x", 1, "x_true"),
    *(row(f"estimate-omega-{omega}", f"{ESTIMATE} --y y1 --omega {omega}", 1,
          "omega must lie in [0, 1]") for omega in ("2", "-0.5", "nan")),
    row("estimate-omega-0-too-few-safe",
        "estimate --system surrogate --y y_zeros10 --omega 0 --safe 0", 1,
        "error: --omega 0 needs at least 5 distinct --safe rows, got 1\n",
        never="cli.weighted_observer"),
    # detect checks epsilon too, after the solve: the up-front check runs no solve
    row("estimate-epsilon-0", f"{ESTIMATE} --y y1 --epsilon 0", 1,
        "error: epsilon must be positive, got 0.0\n", never="cli.decode"),
    row("estimate-unobservable", "estimate --system sys_unobservable --y y_zeros4", 2,
        "error: observability rank 2 < n = 3\n"),
    row("estimate-kahan-start", "estimate --system sys_kahan --y y_kahan --T 1", 2,
        "the cold start's 120 rows of a full-rank A have no finite inverse",
        absent="rank deficient"),
    row("attack-near-singular-H", "attack --system sys_band --epsilon 0.5 --support 0", 2,
        "H is rank deficient for T=1"),
    row("estimate-observability-overflows", "estimate --system sys_power --y yshort --T 1", 1,
        "error: the observability matrix is not finite: A's powers overflow\n"),
    row("estimate-window-overflows", "estimate --system sys_power --y y_123 --T 3", 1,
        "error: H is not finite for T=3: the window's powers of A overflow\n"),
    row("estimate-singular-values-overflow", "estimate --system sys_big_modes --y y_zeros9 --T 3", 1,
        "error: H's singular values overflow for T=3: A's powers are too large\n"),
    # a window shorter than one step would otherwise be read as the T 1 one
    row("estimate-T-0", f"{ESTIMATE} --y y1 --T 0", 1, T_0),
    row("attack-T-0", f"{ATTACK} 0.5 --support 0 --T 0", 1, T_0),
    row("rip-T-0", f"{RIP} --S 2 --T 0", 1, T_0),
    row("rip-S-before-the-model", "rip --system surrogate --S 0 --T 200000", 1,
        "error: S must lie in [1, 2000000], got 0\n", never="cli.build_horizon"),
    row("rip-budget-before-the-model", "rip --system surrogate --S 1 --budget 0 --T 200000", 1,
        "error: support budget must be >= 1, got 0\n", never="cli.build_horizon"),
    # attack
    row("attack-no-support", f"{ATTACK} 0.5", 1, "error: provide --support or --fraction\n",
        never="cli.synthesize_fdia"),
    # an index beyond int64 is an integer out of range, not a fraction
    row("attack-support-beyond-int64", f"{ATTACK} 0.5 --support 0,99999999999999999999", 1,
        "error: support indices must lie in [0, 6)\n"),
    # checked before the model, whose H would hold 2,000,000 rows
    *(row(f"attack-{name}-before-the-model", f"attack --system surrogate --epsilon 0.5 {flag} --T 200000",
          1, message, never="cli.build_horizon") for name, flag, message in [
        ("support", "--support 99999999", "error: support indices must lie in [0, 2000000)\n"),
        ("fraction", "--fraction 2", "error: attack fraction must lie in [0, 1), got 2.0\n")]),
    *(row(f"attack-epsilon-{name}-before-the-model",
          f"attack --system surrogate --epsilon {eps} --support 0 --T 200000", 1,
          f"error: epsilon must be finite and nonnegative, got {eps}\n", never="cli.build_horizon")
      for name, eps in [("negative", "-1.0"), ("nan", "nan")]),
    *(row(f"attack-epsilon-{eps}", f"{ATTACK} {eps} --support 0", 1, "epsilon")
      for eps in ("inf", "nan")),
    # the unbounded attack's magnitude cap is a constant: no value of --cap-factor is a flag
    *(row(f"attack-cap-factor-{cap}", f"{ATTACK} 1.0 --support 0,1,2,3,4 --cap-factor {cap}", 1,
          f"error: unrecognized arguments: --cap-factor {cap}\n") for cap in ("inf", "nan", "0", "-1")),
    # 1e3 epsilon overflows; each row of e_T is at most the seed's magnitude
    row("attack-epsilon-overflows", "attack --system sys_tilted --epsilon 1e306 --support 0,2", 1,
        "error: epsilon 1e+306 gives no finite attack on this support: its magnitude or its bias "
        "bound alpha is not finite\n"),
    # seeds: numpy's own "expected non-negative integer" names no flag
    *(row(name, f"{line} --seed -1", 1, f"{named} must be >= 0, got -1", absent="non-negative")
      for name, line, named in [
        ("sweep", "sweep --trials 1 --grid 0.3", "master seed"),
        ("sweep-2-trials", "sweep --trials 2 --grid 0.3", "master seed"),
        ("scenario-attack", "scenario --steps 8", "attack seed"),
        ("rip", f"{RIP} --S 1", "--seed"),
        ("attack", f"{ATTACK} 0.5 --fraction 0.3", "--seed")]),
    # the localization prior's seed is a constant: no value of --prior-seed is a flag
    row("scenario-prior", "scenario --steps 8 --prior-seed -1", 1,
        "error: unrecognized arguments: --prior-seed -1\n", absent="non-negative"),
    # sweep
    *(row(f"sweep-jitter-{jitter}", f"{SWEEP} 0.2 --jitter {jitter}", 1, "jitter")
      for jitter in ("nan", "inf")),
    *(row(f"{flag}-{value}", f"{SWEEP} 0.0 {flag} {value}", 1, flag[2:].replace("-", " "),
          never=DRAW)  # grid 0.0 draws no attack
      for flag, value in [("--epsilon-policy", "rel:nan"), ("--epsilon-policy", "abs:inf"),
                          ("--workers", "0")]),
    # the random systems' spectral radius is a constant: no value of it is a flag
    *(row(f"--spectral-radius-{value}", f"{SWEEP} 0.0 --spectral-radius {value}", 1,
          f"error: unrecognized arguments: --spectral-radius {value}\n", never=DRAW)
      for value in ("nan", "inf")),
    row("sweep-omega-0-weighted",
        "sweep --omega 0 --trials 3 --grid 0.3 --strategies none,pruned_product", 1,
        "omega must be positive", never=DRAW),
    *(row(f"sweep-{name}", f"sweep {line}", 1, message, never=DRAW)
      for name, line, message in [
        ("true-rate", "--true-rate 0 --trials 2 --grid 0.3", "true rate"),
        ("jitter", "--jitter -1 --trials 2 --grid 0.3", "jitter"),
        ("jitter-too-wide", "--jitter 1e308 --trials 1", "jitter"),
        ("jitter-too-wide-2-trials", "--jitter 1e308 --trials 2 --grid 0.3", "jitter"),
        # n below 1 is checked with the m > n rule, without numpy's message
        ("n-0", "--n 0 --trials 2 --grid 0.3", "n=0"),
        ("n-negative", "--n -1 --trials 2 --grid 0.3", "n=-1")]),
    # SweepConfig checks T, so no pool is forked and no instance drawn
    *(row(f"sweep-T-0-workers-{workers}", f"{SWEEP} 0.3 --T 0 --workers {workers}", 1, T_0,
          never=DRAW) for workers in (1, 2)),
    # so neither is a radius that made H or its singular values overflow: the estimate rows
    # estimate-window-overflows and estimate-singular-values-overflow reach those messages
    row("sweep-window-overflows", "sweep --trials 2 --grid 0.3 --T 40 --spectral-radius 1e10", 1,
        "error: unrecognized arguments: --spectral-radius 1e10\n", never=DRAW),
    row("sweep-singular-values-overflow", f"{SWEEP} 0.3 --T 3 --spectral-radius 1e154", 1,
        "error: unrecognized arguments: --spectral-radius 1e154\n", never=DRAW),
    # an attack beyond the largest float names the policy too
    row("sweep-attack-overflows", "sweep --m 6 --n 2 --trials 20 --grid 0.6 --epsilon-policy abs:1.7e308",
        1, "error: epsilon policy abs:1.7e308: epsilon 1.7e+308 gives no finite attack", never=CERTIFY),
    row("sweep-out-missing-directory", "sweep --trials 300 --grid 0.3 --out gone", 1,
        "error: argument --out: gone: No such file or directory\n", never=DRAW),
    row("sweep-out-under-a-file", "sweep --trials 300 --grid 0.3 --out under_a_file", 1,
        "error: argument --out: under_a_file: Not a directory\n", never=DRAW),
    # scenario
    # the scenario's confidence model is a constant: no value of it is a flag
    *(row(f"scenario-{name}", f"scenario --steps 8 {line}", 1,
          f"error: unrecognized arguments: {line}\n", never=SCENARIO)
      for name, line in [("true-rate", "--true-rate 1.5"), ("jitter", "--jitter -1"),
                         ("jitter-too-wide", "--jitter 1e308")]),
    row("scenario-magnitude-nan", "scenario --steps 12 --T 2 --attack-magnitude nan", 1,
        "magnitude", never=SCENARIO),
    row("scenario-T-0", "scenario --T 0 --steps 8", 1, "error: T must be >= 1, got 0\n",
        never=SIMULATE),
    row("scenario-steps-below-T", "scenario --steps 2 --T 3", 1,
        "error: need steps >= T, got steps=2, T=3\n", never=SIMULATE),
    # the default attack and the one localization prior are fixed: --attack-support sets any other
    *(row(f"scenario-{flag}", f"scenario --steps 8 --{flag} {value}", 1,
          f"error: unrecognized arguments: --{flag} {value}\n", never=SIMULATE)
      for flag, value in [("attack-fraction", "0.3"), ("prior-mode", "static"), ("eta", "0.5"),
                          ("omega", "0")]),
    # the attacked measurements or the squared errors overflow, whichever observers run
    *(row(f"{magnitude}-{observers}", f"scenario --steps 8 --attack-magnitude {magnitude}"
          + (f" --observers {observers}" if observers else ""), 2, "overflow")
      for magnitude, observers in [("1e308", "LO"), ("1e200", "LO"), ("1e200", "L1O"),
                                   ("1e308", "L1O"), ("1e308", "WL1P"), ("1e308", None)]),
    row("scenario-plant-overflows",
        "scenario --steps 20 --T 2 --attack-magnitude 0.001 --system sys_unstable", 1,
        "error: the plant's trajectory overflows within 20 steps\n"),
    row("scenario-plant-too-large", "scenario --steps 8 --T 2 --system sys_huge_x0", 1,
        "error: the clean measurements are too large to certify within --steps 8\n",
        never=CERTIFY),
    row("scenario-attack-overflows", "scenario --steps 20 --T 2 --attack-magnitude 1e308", 2,
        "error: attacked measurements overflow at attack magnitude 1e+308\n"),
    # list flags
    *(row(name, line, 1, f"error: argument {line.split()[-2]}: must be comma-separated")
      for name, line in [("attack-support", f"{ATTACK} 0.4 --support 0,,1"),
                         ("estimate-safe", f"{ESTIMATE} --y y1 --safe 1,x"),
                         ("scenario-attack-support", "scenario --steps 8 --attack-support 0,,1"),
                         ("sweep-grid", "sweep --grid 0.3,x"),
                         ("sweep-grid-blank", "sweep --grid 0.1,,0.3"),
                         ("estimate-safe-blank", f"{ESTIMATE} --y y1 --safe 1,,2"),
                         ("sweep-strategies-blank", "sweep --strategies none,,prior"),
                         ("scenario-observers-blank", "scenario --steps 8 --observers LO,")]),
    row("empty-list-sweep-grid", "sweep --grid ''", 1,
        "attack grid and strategies must each hold at least one entry"),
    row("empty-list-sweep-strategies", "sweep --strategies ' '", 1,
        "attack grid and strategies must each hold at least one"),
    row("empty-list-scenario-observers", "scenario --steps 8 --observers ''", 1,
        "observers must hold at least one"),
    row("repeated-sweep-grid", "sweep --grid 0.3,0.30", 1,
        "error: attack fraction 0.3 is listed twice\n", never=DRAW),
    row("repeated-sweep-strategies", "sweep --strategies none,prior,none", 1,
        "error: strategy 'none' is listed twice\n", never=DRAW),
    row("repeated-scenario-observers", "scenario --steps 8 --observers LO,WL1P,LO", 1,
        "error: observer 'LO' is listed twice\n", never=SIMULATE),
]
# pytest would run a repeated id as <id>0, <id>1, ..., and a mutant's killer named by it would not run
IDS = [param.id for param in REJECTIONS]
assert len(set(IDS)) == len(IDS), sorted({i for i in IDS if IDS.count(i) > 1})


@pytest.mark.parametrize("row", REJECTIONS)
def test_each_rejection(files, monkeypatch, row):
    """Run a row: one line on stderr and nothing on stdout, with every warning an error."""
    line, code, message, absent, never = row
    if never:
        def no_call(*args, **kwargs):
            raise AssertionError(f"{never} ran before the command line was rejected")

        monkeypatch.setattr(f"resilient_sse.{never}", no_call)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        got = parse_and_dispatch([files.get(word, word) for word in line])
    err = err.getvalue()
    for word in set(line) & set(files):
        err = err.replace(files[word], word)
    assert (got, out.getvalue()) == (code, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    assert err.startswith(message) if message.startswith("error: ") else message in err, err
    assert absent is None or absent not in err, err
