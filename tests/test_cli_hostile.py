"""Hostile command lines for all six subcommands.

Whatever the flags hold, the CLI exits 0, 1 or 2 without a traceback, and a
result on stdout is strict JSON or a CSV whose numeric fields are finite.
Each hostile value alone is a result or a validation error (exit 0 or 1)
whose message names the flag, except one listed numerical failure.  Every
file flag, --config included, is also given a missing path, a directory and
malformed JSON, each CSV flag a cell that is not a number, and --out a path
in a missing directory and a directory.
Sizes stay small, so no example builds a large H or runs a long sweep, and
`--workers` never asks for a process pool.
"""

import contextlib
import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resilient_sse import build_horizon, gen_random_system
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
    good = docs["system"]
    docs.update({
        "sys_object_entry": {**good, "A": [[{}]]}, "sys_string": "A C",
        "sys_object_x0": {**good, "x0": {"a": 1}},
        "sys_bool_entry": {**good, "A": [[True, False], [False, True]]},
        "p_object": {"p": {"a": 1}, "q_hat": [1]}, "prune_array": ["p"],
        "seed_null": {**docs["sampled"], "seed": None},
        "seed_float": {**docs["sampled"], "seed": 1.7},
    })
    for T in (1, 2):
        docs[f"y{T}"] = (build_horizon(sys_, T).H @ x).tolist()
    out = {}
    for name, doc in docs.items():
        out[name] = str(root / f"{name}.json")
        with open(out[name], "w") as fh:
            json.dump(doc, fh)
    # broken files, named so that no path holds a flag's name
    (root / "folder").mkdir()
    (root / "garbled.json").write_text("{'a': 1}")
    (root / "cells.csv").write_text("1,x\n0,1\n")
    out.update({k: str(root / k) for k in ("absent.json", "folder", "garbled.json", "cells.csv")})
    out["gone"] = str(root / "gone" / "result.json")  # in a directory that does not exist
    return out


def tables(files):
    """(subcommand, valid options, hostile values per flag) for all six."""
    system = files["system"]
    broken = [files[k] for k in ("absent.json", "folder", "garbled.json")]
    cells = broken + [files["cells.csv"]]
    systems = [system] + [files[k] for k in BAD_SYSTEMS] + broken
    windows = [files[k] for k in ("y1", "y2", "ynan", "ybig", "yshort")] + cells
    table = [
        ("attack", dict(system=system, T=1, epsilon=0.5, support="0"), dict(
            system=systems, system_a=cells, system_c=cells, T=SIZES, epsilon=FLOATS,
            support=ROWS, fraction=FLOATS, seed=["0", "-1", "x"], cap_factor=FLOATS)),
        ("estimate", dict(system=system, T=1, y=files["y1"]), dict(
            system=systems, system_a=cells, system_c=cells, T=SIZES, y=windows, omega=FLOATS,
            safe=ROWS, epsilon=FLOATS, x_true=[files["x"]] + cells)),
        ("prune", dict(input=files["prior"], eta=0.9), dict(
            input=[files[k] for k in ["sampled"] + BAD_PRUNE_INPUTS] + broken, eta=FLOATS,
            strategy=["product", "quantile", "bogus"])),
        ("rip", dict(system=system, T=1, S=2), dict(
            system=systems, system_a=cells, system_c=cells, T=SIZES, S=SIZES + ["3", "99"],
            budget=SIZES + ["5", "100"], seed=["0", "-1"])),
        ("sweep", dict(m=6, n=2, trials=2, grid="0.0,0.3"), dict(
            m=SIZES + ["3", "6"], n=SIZES, T=SIZES, trials=SIZES,
            grid=["0.0", "0.3", "0.2,0.5", "nan", "1", "-0.1", "", "x"],
            true_rate=FLOATS, jitter=FLOATS, eta=FLOATS, omega=FLOATS,
            epsilon_policy=["rel:0.01", "abs:1", "rel:nan", "abs:inf", "rel:-1", "pct:1", "rel",
                            ""],
            strategies=["none", "prior,pruned_quantile", "pruned_product", "bogus", ""],
            seed=["0", "-1", "x"], spectral_radius=FLOATS, workers=["-1", "0", "1"],
            format=["csv", "json", "xml"])),
        ("scenario", dict(steps=8, T=2), dict(
            system=systems, steps=SIZES + ["3", "8"], T=SIZES + ["3"],
            attack_fraction=FLOATS, attack_magnitude=FLOATS, attack_support=ROWS,
            seed=["0", "-1"], prior_seed=["1", "-1"], true_rate=FLOATS, jitter=FLOATS,
            eta=FLOATS, omega=FLOATS, prior_mode=["static", "per_window", "bogus"],
            observers=["LO,L1O,WL1P", "LO", "L1O", "WL1P", "bogus", ""])),
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


# The one value that alone fails numerically, not as a validation error: a
# magnitude of 1e308 lets the attacked measurements overflow, which shows
# only once the run is simulated.
NUMERICAL_FAILURES = {("scenario", "attack_magnitude", "1e308")}

# A data file's validation error may name the field it rejects, not the flag.
FILE_FIELDS = {"system": ("A", "C", "x0"), "input": ("'p'", "q_hat", "'q'", "'seed'")}


def names_of(subparser, flag):
    """What an exit-1 message about `flag` may name: the flag, with or without
    its dashes, its dest (as written or in words), or a field of its file."""
    dest = subparser._option_string_actions["--" + flag.replace("_", "-")].dest
    return {flag.replace("_", "-"), dest, dest.replace("_", " "), *FILE_FIELDS.get(flag, ())}


def names_any(message, names):
    """Whether `message` holds one of `names` as a whole token, dashes and all:
    'n' is not found in 'dimensions', nor 'seed' in '--prior-seed'."""
    return any(re.search(rf"(?<![\w-])(?:--)?{re.escape(name)}(?![\w-])", message)
               for name in names)


def test_each_hostile_value_alone_exits_cleanly(files):
    # every value of the tables above, one flag at a time: a result or a
    # validation error that names the flag, except the numerical failure
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
