import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from resilient_sse import LtiSystem, build_horizon, cli, detect, estimation, gen_random_system
from resilient_sse.cli import parse_and_dispatch


@pytest.fixture
def system_file(tmp_path):
    sys_ = gen_random_system(6, 2, np.random.default_rng(0))
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": sys_.A.tolist(), "C": sys_.C.tolist(), "x0": [1.0, -1.0]}))
    return path, sys_


def run_cli(args, capsys):
    code = parse_and_dispatch([str(a) for a in args])
    out, err = capsys.readouterr()
    return code, out, err


def test_sweep_happy_path_csv(capsys):
    code, out, err = run_cli(
        ["sweep", "--m", 6, "--n", 2, "--grid", "0.0,0.3", "--trials", 4, "--seed", 7], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("attack_fraction,strategy")
    assert len(lines) == 1 + 2 * 4  # two grid points, four strategies


def test_sweep_json_and_seed_determinism(capsys):
    args = ["sweep", "--m", 6, "--n", 2, "--grid", "0.2", "--trials", 3,
            "--seed", 5, "--format", "json"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["config"]["master_seed"] == 5


def test_validation_exit_code_and_message(tmp_path, capsys):
    payload = tmp_path / "prior.json"
    payload.write_text(json.dumps({"p": [0.9, 0.8], "q_hat": [1, 0]}))
    code, out, err = run_cli(["prune", "--input", payload, "--eta", "1.5"], capsys)
    assert code == 1
    assert out == ""
    assert "eta must lie in (0,1)" in err


def test_unknown_flag_is_validation_error(capsys):
    code, _, err = run_cli(["sweep", "--frobnicate", "3"], capsys)
    assert code == 1
    assert "error" in err


def test_prune_subcommand_sampled_prior(tmp_path, capsys):
    payload = tmp_path / "prior.json"
    payload.write_text(json.dumps({"p": [0.9, 0.8, 0.95, 0.99], "q": [1, 0, 1, 1], "seed": 5}))
    code, out, _ = run_cli(["prune", "--input", payload, "--eta", 0.75], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"offline_set", "pruned_set", "l_eta", "ppv", "ppv_pruned", "strategy"}
    assert doc["strategy"] == "product"

    code, out, _ = run_cli(
        ["prune", "--input", payload, "--eta", 0.75, "--strategy", "quantile"], capsys
    )
    assert code == 0
    assert json.loads(out)["l_eta"] is not None


def test_estimate_subcommand(tmp_path, system_file, capsys):
    path, sys_ = system_file
    model = build_horizon(sys_, 1)
    x = np.array([0.5, 2.0])
    y = model.H @ x
    y[0] += 3.0
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(y)))
    code, out, _ = run_cli(
        ["estimate", "--system", path, "--y", y_path, "--omega", 0.05,
         "--safe", "1,2,3,4,5", "--epsilon", 0.5], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["x_hat"], x, atol=1e-6)
    assert doc["detector_flag"] is True  # the corrupted row leaves a residual

    clean_path = tmp_path / "clean.json"
    clean_path.write_text(json.dumps(list(model.H @ x)))
    code, out, _ = run_cli(
        ["estimate", "--system", path, "--y", clean_path, "--epsilon", 0.5], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["detector_flag"] is False
    assert doc["residual_l1"] <= 1e-9


def test_detector_flag_is_detect_on_the_solves_own_residual(tmp_path, system_file, capsys,
                                                            monkeypatch):
    path, sys_ = system_file
    model = build_horizon(sys_, 1)
    y = model.H @ np.array([0.5, 2.0])
    y[[1, 4]] += [3.0, -2.0]
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(y)))
    args = ["estimate", "--system", path, "--y", y_path]
    code, out, _ = run_cli(args, capsys)
    plain = json.loads(out)
    assert code == 0 and plain["detector_flag"] is None
    r = plain["residual_l1"]
    epsilons = (0.5 * r, np.nextafter(r, 0.0), r, np.nextafter(r, np.inf), 2.0 * r)
    flags = []
    for eps in map(float, epsilons):
        code, out, _ = run_cli(args + ["--epsilon", eps], capsys)
        doc = json.loads(out)
        assert code == 0
        flags.append(doc.pop("detector_flag"))
        assert flags[-1] is detect(model, y, doc["x_hat"], eps)
        assert doc == {k: v for k, v in plain.items() if k != "detector_flag"}
    assert flags == [True, True, False, False, False]  # strictly above epsilon flags

    # a threshold that is not positive is rejected before any solve
    calls = []
    monkeypatch.setattr(estimation, "weighted_l1_regression", lambda *a, **k: calls.append(a))
    for safe in ([], ["--safe", "0,1,2"]):
        for eps in ("0", "-1"):
            code, out, err = run_cli(args + safe + ["--epsilon", eps], capsys)
            assert (code, out) == (1, "")
            assert err == f"error: epsilon must be positive, got {float(eps)}\n"
    assert calls == []


def test_estimate_reads_a_csv_window_as_a_row_or_a_column(tmp_path, system_file, capsys):
    path, sys_ = system_file
    model = build_horizon(sys_, 2)
    y = model.H @ np.array([0.5, 2.0])
    y[3] -= 7.0
    y_json = tmp_path / "y.json"
    y_json.write_text(json.dumps(list(y)))
    outputs = []
    for name, sep in (("row.csv", ","), ("column.csv", "\n")):
        y_csv = tmp_path / name
        y_csv.write_text(sep.join(repr(float(v)) for v in y) + "\n")
        for window in (y_json, y_csv):
            code, out, _ = run_cli(["estimate", "--system", path, "--T", 2, "--y", window,
                                    "--safe", "0,1,2", "--epsilon", 0.5], capsys)
            assert code == 0
            outputs.append(out)
    assert len(set(outputs)) == 1


def test_attack_subcommand_schema(system_file, capsys):
    path, _ = system_file
    code, out, _ = run_cli(
        ["attack", "--system", path, "--epsilon", 0.4, "--support", "0,2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"support", "epsilon", "z_e", "e_T", "alpha_guarantee",
                        "feasible", "unbounded"}
    e = np.asarray(doc["e_T"])
    assert np.all(e[[1, 3, 4, 5]] == 0)


def test_rip_subcommand(system_file, capsys):
    path, _ = system_file
    code, out, _ = run_cli(["rip", "--system", path, "--S", 2, "--budget", 100], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True and doc["supports_checked"] == 15


def test_scenario_subcommand_uses_bundled_system(capsys):
    code, out, _ = run_cli(["scenario", "--steps", 12, "--T", 2], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["windows"] == 11
    assert set(doc["observers"]) == {"LO", "L1O", "WL1P"}


def test_scenario_with_an_empty_attack_support_attacks_no_sensor(capsys):
    from resilient_sse import ScenarioAttack, ScenarioConfig, load_surrogate, run_scenario

    # an empty list flag is the empty list, not the highest-gain default
    code, out, err = run_cli(["scenario", "--steps", 10, "--attack-support", ""], capsys)
    assert code == 0, err
    sys_, x0 = load_surrogate()
    expected = run_scenario(sys_, x0, attack=ScenarioAttack(support=()),
                            scenario=ScenarioConfig(steps=10))
    assert out == expected.to_json()
    assert max(json.loads(out)["max_abs"]["L1O"]) <= 1e-9


def test_out_file_atomicity(tmp_path, capsys):
    target = tmp_path / "result.json"
    payload = tmp_path / "prior.json"
    payload.write_text(json.dumps({"p": [0.9, 0.8], "q_hat": [1, 0]}))
    code, _, _ = run_cli(
        ["prune", "--input", payload, "--eta", "1.5", "--out", target], capsys
    )
    assert code == 1
    assert not target.exists()

    code, out, _ = run_cli(
        ["prune", "--input", payload, "--eta", "0.5", "--out", target], capsys
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["pruned_set"] == [0]

    # a result that cannot replace its target leaves no temporary file behind
    (tmp_path / "a_directory").mkdir()
    code, out, err = run_cli(
        ["prune", "--input", payload, "--eta", "0.5", "--out", tmp_path / "a_directory"], capsys
    )
    assert code == 1 and out == "" and err.startswith("error: ")
    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp_result_")]


def test_config_file_merging(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 6, "n": 2, "grid": "0.0", "trials": 2, "seed": 9}))
    code, out_file_only, _ = run_cli(["sweep", "--config", config], capsys)
    assert code == 0

    # explicit flags win over the config file
    code, out_flag_wins, _ = run_cli(["sweep", "--config", config, "--trials", 3], capsys)
    assert code == 0
    assert ",2," in out_file_only.splitlines()[1]
    assert ",3," in out_flag_wins.splitlines()[1]

    config.write_text(json.dumps({"no_such_option": 1}))
    code, _, err = run_cli(["sweep", "--config", config], capsys)
    assert code == 1 and "no_such_option" in err

    config.write_text(json.dumps([{"m": 6}]))
    code, out, err = run_cli(["sweep", "--config", config], capsys)
    assert code == 1 and out == ""
    assert err == "error: config file must hold a JSON object\n"


def test_explicit_flag_beats_config_either_way(tmp_path, capsys):
    base = ["sweep", "--m", 6, "--n", 2, "--grid", "0.3", "--trials", 3, "--seed", 1,
            "--true-rate", 0.9]
    outputs = {eta: run_cli(base + ["--eta", eta], capsys)[1] for eta in (0.5, 0.9)}
    assert outputs[0.5] != outputs[0.9]
    config = tmp_path / "cfg.json"
    for flag, file_value in ((0.9, 0.5), (0.5, 0.9)):
        config.write_text(json.dumps({"eta": file_value}))
        # a flag wins even when it repeats the option's default (eta 0.9)
        code, out, _ = run_cli(base + ["--eta", flag, "--config", config], capsys)
        assert code == 0 and out == outputs[flag]
        # with the flag absent the file's value applies
        code, out, _ = run_cli(base + ["--config", config], capsys)
        assert code == 0 and out == outputs[file_value]


def test_parser_is_built_once_and_reused(tmp_path, system_file, capsys, monkeypatch):
    path, sys_ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ np.array([0.5, 2.0]) + 1.0)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"trials": 2, "eta": 0.5, "format": "json"}))
    sweep = ["sweep", "--m", 6, "--n", 2, "--grid", "0.3", "--seed", 1]
    calls = {
        "estimate": ["estimate", "--system", path, "--y", y_path],
        "sweep_config": sweep + ["--config", config],
        "sweep": sweep + ["--trials", 3],
        "sweep_defaults": sweep,
    }
    built, build_parser = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    for fn in vars(cli).values():  # every parser cached so far is built again
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()
    first = {}
    for _ in range(2):
        for name, argv in calls.items():
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            # every call prints what the first call of its kind printed, so a
            # --config call leaves the defaults of the next call intact
            assert out == first.setdefault(name, out)
    assert '"trials":2' in first["sweep_config"] and '"eta":0.5' in first["sweep_config"]
    assert ",100," in first["sweep_defaults"].splitlines()[1]
    assert len(built) == 1  # --config included


def test_config_values_are_typed(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": "6", "n": 2, "grid": 0.3, "trials": "3", "seed": 1}))
    code, out, _ = run_cli(["sweep", "--config", config], capsys)
    assert code == 0 and ",3," in out.splitlines()[1]
    for key, bad, named in (("trials", "five", "argument --trials:"),
                            ("trials", 2.5, "argument --trials:"),
                            ("trials", True, "config key 'trials'"),
                            ("eta", [0.5], "config key 'eta'"),
                            ("format", "xml", "argument --format:")):
        config.write_text(json.dumps({key: bad}))
        code, out, err = run_cli(["sweep", "--config", config], capsys)
        assert code == 1 and out == ""
        assert named in err and "Traceback" not in err

    # list flags from a file are the same flags
    sweep = ["sweep", "--m", 6, "--n", 2, "--trials", 2, "--seed", 3]
    lists = {"grid": "0.0,0.3", "strategies": "none,prior"}
    code, typed, _ = run_cli(sweep + [arg for k, v in lists.items() for arg in (f"--{k}", v)],
                             capsys)
    config.write_text(json.dumps(lists))
    code_file, out, _ = run_cli(sweep + ["--config", config], capsys)
    assert code == code_file == 0 and out == typed
    # a negative number from a file reaches the library as the flag's does
    config.write_text(json.dumps({"seed": -1}))
    flagged = run_cli(["sweep", "--seed", "-1"], capsys)
    assert run_cli(["sweep", "--config", config], capsys) == flagged
    assert flagged[0] == 1 and "argument" not in flagged[2]
    # a file cannot ask for help: exit 1 and no usage on stdout
    config.write_text(json.dumps({"help": 1}))
    code, out, err = run_cli(["sweep", "--config", config], capsys)
    assert code == 1 and out == "" and "usage" not in err
    # a --config given before other flags still loses to them
    config.write_text(json.dumps({"trials": 2, "format": "json"}))
    code, out, _ = run_cli(["sweep", "--config", config, "--m", 6, "--n", 2, "--grid", "0.3",
                            "--trials", 3, "--format", "csv"], capsys)
    assert code == 0 and ",3," in out.splitlines()[1]


@pytest.mark.parametrize("fmt, field", [("json", "A"), ("json", "C"), ("json", "x0"),
                                        ("csv", "A"), ("csv", "C")])
def test_non_finite_system_file_is_rejected(tmp_path, capsys, fmt, field):
    doc = {"A": [[0.5, 0.0], [0.0, 0.4]], "C": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
           "x0": [1.0, -1.0]}
    doc[field] = np.where(np.arange(np.size(doc[field])).reshape(np.shape(doc[field])) == 1,
                          np.nan, doc[field]).tolist()
    if fmt == "json":
        (tmp_path / "sys.json").write_text(json.dumps(doc))  # json writes the bare token NaN
        args = ["--system", tmp_path / "sys.json"]
    else:
        for key in ("A", "C"):
            rows = "\n".join(",".join(repr(v) for v in row) for row in doc[key])
            (tmp_path / f"{key}.csv").write_text(rows + "\n")
        args = ["--system-a", tmp_path / "A.csv", "--system-c", tmp_path / "C.csv"]
    # scenario takes no CSV pair, so the CSV files go through rip
    command = ["scenario", "--steps", 5] if fmt == "json" else ["rip", "--S", 1]
    code, out, err = run_cli(command + ["--T", 1] + args, capsys)
    assert code == 1 and out == ""
    assert f"{field}{'.csv' if fmt == 'csv' else ''} must be finite" in err


def test_estimate_reports_solve_diagnostics(tmp_path, system_file, capsys):
    path, sys_ = system_file
    y = build_horizon(sys_, 1).H @ np.array([0.5, 2.0])
    y[0] += 3.0
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(y)))
    code, out, _ = run_cli(["estimate", "--system", path, "--y", y_path], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"x_hat", "objective", "residual_l1", "detector_flag", "error_l2",
                        "iterations", "gap"}
    assert isinstance(doc["iterations"], int) and doc["iterations"] >= 0
    assert -1e-12 <= doc["gap"] <= 1e-8 * (1 + doc["objective"]) + 1e-15


def test_estimate_rejects_non_finite_window(tmp_path, system_file, capsys):
    path, sys_ = system_file
    y = build_horizon(sys_, 1).H @ np.array([0.5, 2.0])
    y[2] = np.nan
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(y)))  # json writes the bare token NaN
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path], capsys)
    assert code == 1
    assert out == ""
    assert "finite" in err


def test_numerical_failure_exit_code(tmp_path, capsys):
    # unobservable system: building the window model fails numerically
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": np.eye(3).tolist(),
                                "C": [[1, 0, 0], [2, 0, 0], [0, 1, 0], [0, 2, 0]]}))
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps([0.0, 0.0, 0.0, 0.0]))
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path], capsys)
    assert code == 2
    assert out == ""


def test_an_uncertified_solve_exits_2(tmp_path, system_file, capsys, monkeypatch):
    from resilient_sse import lp

    path, sys_ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ np.array([0.5, 2.0]))))
    monkeypatch.setattr(lp, "_GAP_RTOL", -1)  # no gap passes the certificate
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path], capsys)
    assert code == 2 and out == ""
    assert "basis not certified" in err


def test_csv_system_pair(tmp_path, capsys):
    a_path, c_path = tmp_path / "a.csv", tmp_path / "c.csv"
    a_path.write_text("0.5,0.0\n0.0,0.4\n")
    c_path.write_text("1,0\n\n0,1\n1,1\n , \n2,-1\n")  # blank lines are skipped
    code, out, _ = run_cli(
        ["rip", "--system-a", a_path, "--system-c", c_path, "--S", 1], capsys
    )
    assert code == 0
    assert json.loads(out)["supports_checked"] == 4


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "resilient_sse.cli", "sweep", "--m", "6", "--n", "2",
         "--grid", "0.0", "--trials", "2", "--seed", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("attack_fraction")


def test_prune_rejects_nan_confidence(tmp_path, capsys):
    payload = tmp_path / "prior.json"
    payload.write_text(json.dumps({"p": [0.9, float("nan"), 0.8], "q_hat": [1, 1, 0]}))
    code, out, err = run_cli(["prune", "--input", payload, "--eta", 0.5], capsys)
    assert code == 1
    assert out == ""
    assert "(0, 1]" in err


@pytest.mark.parametrize("payload",
                         [{"y": [1.0, 2.0]}, [[1.0], [2.0]], [1.0, True], [1.0, None], "1.0"],
                         ids=["object", "nested", "bool", "null", "string"])
def test_estimate_rejects_a_window_that_is_not_a_flat_list(tmp_path, system_file, capsys, payload):
    path, _ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(payload))
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path], capsys)
    assert code == 1
    assert out == ""
    assert "flat JSON list" in err


SQUARE = [[0.5, 0.0], [0.0, 0.4]]
SENSORS = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


@pytest.mark.parametrize("doc, message", [
    ({"A": [[{}]], "C": SENSORS, "x0": [1.0, -1.0]}, "A must be a list of rows of numbers"),
    ("A C", "must hold a JSON object"),
    ({"A": SQUARE, "C": SENSORS, "x0": {"a": 1}}, "x0 must be a flat JSON list"),
    ({"A": [[True, False], [False, True]], "C": SENSORS, "x0": [1.0, -1.0]},
     "A must be a list of rows of numbers"),
    ({"A": SQUARE, "C": [[1, "0.5"], [0, 1], [1, 1]], "x0": [1.0, -1.0]},
     "C must be a list of rows of numbers"),
    ({"A": [[10**400, 0], [0, 0.4]], "C": SENSORS, "x0": [1.0, -1.0]}, "A must be finite"),
    ({"A": SQUARE, "C": SENSORS, "x0": [1.0, -1.0, 0.0]}, "x0 has length 3, expected 2"),
    ({"A": [], "C": SENSORS, "x0": [1.0, -1.0]}, "A: empty matrix"),
    ({"A": SQUARE, "C": SENSORS}, "scenario needs an x0 entry in the system file"),
], ids=["object-entry", "string", "object-x0", "bool-entry", "numeric-string", "int-beyond-float",
        "x0-length", "empty-A", "no-x0"])
def test_a_malformed_system_file_exits_1(tmp_path, capsys, doc, message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["scenario", "--steps", 5, "--T", 1, "--system", path], capsys)
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("doc, message", [
    ({"p": {"a": 1}, "q_hat": [1]}, "'p' in (0, 1] must be a flat JSON list"),
    (["p"], "must hold a JSON object"),
    ({"p": [0.9, 0.8], "q": [1, 0], "seed": None}, "integer 'seed'"),
    ({"p": [0.9, 0.8], "q": [1, 0], "seed": 1.7}, "integer 'seed'"),
    ({"p": [0.9, 0.8], "q_hat": [0.5, 1]}, "0 or 1"),
    ({"p": [0.9, 0.8, 0.7], "q_hat": [1, 0]}, "must be equal-length vectors"),
    ({"p": [0.9, 0.8, 0.7], "q": [1, 0], "seed": 1}, "confidence vector has length 3, expected 2"),
    ({"p": [0.9, 0.8], "q_hat": [1, 0], "q": [1, 0, 1]}, "estimate has length 2, expected 3"),
], ids=["object-p", "array", "null-seed", "float-seed", "half-label", "q_hat-p-lengths",
        "q-p-lengths", "q-q_hat-lengths"])
def test_a_malformed_prune_input_exits_1(tmp_path, capsys, doc, message):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["prune", "--input", path, "--eta", 0.5], capsys)
    assert code == 1 and out == ""
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("strategy", ["product", "quantile"])
@pytest.mark.parametrize("doc", [{"p": [], "q_hat": []}, {"p": [], "q": [], "seed": 1}],
                         ids=["q_hat", "sampled"])
def test_prune_rejects_an_empty_prior(tmp_path, capsys, doc, strategy):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["prune", "--input", path, "--eta", 0.5, "--strategy", strategy],
                             capsys)
    assert code == 1 and out == ""
    assert err == "error: a prior needs at least one row\n"


def test_estimate_certifies_a_clean_window_in_large_units(tmp_path, capsys):
    # y = H x has optimum 0; its gap is roundoff of order eps * max|y|
    sys_ = gen_random_system(60, 12, np.random.default_rng(1))
    x = 1e6 * np.random.default_rng(3).standard_normal(12)
    paths = {k: tmp_path / f"{k}.json" for k in ("sys", "y", "x")}
    paths["sys"].write_text(json.dumps({"A": sys_.A.tolist(), "C": sys_.C.tolist()}))
    paths["y"].write_text(json.dumps((build_horizon(sys_, 4).H @ x).tolist()))
    paths["x"].write_text(json.dumps(x.tolist()))
    code, out, err = run_cli(["estimate", "--system", paths["sys"], "--T", 4, "--y", paths["y"],
                              "--x-true", paths["x"]], capsys)
    assert code == 0, err
    assert json.loads(out)["error_l2"] <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("k", [-40, 530])
@pytest.mark.parametrize("weights", [[], ["--safe", "1,2,3,4,5", "--omega", 0.05]],
                         ids=["decode", "weighted"])
def test_estimate_certifies_a_system_in_any_units(tmp_path, system_file, capsys, k, weights):
    # C in units of 2^k changes only the units of x_hat, bit for bit
    path, sys_ = system_file
    y = build_horizon(sys_, 1).H @ np.array([0.5, -1.0])
    y[0] += 3.0
    paths = {name: tmp_path / f"{name}.json" for name in ("scaled", "y")}
    paths["scaled"].write_text(json.dumps({"A": sys_.A.tolist(), "C": (2.0**k * sys_.C).tolist()}))
    paths["y"].write_text(json.dumps(y.tolist()))
    runs = [run_cli(["estimate", "--system", system, "--y", paths["y"], "--epsilon", 0.5] + weights,
                    capsys) for system in (path, paths["scaled"])]
    (code, out, _), (scaled_code, scaled_out, err) = runs
    assert code == scaled_code == 0, err
    doc, scaled = json.loads(out), json.loads(scaled_out)
    assert (np.array(scaled.pop("x_hat")) * 2.0**k).tolist() == doc.pop("x_hat")
    assert scaled == doc


def test_estimate_in_subnormal_units(tmp_path, capsys):
    # C near 4e-309, whose entries' inverses overflow: a window that fits
    # certifies, and one whose solution is beyond the largest float exits 1
    system = tmp_path / "sys.json"
    system.write_text('{"A": [[0.5]], "C": [[3e-309], [4e-309], [-5e-309]]}')
    runs = []
    for window in ("[1e-10, 2e-10, 7e-10]", "[1, 2, 7]"):
        y = tmp_path / "y.json"
        y.write_text(window)
        runs.append(run_cli(["estimate", "--system", system, "--T", 1, "--y", y], capsys))
    (code, out, err), (big_code, big_out, big_err) = runs
    assert code == 0, err
    assert json.loads(out)["x_hat"][0] == pytest.approx(1e-10 / 3e-309, rel=1e-12)
    assert (big_code, big_out) == (1, "")
    assert "too large for the scale of A" in big_err


@pytest.mark.parametrize("command, named", [
    (["sweep", "--seed", "-1", "--trials", 1, "--grid", "0.3"], "master seed"),
    (["scenario", "--steps", 8, "--prior-seed", "-1"], "prior seed"),
    (["scenario", "--steps", 8, "--seed", "-1"], "attack seed"),
    (["rip", "--S", 1, "--seed", "-1"], "--seed"),
    (["attack", "--epsilon", 0.5, "--fraction", 0.3, "--seed", "-1"], "--seed"),
], ids=["sweep", "scenario-prior", "scenario-attack", "rip", "attack"])
def test_a_negative_seed_names_its_flag(system_file, capsys, command, named):
    # numpy's own "expected non-negative integer" names no flag
    if command[0] in ("rip", "attack"):
        command = command + ["--system", system_file[0]]
    code, out, err = run_cli(command, capsys)
    assert code == 1 and out == ""
    assert f"{named} must be >= 0, got -1" in err and "non-negative" not in err


def test_estimate_names_y_and_t_for_a_window_of_the_wrong_length(tmp_path, system_file, capsys):
    # the system has 6 sensors: --T 2 asks for 12 rows
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps([0.0] * 6))
    code, out, err = run_cli(["estimate", "--system", system_file[0], "--T", 2, "--y", y_path],
                             capsys)
    assert code == 1 and out == ""
    assert "--y holds 6 entries, but --T 2 asks for T*m = 12 rows" in err
    assert "shape mismatch" not in err


def test_estimate_rejects_x_true_of_the_wrong_length(tmp_path, system_file, capsys):
    path, sys_ = system_file
    x = np.array([0.5, 2.0])
    y_path, x_path = tmp_path / "y.json", tmp_path / "x.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ x)))
    x_path.write_text(json.dumps([0.5]))
    code, out, err = run_cli(
        ["estimate", "--system", path, "--y", y_path, "--x-true", x_path], capsys
    )
    assert code == 1
    assert out == ""
    assert "x_true" in err


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_attack_rejects_non_finite_epsilon(system_file, capsys, epsilon):
    path, _ = system_file
    code, out, err = run_cli(
        ["attack", "--system", path, "--epsilon", epsilon, "--support", "0"], capsys
    )
    assert code == 1
    assert out == ""
    assert "epsilon" in err


@pytest.mark.parametrize("jitter", ["nan", "inf"])
def test_sweep_rejects_non_finite_jitter(capsys, jitter):
    code, out, err = run_cli(
        ["sweep", "--m", 6, "--n", 2, "--grid", "0.2", "--trials", 2, "--jitter", jitter], capsys
    )
    assert code == 1
    assert out == ""
    assert "jitter" in err


@pytest.mark.parametrize("cap", ["inf", "nan", "0", "-1"])
def test_attack_rejects_a_cap_factor_that_is_not_finite_and_positive(system_file, capsys, cap):
    # support 0..4 leaves one row for two states: the attack is unbounded and
    # would be scaled to cap_factor * epsilon
    path, _ = system_file
    code, out, err = run_cli(
        ["attack", "--system", path, "--epsilon", 1.0, "--support", "0,1,2,3,4",
         "--cap-factor", cap], capsys
    )
    assert code == 1
    assert out == ""
    assert "cap-factor" in err


def test_scenario_rejects_a_non_finite_attack_magnitude_up_front(capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario ran before its attack was validated")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    code, out, err = run_cli(["scenario", "--steps", 12, "--T", 2, "--attack-magnitude", "nan"],
                             capsys)
    assert code == 1
    assert out == ""
    assert "magnitude" in err


def test_estimate_rejects_a_window_too_large_to_certify(tmp_path, system_file, capsys):
    path, _ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps([1e308, -1e308] * 3))
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path], capsys)
    assert code == 1
    assert out == ""
    assert "too large" in err


@pytest.mark.parametrize("flag,value", [("--epsilon-policy", "rel:nan"),
                                        ("--epsilon-policy", "abs:inf"),
                                        ("--spectral-radius", "nan"),
                                        ("--spectral-radius", "inf"),
                                        ("--workers", "0")])
def test_sweep_rejects_a_non_finite_policy_or_radius_up_front(capsys, monkeypatch, flag, value):
    from resilient_sse import experiments

    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was drawn before the sweep was validated")

    monkeypatch.setattr(experiments, "draw_instance", no_draw)
    # grid 0.0 draws no attack, so epsilon is never used by a trial
    code, out, err = run_cli(
        ["sweep", "--m", 6, "--n", 2, "--grid", "0.0", "--trials", 2, flag, value], capsys
    )
    assert code == 1
    assert out == ""
    assert flag[2:].replace("-", " ") in err


def test_sweep_rejects_omega_0_with_a_weighted_strategy_up_front(capsys, monkeypatch):
    from resilient_sse import experiments

    def no_draw(*args, **kwargs):
        raise AssertionError("a trial was drawn before the sweep was validated")

    monkeypatch.setattr(experiments, "draw_instance", no_draw)
    code, out, err = run_cli(["sweep", "--omega", "0", "--trials", 3, "--grid", "0.3",
                              "--strategies", "none,pruned_product"], capsys)
    assert code == 1 and out == ""
    assert "omega must be positive" in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--true-rate", "0", "--trials", 2, "--grid", "0.3"], "true rate"),
    (["sweep", "--jitter", "-1", "--trials", 2, "--grid", "0.3"], "jitter"),
    (["scenario", "--steps", 8, "--true-rate", "1.5"], "true rate"),
    (["scenario", "--steps", 8, "--jitter", "-1"], "jitter"),
    (["sweep", "--jitter", "1e308", "--trials", 1], "jitter"),
    (["scenario", "--steps", 8, "--jitter", "1e308"], "jitter"),
], ids=["sweep-true-rate", "sweep-jitter", "scenario-true-rate", "scenario-jitter",
        "sweep-jitter-too-wide", "scenario-jitter-too-wide"])
def test_a_confidence_model_out_of_range_is_rejected_up_front(capsys, monkeypatch, argv, message):
    from resilient_sse import experiments

    def no_run(*args, **kwargs):
        raise AssertionError("the run started before its confidence model was validated")

    monkeypatch.setattr(experiments, "draw_instance", no_run)
    monkeypatch.setattr(cli, "run_scenario", no_run)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert message in err


def test_scenario_rejects_omega_0_with_wl1p_up_front(capsys):
    # the static pruned set is empty here, so WL1P would have no weighted row
    base = ["scenario", "--omega", "0", "--steps", 8, "--true-rate", 0.5, "--eta", 0.99]
    code, out, err = run_cli(base, capsys)
    assert code == 1 and out == ""
    assert "omega must be positive for WL1P" in err
    code, out, err = run_cli(base + ["--observers", "LO,L1O"], capsys)
    assert code == 0 and json.loads(out)["observers"] == ["LO", "L1O"]


def test_scenario_rejects_T_0_before_simulating(capsys, monkeypatch):
    from resilient_sse import experiments

    def no_run(*args, **kwargs):
        raise AssertionError("the run was simulated before T was checked")

    monkeypatch.setattr(experiments, "simulate", no_run)
    code, out, err = run_cli(["scenario", "--T", 0, "--steps", 8], capsys)
    assert code == 1 and out == ""
    assert err == "error: T must be >= 1, got 0\n"


@pytest.mark.parametrize("magnitude,observers", [("1e308", "LO"), ("1e200", "LO"),
                                                 ("1e200", "L1O"), ("1e308", "L1O"),
                                                 ("1e308", "WL1P"), ("1e308", None)])
def test_scenario_metrics_that_overflow_are_a_numerical_failure(capsys, magnitude, observers):
    # the attacked measurements or the squared errors overflow; the metrics
    # would print as NaN or Infinity, which is not JSON.  An overflowing
    # window fails the same way whichever observers run (None: the default)
    argv = ["scenario", "--steps", 8, "--attack-magnitude", magnitude]
    if observers is not None:
        argv += ["--observers", observers]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize("plant, magnitude, code, message", [
    ("unstable", "0.001", 1, "the plant's trajectory overflows within --steps 20"),
    ("surrogate", "1e308", 2, "attacked measurements overflow at attack magnitude 1e+308"),
])
def test_scenario_tells_a_plant_that_overflows_from_an_attack_that_does(tmp_path, capsys, plant,
                                                                       magnitude, code, message):
    # A's 1e30 mode passes the largest float within 20 steps whatever the attack:
    # a validation error naming the plant; a stable plant under a magnitude that
    # overflows stays a numerical failure.  Neither prints a numpy warning
    argv = ["scenario", "--steps", 20, "--T", 2, "--attack-magnitude", magnitude]
    if plant == "unstable":
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"A": [[1e30, 0], [0, 0.5]], "C": [[1, 0], [0, 1], [1, 1]],
                                    "x0": [1, 1]}))
        argv += ["--system", path]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(argv, capsys)
    assert (got, out, err) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, flag", [
    (["attack", "--epsilon", "0.4", "--support", "0,,1"], "--support"),
    (["estimate", "--safe", "1,x"], "--safe"),
    (["scenario", "--steps", "8", "--attack-support", "0,,1"], "--attack-support"),
    (["sweep", "--grid", "0.3,x"], "--grid"),
    (["sweep", "--grid", "0.1,,0.3"], "--grid"),
    (["estimate", "--safe", "1,,2"], "--safe"),
    (["sweep", "--strategies", "none,,prior"], "--strategies"),
    (["scenario", "--steps", "8", "--observers", "LO,"], "--observers"),
], ids=["attack-support", "estimate-safe", "scenario-attack-support", "sweep-grid",
        "sweep-grid-blank", "estimate-safe-blank", "sweep-strategies-blank",
        "scenario-observers-blank"])
def test_a_malformed_list_names_its_flag(tmp_path, system_file, capsys, argv, flag):
    path, sys_ = system_file
    if argv[0] in ("attack", "estimate"):
        argv = argv + ["--system", path]
    if argv[0] == "estimate":
        y_path = tmp_path / "y.json"
        y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ np.array([0.5, 2.0]))))
        argv = argv + ["--y", y_path]
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert f"error: argument {flag}: must be comma-separated" in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--grid", ""], "attack grid and strategies must each hold at least one entry"),
    (["sweep", "--strategies", " "], "attack grid and strategies must each hold at least one"),
    (["scenario", "--steps", "8", "--observers", ""], "observers must hold at least one"),
], ids=["sweep-grid", "sweep-strategies", "scenario-observers"])
def test_an_empty_list_that_needs_an_entry_exits_1(capsys, argv, message):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--grid", "0.3,0.30"], "attack fraction 0.3 is listed twice"),
    (["sweep", "--strategies", "none,prior,none"], "strategy 'none' is listed twice"),
    (["scenario", "--steps", "8", "--observers", "LO,WL1P,LO"], "observer 'LO' is listed twice"),
], ids=["sweep-grid", "sweep-strategies", "scenario-observers"])
def test_a_repeated_list_entry_exits_1_before_any_run(capsys, monkeypatch, argv, message):
    from resilient_sse import experiments

    def no_run(*args, **kwargs):
        raise AssertionError("a trial or a simulation ran before its lists were checked")

    monkeypatch.setattr(experiments, "draw_instance", no_run)
    monkeypatch.setattr(experiments, "simulate", no_run)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flag", ["--system-a", "--system-c"])
def test_scenario_rejects_half_a_csv_pair(tmp_path, capsys, flag):
    # a CSV pair has no place for x0, so scenario takes neither half
    half = tmp_path / "half.csv"
    half.write_text("1,0\n0,1\n")
    code, out, err = run_cli(["scenario", "--steps", 8, flag, half], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: unrecognized arguments: {flag}")


@pytest.mark.parametrize("command", [["rip", "--S", "1"], ["estimate", "--y", "y.json"],
                                     ["attack", "--epsilon", "0.5", "--fraction", "0.3"]])
@pytest.mark.parametrize("flag", ["--system-a", "--system-c"])
def test_half_a_csv_pair_exits_1(tmp_path, capsys, command, flag):
    half = tmp_path / "half.csv"
    half.write_text("1,0\n0,1\n")
    code, out, err = run_cli(command + [flag, half], capsys)
    assert code == 1 and out == ""
    assert err == "error: provide --system (JSON) or both --system-a and --system-c (CSV)\n"


SWEEP_ROW_KEYS = ("attack_fraction", "strategy", "trials", "successes", "success_rate", "stderr",
                  "mean_error")


def test_every_output_has_exactly_the_keys_readme_lists(tmp_path, system_file, capsys):
    """The keys README "File formats" lists: a field added to a result dataclass fails here."""
    path, sys_ = system_file
    x = np.array([0.5, 2.0])
    y_path, x_path, prior = tmp_path / "y.json", tmp_path / "x.json", tmp_path / "prior.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ x)))
    x_path.write_text(json.dumps(list(x)))
    prior.write_text(json.dumps({"p": [0.9, 0.8, 0.95, 0.99], "q": [1, 0, 1, 1], "seed": 5}))
    estimate = {"x_hat", "objective", "residual_l1", "detector_flag", "error_l2", "iterations",
                "gap"}
    prune = {"offline_set", "pruned_set", "l_eta", "ppv", "ppv_pruned", "strategy"}
    sweep = ["sweep", "--m", 6, "--n", 2, "--grid", "0.3", "--trials", 2]
    runs = [
        (["attack", "--system", path, "--epsilon", 0.4, "--support", "0,2"],
         {"support", "epsilon", "z_e", "e_T", "alpha_guarantee", "feasible", "unbounded"}),
        (["estimate", "--system", path, "--y", y_path], estimate),
        (["estimate", "--system", path, "--y", y_path, "--safe", "0,1,2", "--epsilon", 0.5,
          "--x-true", x_path], estimate),
        (["rip", "--system", path, "--S", 2], {"S", "delta_S", "exact", "supports_checked"}),
        (["prune", "--input", prior, "--eta", 0.75], prune),
        (["prune", "--input", prior, "--eta", 0.75, "--strategy", "quantile"], prune),
        (["scenario", "--steps", 8], {"observers", "windows", "rms", "max_abs"}),
        (sweep + ["--format", "json"], {"config", "rows"}),
    ]
    for argv, keys in runs:
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        assert set(json.loads(out)) == keys, argv[0]
    doc = json.loads(out)
    assert set(doc["config"]) == {"m", "n", "T", "attack_grid", "trials", "true_rate", "jitter",
                                  "eta", "omega", "epsilon_policy", "strategies", "master_seed",
                                  "spectral_radius"}
    assert doc["rows"] and all(set(row) == set(SWEEP_ROW_KEYS) for row in doc["rows"])
    code, out, _ = run_cli(sweep, capsys)
    assert code == 0 and out.splitlines()[0] == ",".join(SWEEP_ROW_KEYS)


@pytest.fixture
def required_runs(tmp_path, system_file):
    """(argv without its required option, {option: value}) per subcommand."""
    path, sys_ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ np.array([0.5, 2.0]))))
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"p": [0.9, 0.8], "q_hat": [1, 0]}))
    return {
        "attack": (["attack", "--system", path, "--support", "0"], {"epsilon": 0.5}),
        "estimate": (["estimate", "--system", path], {"y": str(y_path)}),
        "prune": (["prune", "--input", prior], {"eta": 0.5}),
        "rip": (["rip", "--system", path], {"S": 2}),
    }


@pytest.mark.parametrize("command", ["attack", "estimate", "prune", "rip"])
def test_a_config_file_can_supply_a_required_option(tmp_path, capsys, required_runs, command):
    argv, values = required_runs[command]
    (flag, value), = values.items()
    code, typed, err = run_cli(argv + [f"--{flag}", value], capsys)
    assert code == 0, err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(values))
    code, out, err = run_cli(argv + ["--config", config], capsys)
    assert code == 0 and out == typed, err
    config.write_text("{}")
    for extra in ([], ["--config", config]):
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 1 and out == ""
        assert err == f"error: the following arguments are required: --{flag}\n"


def test_prune_reports_a_null_ppv_when_no_row_is_estimated_safe(tmp_path, capsys):
    payload = tmp_path / "prior.json"
    payload.write_text(json.dumps({"p": [0.9, 0.8], "q_hat": [0, 0], "q": [1, 0]}))
    code, out, _ = run_cli(["prune", "--input", payload, "--eta", 0.5], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ppv"] is None and doc["pruned_set"] == [] and '"ppv":null' in out


def test_estimate_with_omega_0_needs_n_distinct_safe_rows(tmp_path, capsys):
    # rows 0 and 1 of C coincide: two distinct rows, yet rank deficient
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": [[0.5, 0.0], [0.0, 0.4]],
                                "C": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}))
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps([1.0, 1.0, 2.0, 3.0]))
    base = ["estimate", "--system", path, "--y", y_path, "--omega", "0", "--safe"]
    for safe in ("", "2,2,2"):
        code, out, err = run_cli(base + [safe], capsys)
        assert code == 1 and out == ""
        assert "--omega 0 needs at least 2 distinct --safe rows" in err
    code, out, err = run_cli(base + ["0,1"], capsys)
    assert code == 2 and out == ""
    code, out, _ = run_cli(base + ["1,2"], capsys)
    assert code == 0 and np.allclose(json.loads(out)["x_hat"], [1.0, 2.0])


@pytest.mark.parametrize("omega", ["2", "-0.5", "nan"])
def test_estimate_checks_omega_without_safe_rows(tmp_path, system_file, capsys, omega):
    # without --safe no row is weighted, yet an omega outside [0, 1] is no setting
    path, sys_ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ np.array([0.5, 2.0]))))
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path, "--omega", omega], capsys)
    assert code == 1 and out == ""
    assert "omega must lie in [0, 1]" in err


@pytest.mark.parametrize("command", [["estimate", "--y", "y.json"],
                                     ["attack", "--epsilon", 0.5, "--support", "0"],
                                     ["rip", "--S", 2]], ids=["estimate", "attack", "rip"])
def test_a_window_shorter_than_one_step_exits_1(tmp_path, system_file, capsys, command):
    # the T 0 window would otherwise be read as the T 1 one, whose 6 rows --y holds
    path, sys_ = system_file
    (tmp_path / "y.json").write_text(json.dumps(list(sys_.C @ np.array([0.5, 2.0]))))
    argv = [tmp_path / arg if arg == "y.json" else arg for arg in command]
    code, out, err = run_cli(argv + ["--system", path, "--T", 0], capsys)
    assert code == 1 and out == ""
    assert err == "error: window length T must be >= 1, got 0\n"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rejects_T_0_at_its_first_draw(capsys, monkeypatch, workers):
    # build_horizon checks T for every draw, before any l1 problem is posed
    from resilient_sse import experiments

    def no_solve(*args, **kwargs):
        raise AssertionError("an l1 problem was solved before T was checked")

    monkeypatch.setattr(experiments, "_certify_all", no_solve)
    code, out, err = run_cli(["sweep", "--m", 6, "--n", 2, "--T", 0, "--trials", 2,
                              "--grid", "0.3", "--workers", workers], capsys)
    assert code == 1 and out == ""
    assert err == "error: window length T must be >= 1, got 0\n"


def test_sweep_rejects_a_window_that_overflows(capsys):
    # A^39 at spectral radius 1e10 passes the largest float: exit 1 naming T,
    # where numpy's overflow warnings and a failed SVD came before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["sweep", "--trials", 2, "--grid", "0.3", "--T", 40,
                                  "--spectral-radius", "1e10"], capsys)
    assert code == 1 and out == ""
    assert err == "error: H is not finite for T=40: the window's powers of A overflow\n"


def test_no_solve_path_imports_numpy_ma(tmp_path, system_file):
    # np.unique and np.intersect1d import numpy.ma, about 14 ms a process
    import resilient_sse

    path, sys_ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ np.array([0.5, 2.0]))))
    prior = tmp_path / "prior.json"
    prior.write_text(json.dumps({"p": [0.9, 0.8, 0.95, 0.99], "q": [1, 0, 1, 1], "seed": 5}))
    argvs = [
        ["scenario", "--steps", "8"],
        ["scenario", "--steps", "8", "--attack-support", "3,1,3", "--prior-mode", "per_window"],
        ["sweep", "--m", "6", "--n", "2", "--grid", "0.3", "--trials", "2"],
        ["attack", "--system", str(path), "--epsilon", "0.4", "--support", "2,0,2"],
        ["prune", "--input", str(prior), "--eta", "0.75"],
        ["estimate", "--system", str(path), "--y", str(y_path), "--safe", "1,2,3"],
    ]
    script = ("import sys\nfrom resilient_sse.cli import parse_and_dispatch\n"
              f"codes = [parse_and_dispatch(argv) for argv in {argvs!r}]\n"
              "print(codes, 'numpy.ma' in sys.modules)\n")
    src = str(Path(resilient_sse.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(argvs)} False"


@pytest.fixture
def full_svd_shapes(monkeypatch):
    """Shapes of the matrices whose full U an SVD call forms."""
    svd, shapes = np.linalg.svd, []

    def recording_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        if full_matrices and compute_uv:
            shapes.append(np.shape(a))
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return shapes


def test_no_subcommand_forms_the_full_U_of_H(tmp_path, system_file, capsys, full_svd_shapes):
    from resilient_sse import load_surrogate

    path, sys_ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(list(build_horizon(sys_, 1).H @ np.array([0.5, 2.0]))))
    surrogate, _ = load_surrogate()
    runs = [  # each command line with the shape of its H
        (["estimate", "--system", path, "--y", y_path, "--epsilon", 0.1], (6, 2)),
        (["estimate", "--system", path, "--y", y_path, "--safe", "1,2,3"], (6, 2)),
        (["attack", "--system", path, "--epsilon", 0.4, "--support", "2,0"], (6, 2)),
        (["attack", "--system", path, "--epsilon", 0.4, "--fraction", 0.3], (6, 2)),
        (["sweep", "--m", 6, "--n", 2, "--grid", "0.0,0.3", "--trials", 3], (6, 2)),
        (["scenario", "--steps", 8], (3 * surrogate.m, surrogate.n)),
        (["rip", "--system", path, "--S", 2, "--budget", 100], (6, 2)),
        (["rip", "--system", path, "--S", 3, "--budget", 5, "--seed", 1], (6, 2)),
    ]
    for argv, H_shape in runs:
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert H_shape not in full_svd_shapes, argv
