import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resilient_sse import build_horizon, cli, detect, estimation, gen_random_system, rip_constant
from resilient_sse.cli import parse_and_dispatch
from test_cli_hostile import files, reject, rejections  # noqa: F401 (files is a fixture)

SURROGATE = Path(cli.__file__).parent / "data" / "surrogate.json"


@pytest.fixture
def zero_window(tmp_path):
    """Files of the surrogate's zero window at T 1 (10 rows) and of its zero state (5)."""
    y, x = tmp_path / "zeros.json", tmp_path / "zero_state.json"
    y.write_text("[0,0,0,0,0,0,0,0,0,0]")
    x.write_text("[0,0,0,0,0]")
    return y, x


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


def test_estimate_subcommand(tmp_path, system_file, zero_window, capsys):
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

    # error_l2 is np.linalg.norm's, also where the squares of the error would overflow
    for x_true, scale in (([1.5, -2.0], 1.0), ([1e308, -1e308], 2.0**1000)):
        x_path = tmp_path / "x_true.json"
        x_path.write_text(json.dumps(x_true))
        code, out, err = run_cli(["estimate", "--system", path, "--y", clean_path,
                                  "--x-true", x_path], capsys)
        assert code == 0, err
        doc = json.loads(out)
        d = np.array(doc["x_hat"]) - x_true
        assert doc["error_l2"] == float(np.linalg.norm(d / scale)) * scale

    # a zero window fits the zero state, so it is not flagged and its error is exactly 0
    y_zero, x_zero = zero_window
    code, out, _ = run_cli(["estimate", "--system", SURROGATE, "--y", y_zero, "--safe", "0,1,2",
                            "--epsilon", 1, "--x-true", x_zero], capsys)
    assert code == 0
    assert '"detector_flag":false,' in out and '"error_l2":0.0,' in out


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


def test_estimate_reads_a_json_window_by_its_suffix_in_any_case(tmp_path, zero_window, capsys):
    # y.JSON holding [0,0,...] was read as CSV and failed on the cell '[0'
    y, x = zero_window
    outputs = []
    for suffix in (".json", ".JSON", ".Json"):
        y_path, x_path = tmp_path / f"y{suffix}", tmp_path / f"x{suffix}"
        y_path.write_text(y.read_text())
        x_path.write_text(x.read_text())
        code, out, err = run_cli(["estimate", "--system", SURROGATE, "--y", y_path,
                                  "--x-true", x_path], capsys)
        assert (code, err) == (0, "")
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
    path, sys_ = system_file
    code, out, _ = run_cli(["rip", "--system", path, "--S", 2, "--budget", 100], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True and doc["supports_checked"] == 15
    # the document is the RipEstimate, field for field, exact or sampled
    model = build_horizon(sys_, 1)
    for S, budget, seed in [(2, 100, 0), (3, 5, 4)]:
        code, out, _ = run_cli(["rip", "--system", path, "--S", S, "--budget", budget,
                                "--seed", seed], capsys)
        est = rip_constant(model, S, budget, rng=np.random.default_rng(seed))
        assert code == 0 and json.loads(out) == dataclasses.asdict(est)


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
                                  "eta", "omega", "epsilon_policy", "strategies", "master_seed"}
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
    # no label to trust: both strategies prune to the empty set, quantile with l_eta 0
    for strategy, l_eta in [("product", None), ("quantile", 0)]:
        code, out, _ = run_cli(["prune", "--input", payload, "--eta", 0.5, "--strategy", strategy],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ppv"] is None and doc["pruned_set"] == [] and doc["l_eta"] == l_eta
        assert '"ppv":null' in out and '"pruned_set":[]' in out


def test_estimate_with_omega_0_needs_n_distinct_safe_rows(tmp_path, zero_window, capsys):
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

    # the surrogate has 5 states: six trusted rows solve, two are too few
    base = ["estimate", "--system", SURROGATE, "--y", zero_window[0], "--omega", "0", "--safe"]
    assert run_cli(base + ["0,1,2,3,4,5"], capsys)[0] == 0
    assert run_cli(base + ["0,1"], capsys)[:2] == (1, "")
    # three trusted rows for two states, all multiples of one row: the cold start
    # finds no two independent rows, and the solve rejects the rank
    path.write_text(json.dumps({"A": [[0, 1], [-1, 0]], "C": [[1, 0], [2, 0], [-1, 0], [0, 1]]}))
    y_path.write_text("[1, 2, 3, 5]")
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path, "--omega", "0",
                              "--safe", "0,1,2"], capsys)
    assert (code, out) == (2, "") and "rank deficient" in err


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
        ["scenario", "--steps", "8", "--attack-support", "3,1,3"],
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
    window = (3 * surrogate.m, surrogate.n)
    # the solve does not depend on the units of the system: entries around 1e-12
    # certify, and so do entries around 1e200, whose squares would overflow
    units = {}
    for name, e in (("tiny", "e-12"), ("huge", "e200")):
        units[name] = tmp_path / f"{name}.json"
        units[name].write_text(f'{{"A": [[1{e}, 0], [0, 2{e}]], '
                               f'"C": [[1{e}, 0], [0, 1{e}], [1{e}, 1{e}], [2{e}, -1{e}]]}}')
    units_y = tmp_path / "units_y.json"
    units_y.write_text("[1, 2, 3, 5]")
    runs = [  # each command line with the shape of its H
        (["estimate", "--system", path, "--y", y_path, "--epsilon", 0.1], (6, 2)),
        (["estimate", "--system", path, "--y", y_path, "--safe", "1,2,3"], (6, 2)),
        (["attack", "--system", path, "--epsilon", 0.4, "--support", "2,0"], (6, 2)),
        (["attack", "--system", path, "--epsilon", 0.4, "--fraction", 0.3], (6, 2)),
        (["sweep", "--m", 6, "--n", 2, "--grid", "0.0,0.3", "--trials", 3], (6, 2)),
        (["scenario", "--steps", 8], window),
        (["scenario", "--steps", 8, "--system", SURROGATE], window),
        # LO alone poses no l1 problem and runs no search
        (["scenario", "--steps", 8, "--observers", "LO"], window),
        (["scenario", "--steps", 8, "--observers", "WL1P"], window),
        (["sweep", "--trials", 2, "--grid", "0.3"], (20, 10)),
        (["sweep", "--trials", 2, "--grid", "0.3", "--format", "json"], (20, 10)),
        (["estimate", "--system", units["tiny"], "--y", units_y], (4, 2)),
        (["estimate", "--system", units["huge"], "--y", units_y], (4, 2)),
        (["rip", "--system", path, "--S", 2, "--budget", 100], (6, 2)),
        (["rip", "--system", path, "--S", 3, "--budget", 5, "--seed", 1], (6, 2)),
    ]
    for argv, H_shape in runs:
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert H_shape not in full_svd_shapes, argv


# rows of REJECTIONS in tests/test_cli_hostile.py, under the names their tests had here


@rejections("non_finite_system_file_is_rejected")
def test_non_finite_system_file_is_rejected(files, monkeypatch, row):
    reject(files, monkeypatch, row)


@rejections("a_malformed_system_file_exits_1")
def test_a_malformed_system_file_exits_1(files, monkeypatch, row):
    reject(files, monkeypatch, row)


@rejections("a_malformed_prune_input_exits_1")
def test_a_malformed_prune_input_exits_1(files, monkeypatch, row):
    reject(files, monkeypatch, row)


@rejections("a_negative_seed_names_its_flag")
def test_a_negative_seed_names_its_flag(files, monkeypatch, row):
    reject(files, monkeypatch, row)


@rejections("sweep_rejects_a_non_finite_policy_or_radius_up_front")
def test_sweep_rejects_a_non_finite_policy_or_radius_up_front(files, monkeypatch, row):
    reject(files, monkeypatch, row)


@rejections("a_confidence_model_out_of_range_is_rejected_up_front")
def test_a_confidence_model_out_of_range_is_rejected_up_front(files, monkeypatch, row):
    reject(files, monkeypatch, row)


@rejections("scenario_metrics_that_overflow_are_a_numerical_failure")
def test_scenario_metrics_that_overflow_are_a_numerical_failure(files, monkeypatch, row):
    reject(files, monkeypatch, row)


@rejections("a_malformed_list_names_its_flag")
def test_a_malformed_list_names_its_flag(files, monkeypatch, row):
    reject(files, monkeypatch, row)
