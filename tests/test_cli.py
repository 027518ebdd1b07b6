import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resilient_sse import LtiSystem, build_horizon, gen_random_system, cli
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
    assert len(built) <= 2  # the parser and the flags-only parser of --config, once each


def test_config_values_are_typed(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": "6", "n": 2, "grid": 0.3, "trials": "3", "seed": 1}))
    code, out, _ = run_cli(["sweep", "--config", config], capsys)
    assert code == 0 and ",3," in out.splitlines()[1]
    for key, bad in (("trials", "five"), ("trials", 2.5), ("trials", True),
                     ("eta", [0.5]), ("format", "xml")):
        config.write_text(json.dumps({key: bad}))
        code, out, err = run_cli(["sweep", "--config", config], capsys)
        assert code == 1 and out == ""
        assert repr(key) in err and "Traceback" not in err


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
    code, out, err = run_cli(["scenario", "--steps", 5, "--T", 1] + args, capsys)
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


def test_csv_system_pair(tmp_path, capsys):
    a_path, c_path = tmp_path / "a.csv", tmp_path / "c.csv"
    a_path.write_text("0.5,0.0\n0.0,0.4\n")
    c_path.write_text("1,0\n0,1\n1,1\n2,-1\n")
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


@pytest.mark.parametrize("payload", [{"y": [1.0, 2.0]}, [[1.0], [2.0]], [1.0, True], "1.0"],
                         ids=["object", "nested", "bool", "string"])
def test_estimate_rejects_a_window_that_is_not_a_flat_list(tmp_path, system_file, capsys, payload):
    path, _ = system_file
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps(payload))
    code, out, err = run_cli(["estimate", "--system", path, "--y", y_path], capsys)
    assert code == 1
    assert out == ""
    assert "flat JSON list" in err


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
                                        ("--spectral-radius", "inf")])
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


@pytest.mark.parametrize("magnitude,observers", [("1e308", "LO"), ("1e200", "LO"),
                                                 ("1e200", "L1O")])
def test_scenario_metrics_that_overflow_are_a_numerical_failure(capsys, magnitude, observers):
    # the attacked measurements or the squared errors overflow; the metrics
    # would print as NaN or Infinity, which is not JSON
    code, out, err = run_cli(["scenario", "--steps", 8, "--attack-magnitude", magnitude,
                              "--observers", observers], capsys)
    assert code == 2
    assert out == ""
    assert "overflow" in err


@pytest.mark.parametrize("argv, flag", [
    (["attack", "--epsilon", "0.4", "--support", "0,,1"], "--support"),
    (["estimate", "--safe", "1,x"], "--safe"),
    (["scenario", "--steps", "8", "--attack-support", "0,,1"], "--attack-support"),
    (["sweep", "--grid", "0.3,x"], "--grid"),
], ids=["attack-support", "estimate-safe", "scenario-attack-support", "sweep-grid"])
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
    assert f"error: {flag} must be comma-separated" in err


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
