"""Smoke test of the benchmark itself, at one second of work per run.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The metrics each layer must keep reporting under these names.
PER_LAYER = {
    "lp.calls", "lp.self_s", "lp.iterations_mean", "lp.iterations_max", "lp.iterations_total",
    "lp.worst_rel_gap", "lp.failures", "estimation.calls", "estimation.self_s",
    "experiments.draw_instance.self_s", "lti.build_horizon.calls", "lti.build_horizon.self_s",
    "fdia.synthesize_fdia.calls", "fdia.synthesize_fdia.self_s", "pruning.calls",
    "pruning.self_s", "experiments.self_s", "cli.self_s", "trace_overhead_frac",
}
END_TO_END = {"setup_s", "throughput_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb",
              "success_frac"}
# Per-layer metrics that must be nonzero where the workload's path crosses the layer.
ON_PATH = {
    "sweep": {"lp.calls", "estimation.calls", "lti.build_horizon.calls",
              "fdia.synthesize_fdia.calls", "pruning.calls", "experiments.self_s"},
    "scenario": {"lp.calls", "estimation.calls", "lti.build_horizon.calls", "pruning.calls",
                 "experiments.self_s"},
    "estimate": {"lp.calls", "estimation.calls", "lti.build_horizon.calls", "cli.self_s"},
}


def run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_metrics_cover_the_named_ones():
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        for name in ON_PATH[workload]:
            assert result["metrics"][name]["value"] > 0, name
        assert json.loads(record_line)["missing_spans"] == []
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_seeded_inputs_regenerate_byte_identically(tmp_path):
    def estimate_inputs(directory, seed):
        directory.mkdir()
        workloads.make("estimate", seed, 1, directory)
        return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}

    first = estimate_inputs(tmp_path / "a", 11)
    assert first == estimate_inputs(tmp_path / "b", 11)
    assert first != estimate_inputs(tmp_path / "c", 12)
    reference = workloads.Reference()
    for name in ("sweep", "scenario"):
        a, b = (workloads.make(name, 11, 1, tmp_path) for _ in range(2))
        assert (a.digest(workloads.run_pass(a, reference).output)
                == b.digest(workloads.run_pass(b, reference).output))


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
