"""Benchmark of resilient-sse: one run of one workload.

    python3 bench/run.py --workload {sweep,scenario,estimate} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and writes only under ``.bench_work/`` there. The last
line of standard output is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full run record (environment, output
digests, raw samples), which is also appended to ``.bench_work/runs.jsonl``.

``--trace 0`` times the workload untraced and reports the ``end_to_end``
metrics of ``BENCHMARK.json``. One operation is a paired trial (sweep), a
window (scenario) or a CLI request (estimate); ``throughput_per_s`` counts
operations, and the latency percentiles are over the timed calls into the
package: the requests of ``estimate``, and the ``sweep()`` or
``run_scenario()`` calls of the other two, two per second of ``--seconds``.
``setup_s`` is the median over five fresh processes of the time from the
start of the script to inputs ready, package import included
(``probe_setup.py``).

The shared host's speed drifts by 20% and more within a minute, in CPU time
as much as in wall time. So every time above is reported at a nominal host
speed: a fixed reference computation (``workloads.Reference``) is timed
before and after each chunk of calls and each set-up probe, and the time in
between is scaled by the ratio of ``workloads.REFERENCE_NOMINAL_S`` to the
mean of the two. The raw times and reference timings are in the run record.

``--trace 1`` runs the same work untraced and then traced, and reports the
``per_layer`` metrics of ``BENCHMARK.json`` from the traced pass (see
``tracing.py``); ``trace_overhead_frac`` compares the two passes. A span
expected on the workload but missing makes the run incorrect.

Every pass is checked outside its timed region: the workload's gate (see
``workloads.py``) counts failed operations, and the sha256 of the outputs must
be equal for equal source, workload, seed and size across passes and runs. A
digest that differs from the one recorded in ``baseline.json`` is reported as
output drift on standard error and in the record, but does not fail the run.
"""

import os

# One BLAS thread, set before numpy loads: runs are single-process, and the
# matrices are small.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT, WORK = workloads.ROOT, workloads.WORK
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def tree_digest(directory: Path) -> str:
    """sha256 over the source files under a directory."""
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc":
            h.update(str(path.relative_to(directory)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS if v in os.environ},
        "git_commit": git_commit(),
        "source_sha256": tree_digest(workloads.SRC),
        "bench_sha256": tree_digest(BENCH),
        "seed": seed,
    }


def probe_setup(args) -> float:
    """Set-up seconds of one fresh process (import plus input generation)."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "probe_setup.py"), args.workload, str(args.seed),
         str(args.seconds)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return float(out.stdout.split()[-1])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def check_digest(record: dict, args) -> bool:
    """Same outputs as earlier runs of this source; report drift from the baseline."""
    digest = record["digest"]
    if digest is None:
        return True
    key = f"{args.workload}/{args.seed}/{args.seconds}"
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    env = record["environment"]
    seen = store.setdefault(f"{env['source_sha256']}/{env['bench_sha256']}", {})
    deterministic = seen.setdefault(key, digest) == digest
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    if not deterministic:
        workloads.warn(f"{key}: output digest {digest} differs from an earlier run's {seen[key]}")

    baseline = json.loads((BENCH / "baseline.json").read_text()).get("digests", {})
    record["digest_baseline"] = baseline.get(key)
    record["drift"] = key in baseline and baseline[key] != digest
    if record["drift"]:
        workloads.warn(f"output drift: {key} digest {digest}, baseline {baseline[key]}")
    return deterministic


def untraced_run(wl, reference, args) -> tuple:
    run = workloads.run_pass(wl, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples, setup_reference_s, setup_nominal = [], [reference.seconds()], []
    for _ in range(SETUP_PROBES):
        setup_samples.append(probe_setup(args))
        setup_reference_s.append(reference.seconds())
        setup_nominal.append(workloads.at_nominal_speed(setup_samples[-1], *setup_reference_s[-2:]))
    failed = wl.failures(run.output)
    values = {
        "setup_s": statistics.median(setup_nominal),
        "throughput_per_s": wl.ops / sum(run.nominal_seconds),
        "latency_p50_ms": 1e3 * percentile(run.nominal_seconds, 50),
        "latency_p90_ms": 1e3 * percentile(run.nominal_seconds, 90),
        "peak_rss_mb": peak_rss_mb,
        "success_frac": 1.0 - failed / wl.ops,
    }
    record = {"reference_s": run.reference_s, "op_seconds": run.op_seconds,
              "setup_samples_s": setup_samples, "setup_reference_s": setup_reference_s,
              "digest": wl.digest(run.output)}
    return wl.ops, failed, values, record, True


def traced_run(wl, reference, args) -> tuple:
    plain = workloads.run_pass(wl, reference)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = workloads.run_pass(wl, reference)
    finally:
        tracer.uninstall()
    tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    values = tracer.metrics()
    plain_s, traced_s = sum(plain.nominal_seconds), sum(traced.nominal_seconds)
    values["trace_overhead_frac"] = traced_s / plain_s - 1.0
    failed = wl.failures(plain.output) + wl.failures(traced.output)
    digest = wl.digest(plain.output)
    same_output = wl.digest(traced.output) == digest
    if not same_output:
        workloads.warn("traced and untraced passes gave different outputs")
    missing = tracer.missing(wl.spans)
    if missing:
        workloads.warn(f"trace coverage: spans missing on {args.workload}: {', '.join(missing)}")
    record = {"missing_spans": missing, "digest": digest,
              "pass_seconds": {"untraced": plain_s, "traced": traced_s},
              "op_seconds": {"untraced": plain.op_seconds, "traced": traced.op_seconds},
              "reference_s": {"untraced": plain.reference_s, "traced": traced.reference_s}}
    return 2 * wl.ops, failed, values, record, same_output and not missing


def main(argv=None) -> int:
    args = parse_args(argv)
    load_start = loadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        try:
            wl = workloads.make(args.workload, args.seed, args.seconds, workdir)
        except workloads.SourceMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        reference = workloads.Reference()
        run = traced_run if args.trace else untraced_run
        attempted, failed, values, record, ok = run(wl, reference, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=environment(args.seed), loadavg_start=load_start,
                  loadavg_end=loadavg())
    ok = check_digest(record, args) and ok
    section = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                    for m in spec[section]},
    }
    record.update(result=result, values=values)
    with open(WORK / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
