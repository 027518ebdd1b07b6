"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/baseline.py --seeds 1-10 [--workloads sweep,scenario,estimate]
                              [--trace 0,1] [--seconds 10] [--out bench/baseline.json]

Runs go seed by seed, interleaving the workloads, so that drift of the host
spreads over all of them. For each workload, trace mode and metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(Q3 - Q1) / median``, which ``BENCHMARK.json`` bounds for the
end-to-end metrics. With ``--out`` it also writes those summaries, the run
results and the output digests per workload, seed and size; ``run.py``
reports drift against the digests of ``bench/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    record_line, result_line = out.stdout.strip().splitlines()[-2:]
    return json.loads(record_line), json.loads(result_line)


def summarise(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"values": values, "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    p.add_argument("--workloads", default="sweep,scenario,estimate")
    p.add_argument("--trace", default="0", help="trace modes to run, e.g. 0,1")
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)
    seeds, names = parse_seeds(args.seeds), args.workloads.split(",")
    modes = [int(t) for t in args.trace.split(",")]

    results = {w: {m: [] for m in modes} for w in names}
    digests, environment = {}, None
    for seed in seeds:
        for workload in names:
            for trace in modes:
                record, result = run_once(workload, seed, args.seconds, trace)
                if environment is None:
                    environment = {k: v for k, v in record["environment"].items() if k != "seed"}
                results[workload][trace].append({"seed": seed, **result})
                if record["digest"] is not None:
                    digests[f"{workload}/{seed}/{args.seconds}"] = record["digest"]
                status = "ok" if result["correct"] else "INCORRECT"
                print(f"{workload:9s} seed {seed:3d} trace {trace}: {status}, "
                      f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)

    summary = {}
    for workload in names:
        for trace in modes:
            runs = results[workload][trace]
            metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                       for name in runs[0]["metrics"]}
            summary.setdefault(workload, {})[f"trace{trace}"] = {
                "all_correct": all(r["correct"] for r in runs), "metrics": metrics}
            print(f"\n{workload} --trace {trace}")
            for name, s in metrics.items():
                spread = s.get("spread")
                print(f"  {name:34s} median {s['median']:<14.6g} spread "
                      f"{'-' if spread is None else f'{spread:.4f}'}")

    if args.out:
        doc = {"environment": environment, "seconds": args.seconds, "seeds": seeds,
               "summary": summary, "digests": digests}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
