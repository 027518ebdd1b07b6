"""The three benchmark workloads: seeded inputs, one pass of calls, and the gates.

Each workload does a fixed amount of work, set from ``--seconds`` so that the
code at the baseline commit runs for about that long on a 2-core x86 box (see
``baseline.json``). Fixed work keeps the solver counts of the traced run
exactly repeatable between runs of one seed; a faster program simply finishes
the same work sooner.

A pass makes the workload's calls into the package in chunks and times a
fixed reference computation before the first chunk and after each one, so
that the speed of the host during the pass is measured alongside it.

The package is imported from ``src/`` of the checkout that holds this file;
the program receives only the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Work per second of --seconds, from the baseline rates of each workload. The
# sweep and the scenario make two calls per second of --seconds, and the
# reference is timed around each call: the host's speed switches within
# seconds, so its timings must be dense.
CALLS_PER_S = 2
SWEEP_TRIALS_PER_POINT = 4         # per call; x 5 grid points = 20 paired trials
SCENARIO_WINDOWS = 24              # per call
ESTIMATE_REQUESTS_PER_S = 17       # 170 requests at 10 s, so p90 has 17 beyond it
ESTIMATE_CHUNK = 5                 # requests between two reference timings
# Mean time of Reference.seconds() on an unloaded 2-core x86 box; times are
# reported at the host speed where the reference takes this long.
REFERENCE_NOMINAL_S = 0.023


class SourceMissing(RuntimeError):
    """The package source is not in the checkout."""


def import_package():
    """Import resilient_sse from this checkout's src/, and nowhere else."""
    if not (SRC / "resilient_sse" / "__init__.py").is_file():
        raise SourceMissing(f"no package source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import resilient_sse

    if Path(resilient_sse.__file__).resolve().parent != SRC / "resilient_sse":
        raise SourceMissing(f"resilient_sse was imported from {resilient_sse.__file__}, not {SRC}")
    return resilient_sse


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def warn(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)


class Reference:
    """Fixed work outside the package that times the host's current speed.

    Small dense factorizations and a Python loop, the mix the workloads run.
    Its time moves with the host (frequency, co-tenants), not with the
    package, so dividing a workload's time by it removes most host drift.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._mats = np.random.default_rng(0).standard_normal((250, 24, 12))
        self.seconds()  # first-call costs are not host speed

    def seconds(self) -> float:
        np = self._np
        start = time.perf_counter()
        acc = 0.0
        for M in self._mats:
            q = np.linalg.qr(M)[0]
            s = np.linalg.svd(M, compute_uv=False)
            acc += float(np.linalg.solve(M[:12], q[:12, 0]).sum()) + float(s[0])
            for v in M[0]:
                acc += abs(float(v))
        return time.perf_counter() - start


def at_nominal_speed(seconds: float, ref_before: float, ref_after: float) -> float:
    """Scale a time measured between two reference timings to nominal host speed."""
    return seconds * 2.0 * REFERENCE_NOMINAL_S / (ref_before + ref_after)


@dataclass
class Pass:
    """One execution of a workload's fixed work."""

    op_seconds: list       # wall time of each call into the package
    nominal_seconds: list  # the same at nominal host speed
    output: list           # what the gate checks, one entry per call
    reference_s: list      # reference timings before, between and after the chunks


def run_pass(wl, reference: Reference) -> Pass:
    """Make every call of the workload, timing the reference around each chunk.

    A chunk's calls are scaled to nominal host speed by the mean of the two
    reference timings around the chunk, which follows drift of the host
    within the pass.
    """
    seconds, nominal, results, ref = [], [], [], [reference.seconds()]
    for chunk in wl.chunks:
        chunk_s = []
        for args in chunk:
            start = time.perf_counter()
            try:
                result = wl.call(*args)
            except Exception as exc:  # a failed operation is counted by the gate
                result = exc
            chunk_s.append(time.perf_counter() - start)
            if isinstance(result, Exception):
                traceback.print_exception(result)
            results.append(result)
        ref.append(reference.seconds())
        seconds += chunk_s
        nominal += [at_nominal_speed(t, ref[-2], ref[-1]) for t in chunk_s]
    return Pass(seconds, nominal, wl.collect(results), ref)


class Sweep:
    """Acceptance-03 paired Monte Carlo sweep, in sweep() calls over the whole grid.

    Why: it is the paper's experiment. Every trial draws a fresh 20x10 model
    and solves three tiny LPs, so per-call overhead, certification and
    batching show here, and model caching mostly does not. Call k has master
    seed 1000 * seed + k, so the calls draw distinct trials; the gate pools
    their rows.
    """

    GRID = (0.3, 0.4, 0.5, 0.6, 0.7)
    STRATEGIES = ("none", "prior", "pruned_product")
    spans = (
        "experiments.sweep", "experiments.draw_instance", "lti.build_horizon",
        "fdia.random_support", "fdia.synthesize_fdia", "pruning.indicator_from_support",
        "pruning.gen_confidences", "pruning.sample_prior", "pruning.prune_product",
        "estimation.decode", "estimation.weighted_observer", "estimation.solve_weighted_l1",
        "lp.weighted_l1_regression",
    )

    def __init__(self, seed: int, seconds: int, workdir: Path):
        pkg = import_package()
        self.experiments = pkg.experiments
        self.chunks = [[(pkg.SweepConfig(
            m=20, n=10, T=1, attack_grid=self.GRID, trials=SWEEP_TRIALS_PER_POINT,
            strategies=self.STRATEGIES, true_rate=0.6, eta=0.9, omega=0.01,
            master_seed=1000 * seed + k, workers=1,
        ),)] for k in range(CALLS_PER_S * seconds)]
        self.per_call = len(self.GRID) * SWEEP_TRIALS_PER_POINT
        self.ops = self.per_call * len(self.chunks)  # paired trials

    def call(self, cfg):
        return self.experiments.sweep(cfg)

    def collect(self, results):
        return results

    def failures(self, out) -> int:
        """Calls that raised, plus every trial if the pooled rows break the
        acceptance-03 ordering."""
        done = [res for res in out if not isinstance(res, Exception)]
        failed = self.per_call * (len(out) - len(done))
        if not done:
            return failed
        trials = SWEEP_TRIALS_PER_POINT * len(done)
        slack = 3.0 * math.sqrt(0.25 / trials)
        for p_a in self.GRID:
            none, prior, pruned = (sum(res.row(p_a, s).successes for res in done) / trials
                                   for s in self.STRATEGIES)
            if pruned < prior - slack or prior < none - slack:
                warn(f"sweep ordering fails at {p_a}: {pruned} / {prior} / {none}, slack {slack}")
                return self.ops
        return failed

    def digest(self, out):
        """sha256 of the CSVs that the calls return, in order."""
        if any(isinstance(res, Exception) for res in out):
            return None
        return sha256("".join(res.to_csv() for res in out))


class Scenario:
    """Moving-window observers LO, L1O and WL1P on the bundled surrogate.

    Why: one fixed model serves every window of a run_scenario() call, so
    reuse of model-dependent work shows fully, while the model and prior are
    built once per call. Call k has attack seed 1000 * seed + k.
    """

    T = 3
    OBSERVERS = ("LO", "L1O", "WL1P")
    spans = (
        "experiments.run_scenario", "lti.simulate", "lti.build_horizon", "lti.stack_window",
        "pruning.indicator_from_support", "pruning.gen_confidences", "pruning.sample_prior",
        "pruning.prune_product", "estimation.luenberger_baseline", "estimation.decode",
        "estimation.weighted_observer", "estimation.solve_weighted_l1",
        "lp.weighted_l1_regression",
    )

    def __init__(self, seed: int, seconds: int, workdir: Path):
        pkg = import_package()
        self.experiments = pkg.experiments
        self.system, self.x0 = pkg.load_surrogate()
        self.windows = SCENARIO_WINDOWS  # per call
        self.config = pkg.ScenarioConfig(steps=self.windows + self.T - 1, T=self.T)
        self.chunks = [[(pkg.ScenarioAttack(seed=1000 * seed + k),)]
                       for k in range(CALLS_PER_S * seconds)]
        self.ops = self.windows * len(self.chunks)

    def call(self, attack):
        return self.experiments.run_scenario(self.system, self.x0, attack, self.config,
                                             self.OBSERVERS)

    def collect(self, results):
        return results

    def failures(self, out) -> int:
        """Acceptance-10 gates per call; a failure fails its windows."""
        return sum(self.windows for res in out if not self._passes(res))

    def _passes(self, res) -> bool:
        if isinstance(res, Exception):
            return False
        for coord in range(self.system.n):
            lo, wl = res.rms["LO"][coord], res.rms["WL1P"][coord]
            if not lo >= 100.0 * wl:
                warn(f"scenario coordinate {coord}: LO rms {lo} < 100 x WL1P rms {wl}")
                return False
            if not res.max_abs["WL1P"][coord] <= res.max_abs["L1O"][coord]:
                warn(f"scenario coordinate {coord}: WL1P max_abs above L1O")
                return False
        return True

    def digest(self, out):
        if any(isinstance(res, Exception) for res in out):
            return None
        return sha256("".join(res.to_json() for res in out))


class Estimate:
    """Closed loop, one client: in-process CLI `estimate` requests, one at a time.

    Why: the LP has 240 stacked rows and 12 states, 8-12x the sweep's, and is
    bound by barrier steps rather than polish. The latency includes argparse,
    file I/O and build_horizon, as a CLI user sees it.
    """

    M, N, T = 60, 12, 4
    FRACTIONS = (0.2, 0.3, 0.4)
    spans = (
        "cli.parse_and_dispatch", "lti.build_horizon", "estimation.decode",
        "lp.weighted_l1_regression",
    )

    def __init__(self, seed: int, seconds: int, workdir: Path):
        import numpy as np

        pkg = import_package()
        from resilient_sse import cli

        self.cli = cli
        rng = np.random.default_rng(seed)
        system = pkg.gen_random_system(self.M, self.N, rng)
        model = pkg.build_horizon(system, self.T)
        self.H = model.H
        sys_path = workdir / "system.json"
        sys_path.write_text(json.dumps({"A": system.A.tolist(), "C": system.C.tolist()}))
        self.ops = ESTIMATE_REQUESTS_PER_S * seconds  # requests
        self.windows, argvs, self.out_paths = [], [], []
        for i in range(self.ops):
            x_star = rng.standard_normal(self.N)
            y_star = model.H @ x_star
            epsilon = pkg.experiments.epsilon_from_policy("rel:0.01", y_star)
            support = pkg.random_support(model.rows, self.FRACTIONS[i % 3], rng)
            y = y_star + pkg.synthesize_fdia(model, support, epsilon).e_T
            y_path, out_path = workdir / f"y{i:04d}.json", workdir / f"out{i:04d}.json"
            y_path.write_text(json.dumps(y.tolist()))
            self.windows.append(y)
            self.out_paths.append(out_path)
            argvs.append((["estimate", "--system", str(sys_path), "--T", str(self.T),
                           "--y", str(y_path), "--out", str(out_path)],))
        self.chunks = [argvs[i:i + ESTIMATE_CHUNK] for i in range(0, self.ops, ESTIMATE_CHUNK)]
        self._oracle = {}

    def call(self, argv):
        return self.cli.parse_and_dispatch(argv)

    def collect(self, codes):
        """The JSON each request wrote, or None where it did not exit 0."""
        outputs = []
        for code, path in zip(codes, self.out_paths):
            outputs.append(path.read_text() if code == 0 else None)
            path.unlink(missing_ok=True)
        return outputs

    def oracle(self, i: int) -> float:
        """Optimal l1 objective of window i from scipy's HiGHS."""
        if i not in self._oracle:
            import numpy as np
            from scipy.optimize import linprog

            rows, n = self.H.shape
            eye = np.eye(rows)
            y = self.windows[i]
            res = linprog(
                np.concatenate([np.zeros(n), np.ones(rows)]),
                A_ub=np.block([[self.H, -eye], [-self.H, -eye]]),
                b_ub=np.concatenate([y, -y]),
                bounds=[(None, None)] * n + [(0, None)] * rows,
                method="highs",
            )
            self._oracle[i] = res.fun if res.status == 0 else math.nan
        return self._oracle[i]

    def failures(self, out) -> int:
        """Requests that did not exit 0 or whose objective misses the oracle's."""
        failed = 0
        for i, text in enumerate(out):
            if text is None:
                failed += 1
                continue
            objective, ref = json.loads(text)["objective"], self.oracle(i)
            if not abs(objective - ref) <= 1e-6 * (1.0 + abs(ref)):
                warn(f"estimate request {i}: objective {objective}, HiGHS {ref}")
                failed += 1
        return failed

    def digest(self, out):
        return sha256("".join(text or "!\n" for text in out))


WORKLOADS = {"sweep": Sweep, "scenario": Scenario, "estimate": Estimate}


def make(name: str, seed: int, seconds: int, workdir: Path):
    """Import the package and generate the workload's inputs: the set-up."""
    return WORKLOADS[name](seed, seconds, workdir)
