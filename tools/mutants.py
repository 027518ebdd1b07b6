"""Mutation gate: every listed mutant of the package must fail the tier-1 tests.

    python tools/mutants.py

Each mutant is one exact text replacement in one source file.  The script
copies the checkout once to a temporary directory (without .git, caches and
bench output), and for each mutant writes the mutated file there, runs
``python -m pytest -x -q`` in the copy with the copy's ``src/`` first on the
import path, and restores the file.  A mutant survives when the tests pass.
The exit status is 1 if any mutant survives, or if a mutant's old text does
not occur exactly once in its file (the list has gone stale), and 0 when
every mutant is killed.  The unmutated suite is not run here: the tier-1
step runs it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LP, EXPERIMENTS = "src/resilient_sse/lp.py", "src/resilient_sse/experiments.py"
ESTIMATION, PRUNING = "src/resilient_sse/estimation.py", "src/resilient_sse/pruning.py"
PRUNED = "return prune_product(instance.prior, eta).safe_set"

# (file, old text, new text, what the mutant breaks)
MUTANTS = [
    (EXPERIMENTS, PRUNED, "return np.array([], dtype=int)",
     "pruned_product trusts no row"),
    (EXPERIMENTS, PRUNED, "return instance.support",
     "pruned_product trusts exactly the attacked rows"),
    (EXPERIMENTS, PRUNED, "return instance.prior.estimated_safe",
     "pruned_product trusts the raw prior"),
    (LP, "_GAP_RTOL = 1e-8", "_GAP_RTOL = 1e-2",
     "the certificate's gap tolerance loosened a million-fold"),
    (LP, "_DUAL_RTOL = 1e-10", "_DUAL_RTOL = 1e-2",
     "the pivots stop at a box violation of 1e-2"),
    (LP, "            basis.sort()\n            w_B = w_act[basis]\n",
     "            w_B = w_act[basis]\n",
     "the basis at reported optimality is factored in pivot order"),
    (LP, "scale * float(y_act @ nu)", "scale * float(y_piv @ nu)",
     "the dual objective is taken on the perturbed y"),
    (LP, "_RANK_RTOL = 1e-10", "_RANK_RTOL = 1e-6",
     "the rank tolerance loosened ten-thousand-fold"),
    (LP, "if not keep.all():", "if False:",
     "the search keeps every start, whatever its inverse's bound"),
    (LP, "if not np.isfinite(inv).all():", "if False:",
     "the single solve pivots on a cold start whose inverse is not finite"),
    (LP, "if stop == cand.size:", "if False:",
     "the single solve indexes past its candidates on a tableau that is not finite"),
    (EXPERIMENTS, "if (g, key) not in index:", "if True:",
     "each trusted set of a group is solved on its own, not shared by its problem"),
    (EXPERIMENTS, "return frozenset() if len(key) in (0, rows) else key", "return key",
     "a trusted set of every row is a problem apart from the unweighted decoder's"),
    (ESTIMATION, "w[row_indices(pruned_safe_set, model.rows, \"trusted indices\")] = 1.0",
     "w[row_indices(pruned_safe_set, model.rows, \"trusted indices\")] = float(omega)",
     "the weighted observer weighs trusted rows like the others"),
    (ESTIMATION, "return bool(np.abs(y_T - model.H @ x_hat).sum() > epsilon)",
     "return bool(np.abs(y_T - model.H @ x_hat).sum() >= epsilon)",
     "the detector flags a residual equal to epsilon"),
    (PRUNING, "if not drift <= 1e-9:", "if False:",
     "the Poisson-binomial pmf's drifted mass goes unchecked"),
]
# Left out: dropping the certificate's ``nu /= max(1.0, float(ratio[k]))``.
# The pivot loop stops only at ratio[k] <= 1 + _DUAL_RTOL, so the rescale
# divides nu by at most 1 + 1e-10 and moves the dual objective by at most
# 1e-10 of sum(w) max|y|, a hundredth of the gap tolerance: the mutant is
# near-equivalent, and no test can tell it apart without a dual that is
# infeasible by more than the loop accepts.

IGNORE = shutil.ignore_patterns(".git", ".bench_work", ".benchmarks", ".hypothesis",
                                ".pytest_cache", "__pycache__", "*.egg-info", "build")


def run_tests(copy: Path, env: dict, timeout: float) -> str:
    """'passed', 'failed' or 'timeout' for the tier-1 suite of `copy`."""
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                              cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main() -> int:
    stale = [(path, old) for path, old, _, _ in MUTANTS
             if (ROOT / path).read_text().count(old) != 1]
    for path, old in stale:
        print(f"stale mutant: {old!r} does not occur exactly once in {path}")
    if stale:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
        where = subprocess.run([sys.executable, "-c", "import resilient_sse; print(resilient_sse.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).resolve().is_relative_to(copy.resolve()):
            print(f"the copy imports the package from {where.stdout.strip()}, not from {copy}")
            return 1
        survivors = 0
        for path, old, new, reason in MUTANTS:
            target = copy / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                result = run_tests(copy, env, timeout=900)
            finally:
                target.write_text(original)
            killed = result != "passed"
            survivors += not killed
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {path}: {reason}"
                  + (" (timeout)" if result == "timeout" else ""), flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
