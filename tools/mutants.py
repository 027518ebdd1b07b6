"""Mutation gate: every listed mutant of the package must fail the tier-1 tests.

    python tools/mutants.py

Each mutant is one exact text replacement in one source file, with the test
that kills it.  The script copies the checkout once to a temporary directory
(without .git, caches and bench output), and for each mutant writes the
mutated file there and runs, in the copy with the copy's ``src/`` first on
the import path, first ``python -m pytest -x -q`` on the mutant's killer,
then, only if the mutant survives its killer, the same command on all of
tier-1; it restores the file after.  A mutant survives when all of tier-1
passes, so running the killer first changes the time, not the verdict; a
mutant that its killer misses but tier-1 kills is reported, with the test
that killed it, so that the list can be corrected.  The exit status is 1 if
any mutant survives, if a mutant's old text does not occur exactly once in
its file, or if the listed killers, run once on the unmutated copy, do not
all pass (the list has gone stale: a missing test, or one that fails
alone, would kill every mutant), and 0 when every mutant is killed.  The
rest of the unmutated suite is not run here: the tier-1 step runs it.
"""

import contextlib
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
LTI, CLI, ANALYSIS = "src/resilient_sse/lti.py", "src/resilient_sse/cli.py", "src/resilient_sse/analysis.py"
PRUNED = "return prune_product(instance.prior, eta).safe_set"
# SweepConfig's checks of eta and omega, told apart from ScenarioConfig's by their neighbours
SWEEP_ETA = ('                raise ValueError(f"attack grid fractions must lie in [0, 1), got {p_a}")\n'
             "        if not 0.0 < self.eta < 1.0:")
SWEEP_OMEGA = ("if not 0.0 <= self.omega <= 1.0:\n"
               '            raise ValueError(f"omega must lie in [0, 1], got {self.omega}")\n'
               "        check_confidence_model(self.true_rate, self.jitter)\n"
               "        if not 0.0 < self.spectral_radius")

# (file, old text, new text, the test that kills it, what the mutant breaks)
MUTANTS = [
    (EXPERIMENTS, PRUNED, "return np.array([], dtype=int)",
     "tests/test_experiments.py::test_product_pruning_keeps_its_promise_on_the_harness_draws",
     "pruned_product trusts no row"),
    (EXPERIMENTS, PRUNED, "return instance.support",
     "tests/test_experiments.py::test_product_pruning_keeps_its_promise_on_the_harness_draws",
     "pruned_product trusts exactly the attacked rows"),
    (EXPERIMENTS, PRUNED, "return instance.prior.estimated_safe",
     "tests/test_experiments.py::test_product_pruning_keeps_its_promise_on_the_harness_draws",
     "pruned_product trusts the raw prior"),
    (LP, "_GAP_RTOL = 1e-8", "_GAP_RTOL = 1e-2",
     "tests/test_lp.py::test_a_loop_that_stops_short_of_optimal_fails_the_certificate",
     "the certificate's gap tolerance loosened a million-fold"),
    (LP, "_DUAL_RTOL = 1e-10", "_DUAL_RTOL = 1e-2",
     "tests/test_acceptance.py::test_criterion_03_strategy_ordering",
     "the pivots stop at a box violation of 1e-2"),
    (LP, "            basis.sort()\n            w_B = w_act[basis]\n",
     "            w_B = w_act[basis]\n",
     "tests/test_experiments.py::test_scenario_windows_start_at_their_searched_bases[static]",
     "the basis at reported optimality is factored in pivot order"),
    (LP, "scale * float(y_act @ nu)", "scale * float(y_piv @ nu)",
     "tests/test_cli.py::test_estimate_reports_solve_diagnostics",
     "the dual objective is taken on the perturbed y"),
    (LP, "_RANK_RTOL = 1e-10", "_RANK_RTOL = 1e-6",
     "tests/test_lp.py::test_matches_scipy_linprog[near_rank-0]",
     "the rank tolerance loosened ten-thousand-fold"),
    (LP, "inv, keep = _start_inverse(A, basis, big)",
     "inv, keep = _start_inverse(A, basis, big)[0], slice(None)",
     "tests/test_lp.py::test_search_gives_up_where_the_single_solve_leaves_the_pivots",
     "the search keeps every start, whatever its inverse's bound"),
    (LP, "if not np.isfinite(inv).all():", "if False:",
     "tests/test_lp.py::test_a_cold_start_that_does_not_invert_is_a_solver_failure[104]",
     "the single solve pivots on a cold start whose inverse is not finite"),
    (LP, "if stop == cand.size:", "if False:",
     "tests/test_lp.py::test_a_tableau_that_is_not_finite_is_a_solver_failure",
     "the single solve indexes past its candidates on a tableau that is not finite"),
    (EXPERIMENTS, "if (g, key) not in index:", "if True:",
     "tests/test_experiments.py::test_an_empty_or_full_trusted_set_shares_the_decoders_solve",
     "each trusted set of a group is solved on its own, not shared by its problem"),
    (EXPERIMENTS, "return frozenset() if len(key) in (0, rows) else key", "return key",
     "tests/test_experiments.py::test_an_empty_or_full_trusted_set_shares_the_decoders_solve",
     "a trusted set of every row is a problem apart from the unweighted decoder's"),
    (ESTIMATION, "w[row_indices(pruned_safe_set, model.rows, \"trusted indices\")] = 1.0",
     "w[row_indices(pruned_safe_set, model.rows, \"trusted indices\")] = float(omega)",
     "tests/test_acceptance.py::test_criterion_10_scenario_ordering",
     "the weighted observer weighs trusted rows like the others"),
    (ESTIMATION, "return bool(np.abs(y_T - model.H @ x_hat).sum() > epsilon)",
     "return bool(np.abs(y_T - model.H @ x_hat).sum() >= epsilon)",
     "tests/test_cli.py::test_detector_flag_is_detect_on_the_solves_own_residual",
     "the detector flags a residual equal to epsilon"),
    (PRUNING, "if not drift <= 1e-9:", "if False:",
     "tests/test_pruning.py::test_pmf_mass_drift_is_a_numerical_instability",
     "the Poisson-binomial pmf's drifted mass goes unchecked"),
    (LTI, "if self.A.shape[0] != self.A.shape[1]:", "if False:",
     "tests/test_lti.py::test_system_shape_validation",
     "a system with a tall A whose rows match C's columns constructs"),
    (LTI, "if T < 1:", "if False:",
     "tests/test_cli.py::test_a_window_shorter_than_one_step_exits_1[estimate]",
     "a window of T 0 builds the T 1 model"),
    (LTI, "if not np.isfinite(H).all():", "if False:",
     "tests/test_lti.py::test_build_horizon_rejects_a_window_that_overflows",
     "a window that overflows reaches the SVD, which names no T"),
    (LTI, 'with np.errstate(over="ignore", invalid="ignore"):\n        for _ in range(k - 1):',
     "with np.errstate():\n        for _ in range(k - 1):",
     "tests/test_lti.py::test_build_horizon_rejects_a_window_that_overflows",
     "a window that overflows warns before it is rejected"),
    (LTI, "if not np.isfinite(obs).all():", "if False:",
     "tests/test_lti.py::test_check_observability_rejects_powers_that_overflow",
     "an observability matrix that overflows reaches the SVD, which warns and fails"),
    (EXPERIMENTS, "if not math.isfinite(T * m * float(np.abs(traj.clean_measurements).max())):",
     "if False:",
     "tests/test_cli.py::test_scenario_tells_a_plant_that_overflows_from_an_attack_that_does",
     "a plant whose own trajectory overflows is blamed on the attack (exit 2)"),
    (CLI, "_require(0 <= args.omega <= 1,", "_require(True,",
     "tests/test_cli.py::test_estimate_checks_omega_without_safe_rows",
     "estimate takes an omega outside [0, 1] when no row is trusted"),
    (CLI, "_require(x0 is not None,", "_require(True,",
     "tests/test_cli.py::test_a_malformed_system_file_exits_1[no-x0]",
     "scenario runs a system file without x0"),
    (CLI, "except (OSError, ValueError) as exc:", "except ValueError as exc:",
     "tests/test_cli_hostile.py::test_each_hostile_value_alone_exits_cleanly",
     "a file flag's missing file or directory is an error that names no flag"),
    (EXPERIMENTS, SWEEP_ETA, SWEEP_ETA.replace("if not 0.0 < self.eta < 1.0:", "if False:"),
     "tests/test_experiments.py::test_config_validation",
     "a sweep of the plain decoder takes an eta outside (0, 1)"),
    (EXPERIMENTS, SWEEP_OMEGA, SWEEP_OMEGA.replace("if not 0.0 <= self.omega <= 1.0:", "if False:"),
     "tests/test_experiments.py::test_config_validation",
     "a sweep of the plain decoder takes an omega outside [0, 1]"),
    (ANALYSIS, "if not bound_condition(inputs):", "if False:",
     "tests/test_analysis.py::test_recovery_bound_condition_violated",
     "the recovery bound is returned where its isometry condition fails"),
]
# Left out: dropping the certificate's ``nu /= max(1.0, float(ratio[k]))``.
# The pivot loop stops only at ratio[k] <= 1 + _DUAL_RTOL, so the rescale
# divides nu by at most 1 + 1e-10 and moves the dual objective by at most
# 1e-10 of sum(w) max|y|, a hundredth of the gap tolerance: the mutant is
# near-equivalent, and no test can tell it apart without a dual that is
# infeasible by more than the loop accepts.

IGNORE = shutil.ignore_patterns(".git", ".bench_work", ".benchmarks", ".hypothesis",
                                ".pytest_cache", "__pycache__", "*.egg-info", "build")


@contextlib.contextmanager
def checkout_copy():
    """(copy, env): a temporary copy of the checkout, and an environment that imports its src/."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(copy / "src"), env.get("PYTHONPATH")]))
        where = subprocess.run([sys.executable, "-c", "import resilient_sse; print(resilient_sse.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).resolve().is_relative_to(copy.resolve()):
            raise SystemExit(f"the copy imports the package from {where.stdout.strip()}, not from {copy}")
        yield copy, env


@contextlib.contextmanager
def mutated(copy: Path, path: str, old: str, new: str):
    """The file `path` of `copy` with `old` replaced by `new`, restored on exit."""
    target = copy / path
    original = target.read_text()
    target.write_text(original.replace(old, new))
    try:
        yield
    finally:
        target.write_text(original)


def run_tests(copy: Path, env: dict, tests=(), timeout: float = 900):
    """('passed', 'failed' or 'timeout', the first failed test or None) for `tests` of
    `copy`, or for all of its tier-1 suite when `tests` is empty."""
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rf",
                               "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", None
    failed = [line[len("FAILED "):].split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith("FAILED ")]
    return ("passed" if done.returncode == 0 else "failed"), (failed[0] if failed else None)


def killer_first(copy: Path, env: dict, killers):
    """(verdict, the test that killed the mutant or None, whether `killers` did).

    The mutant in `copy` runs against `killers` first and against all of
    tier-1 only if it survives them; it survives when tier-1 passes."""
    if killers:
        result, killer = run_tests(copy, env, killers)
        if result != "passed":
            return result, killer, True
    result, killer = run_tests(copy, env)
    return result, killer, False


def killers_fail(copy: Path, env: dict) -> bool:
    """Whether the listed killers, run on the unmutated `copy`, fail (and say so)."""
    result, failed = run_tests(copy, env, sorted({killer for _, _, _, killer, _ in MUTANTS}))
    if result != "passed":
        print(f"stale mutant: the listed killers do not all pass unmutated ({failed or result})")
    return result != "passed"


def main() -> int:
    stale = [(path, old) for path, old, _, _, _ in MUTANTS
             if (ROOT / path).read_text().count(old) != 1]
    for path, old in stale:
        print(f"stale mutant: {old!r} does not occur exactly once in {path}")
    if stale:
        return 1
    with checkout_copy() as (copy, env):
        if killers_fail(copy, env):
            return 1
        survivors = 0
        for path, old, new, killer, reason in MUTANTS:
            start = time.perf_counter()
            with mutated(copy, path, old, new):
                result, by, first = killer_first(copy, env, [killer])
            killed = result != "passed"
            survivors += not killed
            verdict = "killed" if killed else "SURVIVED"
            note = ("" if first or not killed
                    else f" (missed by its killer; tier-1 killed it{' at ' + by if by else ''})")
            print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {path}: {reason}"
                  + (" (timeout)" if result == "timeout" else "") + note, flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
