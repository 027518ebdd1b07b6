"""Mutation gate: every listed mutant and every guard's no-op must fail the tier-1 tests.

    python tools/mutants.py

A listed mutant is one exact text replacement in one source file, with the
test that kills it.  A guard is an ``if`` whose body is a single ``raise``
(its no-op tests ``False``) or a ``_require(cond, ...)`` call (its no-op
requires ``True``), found by parsing each module of ``src/resilient_sse``;
the listed mutants are the semantic ones, which no guard's no-op makes.
The killers of a guard of ``src/resilient_sse/<m>.py`` follow one rule:
first the test functions of ``tests/test_<m>.py`` that hold a
``pytest.raises``, then every test that runs rows of the rejection table
(each test function decorated with ``rejections(...)``).

The script copies the checkout once to a temporary directory (without .git,
caches and bench output), and for each mutant, the listed ones first, writes
the mutated file there and runs, in the copy with the copy's ``src/`` first
on the import path, ``python -m pytest -x -q`` on its killers, then, only if
the mutant survives them, the same command on all of tier-1; it restores the
file after.  A mutant survives when all of tier-1 passes, so the killers
change the time, not the verdict.  Each line printed names the test that
killed the mutant, and a mutant that its killers miss but tier-1 kills is
flagged, so that the list or the rule's tests can be corrected.  The exit
status is 1 if any mutant survives, if a listed mutant is stale (its old
text does not occur exactly once in its file, or it is a guard's no-op), or
if the killers, run once on the unmutated copy, do not all pass (a missing
test, or one that fails alone, would kill every mutant it runs against),
and 0 when every mutant is killed.  The rest of the unmutated suite is not
run here: the tier-1 step runs it.
"""

import ast
import contextlib
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/resilient_sse"
LP, EXPERIMENTS = f"{PACKAGE}/lp.py", f"{PACKAGE}/experiments.py"
ESTIMATION, LTI, CLI = f"{PACKAGE}/estimation.py", f"{PACKAGE}/lti.py", f"{PACKAGE}/cli.py"
PRUNED = "return prune_product(instance.prior, eta).safe_set"

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
    (LP, "basis = np.sort(basis, axis=-1)", "basis = np.array(basis)",
     "tests/test_lp.py::test_search_finds_the_bases_of_the_single_solves[unit-two-level-20x10]",
     "every basis is factored in the order its rows came, not ascending"),
    (LP, "scale * float(y_act @ nu)", "scale * float(y_piv @ nu)",
     "tests/test_cli.py::test_estimate_reports_solve_diagnostics",
     "the dual objective is taken on the perturbed y"),
    (LP, "_RANK_RTOL = 1e-10", "_RANK_RTOL = 1e-6",
     "tests/test_lp.py::test_matches_scipy_linprog[near_rank-0]",
     "the rank tolerance loosened ten-thousand-fold"),
    (LP, "_factor(A_act, _greedy_basis(A_act, order, n, big), big)", "_factor(A_act, order[:n], big)",
     "tests/test_lp.py::test_search_on_one_shared_model_equals_the_search_on_its_copies",
     "the cold start never rescues a start that is not usable"),
    (LP, "if norm > _RANK_RTOL:", "if norm > 0:",
     "tests/test_lp.py::test_greedy_basis_matches_gram_schmidt[near_rank]",
     "the rescue keeps every row with a nonzero orthogonal part"),
    (LP, "basis, inv, keep = _factor(A, _fit_order(A, y_piv)[:, :n], big)",
     "basis, inv, keep = *_factor(A, _fit_order(A, y_piv)[:, :n], big)[:2], slice(None)",
     "tests/test_lp.py::test_search_gives_up_where_the_single_solve_leaves_the_pivots",
     "the search keeps every start, whatever its inverse's bound"),
    (LP, "face = n >= _FACE_SIZE and rows >= _FACE_SIZE * n", "face = rows >= _FACE_SIZE * n",
     "tests/test_lp.py::test_the_size_rule_decides_which_solves_try_a_face[240x6]",
     "the single solve tries a face with fewer than 12 unknowns"),
    (LP, "face = n >= _FACE_SIZE and rows >= _FACE_SIZE * n", "face = n >= _FACE_SIZE",
     "tests/test_lp.py::test_the_size_rule_decides_which_solves_try_a_face[120x12]",
     "the single solve tries a face with fewer than 12 positive-weight rows per unknown"),
    (LP, "face = _perturbation(N), n >= _FACE_SIZE and N >= _FACE_SIZE * n",
     "face = _perturbation(N), N >= _FACE_SIZE * n",
     "tests/test_lp.py::test_the_size_rule_decides_which_solves_try_a_face[240x6]",
     "the search hands over at a face with fewer than 12 unknowns"),
    (LP, "face = _perturbation(N), n >= _FACE_SIZE and N >= _FACE_SIZE * n",
     "face = _perturbation(N), n >= _FACE_SIZE",
     "tests/test_lp.py::test_the_size_rule_decides_which_solves_try_a_face[120x12]",
     "the search hands over at a face with fewer than 12 rows per unknown"),
    (LP, "return near & ((np.abs(r0) <= _FACE_ATOL).sum(axis=-1) > n)",
     "return near & ((np.abs(r0) <= _FACE_ATOL).sum(axis=-1) >= n)",
     "tests/test_lp.py::test_a_face_needs_more_than_n_rows_that_fit_without_the_perturbation",
     "a face is tried at a vertex that fits only its n basis rows exactly"),
    (LP, "near = (np.abs(Tab[..., n, :]) <= _PERTURBATION).sum(axis=-1) > n",
     "near = (np.abs(Tab[..., n, :]) <= np.inf).sum(axis=-1) > n",
     "tests/test_lp.py::test_a_face_needs_more_than_n_rows_within_the_perturbation_of_zero",
     "the face screen counts every row as near zero, however far D moves its residual"),
    (LP, "near = (np.abs(Tab[..., n, :]) <= _PERTURBATION).sum(axis=-1) > n",
     "near = (np.abs(Tab[..., n, :]) <= _PERTURBATION).sum(axis=-1) >= n",
     "tests/test_lp.py::test_a_face_needs_more_than_n_rows_within_the_perturbation_of_zero",
     "the face screen passes a vertex whose only rows near zero are its n basis rows"),
    (LP, "if (np.abs(g) <= bound).all():", "if (np.abs(g) <= bound).any():",
     "tests/test_lp.py::test_the_face_certificate_ends_a_window_in_far_fewer_pivots",
     "a face dual is accepted with its completion outside the box on some basis rows"),
    (LP, "_FACE_STEPS = 8", "_FACE_STEPS = 4",
     "tests/test_lp.py::test_the_face_certificate_ends_a_window_in_far_fewer_pivots",
     "a face try gives up after 4 Newton steps"),
    (LP, "_FACE_STEPS = 8", "_FACE_STEPS = 40",
     "tests/test_lp.py::test_a_face_is_tried_once_where_more_than_n_rows_fit_exactly",
     "a face try takes up to 40 Newton steps"),
    (LP, "            face = False  # a rejected dual pivots on, with no second try\n", "",
     "tests/test_lp.py::test_a_face_is_tried_once_where_more_than_n_rows_fit_exactly",
     "a rejected face dual is tried again at every later vertex on a face"),
    (LP, "g = Tab[:n] @ nu", "g = inv.T @ (A_act.T @ nu) if fresh else Tab[:n] @ nu",
     "tests/test_lp.py::test_search_follows_the_single_solve_on_exact_integer_data",
     "the single solve prices a fresh vertex from its inverse"),
    (LP, "j = order[rows, (rise < half[:, None]).sum(axis=1)]",
     "j = order[rows, (rise <= half[:, None]).sum(axis=1)]",
     "tests/test_lp.py::test_search_follows_the_single_solve_on_exact_integer_data",
     "the search steps past a breakpoint whose summed rise meets half the rate exactly"),
    (LP, "found_now |= face and _on_face(Tab, u, basis)", "found_now |= False",
     "tests/test_experiments.py::test_a_sweep_above_the_face_size_rule_matches_single_solves",
     "the search pivots past the vertex where the single solve certifies a face"),
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
    (LTI, 'with np.errstate(over="ignore", invalid="ignore"):\n        for _ in range(k - 1):',
     "with np.errstate():\n        for _ in range(k - 1):",
     "tests/test_lti.py::test_build_horizon_rejects_a_window_that_overflows",
     "a window that overflows warns before it is rejected"),
    (LTI, "s_obs > _RANK_RTOL * s_obs.max(initial=0.0)", "s_obs > 0",
     "tests/test_lti.py::test_build_horizon_accepts_a_full_rank_H_whose_observability_matrix_is_badly_scaled",
     "the observability rank counts every nonzero singular value"),
    (CLI, "except (OSError, ValueError) as exc:", "except ValueError as exc:",
     "tests/test_cli_hostile.py::test_each_hostile_value_alone_exits_cleanly",
     "a file flag's missing file or directory is an error that names no flag"),
    (CLI, 'raise ValueError(f"argument --system-a/--system-c: {exc}")', "raise ValueError(str(exc))",
     "tests/test_cli_hostile.py::test_each_hostile_value_alone_exits_cleanly",
     "a CSV pair that does not fit is an error that names neither flag"),
    (CLI, 'row_indices(support, args.T * system.m, "support indices")', "pass",
     "tests/test_cli_hostile.py::test_each_rejection[attack-support-before-the-model]",
     "an attack's support is checked only after the whole window model is built"),
    (CLI, 'p.add_argument("--out", type=_file(_in_a_directory),', 'p.add_argument("--out",',
     "tests/test_cli_hostile.py::test_each_rejection[sweep-out-missing-directory]",
     "an --out in a missing directory is found only after the whole run"),
]
# Left out: dropping the certificate's ``nu /= max(1.0, float((np.abs(g) / w_B).max()))``.
# The pivot loop and the face try end only where |g| <= w_B (1 + _DUAL_RTOL), so the
# rescale divides nu by at most 1 + 1e-10 and moves the dual objective by at most
# 1e-10 of sum(w) max|y|, a hundredth of the gap tolerance: the mutant is
# near-equivalent, and no test can tell it apart without a dual that is
# infeasible by more than the loop accepts.

IGNORE = shutil.ignore_patterns(".git", ".bench_work", ".benchmarks", ".hypothesis",
                                ".pytest_cache", "__pycache__", "*.egg-info", "build")


def guards(source: str) -> list:
    """(line, guard text, the module with that guard a no-op) for every guard of `source`."""
    data = source.encode()
    # ast columns count UTF-8 bytes, so the offsets are into the bytes
    starts = [0, *itertools.accumulate(map(len, data.splitlines(keepends=True)))]
    found = []
    for node in ast.walk(ast.parse(data)):
        if isinstance(node, ast.If) and len(node.body) == 1 and isinstance(node.body[0], ast.Raise):
            cond, noop = node.test, b"False"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_require" and node.args):
            cond, noop = node.args[0], b"True"
        else:
            continue
        start = starts[cond.lineno - 1] + cond.col_offset
        end = starts[cond.end_lineno - 1] + cond.end_col_offset
        text = " ".join(data[start:end].decode().split())  # one line, however the guard wraps
        found.append((node.lineno, text, (data[:start] + noop + data[end:]).decode()))
    return sorted(found)


def test_functions(path: Path, chosen) -> list:
    """The node ids of the test functions of the file `path` (if any) for which `chosen` holds."""
    if not path.exists():
        return []
    return [f"{path.relative_to(ROOT)}::{node.name}" for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_") and chosen(node)]


def holds_raises(function) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == "raises"
               and getattr(node.value, "id", None) == "pytest" for node in ast.walk(function))


def runs_rejections(function) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "rejections"
               for d in function.decorator_list)


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
def mutated(copy: Path, path: str, source: str):
    """The file `path` of `copy` holding `source`, restored on exit."""
    target = copy / path
    original = target.read_text()
    target.write_text(source)
    try:
        yield
    finally:
        target.write_text(original)


def run_tests(copy: Path, env: dict, tests=(), timeout: float = 900):
    """('passed', 'failed' or 'timeout', the first failed test or None) for `tests` of
    `copy`, or for all of its tier-1 suite when `tests` is empty."""
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                               "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout", None
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return ("passed" if done.returncode == 0 else "failed"), (failed[0] if failed else None)


def main() -> int:
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}
    rejections = [test for path in sorted((ROOT / "tests").glob("test_*.py"))
                  for test in test_functions(path, runs_rejections)]
    generated = []  # (file, mutated source, killers, label)
    for path, source in sources.items():
        own = test_functions(ROOT / "tests" / f"test_{Path(path).stem}.py", holds_raises)
        killers = list(dict.fromkeys(own + rejections))
        generated += [(path, noop, killers, f"{path}:{line}: {text}")
                      for line, text, noop in guards(source)]
    noops = {(path, noop) for path, noop, _, _ in generated}
    listed, stale = [], False
    for path, old, new, killer, reason in MUTANTS:
        source = sources[path].replace(old, new)
        why = ("does not occur exactly once" if sources[path].count(old) != 1
               else "is a guard's no-op" if (path, source) in noops else None)
        if why:
            print(f"stale mutant: {old!r} in {path} {why}")
        stale = stale or bool(why)
        listed.append((path, source, [killer], f"{path}: {reason}"))
    if stale:
        return 1
    begin, survivors, mutants = time.perf_counter(), 0, listed + generated
    with checkout_copy() as (copy, env):
        result, failed = run_tests(copy, env, sorted({t for _, _, killers, _ in mutants for t in killers}))
        if result != "passed":
            print(f"stale killer: the killers do not all pass unmutated ({failed or result})")
            return 1
        for path, source, killers, label in mutants:
            start = time.perf_counter()
            with mutated(copy, path, source):
                result, by = run_tests(copy, env, killers)
                missed = result == "passed"
                if missed:  # the verdict is all of tier-1's
                    result, by = run_tests(copy, env)
            survivors += result == "passed"
            verdict = "SURVIVED" if result == "passed" else "killed"
            note = (" (timeout)" if result == "timeout" else f" by {by}" if by else "") + (
                " (missed by its killers; tier-1 killed it)" if missed and result != "passed" else "")
            print(f"{verdict:8} {time.perf_counter() - start:6.1f} s  {label}{note}", flush=True)
    minutes = (time.perf_counter() - begin) / 60
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed ({len(listed)} listed, "
          f"{len(generated)} guards) in {minutes:.1f} min")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
