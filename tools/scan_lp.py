"""Standing scan of the l1 core: ``lp`` checked against itself and against HiGHS on fixed families.

    python tools/scan_lp.py

Each family runs every one of its seeds and prints one JSON line; the last
line lists every exception met (a check that failed on one problem, or on a
seed's windows), and the exit status is 1 if any of them is not in
``KNOWN``.  The scan imports the package from the checkout's ``src/``, the
integer problems and the face windows from ``tests/test_lp.py`` and the
``estimate`` windows, their HiGHS objectives and their gate from
``bench/workloads.py``, so it draws the same problems as those do; it needs
the test extras (pytest, hypothesis).

- ``integer-weighted`` (seeds 7-206) and ``integer-unit`` (seeds 0-199): the
  exact integer stacks of ``integer_problems``, whose optimum fits many rows
  exactly and may have several bases.  ``search_bases`` runs on each seed's
  stack; every basis it finds is compared with the cold single solve, by rows
  (``other_rows``: the search ended on other rows) and, on the same rows, by
  the bits of every field of the single solve started there (``other_bits``),
  which must take no pivot.
- ``estimate`` (seeds 1-10, 34 windows each): the windows of the bench's
  ``estimate`` workload at ``--seconds 2``, solved as the CLI solves them,
  with unit weights.  It reports the pivots, the worst relative gap and the
  worst distance from HiGHS's objective, relative to 1 + |objective|; the
  bench's gate on that distance counts the windows that miss it.  The sha256
  of the final bases and of the gaps' bits tell two commits' solves apart.
- ``face`` (seeds 1-600): one ``face_case`` window per seed, its parameters
  drawn by ``default_rng([seed, 1])`` from ``FACE_RANGES``, the values
  ``face_cases`` draws them from (n 12-16, T 4-6, 1-6 extra sensors, 10-40 %
  of the rows attacked, drawn or integer data, unit, two-level or zero
  weights), all above the size rule of the face try.  It counts the tries
  certified and rejected (``_face_dual`` wrapped as ``face_tries`` wraps it),
  the pivots, and the worst gap and distance from HiGHS's objective that
  ``highs_gate`` measures, with the sha256 of the final bases and of the
  gaps' bits.  A window fails where ``highs_gate`` or
  ``assert_face_duals_in_their_box``, the checks of
  ``test_face_certificates_agree_with_highs``, fail.

Reference: McKeeman, "Differential testing for software", Digital Technical
Journal 10(1), 1998.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads: the matrices are small

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
import workloads  # noqa: E402
from resilient_sse import EstimationError, lp  # noqa: E402
from test_lp import (  # noqa: E402
    FACE_RANGES, assert_face_duals_in_their_box, face_case, face_tries, highs_gate, integer_problems,
)

# (family, seed, problem index, check): why that problem fails the check, with the
# CHANGES.md line that names it.  Empty: every check holds on every family.
KNOWN = {}

FIELDS = ("z", "residual", "objective", "dual_objective", "gap", "basis")


def solve(A, y, w, start=None):
    """The single solve, or the class name of the EstimationError or ValueError it raised."""
    try:
        return lp.weighted_l1_regression(A, y, w, start=start)
    except (EstimationError, ValueError) as exc:
        return type(exc).__name__


def scan_integer(seed, report, fail, weighted):
    A, y, w = integer_problems(seed, weighted)
    for i, basis in enumerate(lp.search_bases(A, y, w)):
        report["problems"] += 1
        if basis is None:
            report["given_up"] += 1
            continue
        report["bases"] += 1
        cold, warm = solve(A[i], y[i], w[i]), solve(A[i], y[i], w[i], start=basis)
        if isinstance(cold, str) or isinstance(warm, str):
            fail(i, f"raised {cold if isinstance(cold, str) else warm}")
        elif sorted(basis.tolist()) != cold.basis.tolist():
            report["other_rows"] += 1
            fail(i, "other rows")
        elif warm.iterations or not all(np.array_equal(getattr(warm, f), getattr(cold, f))
                                        for f in FIELDS):
            report["other_bits"] += 1
            fail(i, "other bits")


def solve_report(**counts):
    """The counters of a family of single solves judged against HiGHS, with `counts` after "windows"."""
    return {"windows": 0, **counts, "pivots": 0, "max_pivots": 0, "worst_rel_gap": 0.0,
            "worst_highs_off": 0.0, "bases_sha256": hashlib.sha256(), "gaps_sha256": hashlib.sha256()}


def tally(report, sol, rel_gap, off):
    """Add one certified solve, its relative gap and its distance `off` from HiGHS, to `report`."""
    report["pivots"] += sol.iterations
    report["max_pivots"] = max(report["max_pivots"], sol.iterations)
    report["worst_rel_gap"] = max(report["worst_rel_gap"], rel_gap)
    report["worst_highs_off"] = max(report["worst_highs_off"], off)
    report["bases_sha256"].update(sol.basis.tobytes())
    report["gaps_sha256"].update(np.float64(sol.gap).tobytes())


def scan_estimate(seed, report, fail):
    with tempfile.TemporaryDirectory() as workdir:
        bench = workloads.Estimate(seed, 2, Path(workdir))
    out = []
    for i, y in enumerate(bench.windows):
        report["windows"] += 1
        sol = solve(bench.H, y, np.ones(y.size))
        if isinstance(sol, str):
            fail(i, f"raised {sol}")
            out.append(None)
            continue
        ref = bench.oracle(i)
        out.append(json.dumps({"objective": sol.objective}))
        tally(report, sol, sol.gap / (1.0 + abs(sol.objective)),
              abs(sol.objective - ref) / (1.0 + abs(ref)))
    missed = bench.failures(out)  # names each window it counts on stderr
    if missed:
        fail(None, f"{missed} windows fail the bench's gate")


def face_params(seed):
    """The arguments of ``face_case`` for a seed, each drawn from its values in ``FACE_RANGES``."""
    rng = np.random.default_rng([seed, 1])  # a stream apart from the window's default_rng(seed)
    return (seed, *(values[rng.integers(len(values))] for values in FACE_RANGES))


def scan_face(seed, report, fail):
    A, y, w = face_case(*face_params(seed))
    report["windows"] += 1
    with pytest.MonkeyPatch.context() as monkeypatch:
        tries = face_tries(monkeypatch)
        sol = solve(A, y, w)
    certified = sum(found is not None for _, _, found, _, _ in tries)
    report["tries_certified"] += certified
    report["tries_rejected"] += len(tries) - certified
    if isinstance(sol, str):
        fail(None, f"raised {sol}")
        return
    off, rel_gap, holds = highs_gate(sol, A, y, w)
    tally(report, sol, rel_gap, off)
    try:
        assert_face_duals_in_their_box(tries)
    except AssertionError:
        fail(None, "a face dual outside its box")
    if not holds:
        fail(None, "misses HiGHS or the certificate")


def integer_report():
    return {"problems": 0, "given_up": 0, "bases": 0, "other_rows": 0, "other_bits": 0}


# (family, seeds, scan, its report's counters)
FAMILIES = [
    ("integer-weighted", range(7, 207), lambda s, r, f: scan_integer(s, r, f, True), integer_report),
    ("integer-unit", range(0, 200), lambda s, r, f: scan_integer(s, r, f, False), integer_report),
    ("estimate", range(1, 11), scan_estimate, solve_report),
    ("face", range(1, 601), scan_face, lambda: solve_report(tries_certified=0, tries_rejected=0)),
]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    begin, exceptions = time.perf_counter(), []
    for family, seeds, scan, counters in FAMILIES:
        start, report = time.perf_counter(), counters()
        for seed in seeds:
            scan(seed, report, lambda i, check: exceptions.append((family, seed, i, check)))
        report = {key: v.hexdigest()[:16] if hasattr(v, "hexdigest") else v for key, v in report.items()}
        print(json.dumps({"family": family, "seeds": len(seeds), **report,
                          "seconds": round(time.perf_counter() - start, 1)}), flush=True)
    unlisted = [e for e in exceptions if e not in KNOWN]
    print(json.dumps({"exceptions": [list(e) for e in exceptions], "unlisted": len(unlisted),
                      "seconds": round(time.perf_counter() - begin, 1)}))
    return 1 if unlisted else 0


if __name__ == "__main__":
    sys.exit(main())
