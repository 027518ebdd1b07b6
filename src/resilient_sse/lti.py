"""Linear plant model, stacked observation window, and trajectory simulation.

The measurement window convention used everywhere in this package: a window
ending at time i covers steps [i-T+1, i], the stacked measurement vector
lists the newest measurement first, and the matching stacked observation
matrix is

    H = [C A^(T-1); ...; C A; C]

so that y_T = H x_{i-T+1} + e_T holds exactly for noiseless dynamics.

Two checked readers live here: ``numeric_array`` for the numbers of a data
file, and ``row_indices`` for every set of 0-based row indices the package
takes (attack supports, trusted and offline rows).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSvd, DimensionMismatch, NotObservable, WindowOutOfRange

_RANK_RTOL = 1e-10        # observability: singular values of O below this * sigma_max are zero
_DEGENERATE_RTOL = 1e-12  # H: full column rank needs sigma_min > this * sigma_max


def _as_matrix(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class LtiSystem:
    """Discrete-time plant x_{i+1} = A x_i observed through y_i = C x_i.

    The intended operating regime is redundant sensing (more sensors than
    states); the constructor only enforces shape consistency so that small
    hand-built systems remain usable in analysis code.
    """

    A: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", _as_matrix(self.A, "A"))
        object.__setattr__(self, "C", _as_matrix(self.C, "C"))
        if self.A.shape[0] != self.A.shape[1]:
            raise DimensionMismatch(f"A must be square, got shape {self.A.shape}")
        if self.C.shape[1] != self.A.shape[0]:
            raise DimensionMismatch(
                f"C has {self.C.shape[1]} columns but the state dimension is {self.A.shape[0]}"
            )

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True, eq=False)
class HorizonModel:
    """Stacked T-step observation matrix with what its callers read of its SVD.

    U1 is the left factor of the thin SVD of H, spanning its range, and
    sigma_min, sigma_max are its extreme singular values.  ``build_horizon``
    fills them from its one thin SVD; a model built directly is given them.
    The model is immutable, compares by identity, and the arrays
    ``build_horizon`` makes are read-only.
    """

    T: int
    H: np.ndarray
    U1: np.ndarray
    sigma_min: float
    sigma_max: float

    @property
    def n(self) -> int:
        return self.H.shape[1]

    @property
    def rows(self) -> int:
        """Total stacked measurement count T*m."""
        return self.H.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """Exact forward simulation: states, clean and attacked measurements."""

    states: np.ndarray              # (steps, n)
    clean_measurements: np.ndarray  # (steps, m)
    attacked_measurements: np.ndarray

    @property
    def steps(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class ObservabilityReport:
    """Numerical rank report of the full observability matrix."""

    rank: int
    n: int
    sigma_min_nonzero: float
    sigma_max: float

    @property
    def observable(self) -> bool:
        return self.rank == self.n


def _output_maps(sys: LtiSystem, k: int) -> list:
    """The k output maps [C, CA, ..., C A^(k-1)]."""
    blocks, M = [sys.C], np.eye(sys.n)
    for _ in range(k - 1):
        M = M @ sys.A
        blocks.append(sys.C @ M)
    return blocks


def check_observability(sys: LtiSystem) -> ObservabilityReport:
    """Rank of the observability matrix [C; CA; ...; C A^(n-1)] via singular values.

    Singular values below 1e-10 * sigma_max are treated as zero.  The
    report carries the verdict; no exception is raised here.
    """
    s = np.linalg.svd(np.vstack(_output_maps(sys, sys.n)), compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    nonzero = s[s > _RANK_RTOL * smax]
    return ObservabilityReport(
        rank=int(nonzero.size),
        n=sys.n,
        sigma_min_nonzero=float(nonzero[-1]) if nonzero.size else 0.0,
        sigma_max=smax,
    )


def build_horizon(sys: LtiSystem, T: int) -> HorizonModel:
    """Build the stacked observation matrix for a T-step window.

    H must have full column rank, sigma_min > 1e-12 * sigma_max, on the
    singular values of one thin SVD, whose U1 and extreme singular values
    then make the model.  A full-column-rank H implies an observable (A, C),
    so observability is checked only when H fails: NotObservable when the
    pair is not observable, else DegenerateSvd (possible for short windows
    even on observable systems).
    """
    if T < 1:
        raise ValueError(f"window length T must be >= 1, got {T}")
    H = np.vstack(_output_maps(sys, T)[::-1])  # newest first: C A^(T-1) on top, C at the bottom

    U, s, _ = np.linalg.svd(H, full_matrices=False)
    if s.size < sys.n or not s[-1] > _DEGENERATE_RTOL * s[0]:
        report = check_observability(sys)
        if not report.observable:
            raise NotObservable(f"observability rank {report.rank} < n = {sys.n}")
        raise DegenerateSvd(
            f"H is rank deficient for T={T}: singular values {np.array2string(s, precision=3)}"
        )
    for arr in (H, U):
        arr.flags.writeable = False
    return HorizonModel(T=T, H=H, U1=U, sigma_min=float(s[-1]), sigma_max=float(s[0]))


def simulate(
    sys: LtiSystem,
    x0,
    steps: int,
    attack_schedule=None,
) -> Trajectory:
    """Run the exact dynamics for `steps` steps starting at x0.

    attack_schedule is None (no attack) or an array of shape (steps, m)
    added to the clean measurements.
    """
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys.n:
        raise DimensionMismatch(f"x0 has length {x0.shape[0]}, expected {sys.n}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")

    attacks = np.zeros((steps, sys.m)) if attack_schedule is None else np.asarray(
        attack_schedule, dtype=float)
    if attacks.shape != (steps, sys.m):
        raise DimensionMismatch(f"attack schedule has shape {attacks.shape}, expected {(steps, sys.m)}")

    states = np.zeros((steps, sys.n))
    clean = np.zeros((steps, sys.m))
    x = x0
    for i in range(steps):
        states[i] = x
        clean[i] = sys.C @ x
        x = sys.A @ x
    attacked = clean + attacks
    for arr in (states, clean, attacked):
        arr.flags.writeable = False
    return Trajectory(states=states, clean_measurements=clean, attacked_measurements=attacked)


def stack_window(traj: Trajectory, end_index: int, T: int):
    """Stack the window [end_index-T+1, end_index], newest measurement first.

    Returns (y_T, x_window_start, e_T) satisfying y_T = H x_start + e_T for
    the matching build_horizon(..., T) model.
    """
    start = end_index - T + 1
    if T < 1 or start < 0 or end_index >= traj.steps:
        raise WindowOutOfRange(
            f"window [{start}, {end_index}] does not fit a trajectory of {traj.steps} steps"
        )
    y_T = traj.attacked_measurements[start:end_index + 1][::-1].flatten()
    e_T = y_T - traj.clean_measurements[start:end_index + 1][::-1].reshape(-1)
    return y_T, traj.states[start].copy(), e_T


# ---------------------------------------------------------------------------
# Checked readers: numbers from files, row indices from callers
# ---------------------------------------------------------------------------

def numeric_array(value, name: str, ndim: int) -> np.ndarray:
    """Parsed JSON or CSV data as a checked float array (ValueError naming `name`).

    ndim 1 takes a flat list, ndim 2 a non-empty list of equal-length rows.
    Entries must be finite ints or floats: no bool, null, string or list.
    """
    rows = value if ndim == 2 else [value]
    if not (isinstance(value, list) and all(isinstance(r, list) for r in rows)
            and {type(v) for r in rows for v in r} <= {int, float}):
        shape = "flat JSON list" if ndim == 1 else "list of rows"
        raise ValueError(f"{name} must be a {shape} of numbers")
    if not rows:
        raise ValueError(f"{name}: empty matrix")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"{name}: rows have inconsistent lengths {sorted(widths)}")
    try:
        out = np.asarray(value, dtype=float)
        finite = np.isfinite(out).all()
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite")
    return out


def row_indices(values, rows: int, name: str) -> np.ndarray:
    """0-based row indices as a sorted int array without repeats.

    Any iterable of integers, of any shape, is accepted; floats only when
    every entry is whole (2.0).  A fractional entry, a boolean mask or an
    index outside [0, rows) raises ValueError naming `name`.  An intp vector
    that is already strictly increasing and in range is copied after one pass.
    """
    if (isinstance(values, np.ndarray) and values.dtype == np.intp and values.ndim == 1
            and (not values.size or 0 <= values[0] and values[-1] < rows
                 and not np.count_nonzero(values[1:] <= values[:-1]))):
        return values.copy()
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if arr.dtype.kind not in "iu" and not (arr.dtype.kind == "f" and (arr == np.floor(arr)).all()):
        raise ValueError(f"{name} must be integers, not fractions or a boolean mask")
    arr = np.sort(arr, axis=None)
    if arr.size and (arr[0] < 0 or arr[-1] >= rows):
        raise ValueError(f"{name} must lie in [0, {rows})")
    arr = arr.astype(int, copy=False)
    keep = np.ones(arr.size, dtype=bool)
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


def load_system_json(path):
    """Read {"A": [[...]], "C": [[...]], "x0": [...]} and return (system, x0).

    x0 is optional (None when absent); its length is checked where it is used.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("system file must hold a JSON object")
    sys = LtiSystem(A=numeric_array(doc.get("A"), "A", 2),
                    C=numeric_array(doc.get("C"), "C", 2))
    x0 = doc.get("x0")
    return sys, None if x0 is None else numeric_array(x0, "x0", 1)


def read_matrix_csv(path) -> np.ndarray:
    """Read a comma-separated numeric matrix; rejects ragged rows."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or all(not c.strip() for c in rec):
                continue
            rows.append([float(c) for c in rec])
    return numeric_array(rows, str(path), 2)


def load_system_csv(a_path, c_path) -> LtiSystem:
    """Build a system from two CSV files, one matrix per file."""
    return LtiSystem(A=read_matrix_csv(a_path), C=read_matrix_csv(c_path))
