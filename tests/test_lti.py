import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resilient_sse import (
    EstimationError,
    HorizonModel,
    LtiSystem,
    build_horizon,
    load_system_json,
    simulate,
    stack_window,
    weighted_l1_regression,
)
from resilient_sse.lti import read_matrix_csv, row_indices
from conftest import make_system


def test_build_horizon_T1_is_identity_stacking():
    C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sys_ = LtiSystem(A=np.eye(2), C=C)
    model = build_horizon(sys_, 1)
    assert np.allclose(model.H, C)
    s = np.linalg.svd(C, compute_uv=False)
    assert np.isclose(model.sigma_max, s[0])


def test_build_horizon_hand_example_newest_first():
    # x2 chain: window of two steps puts C*A above C
    sys_ = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], C=[[1.0, 0.0]])
    model = build_horizon(sys_, 2)
    assert np.allclose(model.H, [[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(np.linalg.svd(model.H, compute_uv=False), [1.0, 1.0])


def test_build_horizon_rejects_unobservable():
    sys_ = LtiSystem(A=np.eye(3), C=[[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 2.0, 0.0]])
    with pytest.raises(EstimationError, match="^observability rank 2 < n = 3$"):
        build_horizon(sys_, 2)


def test_build_horizon_short_window_degenerate():
    # observable pair, but a single step does not pin the state
    sys_ = LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], C=[[1.0, 0.0]])
    with pytest.raises(EstimationError, match="^H is rank deficient for T=1: singular values "):
        build_horizon(sys_, 1)


def test_build_horizon_rejects_a_window_that_overflows():
    # A^2 overflows to inf, and C's zeros times inf make nan: both are
    # ignored while H is built, and H is rejected, naming T, before its SVD
    sys_ = LtiSystem(A=1e200 * np.eye(2), C=np.eye(3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_horizon(sys_, 2).sigma_max == pytest.approx(1e200)
        with pytest.raises(ValueError, match="H is not finite for T=3"):
            build_horizon(sys_, 3)


def test_build_horizon_rejects_singular_values_that_overflow():
    # every entry of H is finite at T 3, 1.44e308 at most, but its largest
    # singular value, sqrt(2) * 1.44e308, is not: a ValueError naming T, not a
    # rank-deficient H; at 1e154 that singular value is finite and H passes
    C = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passes = build_horizon(LtiSystem(A=1e154 * np.eye(2), C=C), 3)
        assert passes.sigma_max == pytest.approx(2**0.5 * 1e308)
        sys_ = LtiSystem(A=1.2e154 * np.eye(2), C=C)
        assert np.isfinite(sys_.C @ sys_.A @ sys_.A).all()
        with pytest.raises(ValueError, match="^H's singular values overflow for T=3: "):
            build_horizon(sys_, 3)


def test_build_horizon_rejects_an_observability_matrix_that_overflows():
    # H = C at T 1 is rank deficient, so build_horizon ranks the observability
    # matrix, whose A^2 overflows to inf and 0 * inf to nan: rejected before its
    # SVD, where numpy's warnings and "SVD did not converge" came before
    sys_ = LtiSystem(A=1e200 * np.eye(3), C=[[1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the observability matrix is not finite: "
                                             "A's powers overflow$"):
            build_horizon(sys_, 1)


def test_svd_factors_consistency():
    for seed in range(12):
        sys_ = make_system(seed, m=7, n=3)
        T = 1 + seed % 4
        model = build_horizon(sys_, T)
        assert np.max(np.abs(model.U1.T @ model.U1 - np.eye(model.n))) <= 1e-10
        # U1 spans the range of H, and H's largest singular value is U1^T H's
        proj = model.U1.T @ model.H
        assert np.linalg.norm(model.U1 @ proj - model.H) <= 1e-10 * np.linalg.norm(model.H)
        s = np.linalg.svd(proj, compute_uv=False)
        assert np.isclose(model.sigma_max, s[0], rtol=1e-10)
        assert 0 < s[-1] <= model.sigma_max


FACTORS = ("U1", "sigma_max")


def test_factors_are_the_thin_svd_and_U2_the_full_svds_complement():
    # The model carries no U2; the complement is taken here from a full SVD
    # of H, and with U1 it must form an orthogonal basis, which is what lets
    # the isometry analysis read U2[S] U2[S]^T as I - U1[S] U1[S]^T.
    sys_ = make_system(3, m=7, n=3)
    H = build_horizon(sys_, 2).H
    U, s, _ = np.linalg.svd(H, full_matrices=False)
    expected = dict(U1=U, sigma_max=s[0])
    model = build_horizon(sys_, 2)
    for name in FACTORS:
        value = getattr(model, name)
        assert np.array_equal(value, expected[name])  # bitwise, not approximately
        assert getattr(model, name) is value
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
    # no caller reads them, so the model keeps none
    for unread in ("U2", "Sigma1", "V", "sigma_min"):
        assert not hasattr(model, unread)
    U2 = np.linalg.svd(H, full_matrices=True)[0][:, model.n:]
    basis = np.hstack([model.U1, U2])
    assert np.max(np.abs(basis.T @ basis - np.eye(model.rows))) <= 1e-10
    assert np.max(np.abs(U2.T @ model.H)) <= 1e-9


def test_build_horizon_defers_the_full_svd(monkeypatch):
    # deferred for good: building makes one thin SVD, and no read makes another
    svd, calls = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        calls.append((a.shape, kwargs))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    model = build_horizon(make_system(5, m=7, n=3), 3)
    assert calls == [((21, 3), {"full_matrices": False})]
    assert not model.H.flags.writeable
    for name in [f.name for f in dataclasses.fields(model)] + ["n", "rows"]:
        value = getattr(model, name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
    assert len(calls) == 1


def test_horizon_model_is_frozen_and_honours_given_factors():
    model = build_horizon(make_system(2, m=7, n=3), 1)
    for name in ("H",) + FACTORS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(model, name)
    given = dict(U1=np.eye(7, 3), sigma_max=2.0)
    explicit = HorizonModel(H=model.H, **given)
    for name, value in given.items():
        assert getattr(explicit, name) is value
    # equality and hashing stay by identity, as for a plain object
    assert explicit != HorizonModel(H=model.H, **given)
    assert len({model, explicit, model}) == 2


def test_simulate_identity_and_growth():
    sys_ = LtiSystem(A=np.eye(2), C=np.vstack([np.eye(2), [1.0, 1.0]]))
    traj = simulate(sys_, [1.0, 2.0], 3)
    assert np.allclose(traj.states, [[1, 2]] * 3)

    doubling = LtiSystem(A=[[2.0]], C=[[1.0], [1.0]])
    traj = simulate(doubling, [1.0], 3)
    assert np.allclose(traj.states[:, 0], [1.0, 2.0, 4.0])


def test_simulate_attack_is_additive():
    sys_ = make_system(0)
    e = np.zeros(sys_.m)
    e[0] = 5.0
    traj = simulate(sys_, np.ones(sys_.n), 4, np.tile(e, (4, 1)))
    assert np.allclose(traj.attacked_measurements - traj.clean_measurements, np.tile(e, (4, 1)))


def test_simulate_rejects_a_plant_that_overflows():
    # A's 1e30 mode passes the largest float within 20 steps: the recursion's
    # overflow is ignored and the trajectory rejected, naming the steps
    sys_ = LtiSystem(A=[[1e30, 0.0], [0.0, 0.5]], C=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(simulate(sys_, [1.0, 1.0], 10).clean_measurements).all()
        with pytest.raises(ValueError, match="overflows within 20 steps"):
            simulate(sys_, [1.0, 1.0], 20)


def test_simulate_shape_errors():
    sys_ = make_system(1)
    with pytest.raises(ValueError, match="x0 has length"):
        simulate(sys_, np.ones(sys_.n + 1), 3)
    with pytest.raises(ValueError, match="attack schedule has shape"):
        simulate(sys_, np.ones(sys_.n), 3, np.zeros((3, sys_.m + 1)))
    with pytest.raises(ValueError, match="steps must be >= 1"):
        simulate(sys_, np.ones(sys_.n), 0)


def test_stack_window_single_step_and_exactness():
    sys_ = make_system(2)
    traj = simulate(sys_, np.arange(1.0, sys_.n + 1), 5)
    y_T, x0 = stack_window(traj, 3, 1)
    assert np.allclose(y_T, traj.attacked_measurements[3])
    assert np.allclose(x0, traj.states[3])
    assert np.allclose(y_T - traj.clean_measurements[3], 0.0)


def test_stack_window_matches_horizon_model():
    rng = np.random.default_rng(100)
    for seed in range(12):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(n + 1, 13))
        sys_ = make_system(seed, m=m, n=n)
        T = int(rng.integers(1, 5))
        steps = T + 4
        attack = rng.standard_normal((steps, m)) * (rng.random((steps, m)) < 0.2)
        traj = simulate(sys_, rng.standard_normal(n), steps, attack)
        model = build_horizon(sys_, T)
        for end in range(T - 1, steps):
            y_T, x_start = stack_window(traj, end, T)
            e_T = (traj.attacked_measurements - traj.clean_measurements)[end - T + 1:end + 1][::-1]
            assert np.max(np.abs(y_T - model.H @ x_start - e_T.reshape(-1))) <= 1e-9


def test_stack_window_hand_stack():
    sys_ = LtiSystem(A=[[2.0]], C=[[1.0], [3.0]])
    traj = simulate(sys_, [1.0], 3)
    y_T, x0 = stack_window(traj, 1, 2)
    # newest first: measurements of x=2 on top, x=1 below
    assert np.allclose(y_T, [2.0, 6.0, 1.0, 3.0])
    assert np.allclose(x0, [1.0])


def test_stack_window_equals_the_rows_stacked_one_by_one():
    # the window is one reversed slice of the trajectory: the same values as
    # concatenating its rows newest first, in fresh writable arrays, and
    # y_T minus the clean rows so stacked is the attack, row for row
    rng = np.random.default_rng(5)
    sys_ = make_system(4)
    traj = simulate(sys_, rng.standard_normal(sys_.n), 7, rng.standard_normal((7, sys_.m)))
    for T in (1, 3, 7):
        for end in range(T - 1, 7):
            y_T, _ = stack_window(traj, end, T)
            steps = range(end, end - T, -1)
            assert np.array_equal(y_T, np.concatenate([traj.attacked_measurements[i] for i in steps]))
            assert np.array_equal(y_T - np.concatenate([traj.clean_measurements[i] for i in steps]),
                                  np.concatenate([traj.attacked_measurements[i] - traj.clean_measurements[i]
                                                  for i in steps]))
            assert y_T.flags.writeable and not np.shares_memory(y_T, traj.attacked_measurements)


def test_stack_window_range_errors():
    sys_ = make_system(3)
    traj = simulate(sys_, np.ones(sys_.n), 4)
    with pytest.raises(ValueError, match=r"window \[-1, 1\] does not fit"):
        stack_window(traj, 1, 3)
    with pytest.raises(ValueError, match=r"window \[4, 4\] does not fit"):
        stack_window(traj, 4, 1)


def test_system_shape_validation():
    with pytest.raises(ValueError, match="A must be square"):
        LtiSystem(A=np.ones((2, 3)), C=np.ones((4, 3)))
    # a tall A whose row count matches C's columns passes every other check
    with pytest.raises(ValueError, match="A must be square"):
        LtiSystem(A=np.ones((3, 2)), C=np.ones((4, 3)))
    with pytest.raises(ValueError, match="C has 3 columns but the state dimension is 2"):
        LtiSystem(A=np.eye(2), C=np.ones((4, 3)))
    with pytest.raises(ValueError, match="2-D matrix"):
        LtiSystem(A=np.ones(2), C=np.ones((4, 2)))


def test_a_plant_with_no_states_is_rejected():
    # a 0x0 A is square and fits a C without columns: only the state count rejects it
    with pytest.raises(ValueError, match="^the plant needs at least one state, got n = 0$"):
        LtiSystem(A=np.zeros((0, 0)), C=np.zeros((3, 0)))


def test_json_roundtrip(tmp_path):
    sys_ = make_system(4)
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"A": sys_.A.tolist(), "C": sys_.C.tolist(), "x0": [1.0] * sys_.n}))
    loaded, x0 = load_system_json(path)
    assert np.allclose(loaded.A, sys_.A) and np.allclose(loaded.C, sys_.C)
    assert np.allclose(x0, 1.0)


def test_json_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"A": [[1, 0], [0]], "C": [[1, 0]]}')
    with pytest.raises(ValueError, match="inconsistent"):
        load_system_json(path)


def test_csv_roundtrip_and_ragged(tmp_path):
    a_path, c_path = tmp_path / "a.csv", tmp_path / "c.csv"
    a_path.write_text("0.5,0.1\n0.0,0.2\n")
    c_path.write_text("1,0\n0,1\n1,1\n")
    sys_ = LtiSystem(A=read_matrix_csv(a_path), C=read_matrix_csv(c_path))
    assert sys_.n == 2 and sys_.m == 3

    c_path.write_text("1,0\n0\n")
    with pytest.raises(ValueError, match="inconsistent"):
        read_matrix_csv(c_path)


def test_build_horizon_checks_observability_only_when_H_fails(monkeypatch):
    import resilient_sse.lti as lti

    svds, real = [], np.linalg.svd

    def spy(a, *args, **kw):
        svds.append(1)
        return real(a, *args, **kw)

    monkeypatch.setattr(lti.np.linalg, "svd", spy)
    build_horizon(make_system(0, m=8, n=3), 2)
    assert len(svds) == 1  # a full-column-rank H implies observability: H's SVD alone
    svds.clear()
    with pytest.raises(EstimationError, match="^H is rank deficient for T=1: singular values "):
        build_horizon(LtiSystem(A=[[0.0, 1.0], [0.0, 0.0]], C=[[1.0, 0.0]]), 1)
    assert len(svds) == 2  # the observable chain: H's SVD, then the observability matrix's


def test_build_horizon_rejects_a_zero_output_matrix():
    with pytest.raises(EstimationError, match="^observability rank 0 < n = 2$"):
        build_horizon(LtiSystem(A=np.eye(2), C=np.zeros((3, 2))), 2)


def test_build_horizon_accepts_a_full_rank_H_whose_observability_matrix_is_badly_scaled():
    # O = [C; CA] has singular values ~1e11 and ~1.4, below the 1e-10 rank
    # test, while H = C passes the same 1e-10 test on H: the window is decodable;
    # at T 2, H is O, and its rank is named by that same test
    sys_ = LtiSystem(A=np.diag([1e11, 1.0]), C=np.eye(2))
    with pytest.raises(EstimationError, match="^observability rank 1 < n = 2$"):
        build_horizon(sys_, 2)
    model = build_horizon(sys_, 1)
    assert np.array_equal(model.H, np.eye(2))


def system_of_ratio(ratio):
    """An observable pair whose H = C (T = 1) is 4 x 2 with singular values 1
    and `ratio`: C = U diag(1, ratio) V^T, and A a rotation."""
    U = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0]
    c, s = np.cos(0.3), np.sin(0.3)
    C = U @ np.diag([1.0, ratio]) @ np.array([[c, s], [-s, c]])
    return LtiSystem(A=np.array([[0.0, 1.0], [-1.0, 0.0]]), C=C)


def test_build_horizon_rejects_exactly_what_a_unit_weight_solve_rejects():
    # one rank rule, sigma_min > 1e-10 sigma_max, for the model and the l1
    # solve: an H in (1e-12, 1e-10] is not a model whose first solve raises
    sys_ = system_of_ratio(1e-11)
    assert build_horizon(sys_, 2).H.shape == (8, 2)  # observable: a longer window builds
    with pytest.raises(EstimationError, match="^H is rank deficient for T=1: singular values "):
        build_horizon(sys_, 1)
    # the grid stays away from 1.3e-10, where exact data ends in a solver failure
    for ratio, accepted in ((3e-11, False), (3e-9, True)):
        sys_ = system_of_ratio(ratio)
        y = sys_.C @ np.array([1.0, -2.0])
        if accepted:
            assert np.array_equal(build_horizon(sys_, 1).H, sys_.C)
            assert weighted_l1_regression(sys_.C, y, np.ones(4)).gap <= 1e-8 * (1 + np.abs(y).max())
        else:
            with pytest.raises(EstimationError, match="^H is rank deficient for T=1: singular values "):
                build_horizon(sys_, 1)
            with pytest.raises(EstimationError, match="^positive-weight rows of A are numerically rank deficient$"):
                weighted_l1_regression(sys_.C, y, np.ones(4))


def five_row_index_entry_points():
    """Each public entry point that takes 0-based rows, with the name its
    errors use: (name, call taking the rows)."""
    from resilient_sse import (
        ScenarioAttack, SupportPrior, indicator_from_support, prune_online, synthesize_fdia,
        weighted_observer,
    )

    sys_ = make_system(0)
    model = build_horizon(sys_, 1)
    y = model.H @ np.ones(sys_.n)
    prior = SupportPrior(q_hat=np.ones(model.rows), p=np.full(model.rows, 0.9))
    return [
        ("trusted indices", lambda rows: weighted_observer(model, y, rows, 0.5)),
        ("support indices", lambda rows: indicator_from_support(rows, model.rows)),
        ("offline rows", lambda rows: prune_online(rows, prior, 0.5)),
        ("support indices", lambda rows: synthesize_fdia(model, rows, 1.0)),
        ("attack support", lambda rows: ScenarioAttack(support=rows).resolve_support(sys_.C)),
    ]


@pytest.mark.parametrize("rows", [[0.9, 2.7], [True, False, True], np.array([True, False, True])],
                         ids=["fractions", "bool-list", "bool-array"])
def test_every_row_index_entry_point_rejects_fractions_and_masks(rows):
    # fractions were truncated (0.9, 2.7 -> 0, 2) and masks read as rows 1 and 0
    for name, call in five_row_index_entry_points():
        with pytest.raises(ValueError, match=f"^{name} must be integers"):
            call(rows)


@pytest.mark.parametrize("rows", [[-1], [8], [2.0, 8.0], [np.inf], [np.nan]],
                         ids=["negative", "past-end", "float-past-end", "inf", "nan"])
def test_every_row_index_entry_point_range_checks(rows):
    for name, call in five_row_index_entry_points():
        with pytest.raises(ValueError, match=f"^{name} must (lie in \\[0, 8\\)|be integers)"):
            call(rows)



ROWS = 10


@st.composite
def row_index_inputs(draw):
    """Row indices in one of the forms callers pass, clean or not."""
    ints = draw(st.lists(st.integers(-2, ROWS + 1), max_size=12))
    form = draw(st.sampled_from(["list", "intp", "clean intp", "read-only clean intp", "int32",
                                 "clean int32", "whole floats", "fraction", "bool", "2-D"]))
    if form == "list":
        return ints
    if form == "intp":  # unsorted, with repeats
        return np.array(ints, dtype=np.intp)
    if form.endswith("clean intp"):  # strictly increasing, perhaps out of range
        arr = np.unique(np.array(ints, dtype=np.intp))
        arr.flags.writeable = form == "clean intp"
        return arr
    if form.endswith("int32"):
        arr = np.array(ints, dtype=np.int32)
        return np.unique(arr) if form == "clean int32" else arr
    if form == "whole floats":
        return np.array(ints, dtype=float)
    if form == "fraction":
        return np.array(ints, dtype=float) + draw(st.sampled_from([0.5, 1e-9, 0.0]))
    if form == "bool":
        return np.array([v % 2 == 0 for v in ints], dtype=bool)
    return np.array(ints[:len(ints) // 2 * 2], dtype=np.intp).reshape(-1, 2)


def row_indices_reference(values, rows):
    """np.unique of the accepted input as ints, or the message of its rejection."""
    arr = np.asarray(values)
    if arr.dtype == bool or (arr.dtype.kind == "f" and not (arr == np.floor(arr)).all()):
        return "must be integers, not fractions or a boolean mask"
    if arr.size and (arr.min() < 0 or arr.max() >= rows):
        return f"must lie in [0, {rows})"
    return np.unique(arr.astype(int))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(row_index_inputs())
@example(np.array([0, 3, 9], dtype=np.intp))
@example(np.array([], dtype=np.intp))
@example(np.array([-1, 4], dtype=np.intp))
@example(np.array([4, ROWS], dtype=np.intp))
@example(np.array([3, 3], dtype=np.intp))
@example([])
def test_row_indices_matches_np_unique_of_the_accepted_input(values):
    # a clean intp vector takes the one-pass check; every other input, and a
    # clean one out of range, the full path, with the same errors
    expected = row_indices_reference(values, ROWS)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as err:
            row_indices(values, ROWS, "rows")
        assert str(err.value) == f"rows {expected}"
        return
    before = np.array(values, copy=True)
    got = row_indices(values, ROWS, "rows")
    assert got.dtype == np.dtype(int) and got.ndim == 1
    assert np.array_equal(got, expected)
    assert not np.shares_memory(got, np.asarray(values))
    got[...] = -1  # a fresh array: writing into it leaves the input unchanged
    assert np.array_equal(np.asarray(values), before)
