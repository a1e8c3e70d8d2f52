import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import planted_signal_data
from oracles import qp_oracle_predict, qp_svr_oracle, two_array_fit_svr
from vollab import cli, grids, svr
from vollab.config import parse_config
from vollab.errors import FitError, VollabError
from vollab.features import engineer, log_diff, sequence
from vollab.frames import TimeSeriesFrame, generate_synthetic
from vollab.svr import (
    SvrParams,
    dual_objective,
    fit_svr,
    fit_svr_slices,
    kernel_eval,
    kernel_matrix,
    kkt_violation,
    predict_svr,
    resolve_gamma,
    slice_runs,
)
from vollab.walkforward import build_tasks, validate_params


class TestKernels:
    def test_rbf_known_value(self):
        p = SvrParams(kernel="rbf", gamma=0.5)
        a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        assert kernel_eval(a, b, p, 0.5) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_poly_known_value(self):
        p = SvrParams(kernel="poly", gamma=2.0)
        assert kernel_eval(np.array([1.0]), np.array([3.0]), p, 2.0) == pytest.approx(
            6.0 ** 3
        )

    def test_sigmoid_known_value(self):
        p = SvrParams(kernel="sigmoid", gamma=0.1)
        assert kernel_eval(np.array([2.0]), np.array([5.0]), p, 0.1) == pytest.approx(
            np.tanh(1.0)
        )

    def test_matrix_agrees_with_eval(self, rng):
        A = rng.normal(size=(4, 3))
        B = rng.normal(size=(5, 3))
        for kernel in ("rbf", "poly", "sigmoid"):
            p = SvrParams(kernel=kernel, gamma=0.3)
            K = kernel_matrix(A, B, p, 0.3)
            for i in range(4):
                for j in range(5):
                    assert K[i, j] == pytest.approx(
                        kernel_eval(A[i], B[j], p, 0.3), rel=1e-12
                    )

    def test_gamma_scale_and_auto(self, rng):
        X = rng.normal(size=(20, 4))
        assert resolve_gamma(SvrParams(kernel="rbf", gamma="scale"), X) == pytest.approx(
            1.0 / (4 * X.var())
        )
        assert resolve_gamma(SvrParams(kernel="rbf", gamma="auto"), X) == pytest.approx(
            1.0 / 4
        )
        assert resolve_gamma(SvrParams(kernel="rbf", gamma=0.7), X) == 0.7

    def test_invalid_kernel_rejected(self):
        with pytest.raises(VollabError):
            SvrParams(kernel="wavelet")

    @pytest.mark.parametrize("bad", [
        {"C": float("nan")}, {"epsilon": float("nan")}, {"gamma": float("nan")},
        {"gamma": True}, {"C": True}, {"gamma": "wide"},
    ])
    def test_nan_bool_and_unknown_values_rejected(self, bad):
        # nan fails every comparison, so it used to pass `C <= 0` unseen and
        # give a fit with a nan bias; True used to count as 1
        with pytest.raises(VollabError):
            SvrParams(**{"kernel": "rbf", **bad})


class TestFitSvr:
    def test_flat_targets_give_flat_model(self, rng):
        X = rng.normal(size=(10, 2))
        y = np.full(10, 3.0)
        m = fit_svr(X, y, SvrParams(kernel="rbf", gamma=0.5, epsilon=0.1))
        # everything inside the tube: no support vectors, bias carries the fit
        assert not m.support_mask.any()
        assert predict_svr(m, X[0]) == pytest.approx(3.0, abs=0.1 + 1e-6)

    def test_objective_history_non_decreasing(self, rng):
        for kernel in ("rbf", "poly", "sigmoid"):
            X = rng.normal(size=(25, 3))
            y = rng.normal(size=25)
            m = fit_svr(X, y, SvrParams(kernel=kernel, gamma=0.4, epsilon=0.05))
            h = np.asarray(m.objective_history)
            assert np.all(np.diff(h) >= -1e-9), kernel

    def test_objective_history_reuses_the_training_kernel(self, rng, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel_matrix(*args, **kwargs)

        monkeypatch.setattr(svr, "kernel_matrix", counting)
        X = rng.normal(size=(30, 2))
        y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=30)
        m = fit_svr(X, y, SvrParams(kernel="rbf", gamma=1.0, epsilon=0.05))
        assert m.n_passes > 1 and len(calls) == 1
        monkeypatch.undo()
        assert m.objective_history[-1] == pytest.approx(
            dual_objective(X, y, m.beta, m.alpha, m.alpha_star, m.params, m.gamma), rel=1e-12
        )

    def test_kkt_residual_below_tolerance(self, rng):
        for _ in range(5):
            X = rng.normal(size=(30, 2))
            y = np.sin(X[:, 0]) + 0.1 * rng.normal(size=30)
            m = fit_svr(X, y, SvrParams(kernel="rbf", gamma=1.0, epsilon=0.05), tol=1e-3)
            assert m.converged
            assert kkt_violation(m) <= 1e-3

    def test_box_and_equality_constraints(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        p = SvrParams(kernel="rbf", gamma=0.5, epsilon=0.01, C=2.0)
        m = fit_svr(X, y, p)
        assert np.all(m.alpha >= 0) and np.all(m.alpha <= p.C)
        assert np.all(m.alpha_star >= 0) and np.all(m.alpha_star <= p.C)
        assert m.beta.sum() == pytest.approx(0.0, abs=1e-12)
        # alpha and alpha* never simultaneously active
        assert np.minimum(m.alpha, m.alpha_star).max() == pytest.approx(0.0, abs=1e-12)

    def test_interpolates_clean_signal(self, rng):
        X = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = np.sin(X[:, 0])
        m = fit_svr(X, y, SvrParams(kernel="rbf", gamma=2.0, epsilon=0.01, C=100.0),
                    tol=1e-5)
        err = np.abs(predict_svr(m, X) - y)
        assert err.max() <= 0.02  # within the tube plus solver slack

    def test_duplicating_inactive_rows_leaves_predictions_unchanged(self, rng):
        # points strictly inside the tube carry zero multipliers, so copying
        # them cannot move the optimum (unlike points at the box bound)
        X = rng.normal(size=(12, 2))
        y = 0.3 * rng.normal(size=12)
        p = SvrParams(kernel="rbf", gamma=0.8, epsilon=0.4, C=1.0)
        a = fit_svr(X, y, p, tol=1e-8)
        r = y - (predict_svr(a, X) - a.bias)
        inactive = np.nonzero(
            (a.alpha == 0) & (a.alpha_star == 0) & (np.abs(r) < p.epsilon - 1e-6)
        )[0]
        assert inactive.size > 0
        Xd = np.vstack([X, X[inactive]])
        yd = np.concatenate([y, y[inactive]])
        b = fit_svr(Xd, yd, p, tol=1e-8)
        q = rng.normal(size=(8, 2))
        np.testing.assert_allclose(predict_svr(a, q), predict_svr(b, q), atol=1e-4)

    def test_epsilon_tube_swallows_small_targets(self, rng):
        X = rng.normal(size=(15, 2))
        y = rng.uniform(-0.01, 0.01, size=15)
        m = fit_svr(X, y, SvrParams(kernel="rbf", gamma=0.5, epsilon=0.1))
        assert not m.support_mask.any()

    def test_matches_qp_oracle(self, rng):
        p = SvrParams(kernel="rbf", gamma=0.6, epsilon=0.05, C=1.5)
        X = rng.normal(size=(10, 2))
        y = rng.normal(size=10)
        m = fit_svr(X, y, p, tol=1e-6)
        a, s, obj, bias = qp_svr_oracle(X, y, p)
        assert dual_objective(X, y, m.beta, m.alpha, m.alpha_star, p, m.gamma) == pytest.approx(
            obj, abs=1e-6
        )
        q = rng.normal(size=(6, 2))
        np.testing.assert_allclose(
            predict_svr(m, q), qp_oracle_predict(X, a, s, bias, p, q), atol=1e-4
        )

    def test_model_keeps_copies_of_the_training_arrays(self, rng):
        # fit_svr_slices keeps the caller's float arrays; fit_svr copies them
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        p = SvrParams(kernel="rbf", gamma=0.5, epsilon=0.05)
        m, shared = fit_svr(X, y, p), fit_svr_slices([X], [y], p)[0]
        q = rng.normal(size=(5, 2))
        want, before = repr(predict_svr(m, q).tolist()), predict_svr(shared, q)
        X[:], y[:] = rng.normal(size=(20, 2)), rng.normal(size=20)
        assert repr(predict_svr(m, q).tolist()) == want
        assert np.shares_memory(shared.X, X) and np.shares_memory(shared.y, y)
        assert not np.array_equal(predict_svr(shared, q), before)

    def test_input_validation(self):
        p = SvrParams(kernel="rbf", gamma=0.5)
        with pytest.raises(VollabError):
            fit_svr(np.ones((3, 1)), np.ones(2), p)
        with pytest.raises(VollabError):
            fit_svr(np.array([[np.inf]] * 3), np.ones(3), p)
        with pytest.raises(VollabError, match="one target vector per slice"):
            fit_svr_slices([np.ones((3, 1)), np.ones((3, 1))], [np.ones(3)], p)

    @pytest.mark.parametrize("kernel, scale", [("poly", 1e60), ("rbf", 1e160)])
    def test_non_finite_kernel_matrix_is_fit_error(self, rng, kernel, scale):
        # finite rows whose Gram matrix overflows: poly cubes ~1e120, rbf
        # subtracts inf from inf; the loop would report convergence with a
        # nan bias
        X = scale * rng.normal(size=(8, 2))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FitError):
            fit_svr(X, rng.normal(size=8), SvrParams(kernel=kernel, gamma=0.1))


def _svr_fixtures(rng):
    """(X, y) pairs from n=2 up: plain, rounded with duplicated rows, flat."""
    out = []
    for n in (2, 3, 7, 16):
        X, y = rng.normal(size=(n, 2)), rng.normal(size=n)
        out.append((X, y))
        Xr, yr = np.round(X, 1), np.round(0.5 * y, 1)
        k = n // 2
        Xr[k:2 * k], yr[k:2 * k] = Xr[:k], yr[:k]
        out.append((Xr, yr))
        out.append((X, np.full(n, 0.25)))
    return out


@pytest.mark.parametrize("kernel", ["rbf", "poly", "sigmoid"])
@pytest.mark.parametrize("C", [0.1, 1.0, 3.0])
@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.15])
def test_signed_dual_matches_two_array_loop(kernel, C, epsilon):
    """The signed-vector solver returns exactly what the two-array loop
    returns, down to the objective after each pass and the sign of zero in
    alpha and alpha*."""
    rng = np.random.default_rng(int(1000 * C + 100 * epsilon) + len(kernel))
    p = SvrParams(kernel=kernel, C=C, epsilon=epsilon, gamma=0.8)
    for X, y in _svr_fixtures(rng):
        for tol in (1e-3, 1e-6):
            assert_same_fit(fit_svr(X, y, p, tol=tol), two_array_fit_svr(X, y, p, tol=tol))


def assert_same_fit(got, want):
    for name in ("beta", "alpha", "alpha_star"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), name
        assert np.array_equal(np.signbit(a), np.signbit(b)), name
    assert repr(got.bias) == repr(want.bias)
    assert (got.n_passes, got.converged) == (want.n_passes, want.converged)
    assert got.objective_history == want.objective_history


def test_epsilon_zero_fixtures_prune_before_their_last_pass():
    """With epsilon = 0 a row's alpha and alpha* share one bias bound, so
    fits build overlaps.  The epsilon = 0 fixtures above must reach the
    prune branch before a fit's last pass, so that later updates read the
    rise/fall masks rebuilt after the prune."""
    epsilon, mid_fit = 0.0, 0
    for kernel, C in itertools.product(("rbf", "poly", "sigmoid"), (0.1, 1.0, 3.0)):
        rng = np.random.default_rng(int(1000 * C + 100 * epsilon) + len(kernel))
        p = SvrParams(kernel=kernel, C=C, epsilon=epsilon, gamma=0.8)
        for X, y in _svr_fixtures(rng):
            for tol in (1e-3, 1e-6):
                prunes = []
                want = two_array_fit_svr(X, y, p, tol=tol, prunes=prunes)
                assert_same_fit(fit_svr(X, y, p, tol=tol), want)
                mid_fit += any(k < want.n_passes for k in prunes)
    assert mid_fit >= 10


@pytest.mark.parametrize("kernel", ["rbf", "poly", "sigmoid"])
def test_truncated_fit_matches_two_array_loop(kernel, monkeypatch):
    """One pass and out: the state at the cut, not only at convergence,
    matches the two-array loop."""
    monkeypatch.setattr(svr, "MAX_PASSES", 1)
    monkeypatch.setattr(oracles, "MAX_PASSES", 1)
    rng = np.random.default_rng(len(kernel))
    cut = 0
    for C, epsilon in ((0.1, 0.0), (1.0, 0.05), (3.0, 0.0)):
        p = SvrParams(kernel=kernel, C=C, epsilon=epsilon, gamma=0.8)
        for X, y in _svr_fixtures(rng):
            got = fit_svr(X, y, p, tol=1e-6)
            assert_same_fit(got, two_array_fit_svr(X, y, p, tol=1e-6))
            assert got.n_passes == 1
            cut += not got.converged
    assert cut > 0


SWEEP_STATES = (0, 4, 8, 17, 24, 28, 33, 37, 41)  # perfbench's svr_sweep grid


def pipeline_slices(sizes):
    """(slice, seed, block) triples of a synthetic batch's expanding windows."""
    frame = generate_synthetic(7, 200, 3)
    features = TimeSeriesFrame(
        frame.dates, {k: c for k, c in frame.columns.items() if k != "vol_index"})
    feats = engineer(features, {k for k in frame.names if k.startswith("volume")})
    ds = sequence(feats, log_diff(frame.column("vol_index")[len(frame) - len(feats):]))
    return [(ds.slice(0, n), grids.derive_seed(3, "val", n), ds.blocks[n]) for n in sizes]


def test_pipeline_slices_match_two_array_loop(monkeypatch):
    """Scaled and noised expanding slices of a synthetic batch, n = 10..126,
    solved in lockstep under the nine grid states of perfbench's svr_sweep."""
    grid = grids.enumerate_grid("svr")
    states = [grid[k] for k in SWEEP_STATES]
    fits = []

    def both(Xs, ys, params):
        models = fit_svr_slices(Xs, ys, params)
        fits.extend((m, two_array_fit_svr(X, y, params)) for m, X, y in zip(models, Xs, ys))
        return models

    monkeypatch.setattr(grids, "fit_svr_slices", both)
    slices = pipeline_slices((*range(10, 126, 8), 126))
    assert len(slices) > svr.HANDOFF and slice_runs(len(t) for t, _, _ in slices) == [16]
    grids.forecast("svr", slices, None, states)
    assert len(fits) == len(slices) * len(states)
    for got, want in fits:
        assert_same_fit(got, want)


def assert_same_bits(got, want):
    for name in ("beta", "alpha", "alpha_star"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (repr(got.bias), repr(got.gamma)) == (repr(want.bias), repr(want.gamma))
    assert (got.converged, got.n_passes) == (want.converged, want.n_passes)
    assert [repr(v) for v in got.objective_history] == [
        repr(v) for v in want.objective_history]


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 70), min_size=1, max_size=60),
    seed=st.integers(0, 2**32 - 1),
    width=st.integers(1, 3),
    rounded=st.booleans(),
    kernel=st.sampled_from(["poly", "rbf", "sigmoid"]),
    gamma=st.sampled_from(["scale", "auto"]) | st.floats(0.05, 2.0),
    epsilon=st.sampled_from([0.0, 0.05, 0.15]),
    C=st.sampled_from([0.1, 1.0, 3.0]),
    tol=st.sampled_from([1e-3, 1e-6]),
    handoff=st.sampled_from([0, 1, None]),  # None: more than the slice count
    max_passes=st.sampled_from([1, 2, svr.MAX_PASSES]),
)
def test_lockstep_equals_one_fit_per_slice(sizes, seed, width, rounded, kernel, gamma,
                                           epsilon, C, tol, handoff, max_passes):
    """Slices of mixed sizes, with ties and duplicated rows when rounded;
    the hand-off before the first step, with one slice left, or never; and
    fits cut after one or two passes."""
    rng = np.random.default_rng(seed)
    Xs = [rng.normal(size=(n, width)) for n in sizes]
    ys = [rng.normal(size=n) for n in sizes]
    if rounded:
        Xs, ys = [np.round(X, 1) for X in Xs], [np.round(0.5 * y, 1) for y in ys]
    p = SvrParams(kernel=kernel, gamma=gamma, epsilon=epsilon, C=C)
    with mock.patch.object(svr, "MAX_PASSES", max_passes):
        # fit_svr is a one-slice fit_svr_slices call: at the default HANDOFF
        # it runs the serial loop alone
        want = [fit_svr(X, y, p, tol) for X, y in zip(Xs, ys)]
        with mock.patch.object(svr, "HANDOFF",
                               len(sizes) + 1 if handoff is None else handoff):
            got = fit_svr_slices(Xs, ys, p, tol)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_bits(g, w)


@pytest.mark.parametrize("handoff", [0, 1, 2, 5])
def test_lockstep_pass_that_cannot_move(monkeypatch, handoff):
    """A violation of 0 never meets a negative tol, so a pass can end on a
    step that cannot move (t <= 0); the fit then stops if that pass made no
    update.  Flat targets with epsilon 0 stop in pass 1.  The rounded
    slices stop after passes that moved, so the stopping test reads each
    pass's progress, in lockstep and after a hand-off."""
    Xs, ys = [np.random.default_rng(1).normal(size=(4, 2))], [np.full(4, 0.25)]
    for seed in (3, 6, 7, 8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        Xs.append(np.round(rng.normal(size=(n, 2)), 1))
        ys.append(np.round(rng.normal(size=n), 1))
    p = SvrParams(kernel="rbf", gamma=0.5, epsilon=0.0, C=1.0)
    want = [fit_svr(X, y, p, tol=-1e-3) for X, y in zip(Xs, ys)]
    assert [(w.n_passes, w.converged) for w in want] == [
        (1, False), (6, False), (8, False), (3, False), (2, False)]
    monkeypatch.setattr(svr, "HANDOFF", handoff)  # after the serial fits above
    for got, w in zip(fit_svr_slices(Xs, ys, p, tol=-1e-3), want):
        assert_same_bits(got, w)


def test_runs_of_one_slice_forecast_the_same(monkeypatch):
    grid = grids.enumerate_grid("svr")
    states = [grid[k] for k in SWEEP_STATES]
    slices = pipeline_slices(range(10, 40, 3))
    want = grids.forecast("svr", slices, None, states)
    monkeypatch.setattr(svr, "STACK_BYTES", 1)
    assert slice_runs(len(t) for t, _, _ in slices) == [1] * len(slices)
    assert repr(grids.forecast("svr", slices, None, states)) == repr(want)


def test_slice_runs_fit_the_stack_budget(monkeypatch):
    monkeypatch.setattr(svr, "STACK_BYTES", 3 * 20 * 20 * 8)
    # 10, 20, 20 pad to 3 x 20 x 20; 30 alone is over budget, a run of one
    assert slice_runs([10, 20, 20, 30, 5, 5]) == [3, 1, 2]
    assert slice_runs([10, 10, 30]) == [2, 1]  # 3 x 30 x 30 is over budget
    assert slice_runs([]) == []


def test_non_finite_kernel_raises_as_slice_by_slice(monkeypatch):
    """The rbf state fails on the later slice and the poly state on the
    earlier one: fitting state by state meets the rbf failure first, but
    the error must be the poly one that fitting slice by slice meets."""
    data = planted_signal_data(n=120)
    batch = build_tasks(data, "svr", window=63, horizon=1, s=5, root_seed=0)[0].batch
    grid = grids.enumerate_grid("svr")
    states = [grid[20], grid[0]]  # rbf, then poly
    assert [s.values[0][1] for s in states] == ["rbf", "poly"]
    slices = [(batch.slice(0, n), n, batch.blocks[n]) for n in (12, 20)]
    original = svr.kernel_matrix

    def overflowing(A, B, params, gamma):
        K = original(A, B, params, gamma)
        if A is B and (params.kernel, len(A)) in {("rbf", 20), ("poly", 12)}:
            K[0, 0] = np.inf
        return K

    monkeypatch.setattr(svr, "kernel_matrix", overflowing)
    with pytest.raises(FitError) as want:
        for item in slices:
            grids.forecast("svr", [item], None, states)
    with pytest.raises(FitError) as got:
        grids.forecast("svr", slices, None, states)
    assert str(want.value).startswith("poly kernel matrix has non-finite entries")
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_svr_sweep_validation_peak_memory():
    """One svr_sweep-shaped validation (400 days x 3 series, W=63, its nine
    states): the run of 53 slices holds their noised rows (1.4 MB) and
    padded kernel stack (1.6 MB); the peak measured 4.1 MB."""
    cfg = parse_config({"data": {"synthetic": {"seed": 3, "n_days": 400, "n_series": 3}},
                        "horizon": 1})
    grid = [grids.enumerate_grid("svr")[k] for k in SWEEP_STATES]
    task = build_tasks(cli._engineer(cfg), "svr", 63, horizon=1, s=5, root_seed=3,
                       grid=grid)[0]
    tracemalloc.start()
    try:
        validate_params(task.batch, "svr", grid, task.seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.6e6


class TestPredict:
    def test_single_versus_batch(self, rng):
        X = rng.normal(size=(15, 3))
        y = rng.normal(size=15)
        m = fit_svr(X, y, SvrParams(kernel="rbf", gamma=0.3, epsilon=0.05))
        single = predict_svr(m, X[0])
        batch = predict_svr(m, X[:1])
        assert isinstance(single, float)
        assert single == pytest.approx(batch[0], rel=1e-14)

    def test_feature_width_checked(self, rng):
        X = rng.normal(size=(10, 3))
        m = fit_svr(X, rng.normal(size=10), SvrParams(kernel="rbf", gamma=0.3))
        with pytest.raises(VollabError):
            predict_svr(m, np.ones((2, 4)))
