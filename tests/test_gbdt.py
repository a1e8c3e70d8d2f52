import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import median_loop_fit_gbdt, per_tree_predict_gbdt
from vollab import cli, gbdt
from vollab.config import parse_config
from vollab.errors import VollabError
from vollab.gbdt import (GbdtModel, GbdtParams, fit_gbdt, fit_gbdt_slices, predict_gbdt,
                         slice_runs)
from vollab.grids import _gbdt_values, enumerate_grid
from vollab.tree import predict_tree
from vollab.walkforward import build_tasks, validate_params


def staged_train_mae(model: GbdtModel, X, y):
    """Training MAE after each boosting round, reconstructed independently."""
    f = np.full(len(y), model.base_score)
    out = []
    for tree in model.trees:
        f = f + model.params.learning_rate * predict_tree(tree, X)
        out.append(float(np.abs(f - y).mean()))
    return out


SMALL = GbdtParams(leaves=8, min_data=2, feature_fraction=1.0,
                   bagging_fraction=1.0, learning_rate=0.1, rounds=50)


class TestFitGbdt:
    @given(st.lists(st.sampled_from([-0.0, 0.0, 0.5, -1.0, 3.0])
                    | st.floats(-1e300, 1e300, allow_nan=False), min_size=2, max_size=41))
    @settings(max_examples=300, deadline=None)
    def test_base_score_is_median(self, values):
        # odd and even lengths, ties and signed zeros, to the repr
        y = np.array(values)
        p = GbdtParams(min_data=1, rounds=1, feature_fraction=1.0, bagging_fraction=1.0)
        m = fit_gbdt(np.arange(len(y), dtype=float)[:, None], y, p)
        assert repr(m.base_score) == repr(float(np.median(y)))

    def test_nan_target_rejected(self, rng):
        # one bag can miss the nan row; the nan is rejected all the same
        y = rng.normal(size=40)
        y[5] = np.nan
        with pytest.raises(VollabError, match="targets must not be nan"):
            fit_gbdt(rng.normal(size=(40, 2)), y, GbdtParams(rounds=1, min_data=2,
                                                               bagging_fraction=0.5))

    def test_monotone_training_mae_without_subsampling(self, rng):
        for _ in range(3):
            X = rng.normal(size=(40, 3))
            y = rng.normal(size=40)
            m = fit_gbdt(X, y, SMALL)
            maes = staged_train_mae(m, X, y)
            start = float(np.abs(m.base_score - y).mean())
            assert all(b <= a + 1e-12 for a, b in zip([start] + maes, maes))

    def test_fits_step_function(self, rng):
        X = rng.normal(size=(80, 2))
        y = np.where(X[:, 0] > 0, 2.0, -1.0)
        p = GbdtParams(leaves=4, min_data=2, feature_fraction=1.0,
                       bagging_fraction=1.0, learning_rate=0.2, rounds=100)
        m = fit_gbdt(X, y, p)
        assert np.abs(predict_gbdt(m, X) - y).mean() < 0.05

    def test_deterministic_given_seed(self, rng):
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        p = GbdtParams(leaves=8, min_data=3, feature_fraction=0.5,
                       bagging_fraction=0.9, learning_rate=0.1, rounds=20, seed=5)
        a = fit_gbdt(X, y, p)
        b = fit_gbdt(X, y, p)
        q = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(predict_gbdt(a, q), predict_gbdt(b, q))
        c = fit_gbdt(X, y, GbdtParams(**{**p.__dict__, "seed": 6}))
        assert not np.array_equal(predict_gbdt(a, q), predict_gbdt(c, q))

    def test_leaf_values_are_median_residuals(self, rng):
        # single round, no subsampling: leaf value must be the median residual
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        p = GbdtParams(leaves=4, min_data=3, feature_fraction=1.0,
                       bagging_fraction=1.0, learning_rate=1.0, rounds=1)
        m = fit_gbdt(X, y, p)
        tree = m.trees[0]
        leaves = tree.apply(X)
        resid = y - m.base_score
        for leaf in np.unique(leaves):
            assert tree.value[leaf] == pytest.approx(
                np.median(resid[leaves == leaf]), abs=1e-12
            )

    def test_input_validation(self, rng):
        with pytest.raises(VollabError):
            fit_gbdt(rng.normal(size=(3, 1)), np.ones(2), SMALL)
        small_n = GbdtParams(leaves=4, min_data=30, rounds=5)
        with pytest.raises(VollabError):
            fit_gbdt(rng.normal(size=(10, 1)), np.ones(10), small_n)
        for rounds in (0, -5):
            with pytest.raises(VollabError, match="rounds"):
                GbdtParams(rounds=rounds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, rng, bad):
        # a nan used to grow trees with empty nan-valued leaves, and an inf
        # was fitted as a number
        X = rng.normal(size=(30, 3))
        X[7, 1] = bad
        with pytest.raises(VollabError, match="features must be finite"):
            fit_gbdt(X, rng.normal(size=30), SMALL)

    def test_non_finite_feature_outside_every_bag_rejected(self, rng):
        # half of the rows are out of the one bag; their nan used to be
        # fitted and then routed right by apply
        X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
        p = GbdtParams(rounds=1, bagging_fraction=0.5, min_data=2)
        for row in range(40):
            bad = X.copy()
            bad[row, row % 3] = np.nan
            with pytest.raises(VollabError, match="features must be finite"):
                fit_gbdt(bad, y, p)

    @pytest.mark.parametrize("bad", [
        {"min_data": 0}, {"min_data": -3}, {"min_data": True}, {"rounds": 2.5},
        {"leaves": 2.5}, {"max_depth": -7}, {"min_gain": float("nan")}, {"min_gain": -0.5},
    ], ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))))
    def test_params_rejected_before_fitting(self, bad):
        # each of these used to fail mid-fit, or be read as another value
        with pytest.raises(VollabError, match=next(iter(bad))):
            GbdtParams(**bad)

    @pytest.mark.parametrize("bad", [{"learning_rate": "0.1"}, {"feature_fraction": True}],
                             ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))))
    def test_non_real_fractions_rejected(self, bad):
        # a string used to raise a bare TypeError, and True was read as 1.0
        with pytest.raises(VollabError, match=next(iter(bad))):
            GbdtParams(**bad)


def same_trees(got, want, X):
    """Equal base score, node arrays to the bit, trees and predictions."""
    assert repr(got.base_score) == repr(want.base_score)
    assert len(got.trees) == len(want.trees)
    for a, b in zip(got.trees, want.trees):
        assert a.to_json() == b.to_json()
        for name in ("feature", "threshold", "left", "right", "value", "n_samples", "gain"):
            x, w = getattr(a, name), getattr(b, name)
            assert x.dtype == w.dtype and x.tobytes() == w.tobytes(), name
        assert np.signbit(a.value).tolist() == np.signbit(b.value).tolist()
    assert repr(predict_gbdt(got, X).tolist()) == repr(predict_gbdt(want, X).tolist())


def leaf_counts(model):
    """In-bag rows of every leaf of every tree."""
    return np.concatenate([t.n_samples[t.feature < 0] for t in model.trees])


class TestLeafValues:
    """fit_gbdt's leaf values equal a per-leaf np.median loop to the bit."""

    def test_random_and_tied_residuals(self, rng):
        parities = set()
        for trial in range(24):
            n, m = int(rng.integers(8, 90)), int(rng.integers(1, 6))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            if trial % 2:  # rounded, duplicated targets: residuals tie
                y = np.round(y, 1)[rng.integers(0, n, size=n)]
            p = GbdtParams(leaves=int(rng.integers(2, 12)),
                           min_data=int(rng.integers(1, max(2, n // 4))),
                           max_depth=int(rng.integers(-1, 4)), min_gain=0.0,
                           feature_fraction=float(rng.choice([0.5, 1.0])),
                           bagging_fraction=float(rng.choice([0.7, 1.0])),
                           learning_rate=0.3, rounds=int(rng.integers(1, 8)), seed=trial)
            model = fit_gbdt(X, y, p)
            same_trees(model, median_loop_fit_gbdt(X, y, p), X)
            parities.update((leaf_counts(model) % 2).tolist())
        assert parities == {0, 1}

    def test_single_row_leaves(self, rng):
        X = rng.normal(size=(30, 2))
        y = np.round(rng.normal(size=30), 1)
        p = GbdtParams(leaves=30, min_data=1, min_gain=0.0, feature_fraction=1.0,
                       learning_rate=0.5, rounds=6, seed=3)
        model = fit_gbdt(X, y, p)
        assert 1 in leaf_counts(model)
        same_trees(model, median_loop_fit_gbdt(X, y, p), X)

    def test_signed_zero_targets(self, rng):
        # the -0.0 rows leave -0.0 residuals, and np.median of -0.0 values is +0.0
        X = rng.normal(size=(40, 2))
        y = np.where(X[:, 0] < 0, -0.0, np.where(X[:, 1] < 0, 0.0, 1.0))
        p = GbdtParams(leaves=6, min_data=1, min_gain=0.0, feature_fraction=1.0,
                       bagging_fraction=1.0, learning_rate=0.5, rounds=4)
        model = fit_gbdt(X, y, p)
        assert set((leaf_counts(model) % 2).tolist()) == {0, 1}
        same_trees(model, median_loop_fit_gbdt(X, y, p), X)

    def test_odd_leaves_near_the_largest_float(self):
        # 7 rows at about +1.2e308 and 7 at about -1.2e308: each leaf's
        # middle residual would overflow if added to itself
        y = np.concatenate([np.linspace(1.1, 1.3, 7), -np.linspace(1.1, 1.4, 7)]) * 1e308
        X = np.sign(y)[:, None]
        p = GbdtParams(leaves=2, min_data=1, min_gain=0.0, feature_fraction=1.0,
                       bagging_fraction=1.0, learning_rate=0.1, rounds=3)
        model = fit_gbdt(X, y, p)
        assert leaf_counts(model).tolist() == [7] * 6
        assert np.isfinite(model.trees[0].value).all()
        same_trees(model, median_loop_fit_gbdt(X, y, p), X)


class TestSharedSlice:
    """Every fit on one slice, whatever its state and seed, equals the
    oracle's fit, which sorts at every node."""

    @pytest.mark.parametrize("n", [12, 40, 62, 125])
    def test_every_grid_state_equals_its_plain_fit(self, rng, n):
        X = rng.normal(size=(n, 30))
        X[:, ::3] = np.round(X[:, ::3])  # tied values
        X[:, 1] = X[:, 4]  # a duplicated column
        y = rng.normal(size=n)
        seeds = rng.integers(0, 2**63 - 1, size=2).tolist()
        for i, state in enumerate(enumerate_grid("gbdt")):
            p = GbdtParams(**_gbdt_values(state, n), rounds=3, learning_rate=0.3,
                           seed=seeds[i % 2])
            same_trees(fit_gbdt(X, y, p), median_loop_fit_gbdt(X, y, p), X)

    def test_without_bagging(self, rng):
        X, y = rng.normal(size=(50, 6)), rng.normal(size=50)
        for fraction in (1.0, 0.9):  # without bagging, then with it
            p = GbdtParams(leaves=6, min_data=3, rounds=4, bagging_fraction=fraction, seed=2)
            same_trees(fit_gbdt(X, y, p), median_loop_fit_gbdt(X, y, p), X)


def lockstep_case(rng, sizes, width, tied, signed_zeros, bagging):
    """Slices of the given row counts and their fits, all of one rounds.
    Each fit takes one of three or four shapes (leaves, max_depth,
    feature_fraction, min_gain, learning_rate) that differ in every one of
    them, so one round grows trees of many shapes.  min_data is drawn per
    fit.  Slice 0 takes every shape, and each other slice one to three, a
    shape possibly twice."""
    count, rounds = int(rng.integers(3, 5)), int(rng.integers(1, 7))
    shapes = list(zip(*(rng.permutation(values)[:count].tolist() for values in (
        [2, 3, 4, 6], [-1, 0, 1, 2], [0.25, 0.5, 0.75, 1.0], [0.0, 0.01, 0.1, 0.5],
        [0.1, 0.3, 0.5, 1.0]))))
    slices = []
    for s, n in enumerate(sizes):
        X = rng.normal(size=(n, width))
        if tied:
            X = np.round(X)
        X[:, -1] = X[:, 0]  # a duplicated column, or the one column
        y = rng.normal(size=n)
        if signed_zeros:  # mostly +0.0 and -0.0 targets: residuals of either sign
            y = np.where(rng.random(n) < 0.7, rng.choice([-0.0, 0.0], n), np.round(y))
        seed = int(rng.integers(0, 2**63 - 1))
        taken = (rng.permutation(count) if s == 0
                 else rng.integers(0, count, size=rng.integers(1, 4)))
        params = [GbdtParams(leaves=leaves, max_depth=depth, feature_fraction=fraction,
                             min_gain=gain, learning_rate=rate, rounds=rounds,
                             min_data=int(rng.integers(1, n // 2 + 1)),
                             bagging_fraction=0.9 if bagging else 1.0, seed=seed)
                  for leaves, depth, fraction, gain, rate in
                  (shapes[int(i)] for i in taken)]
        slices.append((X, y, rng.normal(size=width), params))
    return slices


class TestLockstep:
    """fit_gbdt_slices forecasts as fit_gbdt and predict_gbdt do, fit by fit."""

    @pytest.fixture(autouse=True, scope="class")
    def lockstep_every_call(self):
        # a call of fewer than LOCKSTEP_SLICES slices would fit through fit_gbdt
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gbdt, "LOCKSTEP_SLICES", 1)
            yield

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(6, 130), min_size=1, max_size=40),
           seed=st.integers(0, 2**32 - 1), width=st.integers(1, 5), tied=st.booleans(),
           signed_zeros=st.booleans(), bagging=st.booleans())
    def test_equals_fit_gbdt_per_fit(self, sizes, seed, width, tied, signed_zeros, bagging):
        slices = lockstep_case(np.random.default_rng(seed), sizes, width, tied, signed_zeros,
                               bagging)
        want = [[repr(float(predict_gbdt(fit_gbdt(X, y, p), block))) for p in params]
                for X, y, block, params in slices]
        got = fit_gbdt_slices(sizes, iter(slices))
        assert [[repr(f) for f in row] for row in got] == want

    def test_slices_are_taken_and_checked_in_order(self, rng):
        # slice 1's nan stops the lockstep before it takes slice 2
        slices = lockstep_case(rng, [20, 30, 25], 3, False, False, True)
        slices[1][0][4, 2] = np.nan
        taken = []

        def lazily():
            for item in slices:
                taken.append(len(item[1]))
                yield item

        with pytest.raises(VollabError, match="features must be finite"):
            fit_gbdt_slices([20, 30, 25], lazily())
        assert taken == [20, 30]

    @pytest.mark.parametrize("bad, message", [
        (np.inf, None), (1e308, None), (np.nan, "targets must not be nan")])
    def test_targets_that_could_overflow_fit_one_by_one(self, rng, bad, message):
        # a running prediction could overflow on such targets, and fit_gbdt
        # can then fail mid-fit: that slice fits through fit_gbdt
        slices = lockstep_case(rng, [30, 40, 35], 2, False, False, True)
        slices[1][1][3] = bad
        if message:
            with pytest.raises(VollabError, match=message):
                fit_gbdt_slices([30, 40, 35], iter(slices))
            return
        want = [[repr(float(predict_gbdt(fit_gbdt(X, y, p), block))) for p in params]
                for X, y, block, params in slices]
        got = fit_gbdt_slices([30, 40, 35], iter(slices))
        assert [[repr(f) for f in row] for row in got] == want

    def test_one_slice_fits_share_its_seed_and_bagging(self, rng):
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        for other in ({"seed": 1}, {"bagging_fraction": 1.0}):
            params = [GbdtParams(min_data=3, rounds=2), GbdtParams(min_data=3, rounds=2, **other)]
            with pytest.raises(VollabError, match="share its seed and bagging"):
                fit_gbdt_slices([20], iter([(X, y, X[0], params)]))

    def test_one_grow_trees_call_per_round(self, rng, monkeypatch):
        # each round grows one tree of every fit, whatever its shape, in
        # one grow_trees call
        calls = []
        original = gbdt.grow_trees

        def counted(*args):
            calls.append(len(args[3]))  # the trees grown
            return original(*args)

        monkeypatch.setattr(gbdt, "grow_trees", counted)
        slices = lockstep_case(rng, [30, 40, 35, 50], 4, False, False, True)
        fits = [p for _, _, _, params in slices for p in params]
        fit_gbdt_slices([30, 40, 35, 50], iter(slices))
        assert calls == [len(fits)] * fits[0].rounds

    @pytest.mark.parametrize("within", [True, False])
    def test_fits_share_their_rounds(self, rng, within):
        # a second rounds on the last fit of slice 0, which holds three or
        # four fits, or on every fit of slice 1
        slices = lockstep_case(rng, [20, 30, 25], 3, False, False, True)
        params = slices[0 if within else 1][3]
        first = len(params) - 1 if within else 0
        params[first:] = [dataclasses.replace(p, rounds=p.rounds + 1) for p in params[first:]]
        with pytest.raises(VollabError, match="share their rounds"):
            fit_gbdt_slices([20, 30, 25], iter(slices))

    def test_block_width_checked(self, rng):
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        with pytest.raises(VollabError, match="expected 2 features, got 3"):
            fit_gbdt_slices([20], iter([(X, y, np.ones(3), [GbdtParams(min_data=3)])]))

    def test_slice_runs_fit_the_stack_budget(self, monkeypatch):
        monkeypatch.setattr(gbdt, "STACK_BYTES", 100 * 10 * 8)  # 100 rows of 10 features
        assert slice_runs([40, 60, 1, 150, 30, 30, 30], 10) == [2, 1, 1, 3]
        assert slice_runs([], 10) == []


def test_one_slice_call_shares_its_rounds(rng):
    # at the default LOCKSTEP_SLICES a one-slice call fits through fit_gbdt,
    # which would take each params' own rounds
    X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
    params = [GbdtParams(min_data=3, rounds=2), GbdtParams(min_data=3, rounds=3)]
    assert gbdt.LOCKSTEP_SLICES > 1
    with pytest.raises(VollabError, match="share their rounds"):
        fit_gbdt_slices([20], iter([(X, y, X[0], params)]))


@pytest.mark.parametrize("other", [{"seed": 1}, {"bagging_fraction": 1.0}])
def test_every_slice_shares_its_seed_and_bagging(rng, other):
    # at the default LOCKSTEP_SLICES a one-slice call fits through fit_gbdt,
    # and it used to take mismatched seeds and bagging without a word
    X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
    params = [GbdtParams(min_data=3, rounds=2), GbdtParams(min_data=3, rounds=2, **other)]
    assert gbdt.LOCKSTEP_SLICES > 1
    with pytest.raises(VollabError, match="share its seed and bagging"):
        fit_gbdt_slices([20], iter([(X, y, X[0], params)]))


def test_gbdt_sweep_validation_peak_memory():
    """One gbdt_sweep-shaped validation (400 days x 3 series, W=63, states
    0/40/80, 5 rounds): the lockstep's stack of the 53 slices' rows and
    blocks (1.4 MB), their column ranks (0.35 MB) and one batched search;
    the peak measured 3.70 MB."""
    cfg = parse_config({"data": {"synthetic": {"seed": 3, "n_days": 400, "n_series": 3}},
                        "horizon": 1})
    grid = [enumerate_grid("gbdt")[k] for k in (0, 40, 80)]
    task = build_tasks(cli._engineer(cfg), "gbdt", 63, horizon=1, s=5, root_seed=3,
                       grid=grid)[0]
    tracemalloc.start()
    try:
        validate_params(task.batch, "gbdt", grid, task.seed, {"gbdt": {"rounds": 5}})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.1e6


class TestNonExtrapolation:
    def test_output_bound_holds_far_outside_range(self, rng):
        for _ in range(10):
            X = rng.normal(size=(60, 3))
            y = rng.normal(size=60)
            p = GbdtParams(leaves=8, min_data=2, feature_fraction=0.6,
                           bagging_fraction=0.9, learning_rate=0.1, rounds=30,
                           seed=int(rng.integers(1000)))
            m = fit_gbdt(X, y, p)
            lo, hi = X.min(), X.max()
            far = rng.uniform(10 * lo, 10 * hi, size=(200, 3))
            preds = predict_gbdt(m, far)
            bound = m.output_bound()
            assert np.all(np.abs(preds - m.base_score) <= bound + 1e-12)

    def test_bound_is_base_plus_shrunk_leaf_sums(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        m = fit_gbdt(X, y, SMALL)
        expected = SMALL.learning_rate * sum(
            np.abs(t.leaf_values()).max() for t in m.trees
        )
        assert m.output_bound() == pytest.approx(expected, rel=1e-12)


class TestPredict:
    def test_single_versus_batch(self, rng):
        X = rng.normal(size=(30, 2))
        m = fit_gbdt(X, rng.normal(size=30), SMALL)
        assert isinstance(predict_gbdt(m, X[0]), float)
        assert predict_gbdt(m, X[0]) == pytest.approx(predict_gbdt(m, X[:1])[0])

    @pytest.mark.parametrize("rows", [1, 40])
    def test_equals_one_apply_per_tree(self, rng, rows):
        X = np.round(rng.normal(size=(60, 3)), 1)
        y = rng.normal(size=60)
        grown = fit_gbdt(X, y, GbdtParams(leaves=6, min_data=2, rounds=40, learning_rate=0.3,
                                          seed=4))
        stumps = fit_gbdt(X, y, GbdtParams(min_gain=1e9, min_data=2, rounds=5))
        assert all(t.n_leaves == 1 for t in stumps.trees)
        # a row on each threshold of each split, which goes right
        at = []
        for tree in grown.trees:
            for j in np.flatnonzero(tree.feature >= 0):
                row = X[len(at) % 60].copy()
                row[tree.feature[j]] = tree.threshold[j]
                at.append(row)
        assert len(at) >= rows
        for model in (grown, stumps):
            for Z in (X[:rows], rng.normal(size=(rows, 3)), np.array(at[:rows])):
                assert (repr(predict_gbdt(model, Z).tolist())
                        == repr(per_tree_predict_gbdt(model, Z).tolist()))
                assert repr(predict_gbdt(model, Z[0])) == repr(per_tree_predict_gbdt(model, Z[0]))

    def test_feature_width_checked(self, rng):
        X = rng.normal(size=(30, 2))
        m = fit_gbdt(X, rng.normal(size=30), SMALL)
        with pytest.raises(VollabError, match="expected 2 features, got 5"):
            predict_gbdt(m, np.ones((2, 5)))
        with pytest.raises(VollabError, match="expected 2 features, got 3"):
            predict_gbdt(m, np.ones(3))
