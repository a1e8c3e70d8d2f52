import numpy as np
import pytest

from oracles import median_loop_fit_gbdt
from vollab.errors import VollabError
from vollab.gbdt import GbdtModel, GbdtParams, fit_gbdt, predict_gbdt
from vollab.tree import predict_tree


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
    def test_base_score_is_median(self, rng):
        y = rng.normal(size=41)
        m = fit_gbdt(rng.normal(size=(41, 2)), y, SMALL)
        assert m.base_score == np.median(y)

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

    def test_feature_width_checked(self, rng):
        X = rng.normal(size=(30, 2))
        m = fit_gbdt(X, rng.normal(size=30), SMALL)
        with pytest.raises(VollabError, match="expected 2 features, got 5"):
            predict_gbdt(m, np.ones((2, 5)))
        with pytest.raises(VollabError, match="expected 2 features, got 3"):
            predict_gbdt(m, np.ones(3))
