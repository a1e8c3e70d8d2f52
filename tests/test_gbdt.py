import numpy as np
import pytest

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
