import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vollab.tree
from oracles import (
    exhaustive_best_split,
    exhaustive_leafwise_order,
    rows_dict_fit_regression_tree,
    scan_best_split,
    walk_apply,
    walk_predict,
)
from vollab.errors import VollabError
from vollab.gbdt import GbdtParams, fit_gbdt
from vollab.tree import (
    RegressionTree,
    TreeLimits,
    _sse,
    best_split,
    fit_regression_tree,
    predict_tree,
)


def hand_tree(n_features, splits, values):
    """A tree built from its arrays: node j splits as splits[j] = (feature,
    threshold, left, right), or is a leaf holding values[j] if splits[j] is None."""
    size = len(splits)
    feature, left, right = np.full((3, size), -1)
    threshold = np.zeros(size)
    for j, sp in enumerate(splits):
        if sp is not None:
            feature[j], threshold[j], left[j], right[j] = sp
    return RegressionTree(feature, threshold, left, right, np.array(values, dtype=float),
                          np.zeros(size, dtype=int), np.zeros(size), n_features)


def node_depths(tree):
    """Depth of every node reached from the root through left and right."""
    depth, stack = {0: 0}, [0]
    while stack:
        j = stack.pop()
        if tree.feature[j] >= 0:
            for child in (tree.left[j], tree.right[j]):
                assert child not in depth  # each node has one parent
                depth[child] = depth[j] + 1
                stack.append(child)
    return depth


def check_structure(tree, n_rows):
    """Node arrays of one length, 2 * leaves - 1 nodes all reached from the
    root, and row counts that add up from the leaves to the root."""
    size = len(tree.feature)
    for a in (tree.threshold, tree.left, tree.right, tree.value, tree.n_samples, tree.gain):
        assert len(a) == size
    assert size == 2 * tree.n_leaves - 1
    assert sorted(node_depths(tree)) == list(range(size))
    split = tree.feature >= 0
    assert np.all(tree.left[~split] == -1) and np.all(tree.right[~split] == -1)
    assert np.all(tree.gain[~split] == 0.0)
    np.testing.assert_array_equal(
        tree.n_samples[split],
        tree.n_samples[tree.left[split]] + tree.n_samples[tree.right[split]])
    assert tree.n_samples[0] == n_rows and np.all(tree.n_samples >= 1)


@st.composite
def split_cases(draw):
    """(X, y, features, min_samples_leaf) with ties, duplicates and scale."""
    n = draw(st.integers(1, 90))
    m = draw(st.integers(1, 50))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = r.normal(size=(n, m))
    rounded = r.random(m) < 0.5  # few distinct values: many masked positions
    X[:, rounded] = np.round(X[:, rounded], draw(st.integers(0, 1)))
    if draw(st.booleans()):  # a bootstrap draw repeats whole rows
        X = X[r.integers(0, n, size=n)]
    target = draw(st.sampled_from(["normal", "sign", "scaled"]))
    if target == "sign":
        y = r.integers(-1, 2, size=n).astype(float)
    else:
        y = r.normal(size=n) * (1e6 if target == "scaled" else 1.0)
    features = r.permutation(m)[: draw(st.integers(1, m))].tolist()
    return X, y, features, draw(st.integers(1, 12))


class TestBestSplit:
    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(1, 5))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            got = best_split(X, y, range(m), 2)
            want = exhaustive_best_split(X, y, np.arange(n), range(m), 2)
            if want is None:
                assert got is None
            else:
                assert got[1] == want[1]
                assert got[2] == pytest.approx(want[2], abs=1e-12)
                assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)

    def test_threshold_is_midpoint(self):
        X = np.array([[1.0], [3.0], [10.0], [12.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        gain, f, thr = best_split(X, y, [0], 1)
        assert thr == 6.5

    def test_respects_min_samples_leaf(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([0, 0, 0, 0, 0, 10.0])
        sp = best_split(X, y, [0], 3)
        # only the 3/3 split is admissible
        assert sp[2] == 2.5

    def test_min_samples_leaf_below_one_is_rejected(self):
        X, y = np.arange(6.0).reshape(-1, 1), np.arange(6.0)
        with pytest.raises(VollabError, match="min_samples_leaf must be >= 1"):
            best_split(X, y, [0], 0)
        with pytest.raises(VollabError, match="min_samples_leaf must be >= 1"):
            fit_regression_tree(X, y, TreeLimits(min_samples_leaf=0))

    def test_no_split_on_constant_feature(self):
        X = np.ones((10, 1))
        y = np.arange(10.0)
        assert best_split(X, y, [0], 1) is None

    def test_tie_prefers_lower_feature(self):
        # identical duplicated feature: gains tie exactly
        col = np.array([1.0, 2.0, 3.0, 4.0])
        X = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        for features in ([0, 1], [1, 0]):
            gain, f, thr = best_split(X, y, features, 1)
            assert f == 0

    @given(split_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_threshold_scan(self, case):
        got, want = best_split(*case), scan_best_split(*case)
        assert got == want
        if want is not None:
            assert [type(v) for v in got] == [type(v) for v in want]

    def test_near_tie_keeps_the_earlier_candidate(self):
        # both features split the rows 5 | 5, but feature 1 visits each side
        # in another order, so its running sums round to a gain a few ulps
        # above feature 0's
        y = np.array([0.1, 0.7, 0.2, 0.3, 0.6, 3.1, 2.9, 3.3, 2.7, 3.05])
        X = np.column_stack([np.arange(10.0), [3, 4, 0, 2, 1, 9, 6, 8, 5, 7]])
        g0, g1 = best_split(X, y, [0], 1), best_split(X, y, [1], 1)
        assert g0[2] == g1[2] == 4.5
        assert 0 < g1[0] - g0[0] < 1e-10 * _sse(y)
        assert best_split(X, y, [1, 0], 1) == g0


class TestFitRegressionTree:
    def test_leafwise_expansion_matches_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(8, 51))
            m = int(rng.integers(1, 5))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            limits = TreeLimits(max_leaves=8, min_samples_leaf=2, min_gain=0.0)
            tree = fit_regression_tree(X, y, limits=limits)
            got = [(f, thr) for (_, f, thr, _) in tree.expansion_order]
            want = [(f, thr) for (f, thr, _) in exhaustive_leafwise_order(X, y, 8, 2, 0.0)]
            assert got == want

    @pytest.mark.parametrize("bad", [
        {"max_leaves": 0}, {"max_leaves": 2.5}, {"max_depth": -7}, {"min_gain": float("nan")},
        {"min_gain": -1.0},
    ], ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))))
    def test_limits_rejected(self, bad):
        # each of these used to be accepted and read as another value
        with pytest.raises(VollabError, match=next(iter(bad))):
            TreeLimits(**bad)

    def test_targets_whose_squares_overflow_rejected(self):
        # the running sums of y * y overflowed, so every gain was nan and the
        # tree split at 0.5, 1.5 and 2.5 instead of once at 3.5
        X = np.arange(8.0)[:, None]
        with pytest.raises(VollabError, match=r"\(sum of \|y\|\) \*\* 2"):
            fit_regression_tree(X, np.repeat([1e200, -1e200], 4))
        tree = fit_regression_tree(X, np.repeat([1e150, -1e150], 4))
        assert tree.expansion_order[0][1:3] == (0, 3.5)
        assert np.isfinite(tree.gain).all()

    def test_expansion_order_is_read_from_the_node_arrays(self, rng):
        X, y = rng.normal(size=(40, 3)), rng.normal(size=40)
        tree = fit_regression_tree(X, y, TreeLimits(max_leaves=6, min_samples_leaf=2))
        order = tree.expansion_order
        assert [type(v) for e in order for v in e] == [int, int, float, float] * len(order)
        assert [tree.left[j] for j, _, _, _ in order] == list(range(1, 2 * len(order), 2))
        with pytest.raises(AttributeError):
            tree.expansion_order = []

    def test_leaf_count_limit(self, rng):
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        tree = fit_regression_tree(
            X, y, limits=TreeLimits(max_leaves=5, min_samples_leaf=1, min_gain=0.0)
        )
        assert tree.n_leaves <= 5

    def test_depth_limit(self, rng):
        X = rng.normal(size=(64, 2))
        y = rng.normal(size=64)
        tree = fit_regression_tree(
            X, y,
            limits=TreeLimits(max_leaves=64, max_depth=2, min_samples_leaf=1, min_gain=0.0),
        )
        depth = node_depths(tree)
        assert max(depth.values()) == 2  # leaves sit below depth-1 splits
        assert all(d < 2 or tree.feature[j] < 0 for j, d in depth.items())

    def test_min_gain_stops_growth(self, rng):
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40) * 1e-6
        tree = fit_regression_tree(
            X, y, limits=TreeLimits(max_leaves=16, min_samples_leaf=1, min_gain=1.0)
        )
        assert tree.n_leaves == 1

    def test_single_leaf_predicts_mean(self, rng):
        y = rng.normal(size=12)
        X = np.ones((12, 1))
        tree = fit_regression_tree(X, y)
        np.testing.assert_allclose(predict_tree(tree, X), np.full(12, y.mean()))

    def test_strictly_less_routes_left(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 10.0])
        tree = fit_regression_tree(
            X, y, limits=TreeLimits(max_leaves=2, min_samples_leaf=1, min_gain=0.0)
        )
        thr = tree.threshold[0]
        assert predict_tree(tree, np.array([[thr]]))[0] == 10.0  # at threshold -> right
        assert predict_tree(tree, np.array([[thr - 1e-9]]))[0] == 0.0

    def test_perfect_fit_on_separable_data(self, rng):
        X = rng.normal(size=(30, 1))
        y = (X[:, 0] > 0).astype(float)
        tree = fit_regression_tree(
            X, y, limits=TreeLimits(max_leaves=4, min_samples_leaf=1, min_gain=0.0)
        )
        np.testing.assert_allclose(predict_tree(tree, X), y)

    def test_feature_subset_determinism(self, rng):
        X = rng.normal(size=(50, 8))
        y = rng.normal(size=50)
        a = fit_regression_tree(X, y, feature_subset=0.4, seed=11)
        b = fit_regression_tree(X, y, feature_subset=0.4, seed=11)
        c = fit_regression_tree(X, y, feature_subset=0.4, seed=12)
        assert a.to_json() == b.to_json()
        used_a = {f for (_, f, _, _) in a.expansion_order}
        used_c = {f for (_, f, _, _) in c.expansion_order}
        assert len(used_a | used_c) >= len(used_a)  # seeds draw different pools
        k = int(np.ceil(0.4 * 8))
        assert len(used_a) <= k

    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(VollabError):
            fit_regression_tree(np.ones((3, 1)), np.ones(2))
        with pytest.raises(VollabError):
            fit_regression_tree(np.ones((3, 1)), np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        # a nan row made the threshold nan, which sends every row right: the
        # split repeated into three empty nan-valued leaves and 1/6 everywhere
        X = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [bad]])
        with pytest.raises(VollabError, match="features must be finite"):
            fit_regression_tree(X, [0, 0, 0, 0, 0, 1], TreeLimits(max_leaves=4))

    @pytest.mark.parametrize("fraction", [0.5, 1.0])
    def test_negative_seed_rejected_at_every_fraction(self, fraction):
        with pytest.raises(ValueError):
            fit_regression_tree(np.ones((4, 2)), np.ones(4), feature_subset=fraction, seed=-1)


@st.composite
def growth_cases(draw):
    """(X, y, limits, feature_subset, seed) with ties, duplicated rows and
    every limit binding or not, min_samples_leaf above n / 2 included."""
    n = draw(st.integers(1, 80))
    m = draw(st.integers(1, 20))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = r.normal(size=(n, m))
    rounded = r.random(m) < 0.5  # few distinct values: tied thresholds
    X[:, rounded] = np.round(X[:, rounded], draw(st.integers(0, 1)))
    y = r.normal(size=n)
    target = draw(st.sampled_from(["normal", "sign", "rounded"]))
    if target == "sign":
        y = r.integers(-1, 2, size=n).astype(float)
    elif target == "rounded":
        y = np.round(y, 1)
    if draw(st.booleans()):  # a bootstrap draw repeats whole rows
        boot = r.integers(0, n, size=n)
        X, y = X[boot], y[boot]
    limits = TreeLimits(max_leaves=draw(st.integers(1, 40)),
                        max_depth=draw(st.integers(-1, 5)),
                        min_samples_leaf=draw(st.integers(1, 12)),
                        min_gain=draw(st.sampled_from([0.0, 0.5])))
    return (X, y, limits, draw(st.sampled_from([0.2, 0.5, 1.0])),
            draw(st.integers(0, 2**63 - 2)))


class TestAgainstTheRowsDictGrowth:
    @given(growth_cases())
    @settings(max_examples=300, deadline=None)
    def test_same_nodes_and_split_searches(self, case):
        searches, search = [], vollab.tree.best_split

        def recording(X, y, features, min_samples_leaf):
            searches[-1].append((len(y), list(features), min_samples_leaf))
            return search(X, y, features, min_samples_leaf)

        trees = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vollab.tree, "best_split", recording)
            for fit in (fit_regression_tree, rows_dict_fit_regression_tree):
                searches.append([])
                trees.append(fit(*case))
        got, want = trees
        for name in ("feature", "threshold", "left", "right", "value", "n_samples", "gain"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.n_features == want.n_features
        assert searches[0] == searches[1]


class TestApplyAndGains:
    def test_apply_partitions_rows(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = fit_regression_tree(
            X, y, limits=TreeLimits(max_leaves=6, min_samples_leaf=2, min_gain=0.0)
        )
        leaves = tree.apply(X)
        values = tree.leaf_values()
        assert set(np.unique(leaves)) <= set(np.flatnonzero(tree.feature < 0))
        preds = predict_tree(tree, X)
        for leaf in np.unique(leaves):
            np.testing.assert_allclose(preds[leaves == leaf], tree.value[leaf])

    def test_equals_the_row_walk(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(2, 60)), int(rng.integers(1, 6))
            X = np.round(rng.normal(size=(n, m)), 1)
            tree = fit_regression_tree(
                X, rng.normal(size=n),
                limits=TreeLimits(max_leaves=int(rng.integers(2, 12)), min_gain=0.0),
            )
            at = np.array([[tree.threshold[j] if tree.feature[j] == f else 0.0
                            for f in range(m)] for j in np.flatnonzero(tree.feature >= 0)])
            for Z in (X, rng.normal(size=(7, m)), at, X[0]):
                np.testing.assert_array_equal(tree.apply(Z), walk_apply(tree, Z))
                np.testing.assert_array_equal(predict_tree(tree, Z), walk_predict(tree, Z))

    def test_rows_at_a_threshold_route_right(self):
        tree = hand_tree(2, [(1, 0.5, 1, 2), None, (0, 2.0, 3, 4), None, None],
                         [0.0, -1.0, 0.0, 1.0, 2.0])
        X = np.array([[0.0, 0.4], [0.0, 0.5], [2.0, 0.5], [1.9, 9.0]])
        np.testing.assert_array_equal(tree.apply(X), [1, 3, 4, 3])
        np.testing.assert_array_equal(predict_tree(tree, X), [-1.0, 1.0, 2.0, 1.0])

    def test_single_row_and_single_leaf(self):
        tree = hand_tree(1, [(0, 0.0, 1, 2), None, None], [0.0, -1.0, 1.0])
        assert predict_tree(tree, np.array([0.0])) == 1.0
        assert tree.apply(np.array([-1.0])).tolist() == [1]
        leaf = hand_tree(2, [None], [3.0])
        np.testing.assert_array_equal(leaf.apply(np.ones((3, 2))), [0, 0, 0])
        assert predict_tree(leaf, np.ones(2)) == 3.0

    def test_wrong_width_is_rejected(self, rng):
        tree = fit_regression_tree(rng.normal(size=(20, 3)), rng.normal(size=20))
        with pytest.raises(VollabError, match="expected 3 features, got 2"):
            tree.apply(np.ones((4, 2)))
        with pytest.raises(VollabError, match="expected 3 features"):
            predict_tree(tree, np.ones(4))

    def test_set_leaf_values_changes_predictions(self, rng):
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        tree = fit_regression_tree(
            X, y, limits=TreeLimits(max_leaves=3, min_samples_leaf=2, min_gain=0.0)
        )
        leaves = np.unique(tree.apply(X))
        tree.set_leaf_values(leaves, np.zeros(len(leaves)))
        np.testing.assert_array_equal(predict_tree(tree, X), np.zeros(20))

    def test_feature_gains_sum(self, rng):
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        tree = fit_regression_tree(
            X, y, limits=TreeLimits(max_leaves=8, min_samples_leaf=2, min_gain=0.0)
        )
        total = sum(g for (_, _, _, g) in tree.expansion_order)
        assert tree.feature_gains().sum() == pytest.approx(total, rel=1e-12)

    def test_feature_gains_equal_the_node_loop(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(10, 80)), int(rng.integers(1, 8))
            X = np.round(rng.normal(size=(n, m)), 1)
            tree = fit_regression_tree(
                X, rng.normal(size=n), TreeLimits(max_leaves=int(rng.integers(2, 20))),
                feature_subset=0.6, seed=int(rng.integers(1000)))
            want = np.zeros(m)
            for j in range(len(tree.feature)):
                if tree.feature[j] >= 0:
                    want[tree.feature[j]] += tree.gain[j]
            assert tree.feature_gains().tolist() == want.tolist()

    def test_fitted_node_arrays_are_one_tree(self, rng):
        for _ in range(30):
            n, m = int(rng.integers(1, 70)), int(rng.integers(1, 5))
            X = np.round(rng.normal(size=(n, m)), int(rng.integers(0, 2)))
            limits = TreeLimits(max_leaves=int(rng.integers(1, 40)),
                                max_depth=int(rng.integers(-1, 5)),
                                min_samples_leaf=int(rng.integers(1, 6)),
                                min_gain=float(rng.choice([0.0, 0.5])))
            tree = fit_regression_tree(X, rng.normal(size=n), limits,
                                       feature_subset=0.7, seed=int(rng.integers(1000)))
            check_structure(tree, n)
            assert tree.n_leaves <= limits.max_leaves
            assert len(tree.expansion_order) == tree.n_leaves - 1
        X = rng.normal(size=(50, 3))
        model = fit_gbdt(X, rng.normal(size=50), GbdtParams(
            leaves=6, min_data=3, bagging_fraction=1.0, rounds=10, learning_rate=0.3))
        for tree in model.trees:
            check_structure(tree, 50)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_json_round_trip_is_stable(self, seed):
        r = np.random.default_rng(seed)
        X = r.normal(size=(20, 2))
        y = r.normal(size=20)
        t1 = fit_regression_tree(X, y)
        t2 = fit_regression_tree(X, y)
        assert t1.to_json() == t2.to_json()
