import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    feature_draw,
    fit_forest,
    fit_regression_tree,
    grow_trees,
    predict_tree,
    rank_columns,
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


# tied feature values whose rows' targets sum to other bits in another order:
# the gain is the scan's only if tied rows keep their row order
TIED_ROWS = (np.array([[0.0], [1.0], [0.0], [1.0], [0.0], [2.0], [1.0], [0.0], [2.0], [1.0]]),
             np.array([0.3, 1.7, 0.1, 1.1, 0.7, 2.9, 1.3, 0.2, 3.3, 0.9]), [0], 1)


class TestBestSplit:
    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 40))
            m = int(rng.integers(1, 5))
            X = rng.normal(size=(n, m))
            y = rng.normal(size=n)
            # no feature finds no split; an unsorted list with a repeated
            # index searches the sorted one
            unsorted = [*rng.permutation(m).tolist(), m - 1]
            for features in (range(m), [], unsorted):
                got = best_split(X, y, features, 2)
                want = exhaustive_best_split(X, y, np.arange(n), features, 2)
                if want is None:
                    assert got is None
                else:
                    assert got[1] == want[1]
                    assert got[2] == pytest.approx(want[2], abs=1e-12)
                    assert got[0] == pytest.approx(want[0], rel=1e-9, abs=1e-9)
            assert best_split(X, y, unsorted, 2) == best_split(X, y, range(m), 2)

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
        with pytest.raises(VollabError, match="min_samples_leaf must be int >= 1"):
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
    @example(TIED_ROWS)
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
        {"min_gain": -1.0}, {"min_samples_leaf": 2.5}, {"min_samples_leaf": 0},
        {"min_samples_leaf": True},
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


def same_node_arrays(got, want):
    for name in ("feature", "threshold", "left", "right", "value", "n_samples", "gain"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.n_features == want.n_features
    assert got.to_json() == want.to_json()


class TestRankedSearch:
    """A search on rows of a ranked matrix, and a growth that searches them,
    equal the ones that rank the node's own rows: ranks order a column as
    its values do, with ties equal, and ties keep the node's row order."""

    @given(split_cases(), st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_best_split_on_ranked_rows(self, case, seed, ascending):
        Z, zy, features, msl = case
        r = np.random.default_rng(seed)
        rows = r.permutation(len(Z))[:r.integers(1, len(Z) + 1)]
        if ascending:
            rows.sort()
        got = best_split((Z, rank_columns(Z), rows), zy[rows], features, msl)
        want = best_split(Z[rows], zy[rows], features, msl)
        assert repr(got) == repr(want)

    @given(growth_cases(), st.integers(0, 2**32 - 1), st.sampled_from([0.4, 0.9, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_ranked_growth(self, case, seed, kept):
        """The tree of Z[rows] grown from rank_columns(Z), with the searches
        it makes, equals the growth that ranks X, on every node array."""
        Z, y, limits, fraction, tree_seed = case
        r = np.random.default_rng(seed)
        rows = np.flatnonzero(r.random(len(Z)) < kept)
        if rows.size == 0:
            rows = np.arange(len(Z))
        X, y = Z[rows], y[rows]
        searches, search = [], vollab.tree.best_split

        def recording(x, ys, features, min_samples_leaf):
            searches[-1].append((ys.tobytes(), list(features), min_samples_leaf))
            return search(x, ys, features, min_samples_leaf)

        ranked = (Z, rank_columns(Z), rows)
        trees = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vollab.tree, "best_split", recording)
            for kwargs in ({}, {"ranked": ranked},
                           {"ranked": ranked, "draw": feature_draw(Z.shape[1], tree_seed)}):
                searches.append([])
                trees.append(fit_regression_tree(X, y, limits, fraction, tree_seed, **kwargs))
        for got in trees[1:]:
            same_node_arrays(got, trees[0])
        assert searches[1] == searches[0] and searches[2] == searches[0]


@st.composite
def forest_cases(draw):
    """(X, y, samples, seeds, limits, feature_subset): bootstrap samples of
    expanding prefixes of one matrix, as rf_importance's folds draw them,
    with tied values, duplicated rows and every limit binding or not."""
    n = draw(st.integers(1, 80))
    m = draw(st.integers(1, 12))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = r.normal(size=(n, m))
    rounded = r.random(m) < draw(st.sampled_from([0.5, 1.0]))  # tied thresholds
    X[:, rounded] = np.round(X[:, rounded], draw(st.integers(0, 1)))
    y = r.normal(size=n)
    # sums of small integers are exact, so leaves often tie on gain
    target = draw(st.sampled_from(["normal", "sign", "rounded"]))
    if target == "sign":
        y = r.integers(-1, 2, size=n).astype(float)
    elif target == "rounded":
        y = np.round(y, 1)
    if draw(st.booleans()):  # a bootstrap draw repeats whole rows
        boot = r.integers(0, n, size=n)
        X, y = X[boot], y[boot]
    folds = np.sort(r.integers(1, n + 1, size=draw(st.integers(1, 4))))
    per_fold = draw(st.integers(1, 4))
    samples = [r.integers(0, b, size=b) for b in folds for _ in range(per_fold)]
    seeds = r.integers(0, 2**63 - 1, size=len(samples)).tolist()
    limits = TreeLimits(max_leaves=draw(st.integers(1, 40)),
                        max_depth=draw(st.integers(-1, 6)),
                        min_samples_leaf=draw(st.integers(1, 12)),
                        min_gain=draw(st.sampled_from([0.0, 1e-3, 0.5])))
    fraction = draw(st.floats(0.0, 1.0, exclude_min=True))
    return X, y, samples, seeds, limits, fraction


# two clusters of two rows with the same spread: after the root split both
# children score a gain of exactly 0.5, and the lower id is expanded first
TIED_LEAVES = (np.array([[0.0], [1.0], [10.0], [11.0]]), np.array([0.0, 1.0, 10.0, 11.0]),
               [np.arange(4)], [0], TreeLimits(max_leaves=3), 1.0)


class TestLockstepForest:
    @given(forest_cases())
    @example(TIED_LEAVES)
    @settings(max_examples=400, deadline=None)
    def test_every_tree_equals_its_own_growth(self, case):
        X, y, samples, seeds, limits, fraction = case
        trees = fit_forest(X, y, samples, seeds, limits, fraction)
        assert len(trees) == len(samples)
        for got, s, seed in zip(trees, samples, seeds):
            want = fit_regression_tree(X[s], y[s], limits, fraction, seed)
            for name in ("feature", "threshold", "left", "right", "value", "n_samples",
                         "gain"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert got.n_features == want.n_features
            assert got.to_json() == want.to_json()

    def test_ranks_wider_than_a_byte(self, rng):
        # X has more than 255 rows, so the search sorts uint16 ranks
        X = np.round(rng.normal(size=(700, 3)), 2)
        y = rng.normal(size=700)
        samples = [rng.integers(0, b, size=b) for b in (40, 300, 700)]
        limits = TreeLimits(max_leaves=20, min_samples_leaf=3)
        for tree, s, seed in zip(fit_forest(X, y, samples, [1, 2, 3], limits, 0.7), samples,
                                 [1, 2, 3]):
            assert tree.to_json() == fit_regression_tree(X[s], y[s], limits, 0.7, seed).to_json()

    def test_inputs_checked_before_growth(self, rng):
        X, y = rng.normal(size=(30, 3)), rng.normal(size=30)
        X[29, 2] = np.nan  # no sample draws row 29
        with pytest.raises(VollabError, match="features must be finite"):
            fit_forest(X, y, [np.arange(10)], [0])
        X[29, 2] = 0.0
        y[3] = np.inf
        with pytest.raises(VollabError, match="must be finite"):
            fit_forest(X, y, [np.arange(10)], [0])
        for samples, seeds in (([np.arange(0)], [0]), ([np.arange(10)], [0, 1])):
            with pytest.raises(VollabError, match="a seed per non-empty sample"):
                fit_forest(X, y, samples, seeds)


@st.composite
def positioned_cases(draw):
    """(X, samples, targets, limits, fractions, seeds): trees with their own
    rows of one matrix (duplicates and tied values included), their own
    targets and their own limits and feature fractions."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, 8))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = r.normal(size=(n, m))
    rounded = r.random(m) < 0.5  # tied thresholds
    X[:, rounded] = np.round(X[:, rounded])
    T = draw(st.integers(1, 8))
    samples = [r.integers(0, n, size=r.integers(1, n + 1)) if r.random() < 0.5
               else np.sort(r.permutation(n)[:r.integers(1, n + 1)]) for _ in range(T)]
    target = draw(st.sampled_from(["normal", "sign", "rounded"]))
    targets = [{"normal": r.normal(size=len(s)),
                "sign": r.integers(-1, 2, size=len(s)).astype(float),
                "rounded": np.round(r.normal(size=len(s)), 1)}[target] for s in samples]
    limits = [TreeLimits(max_leaves=int(r.integers(1, 20)), max_depth=int(r.integers(-1, 5)),
                         min_samples_leaf=int(r.integers(1, 8)),
                         min_gain=float(r.choice([0.0, 1e-3, 0.5])))
              for _ in range(T)]
    fractions = r.choice([0.2, 0.5, 0.8, 1.0], size=T).tolist()
    seeds = r.integers(0, 2**63 - 1, size=T).tolist()
    return X, samples, targets, limits, fractions, seeds


def lockstep(X, samples, targets, limits, fractions, perms, shuffle, share=None):
    """grow_trees' trees, each on its own positions of one shuffled target
    vector, with its own limits and the sorted prefix of its own feature
    permutation."""
    n, m = X.shape
    T = len(samples)
    sizes = np.array([len(s) for s in samples])
    # tree t's i-th sample takes a shuffled position; the last is padding
    place = np.random.default_rng(shuffle).permutation(sizes.sum())
    positions = np.split(place, sizes.cumsum()[:-1])
    y = np.zeros(sizes.sum() + 1)
    row_of = np.full(sizes.sum() + 1, n, dtype=np.int32)
    R = np.full((T, sizes.max()), sizes.sum(), dtype=np.int32)
    for t, (pos, s, ys) in enumerate(zip(positions, samples, targets)):
        y[pos], row_of[pos], R[t, :len(pos)] = ys, s, pos
    k = np.array([max(1, math.ceil(f * m)) for f in fractions])
    draws = np.full((T, m), m)
    for t, perm in enumerate(perms):
        draws[t, :k[t]] = np.sort(perm[:k[t]])
    Xp = np.vstack((X, np.full(m, np.inf)))
    per_tree = [np.array([getattr(lim, name) for lim in limits]) for name in
                ("max_leaves", "max_depth", "min_samples_leaf", "min_gain")]
    arrays = grow_trees(Xp, rank_columns(Xp), y, R, sizes, draws, k, *per_tree, row_of, share)
    n_nodes = 1 + 2 * (arrays[0] >= 0).sum(axis=1)  # a split adds two nodes
    return [RegressionTree(*(a[t, :c].astype(int if a.dtype == np.int32 else float)
                             for a in arrays), m) for t, c in enumerate(n_nodes.tolist())]


def assert_each_tree_is_its_own(trees, X, samples, targets, limits, fractions, perms):
    """Each tree equals fit_regression_tree's on its rows, targets and draw."""
    for got, s, ys, lim, fraction, perm in zip(trees, samples, targets, limits, fractions,
                                               perms):
        same_node_arrays(got, fit_regression_tree(X[s], ys, lim, fraction, draw=perm))


class TestPerTreeLimits:
    @given(positioned_cases(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_grow_trees_equals_fit_regression_tree(self, case, seed):
        """grow_trees, each tree on its own positions of one shuffled target
        vector with its own limits and feature count, grows each tree as
        fit_regression_tree does on that tree's rows and targets."""
        X, samples, targets, limits, fractions, seeds = case
        perms = [feature_draw(X.shape[1], s) for s in seeds]
        trees = lockstep(X, samples, targets, limits, fractions, perms, seed)
        assert_each_tree_is_its_own(trees, X, samples, targets, limits, fractions, perms)


@st.composite
def shared_cases(draw):
    """(X, samples, targets, limits, fractions, perms, share): groups of trees
    that share an id, as the boosting lockstep's fits of one slice do.  A
    group's trees mostly hold the same rows and the same targets, a few of
    them negated, and take nested prefixes of one feature permutation; each
    has its own limits.  X repeats some of its columns, some negated, so
    candidates of two features tie exactly or up to rounding."""
    n = draw(st.integers(2, 60))
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = r.normal(size=(n, draw(st.integers(1, 5))))
    rounded = r.random(X.shape[1]) < 0.5  # tied thresholds
    X[:, rounded] = np.round(X[:, rounded])
    again = r.integers(0, X.shape[1], size=draw(st.integers(0, 3)))
    X = np.hstack((X, X[:, again] * r.choice([-1.0, 1.0], size=len(again))))
    m = X.shape[1]
    flip = draw(st.sampled_from([0.0, 0.05, 0.3]))
    normal = draw(st.booleans())
    samples, targets, limits, fractions, perms, share = [], [], [], [], [], []
    for group in range(draw(st.integers(1, 3))):
        rows = np.sort(r.permutation(n)[:r.integers(1, n + 1)])
        ys = r.normal(size=len(rows)) if normal else r.integers(-1, 2, size=len(rows)) * 1.0
        perm = r.permutation(m)
        for _ in range(r.integers(1, 7)):
            own = r.random() < 0.2  # a tree of the group on rows of its own
            s = r.integers(0, n, size=r.integers(1, n + 1)) if own else rows
            samples.append(s)
            targets.append(r.integers(-1, 2, size=len(s)) * 1.0 if own else
                           np.where(r.random(len(s)) < flip, -ys, ys))
            limits.append(TreeLimits(max_leaves=int(r.integers(1, 20)),
                                     max_depth=int(r.integers(-1, 5)),
                                     min_samples_leaf=int(r.integers(1, 8)),
                                     min_gain=float(r.choice([0.0, 1e-3, 0.5]))))
            fractions.append(float(r.choice([0.2, 0.5, 0.8, 1.0])))
            perms.append(perm)
            share.append(group)
    return X, samples, targets, limits, fractions, perms, np.array(share)


def searches(monkeypatch):
    """Record (leaves searched, leaves that asked) of every batched search."""
    calls, search = [], vollab.tree._batched_split

    def recording(*args):
        calls.append((len(args[3]), len(args[3]) if len(args) < 9 or args[8] is None
                      else len(args[8][0])))
        return search(*args)

    monkeypatch.setattr(vollab.tree, "_batched_split", recording)
    return calls


class TestSharedLeaves:
    """Trees that share an id search each leaf they hold alike once, and
    each still equals fit_regression_tree bit for bit."""

    @given(shared_cases(), st.integers(0, 2**32 - 1), st.sampled_from([1, 300, 1 << 15]))
    @settings(max_examples=300, deadline=None)
    def test_grow_trees_equals_fit_regression_tree(self, case, seed, cells):
        """Small search budgets split a leaf's askers over many searches."""
        *case, share = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(vollab.tree, "_SEARCH_CELLS", cells)
            trees = lockstep(*case, seed, share)
        assert_each_tree_is_its_own(trees, *case)

    def test_identical_fits_search_each_leaf_once(self, rng, monkeypatch):
        X = rng.normal(size=(60, 6))
        y = np.sign(X[:, 0] + rng.normal(size=60))
        case = X, [np.arange(60)], [y], [TreeLimits(max_leaves=8)], [0.5], [feature_draw(6, 1)]
        calls = searches(monkeypatch)
        lockstep(*case, 0, np.array([0]))
        alone, calls[:] = list(calls), []
        twice = [X] + [2 * part for part in case[1:]]
        trees = lockstep(*twice, 0, np.array([3, 3]))
        assert len(alone) > 1
        assert calls == [(leaves, 2 * leaves) for leaves, _ in alone]
        assert_each_tree_is_its_own(trees, *twice)

    def test_two_sign_flips_search_apart(self, rng, monkeypatch):
        # the same rows and the same target sum and spread: one target
        # flips from +1 to -1 and another from -1 to +1, which a linear
        # hash of the target bits would not see
        X = rng.normal(size=(40, 3))
        y = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
        flipped = y.copy()
        flipped[[4, 7]] *= -1
        case = (X, [np.arange(40)] * 2, [y, flipped], [TreeLimits(max_leaves=4)] * 2, [1.0] * 2,
                [np.arange(3)] * 2)
        calls = searches(monkeypatch)
        trees = lockstep(*case, 0, np.array([0, 0]))
        assert calls[0] == (2, 2)
        assert_each_tree_is_its_own(trees, *case)


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
