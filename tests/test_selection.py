import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_tree_rf_importance
from vollab import cli
from vollab.config import parse_config
from vollab.errors import VollabError
from vollab.features import FeatureMatrix
from vollab.frames import business_days
from vollab.selection import ImportanceReport, rf_importance, select_top_k

import datetime as dt


def matrix(rng, n=120, m=6, names=None):
    names = names or tuple(f"f{i}" for i in range(m))
    dates = business_days(dt.date(2020, 1, 1), n)
    return FeatureMatrix(tuple(dates), names, rng.normal(size=(n, m)))


class TestRfImportance:
    def test_informative_feature_ranks_first(self, rng):
        X = matrix(rng, n=150, m=5)
        y = 2.0 * X.values[:, 3] + 0.1 * rng.normal(size=150)
        rep = rf_importance(X, y, n_trees=40, seed=1)
        assert rep.ranking()[0] == "f3"
        assert rep.averaged[3] > 0.5

    def test_per_split_rows_normalized(self, rng):
        X = matrix(rng)
        y = X.values[:, 0] + rng.normal(size=len(X))
        rep = rf_importance(X, y, n_trees=20, seed=2)
        np.testing.assert_allclose(rep.per_split.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(rep.averaged, rep.per_split.mean(axis=0), atol=1e-15)

    def test_folds_expand_forward(self, rng):
        X = matrix(rng, n=121)
        y = rng.normal(size=121)
        rep = rf_importance(X, y, n_splits=5, n_trees=5, seed=3)
        b = list(rep.split_boundaries)
        assert b == sorted(b)
        assert b[-1] < len(X)  # last fold never sees the full data

    def test_deterministic(self, rng):
        X = matrix(rng)
        y = rng.normal(size=len(X))
        a = rf_importance(X, y, n_trees=10, seed=7)
        b = rf_importance(X, y, n_trees=10, seed=7)
        np.testing.assert_array_equal(a.per_split, b.per_split)

    def test_too_few_rows_rejected(self, rng):
        X = matrix(rng, n=20)
        with pytest.raises(VollabError):
            rf_importance(X, rng.normal(size=20), n_splits=5)

    def test_no_trees_rejected(self, rng):
        # with no tree every feature scores alike, and selection falls back to names
        X = matrix(rng)
        for n_trees in (0, -2):
            with pytest.raises(VollabError, match="n_trees must be >= 1"):
                rf_importance(X, rng.normal(size=len(X)), n_trees=n_trees)

    def test_misaligned_target_rejected(self, rng):
        X = matrix(rng)
        with pytest.raises(VollabError):
            rf_importance(X, rng.normal(size=len(X) - 1))

    def test_non_finite_feature_in_any_fold_row_rejected(self, rng):
        # each bootstrap sample used to be checked on its own, so a nan in a
        # row that no tree drew was ranked silently
        X = matrix(rng, n=60, m=3)
        y = rng.normal(size=60)
        rows = rf_importance(X, y, n_trees=1).split_boundaries[-1]
        for row in range(rows):
            bad = X.values.copy()
            bad[row, row % 3] = np.nan
            with pytest.raises(VollabError, match="features must be finite"):
                rf_importance(FeatureMatrix(X.dates, X.names, bad), y, n_trees=1)


@st.composite
def ranking_cases(draw):
    """(X, y, n_splits, n_trees, seed) with tied values, duplicated rows and
    targets of few distinct values."""
    r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_splits = draw(st.integers(2, 5))
    n = draw(st.integers(10 * (n_splits + 1), 150))
    m = draw(st.integers(1, 12))
    X = matrix(r, n=n, m=m)
    values = X.values.copy()
    rounded = r.random(m) < 0.5
    values[:, rounded] = np.round(values[:, rounded], draw(st.integers(0, 1)))
    if draw(st.booleans()):
        values = values[r.integers(0, n, size=n)]
    y = r.normal(size=n)
    if draw(st.booleans()):
        y = np.round(y, 1)
    return (FeatureMatrix(X.dates, X.names, values), y, n_splits,
            draw(st.integers(1, 6)), draw(st.integers(0, 2**63 - 1)))


class TestAgainstThePerTreeForest:
    @given(ranking_cases())
    @settings(max_examples=100, deadline=None)
    def test_same_importance_bytes(self, case):
        X, y, n_splits, n_trees, seed = case
        got = rf_importance(X, y, n_splits=n_splits, n_trees=n_trees, seed=seed)
        want = per_tree_rf_importance(X, y, n_splits=n_splits, n_trees=n_trees, seed=seed)
        assert got.per_split.tobytes() == want.per_split.tobytes()
        assert got.averaged.tobytes() == want.averaged.tobytes()
        assert got.split_boundaries == want.split_boundaries


class TestRankingAndSelect:
    def test_ranking_ties_alphabetical(self):
        rep = ImportanceReport(("b", "a", "c"),
                               np.array([[0.4, 0.4, 0.2]]),
                               np.array([0.4, 0.4, 0.2]),
                               (10,))
        assert rep.ranking() == ["a", "b", "c"]

    def test_select_top_k(self):
        rep = ImportanceReport(("x", "y", "z"),
                               np.array([[0.1, 0.6, 0.3]]),
                               np.array([0.1, 0.6, 0.3]),
                               (10,))
        assert select_top_k(rep, 2) == ["y", "z"]
        with pytest.raises(VollabError):
            select_top_k(rep, 4)

    def test_to_csv(self, tmp_path):
        rep = ImportanceReport(("x", "y"),
                               np.array([[0.3, 0.7], [0.5, 0.5]]),
                               np.array([0.4, 0.6]),
                               (10, 20))
        p = tmp_path / "imp.csv"
        rep.to_csv(p)
        lines = p.read_text().splitlines()
        assert lines[0].startswith("feature")
        assert lines[1].startswith("y")  # ranked first


def test_cli_sized_forest_peak_memory():
    """The ranking of a benchmark-sized run (400 days x 3 series, horizon 4):
    500 trees of 31 to 156 rows.  Its traced peak measured 5.89 MB, and it
    sets the set-up's peak, so the bound is that plus 10 %: 6.48 MB.  A
    forest whose trees each held their own target matrix measured 7.92 MB;
    int64 indexes, with each growth step's masks held through the
    children's search, 10.1 MB."""
    cfg = parse_config({"data": {"synthetic": {"seed": 3, "n_days": 400, "n_series": 3}},
                        "horizon": 4, "top_k": 10})
    data = cli._engineer(cfg)
    tracemalloc.start()
    try:
        cli._rank_features(cfg, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6.48e6
