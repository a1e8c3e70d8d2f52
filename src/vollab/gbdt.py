"""Leaf-wise gradient boosting with an MAE objective.

The MAE objective is handled exactly for piecewise-constant learners:
trees are grown on the sign of the current residual (the MAE gradient),
then every leaf's value is replaced by the median residual of the rows
it contains, which is the leaf-wise MAE minimizer.  Shrinkage and seeded
row/column subsampling follow the ensemble parameters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import VollabError, check_int, check_real
from .tree import (RegressionTree, TreeLimits, feature_draw, fit_regression_tree, predict_tree,
                   presort)


@dataclass(frozen=True)
class GbdtParams:
    learning_rate: float = 0.005
    min_gain: float = 0.01
    leaves: int = 100
    min_data: int = 20
    max_depth: int = -1  # -1 = unbounded; leaves become the binding constraint
    feature_fraction: float = 0.5
    bagging_fraction: float = 0.9
    rounds: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("learning_rate", "feature_fraction", "bagging_fraction"):
            check_real(name, getattr(self, name), "in (0, 1]", lambda v: 0 < v <= 1)
        check_real("min_gain", self.min_gain, ">= 0", lambda v: v >= 0)
        for name, low in (("leaves", 2), ("min_data", 1), ("max_depth", -1), ("rounds", 1)):
            check_int(name, getattr(self, name), low)


@dataclass
class GbdtModel:
    params: GbdtParams
    base_score: float  # median of training targets
    trees: list[RegressionTree] = field(default_factory=list)

    def output_bound(self) -> float:
        """Provable half-width of the prediction range around base_score."""
        lam = self.params.learning_rate
        return lam * sum(np.abs(t.leaf_values()).max() for t in self.trees)


def _medians(ranked: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The median of each run of ranked, which holds runs of the given
    (nonzero) lengths back to back, each sorted, with np.median's bits."""
    half, odd = np.divmod(counts, 2)
    upper = counts.cumsum() - half - odd  # each run's start + half
    # np.median averages the middle pair, or the middle element alone, by
    # summing from +0.0: hence the + 0.0, which turns a -0.0 sum into +0.0
    pair = ranked[upper - 1 + odd] + np.where(odd, 0.0, ranked[upper]) + 0.0
    return pair / (2 - odd)


def _round_draws(seed: int, n: int, m: int, bagging: bool):
    """Each boosting round's draws from PCG64(seed), forever: a permutation of
    the n rows (None without bagging), the tree's seed, and that tree's
    feature_draw of the m features."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    while True:
        perm = rng.permutation(n) if bagging else None
        tree_seed = int(rng.integers(0, 2**63 - 1))
        yield perm, tree_seed, feature_draw(m, tree_seed)


class GbdtSlice:
    """What every fit_gbdt on one feature matrix can share: one stable
    presort of its columns, and each seed's round draws, which the first
    fit with that seed takes and later fits replay.  It holds no per-round
    bag or sorted root: a fit filters those from the presort."""

    def __init__(self, X):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        self.order, self.values = presort(self.X)
        self._draws = {}  # (seed, bagging) -> (the seed's draw stream, the draws taken)

    def draws(self, seed: int, bagging: bool, rounds: int) -> list:
        """The first rounds of the seed's round draws, the memo's first."""
        if (seed, bagging) not in self._draws:
            self._draws[seed, bagging] = _round_draws(seed, *self.X.shape, bagging), []
        stream, taken = self._draws[seed, bagging]
        taken.extend(itertools.islice(stream, max(0, rounds - len(taken))))
        return taken[:rounds]


def fit_gbdt(X, y, params: GbdtParams, prepared: GbdtSlice | None = None) -> GbdtModel:
    """Fit the ensemble.  prepared, a GbdtSlice of X, shares its presort and
    draws with other fits on X; without it the fit makes its own."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n, m = X.shape
    if len(y) != n:
        raise VollabError("X and y must have matching lengths")
    if n < 2 * params.min_data:
        raise VollabError(
            f"need at least {2 * params.min_data} rows for min_data={params.min_data}, got {n}"
        )
    # every row, not only the bagged ones each tree checks: a row no bag
    # draws is still routed by apply, and a nan goes right at every split
    if not np.isfinite(X).all():
        raise VollabError("features must be finite")
    # np.median's nan check is not in the sorted-middle rule: a nan sorts
    # last, where the base score can miss it, and a bag can too
    if np.isnan(y).any():
        raise VollabError("targets must not be nan")
    if prepared is None:
        prepared = GbdtSlice(X)
    elif not (prepared.X.shape == X.shape and np.array_equal(prepared.X, X)):
        raise VollabError("the prepared slice holds other rows than X")
    bagging = params.bagging_fraction < 1.0
    model = GbdtModel(params, float(_medians(np.sort(y), np.array([n]))[0]))
    F = np.full(n, model.base_score)
    limits = TreeLimits(
        max_leaves=params.leaves,
        max_depth=params.max_depth,
        min_samples_leaf=params.min_data,
        min_gain=params.min_gain,
    )
    k = min(n, max(2 * params.min_data, int(params.bagging_fraction * n)))
    for perm, tree_seed, draw in prepared.draws(params.seed, bagging, params.rounds):
        sub = np.sort(perm[:k]) if bagging else np.arange(n)
        resid = y[sub] - F[sub]
        tree = fit_regression_tree(X[sub], np.sign(resid), limits, params.feature_fraction,
                                   tree_seed, draw=draw,
                                   presorted=(prepared.order, prepared.values, sub))
        # MAE-exact leaf values: the median of each leaf's in-bag residuals,
        # read off one sort of the residuals by (leaf, residual)
        leaf = tree.apply(X)
        in_bag = leaf[sub]
        ranked = resid[np.lexsort((resid, in_bag))]
        counts = np.bincount(in_bag)
        j = counts.nonzero()[0]
        tree.value[j] = _medians(ranked, counts[j])
        model.trees.append(tree)
        F += params.learning_rate * tree.value[leaf]
    return model


def predict_gbdt(model: GbdtModel, X) -> np.ndarray | float:
    x = np.asarray(X, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    out = np.full(len(x2), model.base_score)
    for tree in model.trees:
        out += model.params.learning_rate * predict_tree(tree, x2)
    return float(out[0]) if single else out
