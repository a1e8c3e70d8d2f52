"""Regression tree grown leaf-wise (best gain first) with mean-valued leaves.

Shared by the random-forest feature selector and the boosting engine.
Splits scan the midpoints between sorted unique feature values; the gain
is the reduction in total squared error.  Thresholds route strictly-less
to the left.  A node's split search scores every threshold of every
feature in one array pass (see best_split); among expandable leaves the
larger gain wins, then the lower leaf id.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import VollabError, check_int, check_real

_MAX_ABS_SUM = float(np.sqrt(np.finfo(float).max))


@dataclass
class TreeLimits:
    max_leaves: int = 31
    max_depth: int = -1  # -1 = unbounded
    min_samples_leaf: int = 1  # checked by best_split
    min_gain: float = 0.0

    def __post_init__(self):
        check_int("max_leaves", self.max_leaves, 1)
        check_int("max_depth", self.max_depth, -1)
        check_real("min_gain", self.min_gain, ">= 0", lambda v: v >= 0)


@dataclass(eq=False)
class RegressionTree:
    """A fitted tree as arrays indexed by node id; node 0 is the root.

    feature is -1 at a leaf.  An internal node sends a row to left when
    x[feature] < threshold, else to right, and keeps its realized split
    gain; value is the prediction at a leaf.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    gain: np.ndarray
    n_features: int

    @property
    def n_leaves(self) -> int:
        return int((self.feature < 0).sum())

    @property
    def expansion_order(self) -> list[tuple[int, int, float, float]]:
        """(node id, feature, threshold, gain) of each split in the order the
        leaves were expanded: a split's children take the next two node ids,
        so that is the order of the left child ids."""
        split = np.flatnonzero(self.feature >= 0)
        split = split[np.argsort(self.left[split])]
        return list(zip(split.tolist(), self.feature[split].tolist(),
                        self.threshold[split].tolist(), self.gain[split].tolist()))

    def leaf_values(self) -> np.ndarray:
        return self.value[self.feature < 0]

    def apply(self, X) -> np.ndarray:
        """Leaf node index for every row; all rows descend one level per step."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features:
            raise VollabError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
        node = np.zeros(len(X), dtype=int)
        live = np.arange(len(X) if feature[0] >= 0 else 0)  # rows not yet at a leaf
        while live.size:
            j = node[live]
            j = np.where(X[live, feature[j]] < threshold[j], left[j], right[j])
            node[live] = j
            live = live[feature[j] >= 0]
        return node

    def set_leaf_values(self, leaf_ids, values) -> None:
        for j, v in zip(leaf_ids, values):
            if self.feature[j] >= 0:
                raise VollabError(f"node {j} is not a leaf")
            self.value[j] = v

    def feature_gains(self) -> np.ndarray:
        """Total split gain attributed to each feature, added in node order."""
        split = self.feature >= 0
        return np.bincount(self.feature[split], self.gain[split], self.n_features)

    def to_json(self) -> str:
        def render(j):
            if self.feature[j] < 0:
                return {"value": float(self.value[j]), "n": int(self.n_samples[j])}
            return {
                "feature": int(self.feature[j]),
                "threshold": float(self.threshold[j]),
                "gain": float(self.gain[j]),
                "left": render(self.left[j]),
                "right": render(self.right[j]),
            }

        return json.dumps(render(0), indent=1)


def predict_tree(tree: RegressionTree, X) -> np.ndarray:
    x = np.asarray(X, dtype=float)
    vals = tree.value[tree.apply(x)]
    return vals[0] if x.ndim == 1 else vals


def _sse(y: np.ndarray) -> float:
    d = y - y.sum() / len(y)  # the bits of y.mean(), without its Python wrapper
    return float((d * d).sum())


def best_split(X, y, features, min_samples_leaf: int):
    """Best (gain, feature, threshold) over the given feature indices.

    Returns None when no split satisfies the leaf-size constraint.  Every
    threshold of every feature is scored at once from running sums over the
    stably sorted columns.  Candidates rank in feature order, thresholds
    ascending, and a later one replaces the kept one only if its gain is
    larger by more than tie_tol, so near-equal gains keep the lower feature,
    then the lower threshold.  Each replacement is a strict running maximum
    of the gains, so the rule visits only those positions.
    """
    if min_samples_leaf < 1:
        raise VollabError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    n = len(y)
    if n < 2 * min_samples_leaf:
        return None
    parent = _sse(y)
    # two candidates inducing the same row partition have mathematically equal
    # gains; the running-sum arithmetic separates them by rounding noise of
    # order eps * parent, so ties are judged at a tolerance on that scale
    tie_tol = 1e-10 * max(1.0, parent)
    fs = sorted(features)
    k = len(fs)
    cols = X.T[fs]  # one row per feature, scanned in this order
    order = cols.argsort(axis=1, kind="stable")
    xs = cols[np.arange(k)[:, None], order]
    ys = y[order]
    # running sums of y (the first k rows), then of y * y (the last k)
    run = np.concatenate((ys, ys * ys)).cumsum(axis=1)
    # split after position i (left = first i+1 rows) for i in [lo, hi)
    lo, hi = min_samples_leaf - 1, n - min_samples_leaf
    nl = np.arange(lo + 1, hi + 1)
    nr = n - nl
    left = run[:, lo:hi]
    right = run[:, -1:] - left
    sl, ql, sr, qr = left[:k], left[k:], right[:k], right[k:]
    gains = parent - ((ql - sl * sl / nl) + (qr - sr * sr / nr))
    # flat positions, feature-major, where the sorted value changes
    cand = (xs[:, lo:hi] != xs[:, lo + 1:hi + 1]).ravel().nonzero()[0]
    if cand.size == 0:
        return None
    g = gains.ravel()[cand]
    b = 0
    for p in ((g[1:] > np.maximum.accumulate(g)[:-1]).nonzero()[0] + 1).tolist():
        if g[p] > g[b] + tie_tol:
            b = p
    r, i = divmod(int(cand[b]), hi - lo)
    i += lo
    return g[b], fs[r], (xs[r, i] + xs[r, i + 1]) / 2.0


def fit_regression_tree(
    X, y, limits: TreeLimits | None = None, feature_subset: float = 1.0, seed: int = 0
) -> RegressionTree:
    """Grow a regression tree, expanding at each step the frontier leaf whose
    best split has maximal gain.

    Every split search reads one draw per tree, the first max(1,
    ceil(feature_subset * m)) of PCG64(seed)'s permutation of the m features,
    sorted (all of them at 1.0); seed must be >= 0 at every fraction, and
    fit_gbdt and rf_importance draw it from [0, 2**63 - 1).  X must be finite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
        raise VollabError("fit_regression_tree needs matching, non-empty X and y")
    # (sum of |y|) ** 2 bounds every running sum best_split forms and each
    # sl * sl, so while it is finite no split gain is inf or nan
    if not np.abs(y).sum() <= _MAX_ABS_SUM:  # false for nan and inf too
        raise VollabError("targets and (sum of |y|) ** 2 must be finite")
    if not np.isfinite(X).all():  # a nan midpoint threshold sends every row right
        raise VollabError("features must be finite")
    limits = limits or TreeLimits()
    n, m = X.shape
    draw = np.random.Generator(np.random.PCG64(seed)).permutation(m)
    features = sorted(draw[:max(1, math.ceil(feature_subset * m))].tolist())

    size = 2 * n - 1  # a split leaves a row on each side, so at most n leaves
    feature, left, right = np.full((3, size), -1)
    threshold, value, gain = np.zeros((3, size))
    n_samples = np.zeros(size, dtype=int)
    frontier: dict[int, tuple] = {}  # leaf id -> (gain, feature, threshold, rows, depth)

    def add_leaf(j, rows, depth, expand):
        value[j], n_samples[j] = y[rows].sum() / len(rows), len(rows)
        if expand and (limits.max_depth < 0 or depth < limits.max_depth):
            sp = best_split(X[rows], y[rows], features, limits.min_samples_leaf)
            if sp is not None and sp[0] >= limits.min_gain:
                frontier[j] = (*sp, rows, depth)

    add_leaf(0, np.arange(n), 0, True)
    count = 1  # nodes so far; a tree with c nodes has (c + 1) // 2 leaves
    while frontier and (count + 1) // 2 < limits.max_leaves:
        j = min(frontier, key=lambda j: (-frontier[j][0], j))  # max gain, then lower id
        g, f, thr, rows, depth = frontier.pop(j)
        mask = X[rows, f] < thr
        feature[j], threshold[j], gain[j] = f, thr, g
        left[j], right[j] = count, count + 1
        count += 2
        expand = (count + 1) // 2 < limits.max_leaves  # children of the last split stay unsearched
        add_leaf(count - 2, rows[mask], depth + 1, expand)
        add_leaf(count - 1, rows[~mask], depth + 1, expand)
    arrays = (feature, threshold, left, right, value, n_samples, gain)
    return RegressionTree(*(a[:count].copy() for a in arrays), m)
