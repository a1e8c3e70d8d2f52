"""Leaf-wise gradient boosting with an MAE objective.

The MAE objective is handled exactly for piecewise-constant learners:
trees are grown on the sign of the current residual (the MAE gradient),
then every leaf's value is replaced by the median residual of the rows
it contains, which is the leaf-wise MAE minimizer.  Shrinkage and seeded
row/column subsampling follow the ensemble parameters.

fit_gbdt boosts one ensemble tree by tree.  fit_gbdt_slices takes many
fits of one rounds on many training slices and, given enough slices,
boosts them in lockstep, round by round, with the same bits (_boost): in
each round the trees of all its fits, whatever their limits, grow in one
tree.grow_trees call, each on its own positions of one target vector.
Given fewer, it fits each through fit_gbdt.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import VollabError, check_int, check_real
from .tree import (RegressionTree, TreeLimits, descend, feature_draw, fit_regression_tree,
                   grow_trees, rank_columns)


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


def _leaf_medians(value: np.ndarray, leaf: np.ndarray, resid: np.ndarray) -> None:
    """The MAE-exact leaf values: set value[j], for each leaf j that holds a
    residual (resid[i] sits in leaf[i]), to the median of its residuals,
    read off one stable sort of the residuals by (leaf, residual)."""
    ranked = resid[np.lexsort((resid, leaf))]
    counts = np.bincount(leaf)
    j = counts.nonzero()[0]
    value[j] = _medians(ranked, counts[j])


def _round_draws(seed: int, n: int, m: int, bagging: bool):
    """Each boosting round's draws from PCG64(seed), forever: a permutation of
    the n rows (None without bagging), the tree's seed, and that tree's
    feature_draw of the m features."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    while True:
        perm = rng.permutation(n) if bagging else None
        tree_seed = int(rng.integers(0, 2**63 - 1))
        yield perm, tree_seed, feature_draw(m, tree_seed)


def _check(X, y, params: GbdtParams) -> None:
    """fit_gbdt's checks of its inputs, in its order."""
    n = len(X)
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


def _bag_size(params: GbdtParams, n: int) -> int:
    return min(n, max(2 * params.min_data, int(params.bagging_fraction * n)))


def fit_gbdt(X, y, params: GbdtParams) -> GbdtModel:
    """Fit the ensemble: every tree's nodes search one ranking of X's columns."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    _check(X, y, params)
    n, m = X.shape
    ranks = rank_columns(X)
    bagging = params.bagging_fraction < 1.0
    draws = list(itertools.islice(_round_draws(params.seed, n, m, bagging), params.rounds))
    model = GbdtModel(params, float(_medians(np.sort(y), np.array([n]))[0]))
    F = np.full(n, model.base_score)
    limits = TreeLimits(
        max_leaves=params.leaves,
        max_depth=params.max_depth,
        min_samples_leaf=params.min_data,
        min_gain=params.min_gain,
    )
    k = _bag_size(params, n)
    for perm, tree_seed, draw in draws:
        sub = np.sort(perm[:k]) if bagging else np.arange(n)
        resid = y[sub] - F[sub]
        tree = fit_regression_tree(X[sub], np.sign(resid), limits, params.feature_fraction,
                                   tree_seed, draw=draw, ranked=(X, ranks, sub))
        leaf = tree.apply(X)
        _leaf_medians(tree.value, leaf[sub], resid)
        model.trees.append(tree)
        F += params.learning_rate * tree.value[leaf]
    return model


def predict_gbdt(model: GbdtModel, X) -> np.ndarray | float:
    """base_score plus learning_rate times each tree's leaf value, added
    tree by tree; every tree is descended at once."""
    x = np.asarray(X, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    out = np.full(len(x2), model.base_score)
    trees = model.trees
    if trees:
        m = trees[0].n_features
        if x2.shape[1] != m:
            raise VollabError(f"expected {m} features, got {x2.shape[1]}")
        # the trees' node arrays side by side, each child id shifted by its
        # tree's first node id
        sizes = np.array([len(t.feature) for t in trees])
        first = sizes.cumsum() - sizes
        shift = np.repeat(first, sizes)
        left, right = (np.concatenate([getattr(t, a) for t in trees]) + shift
                       for a in ("left", "right"))
        n = len(x2)
        leaf = descend(np.concatenate([t.feature for t in trees]),
                       np.concatenate([t.threshold for t in trees]), left, right, x2,
                       np.repeat(first, n), np.tile(np.arange(n), len(trees)))
        steps = model.params.learning_rate * np.concatenate([t.value for t in trees])[leaf]
        # cumsum adds row after row, so each tree's step lands in tree order
        out = np.cumsum(np.vstack((out, steps.reshape(len(trees), n))), axis=0)[-1]
    return float(out[0]) if single else out


# The bytes of one fit_gbdt_slices stack (rows x features float64) that
# slice_runs allows, and the fewest slices that fit_gbdt_slices boosts
# faster than fit_gbdt does one by one; both are measured in CHANGES.md.
STACK_BYTES = 8 << 20
LOCKSTEP_SLICES = 8


def slice_runs(sizes, width: int) -> list[int]:
    """Split training slices of the given row counts, in order, into runs of
    consecutive slices whose stacked rows (rows x width float64) fit
    STACK_BYTES; a slice over budget alone is a run of one.  Returns the run
    lengths."""
    runs, count, rows = [], 0, 0
    for n in sizes:
        if count and (rows + n) * width * 8 > STACK_BYTES:
            runs.append(count)
            count, rows = 0, 0
        count, rows = count + 1, rows + n
    return runs + [count] if count else runs


def _boost(fits, stack, Y, offsets, sizes, bases, streams, rounds) -> list[float]:
    """Boost the fits, (slice, index, params) triples, in lockstep for
    rounds rounds and return each one's block forecast.

    A fit's sample is its slice's rows, laid side by side with the other
    fits' in one target vector: position p is stack row rows[p].  In each
    round the trees of all fits grow in one tree.grow_trees call, each with
    its fit's bag, feature draw and limits; the leaf medians, the running
    predictions F and the block forecasts Fb are array operations over all
    fits."""
    of = np.array([f[0] for f in fits])  # each fit's slice
    params = [f[2] for f in fits]
    N, m = len(Y), stack.shape[1]
    n_features = np.array([max(1, math.ceil(p.feature_fraction * m)) for p in params])
    # grow_trees' per-tree max_leaves, max_depth, min_samples_leaf and min_gain
    limits = [np.array(v) for v in
              zip(*((p.leaves, p.max_depth, p.min_data, p.min_gain) for p in params))]
    n = sizes[of]
    k = np.array([_bag_size(q, c) if q.bagging_fraction < 1.0 else c
                  for q, c in zip(params, n.tolist())])
    T, total = len(fits), n.sum()
    tree = np.repeat(np.arange(T), n)
    rows = np.arange(total) - (n.cumsum() - n)[tree] + offsets[of][tree]
    row_of = np.append(rows, len(stack) - 1).astype(np.int32)  # then the padding
    bag_size = k[tree]
    target, F, Fb = Y[rows], bases[of][tree], bases[of]
    # the fits' rows, then their blocks (stack row N + s): the pairs each
    # tree descends, and each pair's tree
    pairs = np.concatenate((rows, N + of))
    tree = np.concatenate((tree, np.arange(T)))
    rate = np.array([p.learning_rate for p in params])[:, None]
    width = k.max()
    R = np.full((T, width), total, dtype=np.int32)
    at = np.arange(width) < k[:, None]
    unread = np.arange(n_features.max()) >= n_features[:, None]
    ranks = rank_columns(stack)
    # each row's place in its slice's round permutation: the bag of k rows
    # is the rows placed below k, which are sort(perm[:k]) in row order
    place = np.zeros(N, dtype=np.intp)
    draws = np.zeros((len(sizes), m), dtype=np.intp)
    for _ in range(rounds):
        for s, stream in streams.items():
            perm, _, draws[s] = next(stream)
            if perm is not None:
                place[offsets[s] + perm] = np.arange(len(perm))
        sel = np.flatnonzero(place[rows] < bag_size)  # each bag, ascending
        resid = target[sel] - F[sel]
        y = np.zeros(len(row_of))
        y[sel] = np.sign(resid)
        R[at] = sel
        # each tree's sorted prefix of its slice's draw, then the feature
        # count m, which sorts after every feature
        features = draws[of, :n_features.max()]
        features[unread] = m
        features.sort(axis=1)
        feature, threshold, left, right, value, _, _ = grow_trees(
            stack, ranks, y, R, k, features, n_features, *limits, row_of)
        # the trees side by side: tree t's node j is node t * size + j
        size = feature.shape[1]
        shift = (np.arange(T) * size)[:, None]
        leaf = descend(feature.ravel(), threshold.ravel(), (left + shift).ravel(),
                       (right + shift).ravel(), stack, tree * size, pairs)
        _leaf_medians(value.ravel(), leaf[sel], resid)
        # fit_gbdt's learning_rate * value, node by node
        step = (rate * value).ravel()[leaf]
        F += step[:total]
        Fb += step[total:]
    return Fb.tolist()


def fit_gbdt_slices(sizes, slices) -> list[list[float]]:
    """float(predict_gbdt(fit_gbdt(X, y, p), block)) for each (X, y, block,
    params) of slices and each p of params, boosted in lockstep.

    sizes[s] is slice s's row count.  The slices are taken one at a time, in
    order, and each is checked as fit_gbdt checks it (and its block as
    predict_gbdt does) and copied into one stack before the next is taken,
    so the first invalid slice raises what fit_gbdt raises on it.  The
    params of every slice must share its seed and bagging, so its fits share
    one stream of round draws, and every params of the call must share one
    rounds.

    A fit is one (slice, p), and _boost boosts every fit of the call: in
    round r the r-th trees of all fits grow together in one tree.grow_trees
    call.  In a call of fewer than LOCKSTEP_SLICES slices, and for a slice
    whose targets could overflow a running prediction (where fit_gbdt can
    fail mid-fit on a nan residual), each (slice, p) fits through fit_gbdt
    in its turn instead.
    """
    sizes = np.asarray(sizes, dtype=int)
    N, S = int(sizes.sum()), len(sizes)
    offsets = sizes.cumsum() - sizes
    out, fits, streams = [], [], {}
    bases = np.zeros(S)
    stack = Y = rounds = None  # the slices' rows, then their blocks, then a padding row
    for s, (X, y, block, params) in enumerate(slices):
        if not params:
            out.append([])
            continue
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        block = np.asarray(block, dtype=float).ravel()
        for p in params:
            _check(X, y, p)
        n, m = X.shape
        if len(block) != m:
            raise VollabError(f"expected {m} features, got {len(block)}")
        if n != sizes[s]:
            raise VollabError(f"slice {s} has {n} rows, not {sizes[s]}")
        if len({(p.seed, p.bagging_fraction < 1.0) for p in params}) > 1:
            raise VollabError("the fits of one slice must share its seed and bagging")
        rounds = rounds or params[0].rounds
        if any(p.rounds != rounds for p in params):
            raise VollabError("the fits of one call must share their rounds")
        # a round at most doubles max |F| and adds max |y|: under this bound
        # no residual, nor the sum of two, reaches inf
        bound = math.ldexp(np.finfo(float).max, -rounds - 2)
        if S < LOCKSTEP_SLICES or not np.abs(y).max() <= bound:
            out.append([float(predict_gbdt(fit_gbdt(X, y, p), block)) for p in params])
            continue
        if stack is None:
            stack, Y = np.zeros((N + S + 1, m)), np.zeros(N)
            stack[-1] = np.inf  # sorts after every real value
        stack[offsets[s]:offsets[s] + n], stack[N + s], Y[offsets[s]:offsets[s] + n] = X, block, y
        bases[s] = _medians(np.sort(y), np.array([n]))[0]
        streams[s] = _round_draws(params[0].seed, n, m, params[0].bagging_fraction < 1.0)
        fits += [(s, i, p) for i, p in enumerate(params)]
        out.append([None] * len(params))
    if fits:
        forecasts = _boost(fits, stack, Y, offsets, sizes, bases, streams, rounds)
        for (s, i, _), forecast in zip(fits, forecasts):
            out[s][i] = forecast
    return out
