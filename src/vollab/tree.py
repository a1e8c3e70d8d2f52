"""Regression trees grown leaf-wise (best gain first) with mean-valued leaves.

Two growers share one split search, _batched_split.  fit_regression_tree
grows one tree and scores each node with best_split, a one-node batched
search; a lone boosting fit uses it.  grow_trees grows many trees in
lockstep and scores all the leaves one growth step opens in one batched
search, equal leaves of trees that share an id once; each of its trees
equals fit_regression_tree's on the same sample, bit for bit.  A tree's
sample there is a set of positions in one target vector, each mapped to a
row of X, and each tree carries its own limits (leaves, depth, leaf size,
gain and feature count).  The random-forest feature selector grows its
forest through it (fit_forest, where a position is its row), and so does
the boosting lockstep, one round of every fit at a time.  The rule: splits
scan the midpoints between sorted unique feature values; the gain is the
reduction in total squared error; thresholds route strictly-less to the
left; a node's candidates rank by feature, then threshold, and a later one
wins only if its gain is larger by more than a rounding tolerance; among
expandable leaves the larger gain wins, then the lower leaf id.
"""

from __future__ import annotations

import json
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import VollabError, check_int, check_real

_MAX_ABS_SUM = float(np.sqrt(np.finfo(float).max))


@dataclass
class TreeLimits:
    max_leaves: int = 31
    max_depth: int = -1  # -1 = unbounded
    min_samples_leaf: int = 1
    min_gain: float = 0.0

    def __post_init__(self):
        check_int("max_leaves", self.max_leaves, 1)
        check_int("max_depth", self.max_depth, -1)
        check_int("min_samples_leaf", self.min_samples_leaf, 1)
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
        return descend(self.feature, self.threshold, self.left, self.right, X,
                       np.zeros(len(X), dtype=int), np.arange(len(X)))

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


def descend(feature, threshold, left, right, X, roots, rows) -> np.ndarray:
    """The leaf that row rows[p] of X reaches from node roots[p], for every
    pair p.  The node arrays may hold many trees side by side: left and
    right index the same arrays.  All pairs descend one level per step."""
    node = np.array(roots)
    live = np.flatnonzero(feature[node] >= 0)  # pairs not yet at a leaf
    while live.size:
        j = node[live]
        j = np.where(X[rows[live], feature[j]] < threshold[j], left[j], right[j])
        node[live] = j
        live = live[feature[j] >= 0]
    return node


def predict_tree(tree: RegressionTree, X) -> np.ndarray:
    x = np.asarray(X, dtype=float)
    vals = tree.value[tree.apply(x)]
    return vals[0] if x.ndim == 1 else vals


def _sse(y: np.ndarray) -> float:
    d = y - y.sum() / len(y)  # the bits of y.mean(), without its Python wrapper
    return float((d * d).sum())


def best_split(X, y, features, min_samples_leaf: int):
    """Best (gain, feature, threshold) over the given feature indices.

    Returns None when no split satisfies the leaf-size constraint.  The node
    is scored as a one-node _batched_split: candidates rank in feature
    order, thresholds ascending, and near-equal gains keep the lower
    feature, then the lower threshold.

    X is the node's rows, which are ranked here, or a ranked tuple (Z,
    ranks, rows): the node's rows are Z[rows], with targets y, and ranks is
    rank_columns(Z).  X is not read when y has fewer than 2 *
    min_samples_leaf rows.
    """
    if min_samples_leaf < 1:
        raise VollabError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
    n = len(y)
    fs = sorted(features)
    if n < 2 * min_samples_leaf or not fs:
        return None
    Z, ranks, rows = X if isinstance(X, tuple) else (X, rank_columns(X), np.arange(n))
    g, f, thr = _batched_split(Z, ranks, y[None], rows[None], np.array([n]),
                               np.array([fs]), np.array([_sse(y)]), np.array([min_samples_leaf]))
    return None if g[0] == -np.inf else (g[0], int(f[0]), thr[0])


def _kept(g, tie_tol) -> int:
    """Index of the gain in g that the tie_tol rule keeps: a later candidate
    replaces the kept one only if its gain is larger by more than tie_tol.
    Each replacement is a strict running maximum, so it visits only those."""
    b = 0
    for p in ((g[1:] > np.maximum.accumulate(g)[:-1]).nonzero()[0] + 1).tolist():
        if g[p] > g[b] + tie_tol:
            b = p
    return b


def feature_draw(m: int, seed: int) -> np.ndarray:
    """PCG64(seed)'s permutation of m features; a tree searches a prefix of it."""
    return np.random.Generator(np.random.PCG64(seed)).permutation(m)


def fit_regression_tree(
    X, y, limits: TreeLimits | None = None, feature_subset: float = 1.0, seed: int = 0,
    *, draw=None, ranked=None,
) -> RegressionTree:
    """Grow a regression tree, expanding at each step the frontier leaf whose
    best split has maximal gain.

    Every split search reads one draw per tree, the first max(1,
    ceil(feature_subset * m)) of feature_draw(m, seed), sorted (all of them
    at 1.0); seed must be >= 0 at every fraction, and fit_gbdt and
    rf_importance draw it from [0, 2**63 - 1).  A caller that holds that
    permutation passes it as draw.  X must be finite.

    ranked = (Z, ranks, rows) says X is Z[rows] for distinct rows of a
    matrix Z with rank_columns(Z) == ranks; without it X is ranked here.
    Each node's search reads its rows of Z (best_split's ranked form).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y) or len(y) == 0:
        raise VollabError("fit_regression_tree needs matching, non-empty X and y")
    # (sum of |y|) ** 2 bounds every running sum a split search forms and each
    # sl * sl, so while it is finite no split gain is inf or nan
    if not np.abs(y).sum() <= _MAX_ABS_SUM:  # false for nan and inf too
        raise VollabError("targets and (sum of |y|) ** 2 must be finite")
    if not np.isfinite(X).all():  # a nan midpoint threshold sends every row right
        raise VollabError("features must be finite")
    limits = limits or TreeLimits()
    msl = limits.min_samples_leaf
    n, m = X.shape
    if draw is None:
        draw = feature_draw(m, seed)
    features = sorted(draw[:max(1, math.ceil(feature_subset * m))].tolist())

    size = 2 * n - 1  # a split leaves a row on each side, so at most n leaves
    feature, left, right = np.full((3, size), -1)
    threshold, value, gain = np.zeros((3, size))
    n_samples = np.zeros(size, dtype=int)
    Z, ranks, sample = ranked or (X, rank_columns(X), np.arange(n))
    # leaf id -> (gain, feature, threshold, rows, depth)
    frontier: dict[int, tuple] = {}

    def add_leaf(j, rows, depth, expand):
        ys = y[rows]
        value[j], n_samples[j] = ys.sum() / len(rows), len(rows)
        if expand and (limits.max_depth < 0 or depth < limits.max_depth):
            sp = best_split((Z, ranks, sample[rows]), ys, features, msl)
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


# cells (askers x features x rows) of one batched split search, which keeps
# its working set to a few MB; the row counts of one search's nodes differ
# by at most _PAD_RATIO, so little of it is padding
_SEARCH_CELLS = 1 << 15
_PAD_RATIO = 1.5


def _sums(y, rows, counts):
    """Each node's target sum and squared error about its mean, with the bits
    of fit_regression_tree's and _sse's 1-D sums: node r's targets are
    y[rows[r, :counts[r]]], and the nodes of one row count are summed as the
    rows of one C-contiguous array (padding would change the pairwise
    summation), its deviations written in place.  A gather of every node's
    padded rows at once raised the forest's peak RSS by 0.5 MB."""
    total, sse = np.empty((2, len(counts)))
    by_count = counts.argsort(kind="stable")
    starts = np.flatnonzero(np.diff(counts[by_count], prepend=-1))
    for at in np.split(by_count, starts[1:]):
        c = counts[at[0]]
        Y = y[rows[at, :c]]
        s = Y.sum(axis=1)
        Y -= (s / c)[:, None]
        Y *= Y
        total[at], sse[at] = s, Y.sum(axis=1)
    return total, sse


def _leads(share, rows, Y) -> np.ndarray:
    """Each leaf's lead: the first leaf with its share id, rows of X (in
    order, padded alike) and target bits.  Leaves group by a hash and each is
    checked against its group's first, so on a collision a leaf leads itself."""
    bits = Y.view(np.uint64)
    h = rows.astype(np.uint64) * 0x9E3779B97F4A7C15 + bits
    for shift, odd in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        h ^= h >> shift  # the splitmix64 finalizer: two sign flips do not cancel
        h *= odd
    h ^= h >> 31
    key = h.sum(axis=1) + share.astype(np.uint64) * 0x9E3779B97F4A7C15
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    lead = first[group]
    same = ((share == share[lead]) & (rows == rows[lead]).all(axis=1)
            & (bits == bits[lead]).all(axis=1))
    return np.where(same, lead, np.arange(len(lead)))


def _batched_split(X, ranks, Y, rows, counts, features, parent, msl, askers=None):
    """The best split of many nodes at once: (gain, feature, threshold)
    arrays, gain -inf where a node has no split.  With askers = (node, mine,
    least), one entry per asker instead: asker a takes node[a]'s best split
    over the features mine[a] marks in features[node[a]], leaving least[a]
    >= msl[node[a]] rows on each side.

    Node r's rows of X are rows[r, :counts[r]], their targets Y[r,
    :counts[r]], and its split must leave msl[r] rows on each side.  Padding
    appears only when the nodes' counts differ: each shorter node is filled
    out with the index of a row of +inf features and a 0 target.  Columns
    are sorted by their ranks (ranks[f] orders X[:, f] with ties equal),
    then by position, so every node's own rows come in stable sorted order
    and the padding after them.  The gain of a split is the reduction in
    squared error, from running sums of Y and Y * Y along that order; its
    threshold is the midpoint of the node's values of f on either side.
    """
    N, L = rows.shape
    k = features.shape[1]
    lo = int(msl.min()) - 1
    P = L - 2 * lo - 1  # split positions lo .. lo + P - 1
    # rank, then position, in one integer: the keys are distinct, so a plain
    # sort gives the stable order, which their low bits then hold
    bits = (L - 1).bit_length()
    wide = np.int32 if ranks.shape[1] << bits < 2**31 else np.int64
    keys = ranks.take(features[:, :, None] * ranks.shape[1] + rows[:, None, :]).astype(wide)
    keys <<= bits
    keys |= np.arange(L, dtype=wide)
    keys.sort(axis=2)
    order = keys & ((1 << bits) - 1)
    keys >>= bits
    nl = np.arange(lo + 1, lo + P + 1)
    nr = counts[:, None] - nl
    valid = (nl >= msl[:, None]) & (nr >= msl[:, None])
    nr = np.where(valid, nr, 1)[:, None, :]
    cand = valid[:, None, :] & (keys[..., lo:lo + P] != keys[..., lo + 1:lo + P + 1])
    del keys
    # order by flat index into rows: row node starts at node * L
    order += (np.arange(N, dtype=order.dtype) * L)[:, None, None]
    sy = Y.take(order)
    del order
    sq = sy * sy
    sy.cumsum(axis=2, out=sy)
    sq.cumsum(axis=2, out=sq)
    # gains = parent - ((ql - sl * sl / nl) + (qr - sr * sr / nr)), one
    # step at a time in that order, sr and qr overwriting sl and ql
    last = np.arange(N), slice(None), counts - 1
    total_s, total_q = sy[last][..., None], sq[last][..., None]
    sl, ql = sy[..., lo:lo + P], sq[..., lo:lo + P]
    G = sl * sl
    G /= nl
    np.subtract(ql, G, out=G)
    sr = np.subtract(total_s, sl, out=sl)
    qr = np.subtract(total_q, ql, out=ql)
    sr *= sr
    sr /= nr
    np.subtract(qr, sr, out=qr)
    G += qr
    del sy, sq, sl, ql, sr, qr
    np.subtract(parent[:, None, None], G, out=G)
    G[~cand] = -np.inf
    node = np.arange(N)
    if askers is not None:  # a candidate's gain reads only its node's rows and targets
        node, mine, least = askers
        G, parent = G[node], parent[node]
        short = (nl < least[:, None]) | (counts[node, None] - nl < least[:, None])
        np.copyto(G, -np.inf, where=~mine[:, :, None] | short[:, None])
    a = np.arange(len(node))
    G = G.reshape(len(a), k * P)
    # two candidates inducing the same row partition have mathematically equal
    # gains; the running-sum arithmetic separates them by rounding noise of
    # order eps * parent, so ties are judged at a tolerance on that scale.
    # The running-maximum rule (_kept) keeps the first argmax unless an
    # earlier candidate comes within tie_tol of the maximum; those nodes
    # take the rule itself
    best = G.argmax(axis=1)
    tie_tol = 1e-10 * np.maximum(1.0, parent)
    for r in np.flatnonzero((G >= (G[a, best] - tie_tol)[:, None]).argmax(axis=1) < best):
        best[r] = _kept(G[r], tie_tol[r])
    r, i = np.divmod(best, P)
    i += lo
    f = features[node, r]
    v = np.sort(X[rows[node], f[:, None]], axis=1)  # the padding's +inf sorts last
    return G[a, best], f, (v[a, i] + v[a, i + 1]) / 2.0


def rank_columns(X) -> np.ndarray:
    """ranks[f] orders X[:, f] with ties equal (each value's index among the
    column's sorted unique values), in the narrowest unsigned type."""
    ranks = np.empty(X.shape[::-1], dtype=np.min_scalar_type(len(X) - 1))
    for f, c in enumerate(X.T):
        ranks[f] = np.unique(c, return_inverse=True)[1]
    return ranks


def grow_trees(X, ranks, y, R, sizes, draws, n_features, max_leaves, max_depth,
               min_samples_leaf, min_gain, row_of=None, share=None) -> tuple:
    """Grow one tree per row of R, all in lockstep.  Returns the node arrays
    (feature, threshold, left, right, value, n_samples, gain), one row per
    tree, with fit_regression_tree's node ids.

    A tree's sample is a set of positions in the target vector y: tree t
    grows on positions R[t, :sizes[t]], whose rows of X are row_of[R[t,
    :sizes[t]]] (the positions themselves when row_of is None).  Each tree
    has its own limits, one array entry per tree: it searches the sorted
    features draws[t, :n_features[t]], keeps at least min_samples_leaf[t]
    positions a leaf, grows at most max_leaves[t] leaves and max_depth[t]
    levels (-1 = unbounded), and opens a split only at a gain of
    min_gain[t] or more.  The last position of y is padding: target 0,
    mapped to the last row of X, which is +inf features; it fills R past
    each size.  ranks is rank_columns(X).  Each step, every tree that can
    still grow splits its best leaf (maximal gain, then the lower id), and
    all the new children of all the trees are scored by batched searches
    (_batched_split) of one feature count and similar row counts, so tree t
    equals fit_regression_tree's on its rows, draw and limits node for node
    and bit for bit.  Trees of one share id (share[t]; none when share is
    None) can hold equal leaves, the same rows of X and the same targets:
    such leaves are searched together, over their trees' union of features.
    """
    pad = len(y) - 1
    T, width = R.shape
    msl = min_samples_leaf
    # the leaf holding each sample position
    leaf = np.where(np.arange(width) < sizes[:, None], np.int32(0), np.int32(-1))
    # a leaf keeps msl[t] positions, so tree t has at most sizes[t] // msl[t] leaves
    size = 2 * int(np.minimum(max_leaves, np.maximum(1, sizes // msl)).max()) - 1
    # int32 node ids, features, depths and counts: each is below len(y) + size
    # or the feature count
    feature, left, right, depth = np.full((4, T, size), -1, dtype=np.int32)
    threshold, value, gain = np.zeros((3, T, size))
    n_samples = np.zeros((T, size), dtype=np.int32)
    open_gain = np.full((T, size), -np.inf)  # best split gain of each frontier leaf
    open_feature = np.zeros((T, size), dtype=np.int32)
    open_threshold = np.zeros((T, size))

    def rows_of(positions):
        return positions if row_of is None else row_of[positions]

    def add_leaves(trees, ids, rows, counts, depths, expand):
        total, sse = _sums(y, rows, counts)
        value[trees, ids], n_samples[trees, ids], depth[trees, ids] = total / counts, counts, depths
        bound = max_depth[trees]
        go = np.flatnonzero(expand & (counts >= 2 * msl[trees]) & ((bound < 0) | (depths < bound)))
        t, c, k, n = trees[go], counts[go], n_features[trees[go]], np.arange(len(go))
        # each leaf asks its lead for its split: itself, or an equal leaf of its share id
        lead = n if share is None else _leads(share[t], rows_of(rows[go]), y[rows[go]])
        # a lead searches the union of its askers' features at their least leaf size
        fs = draws[t][np.arange(draws.shape[1]) < k[:, None]]
        own, union = np.zeros((2, len(go), X.shape[1]), dtype=bool)
        own[n.repeat(k), fs] = union[lead.repeat(k), fs] = True
        del fs
        least = msl[t]
        np.minimum.at(least, lead, msl[t])
        k = union.sum(axis=1)[lead]
        order = np.lexsort((lead, c, k))  # by feature count, row count, then lead
        k = k[order]
        # the leads up to each asker's, its own counted: a lead's askers are adjacent
        rank = np.cumsum(np.append(True, lead[order[1:]] != lead[order[:-1]]))
        alone = np.bincount(lead, minlength=len(go)) == 1  # a lead that only asks itself
        start = 0
        while start < len(go):  # chunks of one feature count and similar row counts
            kk = int(k[start])
            cu = c[order[start:start + np.searchsorted(k[start:], kk, "right")]]
            cells = np.arange(1, len(cu) + 1) * cu * kk
            stop = min(np.searchsorted(cells, _SEARCH_CELLS, "right"),
                       np.searchsorted(cu, cu[0] * _PAD_RATIO, "right"))
            a = order[start:start + max(1, stop)]
            node = rank[start:start + len(a)] - rank[start]  # each asker's search
            start += len(a)
            L = lead[a[np.searchsorted(node, np.arange(node[-1] + 1))]]  # the leads searched
            at = rows[go[L], :c[a[-1]]]
            U = union[L].nonzero()[1].reshape(len(L), kk)
            g, f, thr = _batched_split(
                X, ranks, y[at], rows_of(at), c[L], U, sse[go[L]], least[L],
                None if alone[L].all() else (node, own[a[:, None], U[node]], msl[t[a]]))
            ok = g >= min_gain[t[a]]
            ta, j = t[a][ok], ids[go[a]][ok]
            open_gain[ta, j], open_feature[ta, j], open_threshold[ta, j] = g[ok], f[ok], thr[ok]

    add_leaves(np.arange(T), np.zeros(T, dtype=int), R, sizes, np.zeros(T, dtype=int),
               max_leaves > 1)
    count = 1  # nodes of every tree still growing
    while True:
        j = open_gain.argmax(axis=1)  # max gain, then the lower id
        t = np.flatnonzero(open_gain[np.arange(T), j] > -np.inf)
        if t.size == 0:
            break
        j = j[t]
        f, thr = open_feature[t, j], open_threshold[t, j]
        feature[t, j], threshold[t, j], gain[t, j] = f, thr, open_gain[t, j]
        left[t, j], right[t, j] = count, count + 1
        open_gain[t, j] = -np.inf
        Rt, here = R[t], leaf[t] == j[:, None]
        goes_left = X[rows_of(Rt), f[:, None]] < thr[:, None]
        # the children, left then right, each with its positions in sample order
        side = np.concatenate((here & goes_left, here & ~goes_left))
        del here, goes_left
        node, pos = np.nonzero(side)
        leaf[t[node % len(t)], pos] = count + node // len(t)
        counts = np.bincount(node, minlength=len(side))
        rows = np.full((len(side), counts.max()), pad, dtype=np.int32)
        rows[node, np.arange(len(node)) - (counts.cumsum() - counts)[node]] = Rt[node % len(t), pos]
        # the step's masks and gathers are not read again: free them before
        # the children's search
        del Rt, side, node, pos
        count += 2
        # a tree at its leaf limit splits no more: its children stay
        # unsearched and its open leaves close
        full = (count + 1) // 2 >= max_leaves[t]
        open_gain[t[full]] = -np.inf
        add_leaves(np.concatenate((t, t)), np.repeat([count - 2, count - 1], len(t)), rows,
                   counts, np.tile(depth[t, j] + 1, 2), np.tile(~full, 2))
    return feature, threshold, left, right, value, n_samples, gain


def fit_forest(X, y, samples, seeds, limits: TreeLimits | None = None,
               feature_subset: float = 1.0) -> list[RegressionTree]:
    """Grow one tree per (sample, seed) pair, all in lockstep (grow_trees).

    Tree t equals fit_regression_tree(X[samples[t]], y[samples[t]], limits,
    feature_subset, seeds[t]) node for node and bit for bit: the same
    feature draw, the same growth rule and the same split rule as
    best_split.  X is checked to be finite once, over all its rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if (X.ndim != 2 or len(X) != len(y) or len(seeds) != len(samples)
            or any(len(s) == 0 for s in samples)):
        raise VollabError("fit_forest needs matching X and y and a seed per non-empty sample")
    for s in samples:
        if not np.abs(y[s]).sum() <= _MAX_ABS_SUM:
            raise VollabError("targets and (sum of |y|) ** 2 must be finite")
    if not np.isfinite(X).all():
        raise VollabError("features must be finite")
    limits = limits or TreeLimits()
    n, m = X.shape
    T = len(samples)
    k = min(m, max(1, math.ceil(feature_subset * m)))
    draws = np.array([np.sort(feature_draw(m, s)[:k]) for s in seeds])
    # row n is the padding: +inf features sort after every real value
    X = np.vstack((X, np.full(m, np.inf)))
    sizes = np.array([len(s) for s in samples])
    # int32 sample rows: they count at most n + 1 rows
    R = np.full((T, sizes.max()), n, dtype=np.int32)  # each tree's sample, padded
    R[np.arange(sizes.max()) < sizes[:, None]] = np.concatenate(samples)
    # one limit per tree; a position is its row, and row n's target is 0
    arrays = grow_trees(X, rank_columns(X), np.append(y, 0.0), R, sizes, draws,
                        *(np.full(T, v) for v in (k, *astuple(limits))))
    n_nodes = 1 + 2 * (arrays[0] >= 0).sum(axis=1)  # a split adds two nodes
    # the trees get fit_regression_tree's int64 copies
    return [RegressionTree(*(a[i, :c].astype(int if a.dtype == np.int32 else float)
                             for a in arrays), m)
            for i, c in enumerate(n_nodes.tolist())]
