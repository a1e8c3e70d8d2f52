"""Independent reference implementations used to check the library.

Everything in this file is written against the public contracts only, with
deliberately different algorithms (dense solvers, brute-force scans, plain
Python loops) so that agreement with the library is meaningful.
"""

from __future__ import annotations

import math

import numpy as np

from vollab.errors import AlignmentError, DegenerateTestError, IntegrityError, VollabError
from vollab.frames import TimeSeriesFrame
from vollab.gbdt import GbdtModel
from vollab.metrics import compute_metrics, dm_test
from vollab.plots import HEIGHT, MARGIN, WIDTH, _fmt, _points, _polyline, _scale, _svg, _title
from vollab.report import ReportRow, collect_records
from vollab.svr import MAX_PASSES, SvrModel, SvrParams, kernel_matrix, resolve_gamma
import vollab.tree
from vollab.tree import RegressionTree, TreeLimits, fit_regression_tree


# ------------------------------------------------------------------ frames

def scan_align(frames):
    """``frames.align`` by a per-column scan over every joined date.

    Each column is forward-filled through a dict from date to row; a value
    observed before the common range never fills a gap.  The two checks that
    ``align`` leaves out stay here, so a property test sees them never fire.
    """
    if not frames:
        raise VollabError("align requires at least one frame")
    seen = set()
    for f in frames:
        for n in f.names:
            if n in seen:
                raise IntegrityError(f"column name {n!r} appears in more than one frame")
            seen.add(n)
    start = max(f.dates[0] for f in frames)
    end = min(f.dates[-1] for f in frames)
    if start > end:
        raise AlignmentError("frames have no overlapping date range")
    all_dates = sorted({d for f in frames for d in f.dates if start <= d <= end})
    if not all_dates:
        raise AlignmentError("no dates inside the common range")
    cols = {}
    filled_from = 0
    for f in frames:
        idx = {d: i for i, d in enumerate(f.dates)}
        for n in f.names:
            src = f.columns[n]
            out = np.empty(len(all_dates))
            last = None
            first_valid = None
            for i, d in enumerate(all_dates):
                j = idx.get(d)
                if j is not None:
                    last = src[j]
                    if first_valid is None:
                        first_valid = i
                out[i] = np.nan if last is None else last
            if first_valid is None:
                raise AlignmentError(f"column {n!r} has no observations in the common range")
            filled_from = max(filled_from, first_valid)
            cols[n] = out
    dates = tuple(all_dates[filled_from:])
    if not dates:
        raise AlignmentError("all rows dropped during alignment")
    return TimeSeriesFrame(dates, {n: c[filled_from:] for n, c in cols.items()})


# ---------------------------------------------------------------- features

def rv_oracle(returns, window):
    """Per-window two-pass population standard deviation, plain loops."""
    r = [float(v) for v in returns]
    out = []
    for i in range(len(r) - window + 1):
        win = r[i:i + window]
        mu = sum(win) / window
        out.append(math.sqrt(sum((v - mu) ** 2 for v in win) / window))
    return np.array(out)


# --------------------------------------------------------------------- svr

def qp_svr_oracle(X, y, params: SvrParams, iters=60_000):
    """Dense projected-gradient ascent on the epsilon-SVR dual.

    Variables z = (alpha, alpha*); maximize
        -1/2 beta' K beta + beta' y - eps * sum(z),  beta = alpha - alpha*,
    over the box [0, C]^{2n} intersected with sum(alpha) = sum(alpha*).
    The projection onto box-and-hyperplane is computed by bisection on the
    hyperplane multiplier.  Returns (alpha, alpha_star, objective, bias).
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    C, eps = params.C, params.epsilon
    gamma = resolve_gamma(params, X)
    K = kernel_matrix(X, X, params, gamma)

    def project(va, vs):
        # clip(va - lam, 0, C) and clip(vs + lam, 0, C) with the multiplier
        # chosen so the two sums match; the gap is monotone in lam
        lo, hi = -(C + np.abs(va).max() + np.abs(vs).max()), None
        hi = -lo
        for _ in range(100):
            lam = 0.5 * (lo + hi)
            a = np.clip(va - lam, 0.0, C)
            s = np.clip(vs + lam, 0.0, C)
            gap = a.sum() - s.sum()
            if gap > 0:
                lo = lam
            else:
                hi = lam
        lam = 0.5 * (lo + hi)
        return np.clip(va - lam, 0.0, C), np.clip(vs + lam, 0.0, C)

    evals = np.linalg.eigvalsh(K)
    step = 1.0 / max(2.0 * float(evals.max()), 1e-8)
    alpha = np.zeros(n)
    alpha_star = np.zeros(n)
    for _ in range(iters):
        beta = alpha - alpha_star
        kb = K @ beta
        ga = -kb + y - eps
        gs = kb - y - eps
        na, ns = project(alpha + step * ga, alpha_star + step * gs)
        if max(np.abs(na - alpha).max(), np.abs(ns - alpha_star).max()) < 1e-11:
            alpha, alpha_star = na, ns
            break
        alpha, alpha_star = na, ns

    beta = alpha - alpha_star
    obj = float(-0.5 * beta @ K @ beta + beta @ y - eps * (alpha + alpha_star).sum())

    # bias: midpoint of the KKT-feasible window.  When interior support
    # vectors exist the window collapses to a point, so this also covers
    # the usual interior-average rule; bound membership is judged with a
    # slack matched to the projected-gradient convergence level.
    f = K @ beta
    r = y - f
    tol = 1e-7 * max(C, 1.0)
    low = np.concatenate([
        np.where(alpha < C - tol, r - eps, -np.inf),
        np.where(alpha_star > tol, r + eps, -np.inf),
    ])
    up = np.concatenate([
        np.where(alpha > tol, r - eps, np.inf),
        np.where(alpha_star < C - tol, r + eps, np.inf),
    ])
    bias = float((low.max() + up.min()) / 2.0)
    return alpha, alpha_star, obj, bias


def qp_oracle_predict(X_train, alpha, alpha_star, bias, params, X_new):
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    gamma = resolve_gamma(params, X_train)
    beta = alpha - alpha_star
    Kx = kernel_matrix(np.atleast_2d(np.asarray(X_new, dtype=float)), X_train,
                       params, gamma)
    return Kx @ beta + bias


def two_array_fit_svr(X, y, params: SvrParams, tol: float = 1e-3,
                      prunes: list | None = None) -> SvrModel:
    """The SMO loop of `fit_svr` over separate alpha and alpha* arrays.

    Same working-set rule, step and pruning as the library, written with
    an explicit sign per variable (index u < n is alpha_u, u >= n is
    alpha*_{u-n}), so every iterate and output must agree bit for bit.
    Each pass that prunes an alpha/alpha* overlap is appended to `prunes`.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    C, eps = params.C, params.epsilon
    gamma = resolve_gamma(params, X)
    K = kernel_matrix(X, X, params, gamma)
    Kd = np.diag(K).copy()

    def bounds(r, alpha, alpha_star):
        low = np.concatenate([
            np.where(alpha < C, r - eps, -np.inf),
            np.where(alpha_star > 0, r + eps, -np.inf),
        ])
        up = np.concatenate([
            np.where(alpha > 0, r - eps, np.inf),
            np.where(alpha_star < C, r + eps, np.inf),
        ])
        return low, up

    alpha = np.zeros(n)
    alpha_star = np.zeros(n)
    beta = np.zeros(n)
    f = np.zeros(n)
    history = []
    converged = False
    passes = 0
    while passes < MAX_PASSES:
        passes += 1
        progressed = False
        for _ in range(max(2 * n, 10)):
            low_vals, up_vals = bounds(y - f, alpha, alpha_star)
            i = int(np.argmax(low_vals))
            j = int(np.argmin(up_vals))
            viol = low_vals[i] - up_vals[j]
            if viol <= tol:
                converged = True
                break
            si, pi = (i, 1.0) if i < n else (i - n, -1.0)
            sj, pj = (j, 1.0) if j < n else (j - n, -1.0)
            eta = max(Kd[si] + Kd[sj] - 2.0 * K[si, sj], 1e-12)
            t = viol / eta
            if pi > 0:
                t = min(t, C - alpha[si])
            else:
                t = min(t, alpha_star[si])
            if pj > 0:
                t = min(t, alpha[sj])
            else:
                t = min(t, C - alpha_star[sj])
            if t <= 0:
                break
            if pi > 0:
                alpha[si] += t
            else:
                alpha_star[si] -= t
            if pj > 0:
                alpha[sj] -= t
            else:
                alpha_star[sj] += t
            beta[si] += t
            beta[sj] -= t
            f += t * (K[si] - K[sj])
            progressed = True
        overlap = np.minimum(alpha, alpha_star)
        if np.any(overlap > 0):
            alpha -= overlap
            alpha_star -= overlap
            if prunes is not None:
                prunes.append(passes)
        history.append(float(-0.5 * beta @ f + beta @ y - eps * (alpha + alpha_star).sum()))
        if converged or not progressed:
            break

    interior = ((alpha > 1e-9) & (alpha < C - 1e-9)) | (
        (alpha_star > 1e-9) & (alpha_star < C - 1e-9)
    )
    r = y - f
    if np.any(interior):
        bias = float(np.where(alpha > alpha_star, r - eps, r + eps)[interior].mean())
    else:
        low_vals, up_vals = bounds(r, alpha, alpha_star)
        bias = float((low_vals.max() + up_vals.min()) / 2.0)
    return SvrModel(params=params, gamma=gamma, X=X.copy(), y=y.copy(), beta=beta,
                    bias=bias, alpha=alpha, alpha_star=alpha_star, converged=converged,
                    n_passes=passes, objective_history=history)


# -------------------------------------------------------------------- tree

def exhaustive_best_split(X, y, rows, features, min_samples_leaf):
    """Brute-force best (gain, feature, threshold) over midpoint candidates."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    sub_x, sub_y = X[rows], y[rows]
    n = len(sub_y)
    if n < 2 * min_samples_leaf:
        return None
    parent = float(((sub_y - sub_y.mean()) ** 2).sum())
    best = None
    for f in sorted(features):
        uniq = np.unique(sub_x[:, f])
        for a, b in zip(uniq[:-1], uniq[1:]):
            thr = (a + b) / 2.0
            left = sub_y[sub_x[:, f] < thr]
            right = sub_y[sub_x[:, f] >= thr]
            if len(left) < min_samples_leaf or len(right) < min_samples_leaf:
                continue
            child = float(((left - left.mean()) ** 2).sum()) + float(
                ((right - right.mean()) ** 2).sum()
            )
            gain = parent - child
            if best is None or gain > best[0] or (
                gain == best[0] and (f, thr) < (best[1], best[2])
            ):
                best = (gain, f, thr)
    return best


def scan_best_split(X, y, features, min_samples_leaf):
    """Threshold-by-threshold scan with the library's split rule.

    Features ascend, thresholds ascend within a feature, and a candidate
    replaces the kept one only if its gain is larger by more than the tie
    tolerance.  The gain arithmetic (running sums, one expression per
    threshold) is the library's, so results must agree exactly.
    """
    n = len(y)
    if n < 2 * min_samples_leaf:
        return None
    parent = float(((y - y.mean()) ** 2).sum())
    tie_tol = 1e-10 * max(1.0, parent)
    best = None
    for f in sorted(features):
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs, ys = col[order], y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total, total_sq = csum[-1], csq[-1]
        for i in range(min_samples_leaf - 1, n - min_samples_leaf):
            if xs[i] == xs[i + 1]:
                continue
            nl = i + 1
            nr = n - nl
            sl, sr = csum[i], total - csum[i]
            ql, qr = csq[i], total_sq - csq[i]
            children = (ql - sl * sl / nl) + (qr - sr * sr / nr)
            gain = parent - children
            if best is None or gain > best[0] + tie_tol:
                best = (gain, f, (xs[i] + xs[i + 1]) / 2.0)
    return best


def walk_apply(tree, X):
    """Leaf id of every row, walking the nodes one row at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = []
    for x in X:
        j = 0
        while tree.feature[j] >= 0:
            j = tree.left[j] if x[tree.feature[j]] < tree.threshold[j] else tree.right[j]
        out.append(j)
    return np.array(out, dtype=int)


def walk_predict(tree, X):
    """Row-walk prediction: the value of each row's leaf; a scalar for 1-D X."""
    x = np.asarray(X, dtype=float)
    vals = np.array([tree.value[j] for j in walk_apply(tree, x)])
    return vals[0] if x.ndim == 1 else vals


def exhaustive_leafwise_order(X, y, max_leaves, min_samples_leaf, min_gain):
    """Grow leaf-wise by exhaustive search; return [(feature, threshold), ...]

    in expansion order, matching the library's tie rules (max gain, then
    oldest node, then lowest feature, then lowest threshold).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    leaves = {0: np.arange(len(y))}
    next_id = 1
    order = []
    while len(leaves) < max_leaves:
        candidates = []
        for nid in leaves:
            sp = exhaustive_best_split(X, y, leaves[nid], range(X.shape[1]),
                                       min_samples_leaf)
            if sp is not None and sp[0] >= min_gain:
                candidates.append((-sp[0], nid, sp[1], sp[2]))
        if not candidates:
            break
        neg_gain, nid, f, thr = min(candidates)
        order.append((f, thr, -neg_gain))
        rows = leaves.pop(nid)
        mask = X[rows, f] < thr
        leaves[next_id] = rows[mask]
        leaves[next_id + 1] = rows[~mask]
        next_id += 2
    return order


def rows_dict_fit_regression_tree(X, y, limits=None, feature_subset=1.0, seed=0):
    """``tree.fit_regression_tree`` with each node's state kept in three
    places: its rows in a dict, its depth in an array and its split in the
    frontier; the root is scored apart from the children, and the feature
    draw is skipped at fractions of 1 and above.  It calls the module global
    ``vollab.tree.best_split``, so a test can record both growths' searches."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    limits = limits or TreeLimits()
    m = X.shape[1]
    if feature_subset < 1.0:
        rng = np.random.Generator(np.random.PCG64(seed))
        k = max(1, int(np.ceil(feature_subset * m)))
        perm = rng.permutation(m)
        features = sorted(perm[:k].tolist())
    else:
        features = list(range(m))

    n = len(y)
    size = 2 * n - 1
    feature, left, right = np.full((3, size), -1)
    threshold, value, gain = np.zeros((3, size))
    n_samples, depth = np.zeros((2, size), dtype=int)
    value[0], n_samples[0] = y.sum() / n, n
    rows = {0: np.arange(n)}
    count = 1

    def candidate(j):
        if limits.max_depth >= 0 and depth[j] >= limits.max_depth:
            return None
        sp = vollab.tree.best_split(X[rows[j]], y[rows[j]], features, limits.min_samples_leaf)
        if sp is None or sp[0] < limits.min_gain:
            return None
        return sp

    frontier = {}
    c = candidate(0)
    if c is not None:
        frontier[0] = c

    while frontier and (count + 1) // 2 < limits.max_leaves:
        j = min(frontier, key=lambda j: (-frontier[j][0], j))
        g, f, thr = frontier.pop(j)
        idx = rows.pop(j)
        mask = X[idx, f] < thr
        feature[j], threshold[j], gain[j] = f, thr, g
        children = (count, count + 1)
        left[j], right[j] = children
        for cid, child_rows in zip(children, (idx[mask], idx[~mask])):
            value[cid] = y[child_rows].sum() / len(child_rows)
            n_samples[cid] = len(child_rows)
            depth[cid] = depth[j] + 1
            rows[cid] = child_rows
        count += 2
        if (count + 1) // 2 >= limits.max_leaves:
            break
        for cid in children:
            c = candidate(cid)
            if c is not None:
                frontier[cid] = c
    arrays = (feature, threshold, left, right, value, n_samples, gain)
    return RegressionTree(*(a[:count].copy() for a in arrays), m)


# -------------------------------------------------------------------- gbdt

def median_loop_fit_gbdt(X, y, params):
    """fit_gbdt with each leaf's value taken by its own np.median call over
    the leaf's in-bag residuals, one leaf at a time."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    n = len(y)
    rng = np.random.default_rng(np.random.PCG64(params.seed))
    model = GbdtModel(params, float(np.median(y)))
    F = np.full(n, model.base_score)
    limits = TreeLimits(max_leaves=params.leaves, max_depth=params.max_depth,
                        min_samples_leaf=params.min_data, min_gain=params.min_gain)
    for _ in range(params.rounds):
        if params.bagging_fraction < 1.0:
            k = min(n, max(2 * params.min_data, int(params.bagging_fraction * n)))
            sub = np.sort(rng.permutation(n)[:k])
        else:
            sub = np.arange(n)
        resid = y[sub] - F[sub]
        tree_seed = int(rng.integers(0, 2**63 - 1))
        tree = fit_regression_tree(X[sub], np.sign(resid), limits,
                                   params.feature_fraction, tree_seed)
        leaf = tree.apply(X)
        in_bag = leaf[sub]
        for j in np.unique(in_bag):
            tree.value[j] = np.median(resid[in_bag == j])
        model.trees.append(tree)
        F += params.learning_rate * tree.value[leaf]
    return model


# ---------------------------------------------------------------- metrics

def dm_oracle(e1, e2, h=1, loss="squared"):
    """Plain-Python Diebold-Mariano statistic and two-sided t p-value."""
    from scipy.stats import t as student_t

    e1 = [float(v) for v in e1]
    e2 = [float(v) for v in e2]
    n = len(e1)
    if loss == "squared":
        d = [a * a - b * b for a, b in zip(e1, e2)]
    else:
        d = [abs(a) - abs(b) for a, b in zip(e1, e2)]
    dbar = sum(d) / n
    dc = [v - dbar for v in d]
    lrv = sum(v * v for v in dc) / n
    for k in range(1, h):
        lrv += 2.0 * sum(dc[i] * dc[i - k] for i in range(k, n)) / n
    stat = dbar / math.sqrt(lrv / n)
    stat *= math.sqrt((n + 1 - 2 * h + h * (h - 1) / n) / n)
    p = 2.0 * float(student_t.sf(abs(stat), df=n - 1))
    return stat, p


def metrics_oracle(pred_d, act_d, pred_l, act_l):
    """Hand-arithmetic metric definitions, plain loops."""
    n = len(pred_d)
    mae = sum(abs(p - a) for p, a in zip(pred_d, act_d)) / n
    rmse = math.sqrt(sum((p - a) ** 2 for p, a in zip(pred_d, act_d)) / n)
    mape = 100.0 * sum(abs(p - a) / a for p, a in zip(pred_l, act_l)) / n
    ll = 100.0 * sum((math.log(p) - math.log(a)) ** 2
                     for p, a in zip(pred_l, act_l)) / n
    return mae, rmse, mape, ll


# ---------------------------------------------------------- report, plots

def two_pass_build_report(records_dir):
    """``report.build_report`` with a first pass that collects naive's errors
    per window; it pairs a model with naive by record count alone, so it is
    a reference only for record sets whose groups share naive's dates."""
    groups = collect_records(records_dir)
    naive_errors = {}
    for (model, window), recs in groups.items():
        if model == "naive":
            naive_errors[window] = np.array(
                [r.pred_logdiff - r.actual_logdiff for r in recs]
            )
    rows = []
    for (model, window), recs in sorted(groups.items()):
        table = compute_metrics(recs)
        dm_stat = dm_p = math.nan
        base = naive_errors.get(window)
        if model != "naive" and base is not None and len(base) == len(recs) >= 8:
            errs = np.array([r.pred_logdiff - r.actual_logdiff for r in recs])
            try:
                res = dm_test(errs, base)
                dm_stat, dm_p = res.statistic, res.p_value
            except DegenerateTestError:
                pass
        rows.append(ReportRow(model, window, table.mae, table.rmse, table.mape,
                              table.log_loss, dm_stat, dm_p))
    some = next(iter(groups.values()))
    levels = np.array([r.actual_level for r in some])
    header = {
        "n": len(some),
        "level_min": float(levels.min()),
        "level_max": float(levels.max()),
        "cov_pct": float(100.0 * levels.std() / levels.mean()),
    }
    return rows, header


def _sidecar(path, header, columns):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def two_write_residual_plot(records, base):
    """``plots.residual_plot`` writing the SVG and the sidecar on their own,
    with every sidecar value converted to a Python float."""
    resid = [r.pred_logdiff - r.actual_logdiff for r in records]
    xs = _scale(np.arange(len(resid)), MARGIN, WIDTH - MARGIN)
    ys = _scale(resid, HEIGHT - MARGIN, MARGIN)
    zero_y = float(_scale(np.array(resid + [0.0]), HEIGHT - MARGIN, MARGIN)[-1])
    elems = [
        _title(f"residuals over time: {records[0].model} W={records[0].window}"),
        f'<line x1="{MARGIN}" y1="{_fmt(zero_y)}" x2="{WIDTH - MARGIN}" '
        f'y2="{_fmt(zero_y)}" stroke="#999" stroke-dasharray="4"/>',
        _points(xs, ys, "#1f6fb2"),
    ]
    with open(base + ".svg", "w") as fh:
        fh.write(_svg(elems))
    _sidecar(base + ".csv", ["date", "residual", "x_px", "y_px"],
             ([r.date.isoformat() for r in records],
              [float(v) for v in resid],
              [float(v) for v in xs],
              [float(v) for v in ys]))


def two_write_dispersion_plot(records, base):
    """``plots.dispersion_plot``, SVG and sidecar written on their own."""
    resid = np.array([r.pred_logdiff - r.actual_logdiff for r in records])
    q1, q2, q3 = np.percentile(resid, [25, 50, 75])
    ys = _scale(resid, HEIGHT - MARGIN, MARGIN)
    yq = _scale(np.concatenate([resid, [q1, q2, q3]]), HEIGHT - MARGIN, MARGIN)[-3:]
    cx = WIDTH / 2
    xs = cx + 60 + 20 * np.cos(np.linspace(0, 2 * math.pi, len(resid), endpoint=False))
    elems = [
        _title(f"error dispersion: {records[0].model} W={records[0].window}"),
        f'<rect x="{_fmt(cx - 100)}" y="{_fmt(min(yq[0], yq[2]))}" width="80" '
        f'height="{_fmt(abs(yq[0] - yq[2]))}" fill="none" stroke="#333"/>',
        f'<line x1="{_fmt(cx - 100)}" y1="{_fmt(yq[1])}" x2="{_fmt(cx - 20)}" '
        f'y2="{_fmt(yq[1])}" stroke="#333" stroke-width="2"/>',
        _points(xs, ys, "#b25050", r=2.0),
    ]
    with open(base + ".svg", "w") as fh:
        fh.write(_svg(elems))
    _sidecar(base + ".csv", ["residual", "x_px", "y_px"],
             ([float(v) for v in resid], [float(v) for v in xs], [float(v) for v in ys]))


def two_write_levels_plot(records, base):
    """``plots.levels_plot``, SVG and sidecar written on their own."""
    actual = np.array([r.actual_level for r in records])
    pred = np.array([r.pred_level for r in records])
    if np.any(actual <= 0) or np.any(pred <= 0):
        return False
    xs = _scale(np.arange(len(records)), MARGIN, WIDTH - MARGIN)
    both = np.concatenate([actual, pred])
    ys_all = _scale(both, HEIGHT - MARGIN, MARGIN)
    ya, yp = ys_all[: len(records)], ys_all[len(records):]
    elems = [
        _title(f"predicted vs actual levels: {records[0].model} W={records[0].window}"),
        _polyline(xs, ya, "#333333"),
        _polyline(xs, yp, "#1f6fb2"),
    ]
    with open(base + ".svg", "w") as fh:
        fh.write(_svg(elems))
    _sidecar(base + ".csv",
             ["date", "actual_level", "pred_level", "x_px", "y_actual_px", "y_pred_px"],
             ([r.date.isoformat() for r in records],
              [float(v) for v in actual], [float(v) for v in pred],
              [float(v) for v in xs], [float(v) for v in ya], [float(v) for v in yp]))
    return True


# ---------------------------------------------------------------- autodiff

def recursive_backward(root):
    """Tensor.backward with the topological order from a recursive
    depth-first visit of each tensor's _prev, in order."""
    topo, seen = [], set()

    def visit(t):
        if id(t) in seen:
            return
        seen.add(id(t))
        for p in t._prev:
            visit(p)
        topo.append(t)

    visit(root)
    root.grad = np.ones_like(root.data)
    for t in reversed(topo):
        if t._backward is not None and t.grad is not None:
            t._backward(t.grad)


# -------------------------------------------------------------- credit vix

def credit_vix_oracle(strikes, prices, intervals, k0, cdsi, horizon, rpv01):
    strip = 0.0
    for K, P, dK in zip(strikes, prices, intervals):
        strip += P * dK / (K * K)
    strip *= 2.0 / (horizon * rpv01)
    corr = (cdsi / k0 - 1.0) ** 2 / horizon
    return strip - corr
