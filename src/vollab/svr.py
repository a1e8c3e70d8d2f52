"""Epsilon-insensitive support vector regression via pairwise dual updates.

The dual is solved over one signed vector z = (alpha, -alpha*) of length
2n, in the box [0, C]^n x [-C, 0]^n, with maximal-violating-pair
working-set selection (SMO style; the signed form is LIBSVM's).  Variable
u acts on training row u % n, and beta = alpha - alpha* is the sum of its
two variables.  Every update moves a pair along the equality constraint,
so dual feasibility sum(beta) = 0 holds exactly at all times and the dual
objective never decreases.  Convergence: max KKT violation <= tol or
MAX_PASSES passes.  The update loop runs over buffers allocated once per
fit and refreshes only the two entries an update touches (see _smo); its
iterates are bit for bit those of the plain formulas.  fit_svr_slices
solves one state on many training slices in lockstep, and gives each
slice exactly the model the serial loop gives it; fit_svr is its
one-slice call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, VollabError, check_real

MAX_PASSES = 10_000
# fit_svr_slices hands its live slices to the serial loop once this many or
# fewer are left, and the byte budget bounds one lockstep run's padded kernel
# stack; both values are measured (CHANGES.md)
HANDOFF = 6
STACK_BYTES = 8 << 20
# poly is (gamma * <a, b> + COEF0) ** DEGREE and sigmoid tanh(gamma * <a, b> + COEF0);
# adding COEF0 = 0.0 also turns a -0.0 Gram entry into +0.0
DEGREE, COEF0 = 3, 0.0


@dataclass(frozen=True)
class SvrParams:
    kernel: str = "rbf"
    C: float = 1.0
    gamma: object = "scale"  # "scale", "auto" or a positive float
    epsilon: float = 0.1

    def __post_init__(self):
        if self.kernel not in ("poly", "rbf", "sigmoid"):
            raise VollabError(f"unknown kernel {self.kernel!r}")
        check_real("C", self.C, "> 0", lambda v: v > 0)
        check_real("epsilon", self.epsilon, ">= 0", lambda v: v >= 0)
        if self.gamma not in ("scale", "auto"):
            check_real("gamma", self.gamma, "> 0, 'scale' or 'auto'", lambda v: v > 0)


def resolve_gamma(params: SvrParams, X: np.ndarray) -> float:
    m = X.shape[1]
    if params.gamma == "auto":
        return 1.0 / m
    if params.gamma == "scale":
        v = X.var()
        return 1.0 / (m * v) if v > 0 else 1.0 / m
    return float(params.gamma)


def kernel_eval(a, b, params: SvrParams, gamma: float | None = None) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise VollabError(f"kernel arguments differ in shape: {a.shape} vs {b.shape}")
    if gamma is None:
        gamma = params.gamma if not isinstance(params.gamma, str) else None
        if gamma is None:
            raise VollabError("symbolic gamma needs training data; pass gamma explicitly")
    if params.kernel == "rbf":
        d = a - b
        return float(np.exp(-gamma * d.dot(d)))
    if params.kernel == "poly":
        return float((gamma * a.dot(b) + COEF0) ** DEGREE)
    return float(np.tanh(gamma * a.dot(b) + COEF0))


def kernel_matrix(A, B, params: SvrParams, gamma: float) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    G = A @ B.T
    if params.kernel == "rbf":
        sq = (A * A).sum(1)[:, None] + (B * B).sum(1)[None, :] - 2 * G
        return np.exp(-gamma * np.maximum(sq, 0.0))
    if params.kernel == "poly":
        return (gamma * G + COEF0) ** DEGREE
    return np.tanh(gamma * G + COEF0)


@dataclass
class SvrModel:
    params: SvrParams
    gamma: float
    X: np.ndarray  # training rows (all of them; beta is dense with zeros)
    y: np.ndarray
    beta: np.ndarray  # alpha - alpha* per training row
    bias: float
    alpha: np.ndarray
    alpha_star: np.ndarray
    converged: bool
    n_passes: int
    objective_history: list[float] = field(default_factory=list)

    @property
    def support_mask(self) -> np.ndarray:
        return np.abs(self.beta) > 1e-12


def dual_objective(X, y, beta, alpha, alpha_star, params, gamma) -> float:
    K = kernel_matrix(X, X, params, gamma)
    return float(
        -0.5 * beta @ K @ beta + beta @ y - params.epsilon * (alpha + alpha_star).sum()
    )


def _box(n, C):
    """Lower and upper limits of the signed dual z = (alpha, -alpha*)."""
    return (np.concatenate((np.zeros(n), np.full(n, -C))),
            np.concatenate((np.full(n, C), np.zeros(n))))


def _bias_bounds(r, z, lo, hi, eps):
    """Per-variable (lower, upper) bounds on the bias b, given r = y - f.

    Variable u has q_u = r - eps on the alpha half and r + eps on the
    alpha* half.  A valid b satisfies b >= q_u for every u that can rise
    (z_u < hi_u) and b <= q_u for every u that can fall (z_u > lo_u).
    """
    q = np.concatenate((r - eps, r + eps))
    return np.where(z < hi, q, -np.inf), np.where(z > lo, q, np.inf)


def _checked_kernel(X, y, params: SvrParams):
    """The training rows and targets as float arrays, gamma, and the kernel
    matrix; refuses mismatched, short or non-finite inputs and a kernel
    matrix with non-finite entries."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if len(X) != len(y) or len(y) < 2:
        raise VollabError("fit_svr needs >= 2 matching rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise VollabError("fit_svr inputs must be finite")
    gamma = resolve_gamma(params, X)
    K = kernel_matrix(X, X, params, gamma)
    if not np.all(np.isfinite(K)):
        raise FitError(f"{params.kernel} kernel matrix has non-finite entries "
                       f"(gamma={gamma!r}); rescale the inputs")
    return X, y, gamma, K


# a variable's penalties indexed by whether it can rise, and whether it can fall
_RISE, _FALL = np.array([-np.inf, 0.0]), np.array([np.inf, 0.0])


def _penalties(z, lo, hi):
    """0 where a variable can rise (z < hi), else -inf; 0 where it can fall
    (z > lo), else +inf.  Adding them to q gives the bias bounds."""
    return _RISE[(z < hi).view(np.uint8)], _FALL[(z > lo).view(np.uint8)]


def _prune(za, zb) -> bool:
    """Cut the alpha/alpha* overlap of a pass's end from the two halves of z,
    in place: keeps beta and feasibility, raises the objective by
    2*eps*min(alpha, alpha*).  Returns whether anything was cut."""
    overlap = np.minimum(za, -zb)
    if not np.any(overlap > 0):
        return False
    za -= overlap
    zb += overlap
    return True


def _objective(beta, f, y, za, zb, eps) -> float:
    return float(-0.5 * beta @ f + beta @ y - eps * (za - zb).sum())


def _smo(K, y, C, eps, tol, z, beta, f, passes, left, progressed, history):
    """fit_svr's update loop, run from a state reached after any update.

    z, beta and f = K @ beta are the iterates, passes the number of the
    current pass, left the updates the pass may still make and progressed
    whether it has made one; z, beta, f and history (one objective per
    finished pass) are updated in place.  Returns (converged, passes).

    r = y - f and q = (r - eps, r + eps) are written into buffers allocated
    once, and low and up are q plus penalty arrays that hold 0 where a
    variable can rise (z < hi) or fall (z > lo) and -inf or +inf elsewhere.
    An update changes only z_i and z_j, so only those penalty entries are
    refreshed; an overlap prune refreshes all of them.  Adding a 0 penalty
    turns a -0.0 in q into +0.0, but a zero's sign never reaches an
    iterate: argmax and argmin compare -0.0 and +0.0 as equal, a violation
    between two zeros is a zero either way and so at most tol, and any
    other x - (+-0.0) is x.  Scalar state (z, beta, the diagonal of K and
    the box) is read and written as Python floats, which round exactly as
    float64 does.
    """
    n = len(y)
    lo, hi = _box(n, C)
    lo_s, hi_s = lo.tolist(), hi.tolist()
    Kd = K.diagonal().tolist()
    rows = list(K)  # row views made once
    z_s, beta_s = z.tolist(), beta.tolist()
    r, df = np.empty(n), np.empty(n)
    eps_n = np.full(n, eps, dtype=float)  # an array operand converts faster than a scalar
    q = np.empty(2 * n)
    q_alpha, q_star = q[:n], q[n:]
    low, up = np.empty(2 * n), np.empty(2 * n)
    rise, fall = _penalties(z, lo, hi)
    converged = False
    while True:
        for _ in range(left):
            np.subtract(y, f, out=r)
            np.subtract(r, eps_n, out=q_alpha)
            np.add(r, eps_n, out=q_star)
            np.add(q, rise, out=low)
            np.add(q, fall, out=up)
            i = int(low.argmax())
            j = int(up.argmin())
            viol = low.item(i) - up.item(j)
            if viol <= tol:
                converged = True
                break
            si, sj = i % n, j % n
            eta = max(Kd[si] + Kd[sj] - 2.0 * K.item(si, sj), 1e-12)
            zi, zj = z_s[i], z_s[j]
            t = min(viol / eta, hi_s[i] - zi, zj - lo_s[j])
            if t <= 0:
                break
            z_s[i] = zi = zi + t
            z_s[j] = zj = zj - t
            beta_s[si] += t
            beta_s[sj] -= t
            np.subtract(rows[si], rows[sj], out=df)
            df *= t
            f += df
            rise[i] = 0.0 if zi < hi_s[i] else -np.inf
            fall[i] = 0.0 if zi > lo_s[i] else np.inf
            rise[j] = 0.0 if zj < hi_s[j] else -np.inf
            fall[j] = 0.0 if zj > lo_s[j] else np.inf
            progressed = True
        z[:] = z_s
        beta[:] = beta_s
        if _prune(z[:n], z[n:]):
            z_s = z.tolist()
            rise, fall = _penalties(z, lo, hi)
        history.append(_objective(beta, f, y, z[:n], z[n:], eps))
        if converged or not progressed or passes >= MAX_PASSES:
            return converged, passes
        passes, left, progressed = passes + 1, max(2 * n, 10), False


def _model(params, gamma, X, y, z, beta, f, converged, passes, history) -> SvrModel:
    n, C, eps = len(y), params.C, params.epsilon
    # 0.0 - z, not -z: an alpha* variable still at +0.0 reads as alpha* = +0.0
    alpha, alpha_star = z[:n], 0.0 - z[n:]
    # bias from KKT-interior points, fallback: midpoint of the bound interval
    interior = ((alpha > 1e-9) & (alpha < C - 1e-9)) | (
        (alpha_star > 1e-9) & (alpha_star < C - 1e-9)
    )
    r = y - f
    if np.any(interior):
        vals = np.where(alpha > alpha_star, r - eps, r + eps)
        bias = float(vals[interior].mean())
    else:
        low_vals, up_vals = _bias_bounds(r, z, *_box(n, C), eps)
        bias = float((low_vals.max() + up_vals.min()) / 2.0)
    return SvrModel(
        params=params,
        gamma=gamma,
        X=X,
        y=y,
        beta=beta,
        bias=bias,
        alpha=alpha,
        alpha_star=alpha_star,
        converged=converged,
        n_passes=passes,
        objective_history=history,
    )


def fit_svr(X, y, params: SvrParams, tol: float = 1e-3) -> SvrModel:
    """Solve the epsilon-SVR dual by maximal-violating-pair updates.

    Each update raises the variable i with the largest lower bound on b by
    t and lowers the variable j with the smallest upper bound by t, where t
    is the Newton step on the violation, cut to keep both in their box.
    The loop is _smo's: this is fit_svr_slices on one slice, which is at
    most HANDOFF and so starts in _smo.  The model keeps copies of X and y.
    """
    return fit_svr_slices([np.array(X, dtype=float)], [np.array(y, dtype=float)], params, tol)[0]


def slice_runs(sizes) -> list[int]:
    """Split training slices of the given row counts, in order, into runs of
    consecutive slices whose padded kernel stack (count x n_max x n_max
    float64) fits STACK_BYTES; a slice over budget alone is a run of one.
    Returns the run lengths."""
    runs, count, top = [], 0, 0
    for n in sizes:
        if count and (count + 1) * max(top, n) ** 2 * 8 > STACK_BYTES:
            runs.append(count)
            count, top = 0, 0
        count, top = count + 1, max(top, n)
    return runs + [count] if count else runs


def fit_svr_slices(Xs, ys, params: SvrParams, tol: float = 1e-3) -> list[SvrModel]:
    """fit_svr's fit of each training slice (Xs[k], ys[k]), solved in lockstep.

    Every slice's signed dual z, beta, f, box, penalties and kernel rows sit
    in arrays padded to the longest slice; a padded variable has the box
    [0, 0], so it never rises or falls.  Each step applies _smo's update
    formulas to every live slice at once, one vector op per formula over
    flat indexes, with t = 0 for a slice whose pass ends before its update.
    A pass's end (prune, objective, the stopping test) runs on each slice's
    unpadded views.  Once HANDOFF or fewer slices are live, each hands its
    mid-pass state to _smo, which costs less per update on one slice.  Each
    model is bit for bit the one _smo reaches on its slice alone; slices are
    checked in order, so the first invalid slice raises.  A model keeps its
    slice's X and y, not copies, when they are already float arrays (X 2-D):
    overwriting them afterwards changes its forecasts.
    """
    if len(Xs) != len(ys):
        raise VollabError("fit_svr_slices needs one target vector per slice")
    C, eps = params.C, params.epsilon
    sizes = [len(y) for y in ys]
    S, N = len(sizes), max(sizes, default=0)
    K = np.zeros((S, N, N))
    Y, lo, hi = np.zeros((S, N)), np.zeros((S, 2 * N)), np.zeros((S, 2 * N))
    slices = []  # (X, y, gamma) of each slice
    for s, (X, y) in enumerate(zip(Xs, ys)):
        X, y, gamma, K_s = _checked_kernel(X, y, params)
        n = len(y)
        K[s, :n, :n] = K_s
        Y[s, :n] = y
        lo[s, N:N + n] = -C
        hi[s, :n] = C
        slices.append((X, y, gamma))
    Kr = K.reshape(S * N, N)  # row u of slice s is Kr[s * N + u]
    z, beta, f = np.zeros((S, 2 * N)), np.zeros((S, N)), np.zeros((S, N))
    rise, fall = _penalties(z, lo, hi)
    passes = np.ones(S, dtype=np.int64)
    per_pass = np.maximum(2 * np.array(sizes, dtype=np.int64), 10)
    left, progressed = per_pass.copy(), np.zeros(S, dtype=bool)
    histories = [[] for _ in range(S)]
    models = [None] * S

    def finish(s, z_s, beta_s, f_s, converged, n_passes):
        X, y, gamma = slices[s]
        models[s] = _model(params, gamma, X, y, z_s, beta_s, f_s, converged, n_passes,
                           histories[s])

    live = np.arange(S)  # working row k holds slice live[k]
    while len(live) > HANDOFF:
        L = len(live)
        row2, row, rowK = np.arange(L) * (2 * N), np.arange(L) * N, live * N
        zf, betaf, risef, fallf, lof, hif = (
            a.reshape(-1) for a in (z, beta, rise, fall, lo, hi))
        r, q, low, up = (np.empty((L, w)) for w in (N, 2 * N, 2 * N, 2 * N))
        q_alpha, q_star, lowf, upf = q[:, :N], q[:, N:], low.reshape(-1), up.reshape(-1)
        done = np.zeros(L, dtype=bool)
        while not done.any():
            np.subtract(Y, f, out=r)
            np.subtract(r, eps, out=q_alpha)
            np.add(r, eps, out=q_star)
            np.add(q, rise, out=low)
            np.add(q, fall, out=up)
            i, j = low.argmax(axis=1), up.argmin(axis=1)
            fi, fj = i + row2, j + row2
            viol = lowf[fi] - upf[fj]
            si, sj = i % N, j % N
            bi, bj = row + si, row + sj
            ri, rj = Kr[rowK + si], Kr[rowK + sj]
            rif, rjf = ri.reshape(-1), rj.reshape(-1)  # K_ii, K_jj, K_ij at bi, bj
            eta = np.maximum(rif[bi] + rjf[bj] - 2.0 * rif[bj], 1e-12)
            ij = np.concatenate((fi, fj))
            zz, hz, lz = zf[ij], hif[ij], lof[ij]
            t = np.minimum(np.minimum(viol / eta, hz[:L] - zz[:L]), zz[L:] - lz[L:])
            moves = (viol > tol) & (t > 0)
            # t = 0 changes no iterate of a slice whose pass ends here, since
            # no iterate is ever -0.0; zj + (-t) rounds as zj - t
            t = np.where(moves, t, 0.0)
            zz += np.concatenate((t, -t))
            zf[ij] = zz
            betaf[bi] += t
            betaf[bj] -= t
            ri -= rj
            ri *= t[:, None]
            f += ri
            risef[ij], fallf[ij] = _penalties(zz, lz, hz)
            left -= moves
            progressed |= moves
            if moves.all() and left.all():
                continue
            for k in np.flatnonzero(~moves | (left == 0)).tolist():
                s = int(live[k])
                n = sizes[s]
                za, zb = z[k, :n], z[k, N:N + n]
                if _prune(za, zb):
                    rise[k], fall[k] = _penalties(z[k], lo[k], hi[k])
                histories[s].append(_objective(beta[k, :n], f[k, :n], Y[k, :n], za, zb, eps))
                converged = bool(viol[k] <= tol)
                if converged or not progressed[k] or passes[k] >= MAX_PASSES:
                    finish(s, np.concatenate((za, zb)), beta[k, :n].copy(), f[k, :n].copy(),
                           converged, int(passes[k]))
                    done[k] = True
                else:
                    passes[k] += 1
                    left[k] = per_pass[k]
                    progressed[k] = False
        keep = ~done
        live, Y, lo, hi, z, beta, f, rise, fall, passes, per_pass, left, progressed = (
            a[keep] for a in (live, Y, lo, hi, z, beta, f, rise, fall, passes, per_pass,
                              left, progressed))
    for k, s in enumerate(live.tolist()):
        n = sizes[s]
        z_s = np.concatenate((z[k, :n], z[k, N:N + n]))
        beta_s, f_s = beta[k, :n].copy(), f[k, :n].copy()
        converged, n_passes = _smo(K[s, :n, :n], slices[s][1], C, eps, tol, z_s, beta_s, f_s,
                                   int(passes[k]), int(left[k]), bool(progressed[k]),
                                   histories[s])
        finish(s, z_s, beta_s, f_s, converged, n_passes)
    return models


def predict_svr(model: SvrModel, X) -> np.ndarray | float:
    x = np.asarray(X, dtype=float)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.X.shape[1]:
        raise VollabError(
            f"expected {model.X.shape[1]} features, got {x2.shape[1]}"
        )
    mask = model.support_mask
    if not np.any(mask):
        out = np.full(len(x2), model.bias)
    else:
        Kx = kernel_matrix(x2, model.X[mask], model.params, model.gamma)
        out = Kx @ model.beta[mask] + model.bias
    return float(out[0]) if single else out


def kkt_violation(model: SvrModel) -> float:
    """Maximal violation of the optimality conditions at the fitted point."""
    f = kernel_matrix(model.X, model.X, model.params, model.gamma) @ model.beta
    z = np.concatenate((model.alpha, -model.alpha_star))
    low, up = _bias_bounds(model.y - f, z, *_box(len(f), model.params.C),
                           model.params.epsilon)
    return float(low.max() - up.min())
