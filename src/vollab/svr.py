"""Epsilon-insensitive support vector regression via pairwise dual updates.

The dual is solved over one signed vector z = (alpha, -alpha*) of length
2n, in the box [0, C]^n x [-C, 0]^n, with maximal-violating-pair
working-set selection (SMO style; the signed form is LIBSVM's).  Variable
u acts on training row u % n, and beta = alpha - alpha* is the sum of its
two variables.  Every update moves a pair along the equality constraint,
so dual feasibility sum(beta) = 0 holds exactly at all times and the dual
objective never decreases.  Convergence: max KKT violation <= tol or
MAX_PASSES passes.  The update loop runs over buffers allocated once per
fit and refreshes only the two entries an update touches (see fit_svr);
its iterates are bit for bit those of the plain formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitError, VollabError, check_real

MAX_PASSES = 10_000
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


def fit_svr(X, y, params: SvrParams, tol: float = 1e-3) -> SvrModel:
    """Solve the epsilon-SVR dual by maximal-violating-pair updates.

    Each update raises the variable i with the largest lower bound on b by
    t and lowers the variable j with the smallest upper bound by t, where t
    is the Newton step on the violation, cut to keep both in their box.

    The loop works in place: r = y - f and q = (r - eps, r + eps) are
    written into buffers allocated once, and low and up are filled from q
    with np.copyto under the boolean rise (z < hi) and fall (z > lo) masks,
    which keep -inf and +inf elsewhere.  An update changes only z_i and z_j,
    so only those mask entries are refreshed; an overlap prune refreshes
    all of them.  Copying q under a mask keeps every q value as it is, the
    sign of a zero included, so low, up and every iterate are what
    _bias_bounds would give; adding 0 or -inf instead would turn -0.0 into
    +0.0.  Scalar state (z, beta, the diagonal of K and the box) is read
    and written as Python floats, which round exactly as float64 does.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if len(X) != len(y) or len(y) < 2:
        raise VollabError("fit_svr needs >= 2 matching rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise VollabError("fit_svr inputs must be finite")
    n = len(y)
    C, eps = params.C, params.epsilon
    gamma = resolve_gamma(params, X)
    K = kernel_matrix(X, X, params, gamma)
    if not np.all(np.isfinite(K)):
        raise FitError(f"{params.kernel} kernel matrix has non-finite entries "
                       f"(gamma={gamma!r}); rescale the inputs")
    Kd = K.diagonal().tolist()

    lo, hi = _box(n, C)
    lo_s, hi_s = lo.tolist(), hi.tolist()
    z = np.zeros(2 * n)
    z_s = z.tolist()
    beta = np.zeros(n)
    beta_s = beta.tolist()
    f = np.zeros(n)  # K @ beta
    r, df = np.empty(n), np.empty(n)
    eps_n = np.full(n, eps, dtype=float)  # an array operand converts faster than a scalar
    q = np.empty(2 * n)
    q_alpha, q_star = q[:n], q[n:]
    low, up = np.full(2 * n, -np.inf), np.full(2 * n, np.inf)
    rise, fall = z < hi, z > lo
    history: list[float] = []

    converged = False
    passes = 0
    updates_per_pass = max(2 * n, 10)
    rows = list(K)  # row views made once
    while passes < MAX_PASSES:
        passes += 1
        progressed = False
        for _ in range(updates_per_pass):
            np.subtract(y, f, out=r)
            np.subtract(r, eps_n, out=q_alpha)
            np.add(r, eps_n, out=q_star)
            np.copyto(low, q, where=rise)
            np.copyto(up, q, where=fall)
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
            rise[i], fall[i] = zi < hi_s[i], zi > lo_s[i]
            rise[j], fall[j] = zj < hi_s[j], zj > lo_s[j]
            low[i] = low[j] = -np.inf
            up[i] = up[j] = np.inf
            progressed = True
        z[:] = z_s
        beta[:] = beta_s
        # prune alpha/alpha* overlap: keeps beta and feasibility, raises the
        # objective by 2*eps*min(alpha, alpha*)
        overlap = np.minimum(z[:n], -z[n:])
        if np.any(overlap > 0):
            z[:n] -= overlap
            z[n:] += overlap
            z_s = z.tolist()
            np.less(z, hi, out=rise)
            np.greater(z, lo, out=fall)
            low.fill(-np.inf)
            up.fill(np.inf)
        history.append(float(-0.5 * beta @ f + beta @ y - eps * (z[:n] - z[n:]).sum()))
        if converged or not progressed:
            break

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
        low_vals, up_vals = _bias_bounds(r, z, lo, hi, eps)
        bias = float((low_vals.max() + up_vals.min()) / 2.0)

    return SvrModel(
        params=params,
        gamma=gamma,
        X=X.copy(),
        y=y.copy(),
        beta=beta,
        bias=bias,
        alpha=alpha,
        alpha_star=alpha_star,
        converged=converged,
        n_passes=passes,
        objective_history=history,
    )


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
