"""Hybrid convolution / attention / recurrent forecasting network.

Pipeline per 5-step feature block: dilated Conv1D (tanh) -> multi-head
scaled-dot-product attention over time -> second Conv1D (tanh) ->
residual Z1 = H1 + H2 -> O = LayerNorm(Z1) + Dropout(tanh(FCL1(Z1)))
(normalized once more before the recurrent stack) -> bidirectional GRU
(64) -> bidirectional GRU (32) -> linear head on the last time step ->
scalar.  Each GRU direction is one fused autodiff node whose hand-written
backward gives the same bits as the per-op graph.  Training: Adam at the
configured rate, MAE loss, global-norm gradient clipping, early stopping
on validation MAE with snapshotting of the best epoch.  Everything is
seeded and bit-reproducible.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, concat, softmax
from .errors import NumericError, VollabError, check_int, check_real

LN_EPS = 1e-5


@dataclass(frozen=True)
class NetConfig:
    conv_channels: int = 64
    conv_kernel: int = 3
    conv_dilation: int = 2
    heads: int = 4
    head_size: int = 16
    gru1_units: int = 64
    gru2_units: int = 32
    fcl1_units: int = 64
    dropout: float = 0.1
    learning_rate: float = 0.07
    epochs: int = 32
    batch_size: int = 32
    patience: int = 5
    clip_norm: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("conv_channels", "conv_kernel", "conv_dilation", "heads", "head_size",
                     "gru1_units", "gru2_units", "fcl1_units", "epochs", "batch_size", "patience"):
            check_int(name, getattr(self, name), 1)
        check_real("dropout", self.dropout, "in [0, 1)", lambda v: 0 <= v < 1)
        for name in ("learning_rate", "clip_norm"):
            check_real(name, getattr(self, name), "> 0", lambda v: v > 0)
        if self.heads * self.head_size != self.conv_channels:
            raise VollabError("heads * head_size must equal conv_channels")
        if self.fcl1_units != self.conv_channels:
            raise VollabError("fcl1_units must match conv_channels (residual add)")


TINY_CONFIG = NetConfig(
    conv_channels=8,
    heads=2,
    head_size=4,
    gru1_units=8,
    gru2_units=4,
    fcl1_units=8,
    dropout=0.1,
)


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)


def init_params(config: NetConfig, n_features: int, seed: int | None = None) -> dict:
    """Seeded uniform fan-in initialization of every weight array."""
    rng = np.random.default_rng(np.random.PCG64(config.seed if seed is None else seed))
    D, K = config.conv_channels, config.conv_kernel
    p: dict[str, np.ndarray] = {}
    p["conv1_w"] = _uniform(rng, n_features * K, (K, n_features, D))
    p["conv1_b"] = np.zeros(D)
    for name in ("q", "k", "v", "o"):
        p[f"attn_w{name}"] = _uniform(rng, D, (D, D))
        p[f"attn_b{name}"] = np.zeros(D)
    p["conv2_w"] = _uniform(rng, D * K, (K, D, D))
    p["conv2_b"] = np.zeros(D)
    p["ln1_g"], p["ln1_b"] = np.ones(D), np.zeros(D)
    p["fcl1_w"] = _uniform(rng, D, (D, config.fcl1_units))
    p["fcl1_b"] = np.zeros(config.fcl1_units)
    p["ln2_g"], p["ln2_b"] = np.ones(D), np.zeros(D)

    def gru(prefix, n_in, units):
        for gate in ("z", "r", "h"):
            p[f"{prefix}_w{gate}"] = _uniform(rng, n_in, (n_in, units))
            p[f"{prefix}_u{gate}"] = _uniform(rng, units, (units, units))
            p[f"{prefix}_b{gate}"] = np.zeros(units)

    gru("gru1_f", D, config.gru1_units)
    gru("gru1_b", D, config.gru1_units)
    gru("gru2_f", 2 * config.gru1_units, config.gru2_units)
    gru("gru2_b", 2 * config.gru1_units, config.gru2_units)
    p["fcl2_w"] = _uniform(rng, 2 * config.gru2_units, (2 * config.gru2_units, 1))
    p["fcl2_b"] = np.zeros(1)
    return p


def _conv1d(x: Tensor, w: Tensor, b: Tensor, dilation: int) -> Tensor:
    """Same-length dilated 1-D convolution over the time axis of (B,T,C)."""
    K = w.shape[0]
    span = dilation * (K - 1)
    xp = x.pad_axis(1, span // 2, span - span // 2)
    T = x.shape[1]
    out = None
    for k in range(K):
        term = xp[:, k * dilation: k * dilation + T, :] @ w[k]
        out = term if out is None else out + term
    return out + b


def _layer_norm(x: Tensor, g: Tensor, b: Tensor) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc * (var + LN_EPS) ** -0.5 * g + b


def multi_head_attention(x: Tensor, p: dict, heads: int, head_size: int):
    """Scaled dot-product attention over time; returns (output, weights)."""
    B, T, D = x.shape
    q = (x @ p["attn_wq"] + p["attn_bq"]).reshape(B, T, heads, head_size).transpose(0, 2, 1, 3)
    k = (x @ p["attn_wk"] + p["attn_bk"]).reshape(B, T, heads, head_size).transpose(0, 2, 1, 3)
    v = (x @ p["attn_wv"] + p["attn_bv"]).reshape(B, T, heads, head_size).transpose(0, 2, 1, 3)
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(head_size))
    w = softmax(scores, axis=-1)
    ctx = (w @ v).transpose(0, 2, 1, 3).reshape(B, T, D)
    return ctx @ p["attn_wo"] + p["attn_bo"], w


def _sigmoid(a: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-a))


def _fold(terms: list) -> np.ndarray:
    """Left-to-right sum of the terms, ((t0 + t1) + t2) + ..."""
    return sum(terms[1:], terms[0])


GRU_WEIGHTS = ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")


def _gru_direction(x: Tensor, p: dict, prefix: str, units: int, reverse: bool) -> Tensor:
    """One GRU direction over (B, T, D) as a single node: its parents are x
    and the nine weights, its data the stacked (B, T, units) states.

    The forward pass and the hand-written backpropagation through time
    repeat, expression for expression, what a graph of per-step Tensor ops
    computes (tests/oracles.py::composed_gru_direction), and every gradient
    takes its terms in the order that graph's reverse-topological sweep
    adds them, so the output and every gradient are the same bits.
    """
    ws = [p[f"{prefix}_{name}"] for name in GRU_WEIGHTS]
    wz, uz, bz, wr, ur, br, wh, uh, bh = (w.data for w in ws)
    X = x.data
    B, T, _ = X.shape
    h = np.zeros((B, units), dtype=X.dtype)
    steps, outs = [], [None] * T
    for t in (range(T - 1, -1, -1) if reverse else range(T)):
        xt = X[:, t, :]
        z = _sigmoid((xt @ wz + h @ uz) + bz)
        r = _sigmoid((xt @ wr + h @ ur) + br)
        rh = r * h
        hc = np.tanh((xt @ wh + rh @ uh) + bh)
        omz = 1.0 + (-z)  # 1.0 - z as Tensor.__rsub__ builds it
        steps.append((t, xt, h, z, r, rh, hc, omz))
        h = omz * h + z * hc
        outs[t] = h.reshape(B, 1, units)
    out = Tensor(np.concatenate(outs, axis=1), (x, *ws))

    def bw(g):
        terms = {name: [] for name in GRU_WEIGHTS}
        dx = [None] * T
        gh = g[:, steps[-1][0], :]  # the last step's state feeds only the output
        for k in range(T - 1, -1, -1):
            t, xt, h, z, r, rh, hc, omz = steps[k]
            dc = gh * z * (1.0 - hc ** 2)  # candidate pre-activation
            drh = dc @ uh.T
            db = drh * h * r * (1.0 - r)  # reset-gate pre-activation
            da = (gh * hc + (-(gh * h))) * z * (1.0 - z)  # update-gate pre-activation
            terms["bh"].append(dc.sum(axis=0))
            terms["uh"].append(rh.T @ dc)
            terms["br"].append(db.sum(axis=0))
            terms["ur"].append(h.T @ db)
            terms["wr"].append(xt.T @ db)
            terms["wh"].append(xt.T @ dc)
            terms["bz"].append(da.sum(axis=0))
            terms["uz"].append(h.T @ da)
            terms["wz"].append(xt.T @ da)
            dx[t] = (db @ wr.T + dc @ wh.T) + da @ wz.T
            if k:
                # the previous state's terms, in the order the composed graph
                # adds them; its output slice comes last going forward in
                # time and first going backward
                rec = [drh * r, db @ ur.T, gh * omz, da @ uz.T]
                out_slice = g[:, steps[k - 1][0], :]
                gh = _fold([out_slice] + rec if reverse else rec + [out_slice])
        if reverse:
            # each step's xt @ wz node sits below the rest of the chain in
            # the composed graph, so wz takes its terms first step first
            terms["wz"].reverse()
        x._accum(np.stack(dx, axis=1))
        for w, name in zip(ws, GRU_WEIGHTS):
            w._accum(_fold(terms[name]))

    out._backward = bw
    return out


def _bigru(x: Tensor, p: dict, layer: int, units: int) -> Tensor:
    fwd = _gru_direction(x, p, f"gru{layer}_f", units, reverse=False)
    bwd = _gru_direction(x, p, f"gru{layer}_b", units, reverse=True)
    return concat([fwd, bwd], axis=2)


def _check_finite(name: str, t: Tensor) -> None:
    if not np.all(np.isfinite(t.data)):
        raise NumericError(f"non-finite activation in layer {name!r}")


def build_graph(params: dict, x: np.ndarray, config: NetConfig,
                train_mode: bool, seed: int = 0):
    """Assemble the forward graph; returns (prediction node, node dict, attention weights)."""
    x = np.asarray(x)
    if x.ndim != 3:
        raise VollabError(f"expected batch of rank-3 blocks, got shape {x.shape}")
    if x.shape[2] != params["conv1_w"].shape[1]:
        raise VollabError(
            f"feature width {x.shape[2]} does not match the input projection "
            f"({params['conv1_w'].shape[1]})"
        )
    p = {name: Tensor(arr) for name, arr in params.items()}
    xt = Tensor(x, requires_grad=False)
    rng = np.random.default_rng(np.random.PCG64(seed))

    h1 = _conv1d(xt, p["conv1_w"], p["conv1_b"], config.conv_dilation).tanh()
    _check_finite("conv1", h1)
    a, attn_w = multi_head_attention(h1, p, config.heads, config.head_size)
    _check_finite("attention", a)
    h2 = _conv1d(a, p["conv2_w"], p["conv2_b"], config.conv_dilation).tanh()
    _check_finite("conv2", h2)
    z1 = h1 + h2
    f = (z1 @ p["fcl1_w"] + p["fcl1_b"]).tanh()
    if train_mode and config.dropout > 0:
        keep = (rng.random(f.shape) >= config.dropout).astype(x.dtype)
        f = f * Tensor(keep / (1.0 - config.dropout), requires_grad=False)
    o = _layer_norm(z1, p["ln1_g"], p["ln1_b"]) + f
    o_normed = _layer_norm(o, p["ln2_g"], p["ln2_b"])
    _check_finite("add_norm", o_normed)
    g1 = _bigru(o_normed, p, 1, config.gru1_units)
    g2 = _bigru(g1, p, 2, config.gru2_units)
    _check_finite("gru", g2)
    pred = (g2[:, -1, :] @ p["fcl2_w"] + p["fcl2_b"]).reshape(x.shape[0])
    _check_finite("head", pred)
    return pred, p, attn_w.data


def forward(params: dict, x, config: NetConfig, train_mode: bool = False, seed: int = 0):
    """Run the network; returns (predictions, attention weights)."""
    pred, _, attn_w = build_graph(params, x, config, train_mode, seed)
    return pred.data, attn_w


def mae_and_grads(params: dict, x, targets, config: NetConfig,
                  train_mode: bool = True, seed: int = 0):
    """Mean absolute error and its exact reverse-mode gradient per parameter."""
    pred, nodes, _ = build_graph(params, x, config, train_mode, seed)
    y = Tensor(np.asarray(targets, dtype=np.asarray(x).dtype), requires_grad=False)
    (pred - y).abs().mean().backward()
    grads = {name: t.grad if t.grad is not None else np.zeros_like(t.data)
             for name, t in nodes.items()}
    return float(np.mean(np.abs(pred.data - np.asarray(targets)))), grads


def clip_global_norm(grads: dict, max_norm: float) -> dict:
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm > 0:
        scale = max_norm / total
        return {k: g * scale for k, g in grads.items()}
    return grads


def predict(params: dict, x_blocks, config: NetConfig) -> np.ndarray:
    preds, _ = forward(params, x_blocks, config, train_mode=False)
    return preds


@dataclass
class TrainResult:
    params: dict
    best_epoch: int  # 1-based
    best_val_mae: float
    epochs_run: int
    val_history: list[float]


def train(config: NetConfig, train_set) -> TrainResult:
    """Adam + clipping + early stopping; returns the best-epoch snapshot.

    train_set is a (blocks, targets) pair of already scaled and
    noise-augmented sequenced rows; the final 20% of them (time-ordered)
    are held out for validation.
    """
    X, y = np.asarray(train_set[0], dtype=float), np.asarray(train_set[1], dtype=float)
    if len(X) == 0:
        raise VollabError("empty training set")
    cut = max(1, int(round(len(X) * 0.8)))
    if cut == len(X):
        cut = len(X) - 1
    if cut <= 0:
        raise VollabError("training set too small to split out validation rows")
    X, Xv, y, yv = X[:cut], X[cut:], y[:cut], y[cut:]

    params = init_params(config, X.shape[2])
    rng = np.random.default_rng(np.random.PCG64(config.seed ^ 0x5EED))
    m_state = {k: np.zeros_like(v) for k, v in params.items()}
    v_state = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2, adam_eps = 0.9, 0.999, 1e-8
    step = 0
    best = (np.inf, None, 0)  # (val mae, snapshot, epoch)
    since_best = 0
    history: list[float] = []
    epochs_run = 0
    for epoch in range(1, config.epochs + 1):
        epochs_run = epoch
        order = rng.permutation(len(X))
        for lo in range(0, len(X), config.batch_size):
            idx = order[lo: lo + config.batch_size]
            drop_seed = int(rng.integers(0, 2**63 - 1))
            loss, grads = mae_and_grads(
                params, X[idx], y[idx], config, train_mode=True, seed=drop_seed
            )
            if not np.isfinite(loss):
                raise NumericError("non-finite training loss")
            grads = clip_global_norm(grads, config.clip_norm)
            step += 1
            corr = np.sqrt(1 - b2 ** step) / (1 - b1 ** step)
            for k in params:
                g = grads[k]
                m_state[k] = b1 * m_state[k] + (1 - b1) * g
                v_state[k] = b2 * v_state[k] + (1 - b2) * g * g
                params[k] = params[k] - config.learning_rate * corr * m_state[k] / (
                    np.sqrt(v_state[k]) + adam_eps
                )
        val_mae = float(np.mean(np.abs(predict(params, Xv, config) - yv)))
        history.append(val_mae)
        if val_mae < best[0]:
            best = (val_mae, copy.deepcopy(params), epoch)
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    final = best[1] if best[1] is not None else params
    return TrainResult(final, best[2], best[0], epochs_run, history)


def save_params(params: dict, path) -> None:
    """Text checkpoint: one block per array (name, shape, row-major values)."""
    with open(path, "w") as fh:
        for name in sorted(params):
            arr = np.asarray(params[name], dtype=float)
            fh.write(f"{name} {' '.join(map(str, arr.shape))}\n")
            fh.write(" ".join(repr(float(v)) for v in arr.ravel()) + "\n")


def load_params(path) -> dict:
    params = {}
    with open(path) as fh:
        lines = fh.read().splitlines()
    for i in range(0, len(lines), 2):
        head = lines[i].split()
        name, shape = head[0], tuple(int(s) for s in head[1:])
        vals = np.array([float(v) for v in lines[i + 1].split()])
        params[name] = vals.reshape(shape)
    return params
