"""Common regressor contract: one table describes every model kind.

`MODELS` holds, per kind, its hyperparameter grid axes, the
`model_options` section it reads with the keys allowed there, and its
fit, which gets every training slice and state and returns one forecast
per state; what fits can share is the solver's rule (gbdt merges states
whose limits cannot bind).  Grid enumeration order is the documented
cartesian order of the axis lists, last axis fastest.  Adding a model
kind is one table entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Callable

from .errors import UsageError, VollabError, is_int
from .features import add_uniform_noise, apply_scaler, fit_scaler
from .gbdt import GbdtParams, fit_gbdt_slices
from .gbdt import slice_runs as gbdt_slice_runs
from .net import NetConfig, predict as net_predict, train as net_train
from .svr import SvrParams, fit_svr_slices, predict_svr, slice_runs


def derive_seed(root_seed: int, *parts) -> int:
    """Stable 63-bit seed from the root seed and any hashable context."""
    text = ":".join([str(root_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ParamState:
    """One point in a model's hyperparameter grid."""

    values: tuple[tuple[str, object], ...]  # ordered (name, value) pairs

    def to_text(self) -> str:
        return ";".join(f"{k}={v}" for k, v in self.values) or "default"

    @classmethod
    def from_text(cls, kind: str, text: str) -> "ParamState":
        axes = model_kind(kind).axes
        given = {}
        for item in [] if text == "default" else text.split(";"):
            k, _, raw = item.partition("=")
            allowed = axes.get(k)
            if allowed is None:
                raise VollabError(f"unknown parameter {k!r} for kind {kind!r}")
            match = next((v for v in allowed if str(v) == raw), None)
            if match is None:
                raise VollabError(f"value {raw!r} not in the {k} enumeration")
            given[k] = match
        if len(given) != len(axes):
            raise VollabError(f"a {kind} state must set each of {list(axes)}: {text!r}")
        return cls(tuple((k, given[k]) for k in axes))


# A fit takes its kind's model_options section, the states and the
# (training slice, seed, block to forecast) triples, and returns, per
# slice, one (forecast, internal validation MAE or nan) per state, in state
# order.  It scales and noises each slice, and scales its block, once
# (_scaled), and all its states' fits share them and must not modify them.
# A failing fit raises what fitting slice by slice, each under every state
# in order, raises first.  The solvers are looked up as module globals when
# a fit runs, so a tracer that rebinds them sees the calls.


def _fit_svr(section, states, slices):
    """Fit state by state on each run of slices (slice_runs), scaled per run;
    a run whose scaling or fits fail is redone slice by slice to raise that
    order's error."""
    out = []
    for count in slice_runs([len(train) for train, _, _ in slices]):
        run, slices = slices[:count], slices[count:]
        try:
            trains, blocks = zip(*(_scaled(*item) for item in run))
            out += zip(*[_svr_run(trains, state, blocks) for state in states])
        except Exception:
            for item in run:
                train, block = _scaled(*item)
                for state in states:
                    _svr_run([train], state, [block])
            raise
    return [list(fits) for fits in out]


def _svr_run(trains, state, blocks):
    models = fit_svr_slices([t.flat() for t in trains], [t.targets for t in trains],
                            SvrParams(**dict(state.values)))
    return [(float(predict_svr(m, b.ravel())), float("nan")) for m, b in zip(models, blocks)]


def _gbdt_values(state, n):
    """The state's GbdtParams values on n rows, min_data clipped to n // 3."""
    values = dict(state.values)
    values["min_data"] = min(values["min_data"], max(1, n // 3))
    return values


def _fit_gbdt(section, states, slices):
    """One fit_gbdt_slices call for each run of slices (gbdt_slice_runs), with
    every state's GbdtParams on each slice: one forecast per state, where
    states whose params fit alike on a slice share one fit.  Each slice is
    scaled when the call takes it, so only the lockstep's stack holds every
    scaled slice.  A state's params are built and checked once per min_data
    clip, on the first slice that takes it, and reseeded for each slice."""
    made = {}  # (state, min_data on the slice) -> GbdtParams

    def params(state, n, seed):
        values = _gbdt_values(state, n)
        key = state, values["min_data"]
        if key not in made:
            made[key] = GbdtParams(**values, **section)
        return made[key].reseeded(seed)

    def taken(run):
        for train, seed, block in run:
            train, block = _scaled(train, seed, block)
            n, seed = len(train), derive_seed(seed, "gbdt")
            yield train.flat(), train.targets, block.ravel(), [
                params(state, n, seed) for state in states]

    forecasts = []
    sizes = [len(train) for train, _, _ in slices]
    width = slices[0][0].flat().shape[1] if slices else 0
    for count in gbdt_slice_runs(sizes, width):
        run, slices = slices[:count], slices[count:]
        forecasts += fit_gbdt_slices([len(train) for train, _, _ in run], taken(run))
    return [[(f, float("nan")) for f in row] for row in forecasts]


def _fit_net(section, states, slices):
    """Train one net per state on each slice."""
    out = []
    for train, seed, block in slices:
        train, block = _scaled(train, seed, block)
        config = NetConfig(**{**section, "seed": derive_seed(seed, "net") % (2**31)})
        fits = []
        for _ in states:
            result = net_train(config, (train.blocks, train.targets))
            fits.append((float(net_predict(result.params, block[None, :, :], config)[0]),
                         result.best_val_mae))
        out.append(fits)
    return out


@dataclass(frozen=True)
class ModelKind:
    """One model kind.  Without a fit the kind is the random walk in levels:
    it skips scaling and noise and predicts a zero log-diff."""

    axes: dict = field(default_factory=dict)  # grid axis -> values, in order
    section: str | None = None  # the model_options section it reads
    options_type: type | None = None  # what that section's keys configure
    keys: frozenset = frozenset()  # the keys allowed in that section
    fit: Callable | None = None


MODELS = {
    "naive": ModelKind(),
    "svr": ModelKind(
        axes={
            "kernel": ("poly", "rbf", "sigmoid"),
            "gamma": ("scale", "auto", 0.1, 0.15, 0.2),
            "epsilon": (0.05, 0.1, 0.15),
        },
        fit=_fit_svr,
    ),
    "gbdt": ModelKind(
        axes={
            "leaves": (75, 100, 125),
            "min_data": (10, 20, 30),
            "max_depth": (-1, 5, 10),
            "feature_fraction": (0.4, 0.5, 0.6),
        },
        section="gbdt",
        options_type=GbdtParams,
        keys=frozenset({"rounds", "learning_rate"}),
        fit=_fit_gbdt,
    ),
    "attn_gru": ModelKind(
        section="net",
        options_type=NetConfig,
        keys=frozenset(f.name for f in fields(NetConfig)) - {"seed"},  # seed is per fit
        fit=_fit_net,
    ),
}


def model_kind(kind: str) -> ModelKind:
    try:
        return MODELS[kind]
    except KeyError:
        raise VollabError(f"unknown regressor kind {kind!r}") from None


def enumerate_grid(kind: str) -> list[ParamState]:
    """Every ParamState of a kind, in deterministic cartesian order."""
    states = [ParamState(())]
    for name, vals in model_kind(kind).axes.items():
        states = [
            ParamState(s.values + ((name, v),)) for s in states for v in vals
        ]
    return states


def resolve_grid(kind: str, entries) -> list[ParamState]:
    """A config grid: integer indexes into enumerate_grid or text states."""
    full = enumerate_grid(kind)
    if not isinstance(entries, list) or not entries:
        raise UsageError(f"the {kind} grid must be a non-empty list")
    out = []
    for item in entries:
        if is_int(item):
            if not 0 <= item < len(full):
                raise UsageError(
                    f"grid index {item} out of range for {kind} (size {len(full)})"
                )
            out.append(full[item])
        elif isinstance(item, str):
            try:
                out.append(ParamState.from_text(kind, item))
            except VollabError as exc:
                raise UsageError(f"{kind} grid: {exc}") from None
        else:
            raise UsageError(f"grid entries must be indexes or text states, got {item!r}")
        if out[-1] in out[:-1]:
            raise UsageError(f"the {kind} grid names {out[-1].to_text()!r} more than once")
    return out


def check_model_options(options: dict) -> None:
    """Reject unknown sections, unknown keys and values the section's type refuses."""
    sections = {m.section: m for m in MODELS.values() if m.section}
    for section, opts in options.items():
        m = sections.get(section)
        if m is None or not isinstance(opts, dict):
            raise UsageError(
                f"model_options.{section} is not a known section with an object "
                f"value; known sections: {sorted(sections)}"
            )
        unknown = set(opts) - m.keys
        if unknown:
            raise UsageError(
                f"unknown model_options.{section} keys {sorted(unknown)}; "
                f"allowed: {sorted(m.keys)}"
            )
        try:
            m.options_type(**opts)
        except VollabError as exc:
            raise UsageError(f"model_options.{section}: {exc}") from None


def _scaled(train, seed, block):
    """The slice scaled, then noised, and the block scaled, by the slice's scaler."""
    scaler = fit_scaler(train)
    noised = add_uniform_noise(apply_scaler(scaler, train),
                               seed=derive_seed(seed, "noise", len(train)))
    return noised, (block - scaler.mean) / scaler.std


def forecast(kind: str, slices, options: dict | None,
             states) -> list[list[tuple[float, float]]]:
    """Fit each training slice under each state and forecast its block.

    `slices` holds (training slice, seed, block to forecast) triples; the
    kind's fit gets them all, with every state.  Returns, per slice, one
    (forecast, internal validation MAE or nan) per state, in state order.
    """
    m = model_kind(kind)
    if m.fit is None:
        return [[(0.0, float("nan"))] * len(states) for _ in slices]
    return m.fit((options or {}).get(m.section, {}), states, slices)
