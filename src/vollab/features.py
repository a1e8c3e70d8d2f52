"""Engineered feature matrix and sequenced model inputs.

Every raw series contributes up to three columns: the level (``.lvl``),
the log-difference (``.lnd``) and the rolling 21-day realized volatility
of the log-differences (``.rv21``).  Sequencing turns the matrix into
overlapping 5-step windows paired with the next-step target, viewable
flat (classical models) or as rank-3 blocks (the network).
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError, FitError, VollabError
from .frames import TimeSeriesFrame, _freeze

RV_WINDOW = 21
SEQ_LEN = 5
NOISE_LO, NOISE_HI = -0.02, 0.02


def log_diff(series) -> np.ndarray:
    """ln(y[t+1]) - ln(y[t]) for every consecutive pair."""
    y = np.asarray(series, dtype=float)
    if y.ndim != 1 or len(y) < 2:
        raise VollabError("log_diff needs a 1-D series of length >= 2")
    if np.any(y <= 0):
        raise DomainError("log_diff requires strictly positive values")
    ly = np.log(y)
    return ly[1:] - ly[:-1]


def rolling_rv(returns, window: int = RV_WINDOW) -> np.ndarray:
    """Rolling population standard deviation over trailing windows.

    Output element i covers returns[i : i+window]; normalization is 1/window
    with the in-window mean subtracted.
    """
    r = np.asarray(returns, dtype=float)
    if r.ndim != 1 or len(r) < window:
        raise VollabError(f"rolling_rv needs at least {window} values, got {len(r)}")
    wins = np.lib.stride_tricks.sliding_window_view(r, window)
    mean = wins.mean(axis=1, keepdims=True)
    var = ((wins - mean) ** 2).mean(axis=1)
    return np.sqrt(var)


def levels_from_logdiffs(prev_level: float, diffs) -> np.ndarray:
    """Chain levels forward: y[t] = y[t-1] * exp(d[t]) starting at prev_level."""
    if prev_level <= 0:
        raise DomainError(f"prev_level must be positive, got {prev_level}")
    d = np.asarray(diffs, dtype=float)
    return prev_level * np.exp(np.cumsum(d))


@dataclass(frozen=True)
class FeatureMatrix:
    dates: tuple[dt.date, ...]
    names: tuple[str, ...]
    values: np.ndarray  # rows x features
    zero_variance: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(self.values))
        if self.values.shape != (len(self.dates), len(self.names)):
            raise VollabError("FeatureMatrix shape mismatch")

    def __len__(self) -> int:
        return len(self.dates)

    def select(self, names) -> "FeatureMatrix":
        names = list(names)
        idx = [self.names.index(n) for n in names]
        return FeatureMatrix(
            self.dates,
            tuple(names),
            self.values[:, idx],
            tuple(n for n in self.zero_variance if n in names),
        )

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["date", *self.names])
            for d, row in zip(self.dates, self.values):
                w.writerow([d.isoformat(), *(repr(float(v)) for v in row)])


def engineer(frame: TimeSeriesFrame, volume_columns=()) -> FeatureMatrix:
    """Emit `.lvl`, `.lnd` and `.rv21` columns per raw series.

    Volume columns (nonnegative, possibly zero) are shifted by +1 before the
    log-difference.  The date index drops the first RV_WINDOW rows consumed
    by the diff + RV warm-up, so all columns share one index.
    """
    if not frame.names:
        raise DataError("no series to engineer features from; the data needs a column "
                        "besides the target")
    volume_columns = set(volume_columns)
    n = len(frame)
    if n < RV_WINDOW + 2:
        raise VollabError(f"engineer needs at least {RV_WINDOW + 2} rows, got {n}")
    names: list[str] = []
    cols: list[np.ndarray] = []
    zero_var: list[str] = []
    for name in frame.names:
        raw = frame.column(name)
        if name in volume_columns:
            if np.any(raw < 0):
                raise DomainError(f"volume column {name!r} has negative values")
            base = raw + 1.0
        else:
            if np.any(raw <= 0):
                raise DomainError(f"price column {name!r} has non-positive values")
            base = raw
        lnd = log_diff(base)
        rv = rolling_rv(lnd, RV_WINDOW)
        # alignment: lnd[i] is dated dates[i+1]; rv[j] ends at lnd index j+20,
        # i.e. dates[j+21].  Keep rows from dates[RV_WINDOW:].
        for suffix, col in (("lvl", raw[RV_WINDOW:]), ("lnd", lnd[RV_WINDOW - 1:]), ("rv21", rv)):
            names.append(f"{name}.{suffix}")
            cols.append(col)
            if np.ptp(col) == 0.0:
                zero_var.append(names[-1])
    dates = frame.dates[RV_WINDOW:]
    return FeatureMatrix(dates, tuple(names), np.column_stack(cols), tuple(zero_var))


@dataclass(frozen=True)
class SequencedDataset:
    """Overlapping length-s feature windows, each paired with the next-step target.

    blocks[k] holds rows t-s+1..t of the feature matrix (time-major: the last
    time step is blocks[k][-1]); targets[k] is the target one step beyond the
    window, dated target_dates[k].
    """

    blocks: np.ndarray  # k x s x m
    targets: np.ndarray  # k
    target_dates: tuple[dt.date, ...]
    feature_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _freeze(self.blocks))
        object.__setattr__(self, "targets", _freeze(self.targets))
        k, s, m = self.blocks.shape
        if self.targets.shape != (k,) or len(self.target_dates) != k:
            raise VollabError("SequencedDataset shape mismatch")

    def __len__(self) -> int:
        return self.blocks.shape[0]

    def flat(self) -> np.ndarray:
        """k x (s*m) view, time-major: features of the last time step come last."""
        k, s, m = self.blocks.shape
        return self.blocks.reshape(k, s * m)

    def slice(self, start: int, stop: int) -> "SequencedDataset":
        return SequencedDataset(
            self.blocks[start:stop],
            self.targets[start:stop],
            self.target_dates[start:stop],
            self.feature_names,
        )

    def with_blocks(self, blocks: np.ndarray) -> "SequencedDataset":
        return SequencedDataset(blocks, self.targets, self.target_dates, self.feature_names)


def sequence(matrix: FeatureMatrix, target, s: int = SEQ_LEN) -> SequencedDataset:
    """Window the matrix into length-s blocks with one-step-ahead targets.

    target[i] must be the value to predict one step after matrix date i,
    i.e. the log-diff between dates i and i+1.  The window ending at row t
    (t = s-1 .. len-2) is paired with target[t], dated dates[t+1].
    """
    y = np.asarray(target, dtype=float)
    n = len(matrix)
    if y.shape != (n - 1,) and y.shape != (n,):
        raise VollabError("target length must be len(matrix) or len(matrix)-1")
    if n < s + 1:
        raise VollabError(f"need at least {s + 1} rows to build one window, got {n}")
    ends = range(s - 1, n - 1)
    blocks = np.stack([matrix.values[t - s + 1: t + 1] for t in ends])
    targets = np.array([y[t] for t in ends])
    dates = tuple(matrix.dates[t + 1] for t in ends)
    return SequencedDataset(blocks, targets, dates, matrix.names)


def add_uniform_noise(dataset: SequencedDataset, seed: int) -> SequencedDataset:
    """Perturb every feature entry by an independent U[NOISE_LO, NOISE_HI) draw.

    Targets are untouched; the result is deterministic given the seed.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    noise = rng.uniform(NOISE_LO, NOISE_HI, size=dataset.blocks.shape)
    return dataset.with_blocks(dataset.blocks + noise)


@dataclass(frozen=True)
class ScalerState:
    """Per-feature standardization constants fitted on training rows only."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _freeze(self.mean))
        object.__setattr__(self, "std", _freeze(self.std))


def fit_scaler(train: SequencedDataset) -> ScalerState:
    """Fit per-feature mean/std over all time steps of the training blocks."""
    k, s, m = train.blocks.shape
    rows = train.blocks.reshape(k * s, m)
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    bad = np.nonzero(std == 0.0)[0]
    if bad.size:
        names = ", ".join(train.feature_names[i] for i in bad)
        raise FitError(f"zero-variance feature(s) rejected by scaler: {names}")
    return ScalerState(mean, std)


def apply_scaler(state: ScalerState, dataset: SequencedDataset) -> SequencedDataset:
    return dataset.with_blocks((dataset.blocks - state.mean) / state.std)


def invert_scaler(state: ScalerState, dataset: SequencedDataset) -> SequencedDataset:
    return dataset.with_blocks(dataset.blocks * state.std + state.mean)
