"""Loading, aligning, partitioning and synthesizing daily time series.

A TimeSeriesFrame is an immutable bundle of strictly increasing calendar
dates plus equal-length named value columns.  CSV layout is
``date,<col>,...`` with ISO-8601 dates and plain ``.`` decimals.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    EmptyInputError,
    IntegrityError,
    ParseError,
    ReadError,
    VollabError,
)


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class TimeSeriesFrame:
    dates: tuple[dt.date, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        n = len(self.dates)
        for i in range(1, n):
            if self.dates[i] <= self.dates[i - 1]:
                raise IntegrityError(f"dates not strictly increasing at position {i}")
        frozen = {}
        for name, col in self.columns.items():
            col = _freeze(col)
            if col.shape != (n,):
                raise IntegrityError(
                    f"column {name!r} has length {col.shape}, expected ({n},)"
                )
            if not np.all(np.isfinite(col)):
                raise IntegrityError(f"column {name!r} contains non-finite values")
            frozen[name] = col
        object.__setattr__(self, "columns", frozen)

    def __len__(self) -> int:
        return len(self.dates)

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            names = self.names
            w.writerow(["date"] + names)
            for i, d in enumerate(self.dates):
                w.writerow([d.isoformat()] + [repr(float(self.columns[c][i])) for c in names])


@dataclass(frozen=True)
class PartitionSpec:
    name: str
    start: dt.date
    end: dt.date

    def __post_init__(self):
        if self.start > self.end:
            raise IntegrityError(f"partition {self.name!r}: start after end")


def read_text(path) -> str:
    """The text of an input file, line endings untranslated."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ReadError(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from None


def load_csv(path) -> TimeSeriesFrame:
    """Read a ``date,<col>,...`` CSV into a frame, sorting rows by date."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyInputError(f"{path}: file is empty") from None
    if len(header) < 2 or header[0].strip().lower() != "date":
        raise ParseError(f"{path}: header must be 'date,<name>,...', got {header}")
    names = [h.strip() for h in header[1:]]
    for j, n in enumerate(names):
        if not n:
            raise ParseError(f"{path}:1: empty column name")
        if n in names[:j]:
            raise ParseError(f"{path}:1: duplicate column name {n!r}")
    rows: list[tuple[dt.date, list[float]]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(names) + 1:
            raise ParseError(f"{path}:{lineno}: expected {len(names) + 1} cells, got {len(row)}")
        try:
            d = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad date {row[0]!r}") from None
        try:
            vals = [float(c) for c in row[1:]]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric cell in {row[1:]!r}") from None
        rows.append((d, vals))
    if not rows:
        raise EmptyInputError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    for i in range(1, len(rows)):
        if rows[i][0] == rows[i - 1][0]:
            raise IntegrityError(f"{path}: duplicate date {rows[i][0].isoformat()}")
    dates = tuple(r[0] for r in rows)
    data = np.array([r[1] for r in rows], dtype=float)
    return TimeSeriesFrame(dates, {n: data[:, j] for j, n in enumerate(names)})


def align(frames: list[TimeSeriesFrame]) -> TimeSeriesFrame:
    """Join frames on the union of dates spanning their common range.

    Gaps created by per-series holidays are forward-filled from observations
    inside the range; leading rows where some frame has none yet are dropped.
    """
    if not frames:
        raise VollabError("align requires at least one frame")
    seen: set[str] = set()
    for f in frames:
        for n in f.names:
            if n in seen:
                raise IntegrityError(f"column name {n!r} appears in more than one frame")
            seen.add(n)
    start = max(f.dates[0] for f in frames)
    end = min(f.dates[-1] for f in frames)
    if start > end:
        raise AlignmentError("frames have no overlapping date range")
    dates = sorted({d for f in frames for d in f.dates if start <= d <= end})
    first, rows = 0, []
    for f in frames:
        latest = [bisect_right(f.dates, d) - 1 for d in dates]  # last row on or before d
        # latest is nondecreasing: the first joined row it fills from inside the range
        filled = bisect_left(latest, bisect_left(f.dates, start))
        if filled == len(dates):
            raise AlignmentError(f"column {f.names[0]!r} has no observations in the common range")
        first = max(first, filled)
        rows.append(latest)
    return TimeSeriesFrame(tuple(dates[first:]), {
        n: c[r[first:]] for f, r in zip(frames, rows) for n, c in f.columns.items()})


def partition(frame: TimeSeriesFrame, spec: PartitionSpec) -> TimeSeriesFrame:
    """Restrict a frame to [spec.start, spec.end] (inclusive)."""
    lo, hi = bisect_left(frame.dates, spec.start), bisect_right(frame.dates, spec.end)
    if lo >= hi:
        raise EmptyInputError(
            f"partition {spec.name!r} ({spec.start}..{spec.end}) selects no rows"
        )
    return TimeSeriesFrame(
        frame.dates[lo:hi], {n: c[lo:hi] for n, c in frame.columns.items()}
    )


def business_days(start: dt.date, n: int) -> tuple[dt.date, ...]:
    """n consecutive weekdays starting at the first weekday >= start."""
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return tuple(out)


SYNTHETIC_DAYS, SYNTHETIC_SERIES = 600, 3  # generate_synthetic's defaults


def generate_synthetic(seed: int, n_days: int = SYNTHETIC_DAYS,
                       n_series: int = SYNTHETIC_SERIES) -> TimeSeriesFrame:
    """Deterministic synthetic daily data with volatility-like stylized facts.

    The ``vol_index`` column is an exponentiated AR(1) in logs with occasional
    jump shocks: positive, positively skewed, mean-reverting, with
    heavier-than-normal tails in its log-differences.  Each extra series
    contributes a price column (random walk with stochastic volatility, so
    clustering is present) and a volume column (persistent lognormal).
    """
    if n_days < 2:
        raise VollabError(f"n_days must be >= 2, got {n_days}")
    if seed < 0:
        raise VollabError(f"seed must be >= 0, got {seed}")
    if n_series < 0:
        raise VollabError(f"n_series must be >= 0, got {n_series}")
    rng = np.random.default_rng(np.random.PCG64(seed))
    dates = business_days(dt.date(2018, 1, 2), n_days)

    # vol index: log-AR(1) around log(30) with jumps
    mu, phi, sig = np.log(30.0), 0.97, 0.06
    lv = np.empty(n_days)
    lv[0] = mu
    jumps = (rng.random(n_days) < 0.02) * rng.exponential(0.35, n_days)
    eps = rng.standard_normal(n_days)
    for t in range(1, n_days):
        lv[t] = mu + phi * (lv[t - 1] - mu) + sig * eps[t] + jumps[t]
    cols = {"vol_index": np.exp(lv)}

    for k in range(n_series):
        # stochastic-vol price: sigma follows its own log-AR(1)
        ls = np.empty(n_days)
        ls[0] = np.log(0.01)
        eta = rng.standard_normal(n_days)
        for t in range(1, n_days):
            ls[t] = np.log(0.01) + 0.95 * (ls[t - 1] - np.log(0.01)) + 0.25 * eta[t]
        rets = np.exp(ls) * rng.standard_normal(n_days)
        logp = np.log(100.0) + np.cumsum(rets) - rets[0]
        cols[f"price_{k}"] = np.exp(logp)
        # persistent positive volume
        lvq = np.empty(n_days)
        lvq[0] = np.log(1e6)
        xi = rng.standard_normal(n_days)
        for t in range(1, n_days):
            lvq[t] = np.log(1e6) + 0.8 * (lvq[t - 1] - np.log(1e6)) + 0.3 * xi[t]
        cols[f"volume_{k}"] = np.exp(lvq)
    return TimeSeriesFrame(dates, cols)
