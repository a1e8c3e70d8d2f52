"""Per-prediction incremental batch learning.

Each out-of-sample prediction is the outcome of one self-contained task:
take the W sequenced observations whose targets end just before the test
date, score every grid state by expanding-window validation inside that
batch, refit on the whole batch with the winner, predict one step, and
discard all state.  Tasks share nothing, so they may run in any order
(or concurrently, in worker processes) with identical results.
"""

from __future__ import annotations

import datetime as dt
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ReportError, VollabError
from .features import FeatureMatrix, SequencedDataset, log_diff, sequence
from .frames import read_text
from .grids import ParamState, derive_seed, enumerate_grid, forecast

MIN_VALIDATION_SEED = 10  # sequenced observations in the initial training slice


def task_seed(root_seed: int, kind: str, window: int, test_date: dt.date) -> int:
    """The seed of the task that forecasts test_date; every fit in it derives from this."""
    return derive_seed(root_seed, kind, window, test_date.isoformat())


def check_history(n: int, window: int, horizon: int, s: int) -> None:
    need = window + s + horizon
    if n < need:
        raise DataError(
            f"need at least {need} aligned observations for window={window}, "
            f"horizon={horizon}, s={s}; got {n}"
        )


# The record file's columns in file order, each with the parser of its
# cells; the header, csv_row and read_records_csv all follow this table.
# Floats are written with repr, which round-trips them exactly.
RECORD_COLUMNS = (
    ("date", dt.date.fromisoformat),
    ("actual_logdiff", float),
    ("pred_logdiff", float),
    ("actual_level", float),
    ("pred_level", float),
    ("model", str),
    ("window", int),
    ("params", str),
    ("val_mae", float),
)


@dataclass(frozen=True)
class ForecastRecord:
    date: dt.date
    pred_logdiff: float
    actual_logdiff: float
    pred_level: float
    actual_level: float
    model: str
    window: int
    params: str
    val_mae: float

    CSV_HEADER = ",".join(name for name, _ in RECORD_COLUMNS)

    def csv_row(self) -> str:
        return ",".join((repr if parse is float else str)(getattr(self, name))
                        for name, parse in RECORD_COLUMNS)


@dataclass(frozen=True)
class BatchTask:
    kind: str
    window: int
    test_date: dt.date
    batch: SequencedDataset  # W rows, targets dated <= test_date - 1 step
    predict_block: np.ndarray  # s x m feature block ending one step before test_date
    actual_logdiff: float
    prev_level: float
    actual_level: float
    grid: tuple[ParamState, ...]
    seed: int
    model_options: dict | None = None


def validate_params(batch: SequencedDataset, kind: str, grid, seed: int,
                    options: dict | None = None) -> list[float]:
    """Expanding-window validation MAE of every grid state inside a batch.

    Starts from the first MIN_VALIDATION_SEED sequenced observations: fits
    every state, forecasts the next observation, and grows the window by
    one until the batch is exhausted.  Every window goes to one forecast
    call.
    """
    n = len(batch)
    if n <= MIN_VALIDATION_SEED:
        raise VollabError(
            f"batch of {n} sequenced observations is too small to validate "
            f"(need > {MIN_VALIDATION_SEED})"
        )
    steps = range(MIN_VALIDATION_SEED, n)
    results = forecast(kind, [(batch.slice(0, v), derive_seed(seed, "val", v), batch.blocks[v])
                              for v in steps], options, grid)
    return [float(np.mean([abs(per_state[k][0] - batch.targets[v])
                           for v, per_state in zip(steps, results)]))
            for k in range(len(grid))]


def run_batch(task: BatchTask) -> ForecastRecord:
    """Select, refit, predict once, and drop all state."""
    if not task.grid:
        raise VollabError("task grid is empty")
    try:
        if len(task.grid) == 1:
            best, best_mae = 0, math.nan
        else:
            maes = validate_params(task.batch, task.kind, task.grid, task.seed,
                                   task.model_options)
            best = int(np.nanargmin(maes))  # ties go to the first state
            best_mae = maes[best]
        [[(pred, internal_mae)]] = forecast(
            task.kind, [(task.batch, derive_seed(task.seed, "refit"), task.predict_block)],
            task.model_options, [task.grid[best]])
    except Exception as exc:
        exc.add_note(f"[task kind={task.kind} window={task.window} date={task.test_date}]")
        raise
    if math.isnan(best_mae):  # singleton grid: the net's own best-epoch MAE, if any
        best_mae = internal_mae
    return ForecastRecord(
        date=task.test_date,
        pred_logdiff=pred,
        actual_logdiff=task.actual_logdiff,
        pred_level=task.prev_level * math.exp(pred),
        actual_level=task.actual_level,
        model=task.kind,
        window=task.window,
        params=task.grid[best].to_text(),
        val_mae=best_mae,
    )


@dataclass(frozen=True)
class ExperimentData:
    """Aligned target levels and engineered features sharing one date index."""

    dates: tuple[dt.date, ...]
    levels: np.ndarray  # target index level per date, positive
    features: FeatureMatrix

    def __post_init__(self):
        if len(self.dates) != len(self.features) or len(self.levels) != len(self.dates):
            raise VollabError("ExperimentData components must share one date index")


def build_tasks(
    data: ExperimentData,
    kind: str,
    window: int,
    horizon: int,
    s: int,
    root_seed: int,
    grid=None,
    model_options: dict | None = None,
) -> list[BatchTask]:
    n = len(data.dates)
    check_history(n, window, horizon, s)
    diffs = log_diff(data.levels)  # diffs[i] spans dates i -> i+1
    ds = sequence(data.features, diffs, s=s)  # row ending at t targets diffs[t]
    grid = tuple(grid) if grid is not None else tuple(enumerate_grid(kind))
    # sequenced row r has target date index (s + r); test date index t uses
    # batch rows with target index <= t-1, i.e. rows <= t-1-s
    tasks = []
    for t in range(n - horizon, n):
        last_row = t - 1 - s  # inclusive
        first_row = last_row - window + 1
        batch = ds.slice(first_row, last_row + 1)
        tasks.append(
            BatchTask(
                kind=kind,
                window=window,
                test_date=data.dates[t],
                batch=batch,
                predict_block=ds.blocks[last_row + 1],
                actual_logdiff=float(diffs[t - 1]),
                prev_level=float(data.levels[t - 1]),
                actual_level=float(data.levels[t]),
                grid=grid,
                seed=task_seed(root_seed, kind, window, data.dates[t]),
                model_options=model_options,
            )
        )
    return tasks


def run_experiment(
    data: ExperimentData,
    kind: str,
    window: int,
    horizon: int,
    s: int,
    root_seed: int,
    grid=None,
    model_options: dict | None = None,
    threads: int = 1,
) -> list[ForecastRecord]:
    """One independent BatchTask per test date, records in date order.

    With threads > 1 the tasks run on that many forked worker processes, at
    most one per CPU and one per task.  Where the platform cannot fork, they
    run serially.
    """
    tasks = build_tasks(data, kind, window, horizon, s, root_seed, grid, model_options)
    workers = min(threads, os.cpu_count() or 1, len(tasks))
    if workers > 1:  # only a run that may fork a pool loads its modules
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [run_batch(t) for t in tasks]
    # The workers inherit the tasks through the fork, so only indexes and
    # records are pickled.
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_adopt_tasks, initargs=(tasks,)) as pool:
        records = list(pool.map(_run_task, range(len(tasks))))
    # A task that failed in a worker runs again here, first in date order.
    # Tasks are deterministic, so it raises what the serial loop would have
    # raised, with the exception's class and task note intact.
    return [r if r is not None else run_batch(t) for r, t in zip(records, tasks)]


_worker_tasks: list[BatchTask] = []  # set once in each worker process


def _adopt_tasks(tasks: list[BatchTask]) -> None:
    global _worker_tasks
    _worker_tasks = tasks


def _run_task(i: int) -> ForecastRecord | None:
    """Worker side: run task i, or return None if it fails; the parent
    reruns a failed task rather than unpickling its exception."""
    try:
        return run_batch(_worker_tasks[i])
    except Exception:
        return None


def write_records_csv(records: list[ForecastRecord], path) -> None:
    """Write every record or none: the rows go to a temporary file in the
    same directory, which is then renamed into place."""
    lines = [ForecastRecord.CSV_HEADER] + [r.csv_row() for r in records]
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp, path)


def read_records_csv(path) -> list[ForecastRecord]:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != ForecastRecord.CSV_HEADER:
        raise ReportError(f"{path}: not a forecast record file")
    out = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(RECORD_COLUMNS):
            raise ReportError(f"{path}:{number}: expected {len(RECORD_COLUMNS)} cells, "
                              f"got {len(cells)}")
        try:
            out.append(ForecastRecord(**{name: parse(cell)
                                         for (name, parse), cell in zip(RECORD_COLUMNS, cells)}))
        except ValueError as exc:
            raise ReportError(f"{path}:{number}: {exc}") from None
    return out
