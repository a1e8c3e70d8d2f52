"""Combined metric tables and Diebold-Mariano columns from record files."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTestError, ReportError
from .metrics import compute_metrics, dm_test
from .walkforward import ForecastRecord, read_records_csv


@dataclass(frozen=True)
class ReportRow:
    model: str
    window: int
    mae: float
    rmse: float
    mape: float
    log_loss: float
    dm_stat: float  # vs naive; nan when unavailable
    dm_p: float


def collect_records(records_dir) -> dict[tuple[str, int], list[ForecastRecord]]:
    try:
        entries = os.listdir(records_dir)
    except OSError as exc:
        raise ReportError(f"cannot read records directory: {exc}") from None
    files = sorted(
        f for f in entries
        if f.startswith("records_") and f.endswith(".csv")
    )
    if not files:
        raise ReportError(f"no record files (records_*.csv) in {records_dir}")
    out, source = {}, {}
    for f in files:
        recs = read_records_csv(os.path.join(records_dir, f))
        if not recs:
            raise ReportError(f"{f}: empty record file")
        key = (recs[0].model, recs[0].window)
        for line, r in enumerate(recs, start=2):  # line 1 is the header
            if (r.model, r.window) != key:
                raise ReportError(f"{f}:{line}: a {r.model} row of window {r.window} in the "
                                  f"{key[0]} records of window {key[1]}")
        if key in source:
            raise ReportError(f"{source[key]} and {f} both hold the {key[0]} records "
                              f"of window {key[1]}")
        source[key] = f
        out[key] = recs
    return out


def build_report(records_dir) -> tuple[list[ReportRow], dict]:
    """Rows per (model, window) plus header facts about the actuals."""
    groups = collect_records(records_dir)
    rows = []
    for (model, window), recs in sorted(groups.items()):
        table = compute_metrics(recs)
        dm_stat = dm_p = math.nan
        base = groups.get(("naive", window))
        if (model != "naive" and base is not None and len(recs) >= 8
                and [r.date for r in recs] == [r.date for r in base]):
            try:
                res = dm_test([r.pred_logdiff - r.actual_logdiff for r in recs],
                              [r.pred_logdiff - r.actual_logdiff for r in base])
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


def format_report(rows: list[ReportRow], header: dict) -> str:
    lines = [
        f"observations: {header['n']}   actual levels: "
        f"{header['level_min']:.2f} - {header['level_max']:.2f} "
        f"(coefficient of variation {header['cov_pct']:.1f}%)",
        "",
        f"{'model':<10}{'window':>7}{'MAE':>9}{'RMSE':>9}{'MAPE':>9}"
        f"{'LLx100':>9}{'DM':>8}{'p':>8}",
    ]
    for r in rows:
        dm = f"{r.dm_stat:.3f}" if not math.isnan(r.dm_stat) else "-"
        p = f"{r.dm_p:.3f}" if not math.isnan(r.dm_p) else "-"
        lines.append(
            f"{r.model:<10}{r.window:>7}{r.mae:>9.3f}{r.rmse:>9.3f}"
            f"{r.mape:>9.3f}{r.log_loss:>9.3f}{dm:>8}{p:>8}"
        )
    return "\n".join(lines) + "\n"


def report_csv(rows: list[ReportRow]) -> str:
    out = ["model,window,mae,rmse,mape,log_loss_x100,dm_stat,dm_p"]
    for r in rows:
        out.append(
            f"{r.model},{r.window},{r.mae!r},{r.rmse!r},{r.mape!r},"
            f"{r.log_loss!r},{r.dm_stat!r},{r.dm_p!r}"
        )
    return "\n".join(out) + "\n"


def write_report(records_dir, out_dir) -> list[str]:
    rows, header = build_report(records_dir)
    os.makedirs(out_dir, exist_ok=True)
    text_path = os.path.join(out_dir, "report.txt")
    csv_path = os.path.join(out_dir, "report.csv")
    with open(text_path, "w") as fh:
        fh.write(format_report(rows, header))
    with open(csv_path, "w") as fh:
        fh.write(report_csv(rows))
    return [text_path, csv_path]
