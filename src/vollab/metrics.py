"""Forecast metrics on log-diffs and reconstructed levels, plus the
Diebold-Mariano comparison against a rival forecast sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTestError, DomainError, VollabError


@dataclass(frozen=True)
class MetricTable:
    mae: float  # log-diff scale
    rmse: float  # log-diff scale
    mape: float  # percent, level scale
    log_loss: float  # squared log level ratio, scaled by 100


def compute_metrics(records) -> MetricTable:
    """MAE/RMSE on log-diffs; MAPE and scaled squared-log loss on levels."""
    if not records:
        raise VollabError("compute_metrics needs at least one record")
    pred_d = np.array([r.pred_logdiff for r in records])
    act_d = np.array([r.actual_logdiff for r in records])
    pred_l = np.array([r.pred_level for r in records])
    act_l = np.array([r.actual_level for r in records])
    if np.any(act_l <= 0) or np.any(pred_l <= 0):
        raise DomainError("level metrics need strictly positive levels")
    err = pred_d - act_d
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err ** 2).mean()))
    mape = float(100.0 * (np.abs(pred_l - act_l) / act_l).mean())
    log_loss = float(100.0 * ((np.log(pred_l) - np.log(act_l)) ** 2).mean())
    return MetricTable(mae, rmse, mape, log_loss)


@dataclass(frozen=True)
class DmResult:
    statistic: float
    p_value: float


def dm_test(e1, e2, h: int = 1, loss: str = "squared") -> DmResult:
    """Diebold-Mariano test on two forecast-error sequences.

    Loss differential d_t = L(e1_t) - L(e2_t); the statistic is
    mean(d) / sqrt(LRV/n) with the long-run variance from autocovariances
    up to lag h-1, multiplied by the Harvey small-sample factor; the
    two-sided p-value uses a t distribution with n-1 degrees of freedom.
    """
    from scipy import stats  # imported here: it costs more than all of vollab

    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if e1.shape != e2.shape or e1.ndim != 1:
        raise VollabError("error sequences must be 1-D with equal lengths")
    n = len(e1)
    if n < 8:
        raise VollabError(f"dm_test needs n >= 8, got {n}")
    if loss == "squared":
        d = e1 ** 2 - e2 ** 2
    elif loss == "absolute":
        d = np.abs(e1) - np.abs(e2)
    else:
        raise VollabError(f"unknown loss kind {loss!r}")
    dbar = d.mean()
    dc = d - dbar
    lrv = float((dc ** 2).mean())
    for k in range(1, h):
        lrv += 2.0 * float((dc[k:] * dc[:-k]).mean() * (n - k) / n)
    if lrv <= 0:
        raise DegenerateTestError(
            "zero long-run variance: forecast sequences are indistinguishable"
        )
    stat = dbar / np.sqrt(lrv / n)
    stat *= np.sqrt((n + 1 - 2 * h + h * (h - 1) / n) / n)
    p = float(2.0 * stats.t.sf(abs(stat), df=n - 1))
    return DmResult(float(stat), p)
