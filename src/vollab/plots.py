"""Dependency-free SVG figures with CSV sidecars of the plotted data.

Three families per (model, window): error dispersion (box + points),
residuals over time, and predicted-vs-actual level overlays.  Every SVG
is accompanied by a sidecar CSV carrying the exact pixel coordinates, so
figures stay diffable and externally reproducible.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .report import collect_records

WIDTH, HEIGHT, MARGIN = 640, 360, 45


def _scale(vals, lo_px, hi_px):
    vals = np.asarray(vals, dtype=float)
    vmin, vmax = vals.min(), vals.max()
    if vmax == vmin:
        vmax = vmin + 1.0
    return lo_px + (vals - vmin) / (vmax - vmin) * (hi_px - lo_px)


def _svg(elements: list[str]) -> str:
    body = "\n".join(elements)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="100%" height="100%" '
        f'fill="white"/>\n{body}\n</svg>\n'
    )


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _polyline(xs, ys, color) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs, ys))
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'


def _points(xs, ys, color, r=2.5) -> str:
    return "\n".join(
        f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>'
        for x, y in zip(xs, ys)
    )


def _title(text) -> str:
    return f'<text x="{MARGIN}" y="20" font-size="14" font-family="sans-serif">{text}</text>'


def _figure(base: str, title: str, elements: list[str], header: list[str], columns) -> None:
    """Write ``base.svg`` (the title first) and its ``base.csv`` sidecar of columns."""
    with open(base + ".svg", "w") as fh:
        fh.write(_svg([_title(title), *elements]))
    with open(base + ".csv", "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def residual_plot(records, base: str) -> None:
    resid = [r.pred_logdiff - r.actual_logdiff for r in records]
    xs = _scale(np.arange(len(resid)), MARGIN, WIDTH - MARGIN)
    ys = _scale(resid, HEIGHT - MARGIN, MARGIN)
    zero_y = _scale(resid + [0.0], HEIGHT - MARGIN, MARGIN)[-1]
    _figure(base, f"residuals over time: {records[0].model} W={records[0].window}",
            [f'<line x1="{MARGIN}" y1="{_fmt(zero_y)}" x2="{WIDTH - MARGIN}" '
             f'y2="{_fmt(zero_y)}" stroke="#999" stroke-dasharray="4"/>',
             _points(xs, ys, "#1f6fb2")],
            ["date", "residual", "x_px", "y_px"],
            ([r.date.isoformat() for r in records], resid, xs, ys))


def dispersion_plot(records, base: str) -> None:
    resid = np.array([r.pred_logdiff - r.actual_logdiff for r in records])
    q1, q2, q3 = np.percentile(resid, [25, 50, 75])
    ys = _scale(resid, HEIGHT - MARGIN, MARGIN)
    yq = _scale(np.concatenate([resid, [q1, q2, q3]]), HEIGHT - MARGIN, MARGIN)[-3:]
    cx = WIDTH / 2
    xs = cx + 60 + 20 * np.cos(np.linspace(0, 2 * math.pi, len(resid), endpoint=False))
    _figure(base, f"error dispersion: {records[0].model} W={records[0].window}",
            [f'<rect x="{_fmt(cx - 100)}" y="{_fmt(min(yq[0], yq[2]))}" width="80" '
             f'height="{_fmt(abs(yq[0] - yq[2]))}" fill="none" stroke="#333"/>',
             f'<line x1="{_fmt(cx - 100)}" y1="{_fmt(yq[1])}" x2="{_fmt(cx - 20)}" '
             f'y2="{_fmt(yq[1])}" stroke="#333" stroke-width="2"/>',
             _points(xs, ys, "#b25050", r=2.0)],
            ["residual", "x_px", "y_px"], (resid, xs, ys))


def levels_plot(records, base: str) -> bool:
    actual = np.array([r.actual_level for r in records])
    pred = np.array([r.pred_level for r in records])
    if np.any(actual <= 0) or np.any(pred <= 0):
        return False
    xs = _scale(np.arange(len(records)), MARGIN, WIDTH - MARGIN)
    both = np.concatenate([actual, pred])
    ys_all = _scale(both, HEIGHT - MARGIN, MARGIN)
    ya, yp = ys_all[: len(records)], ys_all[len(records):]
    _figure(base, f"predicted vs actual levels: {records[0].model} W={records[0].window}",
            [_polyline(xs, ya, "#333333"), _polyline(xs, yp, "#1f6fb2")],
            ["date", "actual_level", "pred_level", "x_px", "y_actual_px", "y_pred_px"],
            ([r.date.isoformat() for r in records], actual, pred, xs, ya, yp))
    return True


def write_plots(records_dir, out_dir) -> list[str]:
    groups = collect_records(records_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    skipped = []
    for (model, window), recs in sorted(groups.items()):
        tag = f"{model}_{window}"
        residual_plot(recs, os.path.join(out_dir, f"residuals_{tag}"))
        dispersion_plot(recs, os.path.join(out_dir, f"dispersion_{tag}"))
        written += [f"residuals_{tag}.svg", f"dispersion_{tag}.svg"]
        if levels_plot(recs, os.path.join(out_dir, f"levels_{tag}")):
            written.append(f"levels_{tag}.svg")
        else:
            skipped.append(tag)
    if skipped:
        print(f"warning: level plots skipped (non-positive levels): {skipped}",
              file=sys.stderr)
    return [os.path.join(out_dir, w) for w in written]
