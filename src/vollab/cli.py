"""Command-line driver.

Subcommands: generate, features, select, run, report, plot, vix.
Exit codes: 0 success, 1 usage (an unwritable output path included),
2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys
from bisect import bisect_left, bisect_right

from .config import RunConfig, load_config, manifest
from .errors import DataError, EmptyInputError, NumericError, UsageError, VollabError
from .features import engineer, log_diff
from .frames import (SYNTHETIC_DAYS, SYNTHETIC_SERIES, TimeSeriesFrame, align,
                     generate_synthetic, load_csv, partition)
from .grids import MODELS, derive_seed, enumerate_grid, resolve_grid
from .report import write_report
from .selection import rf_importance, select_top_k
from .walkforward import (ExperimentData, check_history, run_experiment, task_seed,
                          write_records_csv)


def _load_frame(cfg: RunConfig) -> TimeSeriesFrame:
    if "synthetic" in cfg.data:
        return generate_synthetic(**cfg.data["synthetic"])
    return align([load_csv(p) for p in cfg.data["csv"]])


def _volume_columns(cfg: RunConfig, frame: TimeSeriesFrame) -> set:
    if cfg.volume_columns is not None:
        return set(cfg.volume_columns)
    return {n for n in frame.names if n.startswith("volume")}


def _engineer(cfg: RunConfig) -> ExperimentData:
    """Frame -> span partition -> engineered features and target levels."""
    frame = _load_frame(cfg)
    span = cfg.partition_spec("span")
    if span is not None:
        frame = partition(frame, span)
    if cfg.target_column not in frame.names:
        raise DataError(f"target column {cfg.target_column!r} not in data")
    feature_frame = TimeSeriesFrame(
        frame.dates,
        {n: c for n, c in frame.columns.items() if n != cfg.target_column},
    )
    feats = engineer(feature_frame, _volume_columns(cfg, frame))
    levels = frame.column(cfg.target_column)[len(frame) - len(feats):]
    return ExperimentData(feats.dates, levels, feats)


def _rank_features(cfg: RunConfig, data: ExperimentData):
    """Forest importances over the selection partition, else the early rows."""
    diffs = log_diff(data.levels)
    dates, last = data.dates, len(data.dates) - 1  # the last date has no next-day target
    sel = cfg.partition_spec("selection")
    if sel is not None:
        lo, hi = bisect_left(dates, sel.start), min(bisect_right(dates, sel.end), last)
        if lo >= hi:
            raise EmptyInputError(
                f"partition {sel.name!r} ({sel.start}..{sel.end}) selects no rows")
    else:
        # default: the first half of the pre-test span, well before any test date
        lo, hi = 0, min(max(60, (len(dates) - cfg.horizon) // 2), last)
    X = data.features
    sub = type(X)(X.dates[lo:hi], X.names, X.values[lo:hi], X.zero_variance)
    return rf_importance(sub, diffs[lo:hi], seed=derive_seed(cfg.seed, "select"))


def _prepare(cfg: RunConfig) -> ExperimentData:
    data = _engineer(cfg)
    if cfg.top_k is None:
        return data
    k = min(cfg.top_k, len(data.features.names))
    names = select_top_k(_rank_features(cfg, data), k)
    return ExperimentData(data.dates, data.levels, data.features.select(names))


def cmd_generate(args) -> int:
    frame = generate_synthetic(args.seed, args.days, args.series)
    frame.to_csv(args.out)
    print(f"wrote {len(frame)} days x {len(frame.names)} series to {args.out}")
    return 0


def cmd_features(args) -> int:
    cfg = load_config(args.config)
    data = _prepare(cfg)
    out = args.out or os.path.join(cfg.out, "features.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    data.features.to_csv(out)
    print(f"wrote {len(data.features)} rows x {len(data.features.names)} features to {out}")
    return 0


def cmd_select(args) -> int:
    cfg = load_config(args.config)
    data = _engineer(cfg)
    report = _rank_features(cfg, data)
    out = args.out or os.path.join(cfg.out, "importance.csv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    report.to_csv(out)
    k = min(cfg.top_k or 10, len(data.features.names))
    print("selected:", ", ".join(select_top_k(report, k)))
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config, **{k: getattr(args, k) for k in ("seed", "out", "threads")
                                      if getattr(args, k) is not None})
    data = _prepare(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    for stale in os.listdir(cfg.out):  # a rerun must not inherit them
        if stale in ("INCOMPLETE", "manifest.json", "report.txt", "report.csv") or (
                stale.startswith("records_") and stale.endswith(".csv")):
            os.remove(os.path.join(cfg.out, stale))
    marker = os.path.join(cfg.out, "INCOMPLETE")
    with open(marker, "w") as fh:  # removed only once the manifest is written
        fh.write("run not finished\n")
    for window in cfg.windows:
        check_history(len(data.dates), window, cfg.horizon, cfg.sequence_length)
    fitted = [kind for kind in cfg.models if MODELS[kind].fit is not None]
    if fitted and data.features.zero_variance:
        raise DataError(f"constant feature(s) cannot be scaled for {', '.join(fitted)}: "
                        f"{', '.join(data.features.zero_variance)}")
    for kind in cfg.models:
        grid = resolve_grid(kind, cfg.grids[kind]) if kind in cfg.grids else None
        for window in cfg.windows:
            records = run_experiment(
                data,
                kind,
                window,
                horizon=cfg.horizon,
                s=cfg.sequence_length,
                root_seed=cfg.seed,
                grid=grid,
                model_options=cfg.model_options or None,
                threads=cfg.threads,
            )
            write_records_csv(records, os.path.join(cfg.out, f"records_{kind}_{window}.csv"))
    write_report(cfg.out, cfg.out)
    test_dates = data.dates[-cfg.horizon:]
    seeds = {
        f"{kind}_{window}": {d.isoformat(): task_seed(cfg.seed, kind, window, d)
                             for d in test_dates}
        for kind in cfg.models for window in cfg.windows
    }
    grid_sizes = {k: len(enumerate_grid(k)) for k, m in MODELS.items() if m.axes}
    with open(os.path.join(cfg.out, "manifest.json"), "w") as fh:
        fh.write(manifest(cfg, {"derived_seeds": seeds, "grid_sizes": grid_sizes}))
    os.remove(marker)
    print(f"wrote {len(cfg.models) * len(cfg.windows)} record files and report to {cfg.out}")
    return 0


def cmd_report(args) -> int:
    paths = write_report(args.records, args.out or args.records)
    print("wrote " + ", ".join(paths))
    return 0


def cmd_plot(args) -> int:
    from .plots import write_plots

    paths = write_plots(args.records, args.out or args.records)
    print(f"wrote {len(paths)} figures to {args.out or args.records}")
    return 0


def cmd_vix(args) -> int:
    from .creditvix import implied_variance, implied_vol, load_option_chain

    inputs = load_option_chain(args.chain)
    var = implied_variance(inputs)
    print(f"implied variance: {var!r}")
    print(f"implied volatility: {implied_vol(inputs)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vollab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic daily dataset as CSV")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--days", type=int, default=SYNTHETIC_DAYS)
    g.add_argument("--series", type=int, default=SYNTHETIC_SERIES)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("features", help="emit the engineered feature matrix")
    f.add_argument("--config", required=True)
    f.add_argument("--out")
    f.set_defaults(func=cmd_features)

    s = sub.add_parser("select", help="rank features by forest importance")
    s.add_argument("--config", required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_select)

    r = sub.add_parser("run", help="run the walk-forward experiments")
    r.add_argument("--config", required=True)
    r.add_argument("--seed", type=int)
    r.add_argument("--out")
    r.add_argument("--threads", type=int)
    r.set_defaults(func=cmd_run)

    rp = sub.add_parser("report", help="build metric tables from record files")
    rp.add_argument("--records", required=True)
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_report)

    pl = sub.add_parser("plot", help="emit SVG figures with CSV sidecars")
    pl.add_argument("--records", required=True)
    pl.add_argument("--out")
    pl.set_defaults(func=cmd_plot)

    v = sub.add_parser("vix", help="implied variance from an option chain CSV")
    v.add_argument("--chain", required=True)
    v.set_defaults(func=cmd_vix)
    return p


def _message(exc: Exception) -> str:
    """The error text followed by its context notes, such as the failing task."""
    return " ".join([str(exc), *getattr(exc, "__notes__", ())])


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error (usage): {_message(exc)}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error (data): {_message(exc)}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error (numeric): {_message(exc)}", file=sys.stderr)
        return 3
    except VollabError as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output path that cannot be written
        print(f"error (usage): {_message(exc)}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
