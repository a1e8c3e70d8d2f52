"""Walk-forward benchmark for vollab.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload svr_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload
    python3 perfbench/run.py --workload cli_run --quick     # one date, trimmed grids

A workload is a fixed number of datasets, each generated from --seed with
`frames.generate_synthetic` and written as CSV, and one `vollab run` per
dataset through perfbench/launch.py: a fresh process each time and one at
a time (a closed loop with one client).  The program is imported from the
checkout's src/ only, with BLAS pinned to one thread.

--trace 0: rounds over all the datasets while they fit in --seconds (at
least one).  Times, CPU and records are summed over a round, peak memory
is its maximum; each metric is the median over rounds, and setup_s the
median over all processes.

--trace 1: dataset 0 once untraced and once traced.  The traced run records
a span for each layer function (see launch.SPANS) and prints the per-layer
metrics, plus a derived, ungated projection of the paper-default cost in
CPU-hours.

Every run's outputs are checked: record count, test dates, finite
predictions, parameter text, manifest, bytes identical between the runs of
one dataset and, for seed 0, equal to the sha256 digests in reference.json.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

N_DAYS, N_SERIES, SEQ_LEN = 400, 3, 5
REFERENCE_SEED = 0
CHILD_TIMEOUT_S = 150
PAPER_DATES = 63
PAPER_GRID = {"svr": 45, "gbdt": 81, "attn_gru": 1, "naive": 1}
PAPER_WINDOWS = (63, 126, 252)
GBDT_DEFAULT_ROUNDS = 200  # walkforward's default for model_options.gbdt.rounds

# Why each workload exists is recorded in BENCHMARK.json.  Grid entries are
# indexes into the full grids.  svr_sweep's nine states take every kernel
# three times and every gamma and epsilon value at least once; cli_run's svr
# 16 is rbf/scale/0.1.  gbdt 0, 40 and 80 take the low, middle and high value
# of every axis.  The datasets are many and small because the same
# configuration does 13-22 % more or less work from one dataset to the next;
# for the same reason cli_run caps the net at 8 epochs, where early stopping
# would end anywhere from 6 to 32.
WORKLOADS = {
    "svr_sweep": {
        "models": ["svr"], "windows": [63], "horizon": 1,
        "grids": {"svr": [0, 4, 8, 17, 24, 28, 33, 37, 41]}, "model_options": {},
        "top_k": None, "threads": 1, "datasets": 9,
    },
    "gbdt_sweep": {
        "models": ["gbdt"], "windows": [63], "horizon": 1,
        "grids": {"gbdt": [0, 40, 80]},
        "model_options": {"gbdt": {"rounds": 5}}, "top_k": None, "threads": 1,
        "datasets": 7,
    },
    "cli_run": {
        "models": ["naive", "svr", "gbdt", "attn_gru"], "windows": [63], "horizon": 4,
        "grids": {"svr": [16], "gbdt": [40]}, "model_options": {"net": {"epochs": 8}},
        "top_k": 10, "threads": 2, "datasets": 3,
    },
}

# --quick: one dataset, one date and trimmed grids, so every workload ends
# in seconds.
QUICK = {
    "svr_sweep": {"datasets": 1, "grids": {"svr": [0, 22, 44]}},
    "gbdt_sweep": {"datasets": 1, "model_options": {"gbdt": {"rounds": 2}}},
    "cli_run": {"datasets": 1, "horizon": 1,
                "model_options": {"gbdt": {"rounds": 5}, "net": {"epochs": 2}}},
}

# The end-to-end metric, and the workload, that each per-layer metric
# should move when its layer gets faster or does less work.
LAYER_GROUPS = [
    ("setup_s on all workloads",
     ["cli.import_s", "config.load_config.s", "frames.load_csv.s", "features.engineer.s",
      "features.sequence.s", "walkforward.build_tasks.s"]),
    ("setup_s on cli_run", ["selection.rf_importance.s"]),
    ("forecasts_per_s on svr_sweep and gbdt_sweep; no change on cli_run",
     ["features.fit_scaler.calls", "features.add_uniform_noise.calls", "features.prep.s"]),
    ("forecasts_per_s on gbdt_sweep and setup_s on cli_run; no change on svr_sweep",
     ["tree.best_split.calls", "tree.best_split.s", "tree.best_split.cells",
      "tree.best_split.cells_per_s", "tree.fit_regression_tree.calls",
      "tree.fit_regression_tree.s", "tree.apply.calls", "tree.apply.rows", "tree.apply.s"]),
    ("forecasts_per_s on gbdt_sweep",
     ["gbdt.fit_gbdt.calls", "gbdt.fit_gbdt.s", "gbdt.trees", "gbdt.leaves",
      "gbdt.predict_gbdt.s"]),
    ("forecasts_per_s and cpu_s on svr_sweep; a shared Gram matrix may raise peak_rss_mb",
     ["svr.fit_svr.calls", "svr.fit_svr.s", "svr.kernel_matrix.calls", "svr.kernel_matrix.s",
      "svr.passes", "svr.converged_frac", "svr.predict_svr.s"]),
    ("forecasts_per_s on cli_run",
     ["net.train.calls", "net.train.s", "net.mae_and_grads.calls", "net.mae_and_grads.s",
      "net.predict.s", "net.epochs_run", "net.best_epoch_frac"]),
    ("forecasts_per_s and wall_s on cli_run; pool overhead on the serial sweeps",
     ["walkforward.validate_params.calls", "walkforward.validate_params.s",
      "walkforward.run_batch.calls", "walkforward.run_batch.s", "walkforward.run_batch.p50_s",
      "walkforward.run_batch.max_s", "walkforward.overlap", "walkforward.cpu_per_wall"]),
    ("wall_s on all workloads", ["report.write_report.s"]),
    ("none: forecast quality, deterministic for a seed", ["report.oos_mae"]),
    ("none: the cost of tracing itself", ["trace.overhead_frac"]),
]
LAYER_MOVES = {name: moves for moves, names in LAYER_GROUPS for name in names}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ----------------------------------------------------------------------------
# environment


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found; run from the root of the checkout")
    with open(path) as fh:
        return json.load(fh)


def import_vollab():
    """Import vollab from the checkout's src/ and nowhere else."""
    if not (SRC / "vollab" / "__init__.py").is_file():
        raise BenchError("src/vollab not found; run from the root of a vollab checkout")
    sys.path.insert(0, str(SRC))
    import vollab

    if Path(vollab.__file__).resolve().parent != (SRC / "vollab").resolve():
        raise BenchError(f"imported vollab from {vollab.__file__}, not from src/")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
    }


# ----------------------------------------------------------------------------
# inputs and running the program


class Dataset:
    """One generated input: its CSV, its run config and the frame itself."""

    def __init__(self, work: Path, index: int, seed: int, cfg: dict):
        from vollab.frames import generate_synthetic

        self.index = index
        # an independent stream per (seed, dataset), as the program derives its own
        digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
        self.seed = int.from_bytes(digest[:8], "big") >> 1
        self.frame = generate_synthetic(self.seed, N_DAYS, N_SERIES)
        self.dir = work / f"data{index}"
        self.dir.mkdir()
        csv_path = self.dir / "data.csv"
        self.frame.to_csv(csv_path)
        config = {
            "data": {"csv": [str(csv_path)]},
            "models": cfg["models"],
            "windows": cfg["windows"],
            "horizon": cfg["horizon"],
            "sequence_length": SEQ_LEN,
            "seed": self.seed,
            "top_k": cfg["top_k"],
            "grids": cfg["grids"],
            "model_options": cfg["model_options"],
            "threads": cfg["threads"],
        }
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps(config, indent=1))
        self.runs = 0


@dataclass
class Invocation:
    """One finished `vollab run` process and what it measured."""

    dataset: Dataset
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    facts: dict  # the launcher's timestamps and counts
    out_dir: Path
    spans: list | None  # traced runs only

    @property
    def setup_s(self) -> float:
        return self.facts["entries"][0] - self.facts["spawn"]

    @property
    def forecast_s(self) -> float:
        return self.facts["exits"][-1] - self.facts["entries"][0]


def launch(dataset: Dataset, traced: bool = False) -> Invocation:
    tag = f"run{dataset.runs}"
    dataset.runs += 1
    out_dir = dataset.dir / tag
    times, spans, log_path = (dataset.dir / f"{tag}.{ext}"
                              for ext in ("times.json", "spans.json", "log"))
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), "--times", str(times)]
    if traced:
        cmd += ["--spans", str(spans)]
    cmd += ["--", "run", "--config", str(dataset.config), "--out", str(out_dir)]
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=dataset.dir,
                                stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        t_end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"vollab run exited with {proc.returncode}:\n{tail}")
    with open(times) as fh:
        facts = json.load(fh)
    facts["spawn"] = t_spawn
    span_list = None
    if traced:
        with open(spans) as fh:
            span_list = json.load(fh)
    return Invocation(
        dataset,
        wall_s=t_end - t_spawn,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        facts=facts,
        out_dir=out_dir,
        spans=span_list,
    )


def workload_config(name: str, quick: bool) -> dict:
    cfg = json.loads(json.dumps(WORKLOADS[name]))
    if quick:
        cfg.update(json.loads(json.dumps(QUICK[name])))
    if cfg["threads"] > os.cpu_count():
        raise BenchError(
            f"{name} asks for {cfg['threads']} task threads but this machine has "
            f"{os.cpu_count()} CPUs"
        )
    return cfg


# ----------------------------------------------------------------------------
# output checks


def record_files(cfg: dict) -> list[tuple[str, int, str]]:
    return [(kind, window, f"records_{kind}_{window}.csv")
            for kind in cfg["models"] for window in cfg["windows"]]


def check_outputs(inv: Invocation, cfg: dict, digests: dict | None,
                  first: Invocation | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one run's output directory."""
    from vollab.errors import VollabError
    from vollab.grids import ParamState
    from vollab.walkforward import read_records_csv

    horizon = cfg["horizon"]
    want_dates = list(inv.dataset.frame.dates[-horizon:])
    attempted = failed = 0
    problems = []
    for kind, window, fname in record_files(cfg):
        attempted += horizon
        path = inv.out_dir / fname
        if not path.is_file():
            failed += horizon
            problems.append(f"{fname} missing")
            continue
        data = path.read_bytes()
        if digests is not None and hashlib.sha256(data).hexdigest() != digests.get(fname):
            failed += horizon
            problems.append(f"{fname}: sha256 differs from reference.json")
            continue
        if first is not None and data != (first.out_dir / fname).read_bytes():
            failed += horizon
            problems.append(f"{fname}: bytes differ between runs of one dataset")
            continue
        try:
            recs = read_records_csv(path)
        except (VollabError, ValueError) as exc:
            failed += horizon
            problems.append(f"{fname}: unreadable ({exc})")
            continue
        bad = max(0, horizon - len(recs))
        if len(recs) != horizon:
            problems.append(f"{fname}: {len(recs)} records, expected {horizon}")
        dates = [r.date for r in recs]
        if dates != want_dates[:len(dates)] or any(b <= a for a, b in zip(dates, dates[1:])):
            problems.append(f"{fname}: dates are not the data's last {horizon} dates")
            bad = horizon
        for r in recs:
            ok = (math.isfinite(r.pred_logdiff) and math.isfinite(r.pred_level)
                  and r.model == kind and r.window == window)
            try:
                ok = ok and ParamState.from_text(kind, r.params).to_text() == r.params
            except VollabError:
                ok = False
            if not ok:
                bad += 1
                problems.append(f"{fname}: bad record on {r.date}")
        failed += min(bad, horizon)
    if not (inv.out_dir / "manifest.json").is_file():
        problems.append("manifest.json missing: every forecast of the run counts as failed")
        failed = attempted
    return attempted, failed, problems


def oos_mae(invs, cfg: dict) -> float:
    """MAE on log-diffs over every forecast record of the given runs."""
    from vollab.walkforward import read_records_csv

    errors = [abs(r.pred_logdiff - r.actual_logdiff)
              for inv in invs for _, _, fname in record_files(cfg)
              for r in read_records_csv(inv.out_dir / fname)]
    return sum(errors) / len(errors)


# ----------------------------------------------------------------------------
# per-layer metrics from spans


def layer_metrics(inv: Invocation) -> dict:
    spans = inv.spans
    child_time: dict[int, float] = {}
    for sid, name, t0, t1, parent, tid, info in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    spans_by_name: dict[str, list] = {}
    for sid, name, t0, t1, parent, tid, info in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time.get(sid, 0.0)
        spans_by_name.setdefault(name, []).append((t0, t1, info))

    def info_sum(name, pos=None):
        total = 0
        for _, _, info in spans_by_name.get(name, []):
            total += info if pos is None else info[pos]
        return total

    def ratio(a, b):
        return a / b if b else 0.0

    m = {"cli.import_s": inv.facts["import_s"]}
    for name in ("config.load_config", "frames.load_csv", "features.engineer",
                 "features.sequence", "walkforward.build_tasks", "selection.rf_importance",
                 "tree.best_split", "tree.fit_regression_tree", "tree.apply",
                 "gbdt.fit_gbdt", "gbdt.predict_gbdt", "svr.fit_svr", "svr.kernel_matrix",
                 "svr.predict_svr", "net.train", "net.mae_and_grads", "net.predict",
                 "walkforward.validate_params", "walkforward.run_batch",
                 "report.write_report"):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = self_s.get(name, 0.0)
    m["features.fit_scaler.calls"] = calls.get("features.fit_scaler", 0)
    m["features.add_uniform_noise.calls"] = calls.get("features.add_uniform_noise", 0)
    m["features.prep.s"] = sum(self_s.get(f"features.{n}", 0.0)
                               for n in ("fit_scaler", "apply_scaler", "add_uniform_noise"))
    m["tree.best_split.cells"] = info_sum("tree.best_split")
    m["tree.best_split.cells_per_s"] = ratio(m["tree.best_split.cells"], m["tree.best_split.s"])
    m["tree.apply.rows"] = info_sum("tree.apply")
    m["gbdt.trees"] = info_sum("gbdt.fit_gbdt", 0)
    m["gbdt.leaves"] = info_sum("gbdt.fit_gbdt", 1)
    m["svr.passes"] = info_sum("svr.fit_svr", 0)
    m["svr.converged_frac"] = ratio(info_sum("svr.fit_svr", 1), m["svr.fit_svr.calls"])
    m["net.epochs_run"] = info_sum("net.train", 0)
    m["net.best_epoch_frac"] = ratio(info_sum("net.train", 1), m["net.epochs_run"])
    batch_spans = sorted(t1 - t0 for t0, t1, _ in spans_by_name.get("walkforward.run_batch", []))
    m["walkforward.run_batch.p50_s"] = statistics.median(batch_spans) if batch_spans else 0.0
    m["walkforward.run_batch.max_s"] = batch_spans[-1] if batch_spans else 0.0
    exp_wall = sum(t1 - t0 for t0, t1, _ in spans_by_name.get("walkforward.run_experiment", []))
    m["walkforward.overlap"] = ratio(sum(batch_spans), exp_wall)
    facts = inv.facts
    exp_cpu = sum(b - a for a, b in zip(facts["cpu_entries"], facts["cpu_exits"]))
    m["walkforward.cpu_per_wall"] = ratio(exp_cpu, exp_wall)
    return m


def cost_projection(inv: Invocation, cfg: dict) -> list[str]:
    """Paper-default CPU-hours per (kind, window) from traced task CPU times."""
    from vollab.net import NetConfig

    tasks: dict[tuple, list[float]] = {}
    vals: dict[tuple, list[float]] = {}
    for _, name, _, _, _, _, info in inv.spans:
        if name == "walkforward.run_batch":
            tasks.setdefault(tuple(info[0]), []).append(info[1])
        elif name == "walkforward.validate_params":
            vals.setdefault(tuple(info[0]), []).append(info[1])
    rounds = cfg["model_options"].get("gbdt", {}).get("rounds", GBDT_DEFAULT_ROUNDS)
    default_epochs = NetConfig().epochs
    epochs = cfg["model_options"].get("net", {}).get("epochs", default_epochs)
    lines = [f"derived, not gated: paper-default cost ({PAPER_DATES} dates, "
             f"grids svr={PAPER_GRID['svr']} gbdt={PAPER_GRID['gbdt']} states), "
             "from traced thread CPU time of this run"]
    for kind in ("svr", "gbdt", "attn_gru", "naive"):
        for window in PAPER_WINDOWS:
            task_cpu = tasks.get((kind, window))
            val_cpu = vals.get((kind, window), [])
            label = f"  {kind:<9}W={window:<4}"
            if not task_cpu or (PAPER_GRID[kind] > 1 and not val_cpu):
                lines.append(label + "not measured")
                continue
            per_task = statistics.fmean(task_cpu)
            note = f"{len(task_cpu)} dates"
            if val_cpu:
                per_state = statistics.fmean(val_cpu)
                refit = per_task - per_state * len(val_cpu) / len(task_cpu)
                per_task = PAPER_GRID[kind] * per_state + refit
                note += f", {len(val_cpu) // len(task_cpu)} states"
            if kind == "gbdt" and rounds != GBDT_DEFAULT_ROUNDS:
                per_task *= GBDT_DEFAULT_ROUNDS / rounds
                note += f", scaled linearly from {rounds} to {GBDT_DEFAULT_ROUNDS} rounds"
            if kind == "attn_gru" and epochs != default_epochs:
                per_task *= default_epochs / epochs
                note += (f", scaled linearly from {epochs} to {default_epochs} epochs: "
                         "an upper bound, as early stopping may end sooner")
            hours = PAPER_DATES * per_task / 3600.0
            lines.append(label + f"{hours:.3f} CPU-h  (measured on {note})")
    return lines


# ----------------------------------------------------------------------------
# one workload


def round_metrics(invs) -> dict:
    """End-to-end metrics of one round over every dataset of a workload."""
    return {
        "wall_s": sum(i.wall_s for i in invs),
        "forecasts_per_s": sum(i.facts["records"] for i in invs) / sum(i.forecast_s for i in invs),
        "cpu_s": sum(i.cpu_s for i in invs),
        "peak_rss_mb": max(i.peak_rss_mb for i in invs),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 spec: dict) -> dict:
    cfg = workload_config(name, quick)
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        datasets = [Dataset(work, k, seed, cfg) for k in range(cfg["datasets"])]
        if trace:
            rounds = [[launch(datasets[0])]]
            traced = launch(datasets[0], traced=True)
        else:
            rounds = []
            t_start = time.monotonic()
            while True:
                t_round = time.monotonic()
                rounds.append([launch(d) for d in datasets])
                now = time.monotonic()
                if now - t_start + (now - t_round) > seconds:
                    break
        invs = [inv for r in rounds for inv in r] + ([traced] if trace else [])

        reference = None
        if seed == REFERENCE_SEED and not quick:
            with open(BENCH_DIR / "reference.json") as fh:
                reference = json.load(fh)["sha256"].get(name, [])
        attempted = failed = 0
        first: dict[int, Invocation] = {}
        for inv in invs:
            k = inv.dataset.index
            digests = None
            if reference is not None:
                digests = reference[k] if k < len(reference) else {}
            a, f, problems = check_outputs(inv, cfg, digests, first.get(k))
            first.setdefault(k, inv)
            attempted += a
            failed += f
            for p in problems:
                print(f"check failed: dataset {k}: {p}")
        mae = oos_mae(rounds[0], cfg)

        if trace:
            layers = layer_metrics(traced)
            layers["report.oos_mae"] = oos_mae([traced], cfg)
            layers["trace.overhead_frac"] = traced.wall_s / rounds[0][0].wall_s - 1.0
            metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            for line in cost_projection(traced, cfg):
                print(line)
        else:
            per_round = [round_metrics(r) for r in rounds]
            values = {key: statistics.median(m[key] for m in per_round) for key in per_round[0]}
            values["setup_s"] = statistics.median(inv.setup_s for inv in invs)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}

        print(f"workload {name}: seed {seed}, {len(datasets)} datasets of {N_DAYS} days x "
              f"{N_SERIES} series, {len(rounds)} round(s){' + 1 traced run' if trace else ''}; "
              f"models {cfg['models']}, windows {cfg['windows']}, horizon {cfg['horizon']}, "
              f"threads {cfg['threads']}")
        for key, item in metrics.items():
            moves = f"  (moves {LAYER_MOVES[key]})" if trace else ""
            print(f"  {key:<36} {item['value']:.6g} {item['unit']}{moves}")
        print(f"  {'oos_mae':<36} {mae:.6g} log-diff (not gated)")
        print(f"  {'failed_frac':<36} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} forecasts)")
        for k, inv in sorted(first.items()):
            for _, _, fname in record_files(cfg):
                digest = hashlib.sha256((inv.out_dir / fname).read_bytes()).hexdigest()
                print(f"  sha256 dataset {k} {fname} {digest}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="one dataset, one date and trimmed grids; for the benchmark's own tests")
    args = p.parse_args(argv)
    try:
        spec = load_spec()
        import_vollab()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        print("env " + json.dumps(environment(), sort_keys=True))
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(name, args.seed, seconds, bool(args.trace),
                                      args.quick, spec)
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
