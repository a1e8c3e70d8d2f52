"""Child process of the benchmark: one `vollab` CLI invocation, timed.

Usage:
    python3 launch.py --times FILE [--spans FILE] -- <vollab args>

The program runs through `vollab.cli.main` exactly as the `vollab`
console script would.  The launcher adds only a timestamp at entry to and
exit from every `run_experiment` call (the end of set-up and the forecast
phase), written as JSON to --times when the process ends.

--spans turns on the traced mode: the layer functions listed in SPANS are
wrapped at every name the program binds them to, each call is kept in
memory as (name, start, end, parent, thread, extra) and the spans are
written to the given file at exit.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time


def _best_split_cells(args, kwargs, result):
    return len(args[1]) * len(args[2])


def _apply_rows(args, kwargs, result):
    x = args[1]
    return 1 if getattr(x, "ndim", 2) == 1 else len(x)


def _svr_facts(args, kwargs, result):
    return [result.n_passes, int(result.converged)]


def _gbdt_facts(args, kwargs, result):
    return [len(result.trees), sum(t.n_leaves for t in result.trees)]


def _net_facts(args, kwargs, result):
    return [result.epochs_run, result.best_epoch]


def _task_key(args, kwargs, result):
    task = args[0]
    return [task.kind, task.window]


def _validation_key(args, kwargs, result):
    return [args[1], len(args[0])]


# (module, attribute, span name, extra recorder, record thread CPU time).
# The extra recorder turns a call's arguments and result into the counts
# that the per-layer metrics sum; thread CPU time is kept only on the
# coarse task spans that the cost projection needs, because reading it is
# a system call.
SPANS = [
    ("config", "load_config", "config.load_config", None, False),
    ("frames", "load_csv", "frames.load_csv", None, False),
    ("features", "engineer", "features.engineer", None, False),
    ("features", "sequence", "features.sequence", None, False),
    ("features", "fit_scaler", "features.fit_scaler", None, False),
    ("features", "apply_scaler", "features.apply_scaler", None, False),
    ("features", "add_uniform_noise", "features.add_uniform_noise", None, False),
    ("selection", "rf_importance", "selection.rf_importance", None, False),
    ("walkforward", "build_tasks", "walkforward.build_tasks", None, False),
    ("walkforward", "run_experiment", "walkforward.run_experiment", None, False),
    ("walkforward", "run_batch", "walkforward.run_batch", _task_key, True),
    ("walkforward", "validate_params", "walkforward.validate_params", _validation_key, True),
    ("tree", "best_split", "tree.best_split", _best_split_cells, False),
    ("tree", "fit_regression_tree", "tree.fit_regression_tree", None, False),
    ("tree", "RegressionTree.apply", "tree.apply", _apply_rows, False),
    ("gbdt", "fit_gbdt", "gbdt.fit_gbdt", _gbdt_facts, False),
    ("gbdt", "predict_gbdt", "gbdt.predict_gbdt", None, False),
    ("svr", "fit_svr", "svr.fit_svr", _svr_facts, False),
    ("svr", "kernel_matrix", "svr.kernel_matrix", None, False),
    ("svr", "predict_svr", "svr.predict_svr", None, False),
    ("net", "train", "net.train", _net_facts, False),
    ("net", "mae_and_grads", "net.mae_and_grads", None, False),
    ("net", "predict", "net.predict", None, False),
    ("report", "write_report", "report.write_report", None, False),
]


class Tracer:
    """In-memory span recorder; one span list per thread, merged at exit."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])  # (open span ids, finished spans)
            with self._lock:
                self._per_thread.append(state[1])
        return state

    def wrap(self, name, fn, extra, cpu):
        clock, thread_clock, ids = time.perf_counter, time.thread_time, self._ids
        thread_state, ident = self._thread_state, threading.get_ident

        def traced(*args, **kwargs):
            stack, done = thread_state()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            c0 = thread_clock() if cpu else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            info = extra(args, kwargs, result) if extra else None
            if cpu:
                info = [info, thread_clock() - c0]
            done.append((sid, name, t0, t1, parent, ident(), info))
            return result

        return traced

    def install(self):
        """Wrap every SPANS entry at each vollab name bound to it."""
        import importlib

        modules = [m for n, m in list(sys.modules.items())
                   if n == "vollab" or n.startswith("vollab.")]
        for mod_name, attr, name, extra, cpu in SPANS:
            owner = importlib.import_module(f"vollab.{mod_name}")
            if "." in attr:  # a method: patch it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), extra, cpu))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, extra, cpu)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def spans(self) -> list:
        with self._lock:
            return sorted(s for per in self._per_thread for s in per)


def main(argv) -> int:
    split = argv.index("--")
    own, program_args = argv[:split], argv[split + 1:]
    times_path = own[own.index("--times") + 1]
    spans_path = own[own.index("--spans") + 1] if "--spans" in own else None

    t0 = time.perf_counter()
    import vollab.cli as cli

    facts = {"import_s": time.perf_counter() - t0, "entries": [], "exits": [],
             "cpu_entries": [], "cpu_exits": [], "records": 0}
    tracer = None
    if spans_path is not None:
        tracer = Tracer()
        tracer.install()

    inner = cli.run_experiment

    def timed_run_experiment(*args, **kwargs):
        facts["entries"].append(time.monotonic())
        facts["cpu_entries"].append(time.process_time())
        records = inner(*args, **kwargs)
        facts["cpu_exits"].append(time.process_time())
        facts["exits"].append(time.monotonic())
        facts["records"] += len(records)
        return records

    cli.run_experiment = timed_run_experiment
    code = cli.main(program_args)
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans(), fh)
    with open(times_path, "w") as fh:
        json.dump(facts, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
