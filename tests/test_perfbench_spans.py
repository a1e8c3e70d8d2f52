"""The benchmark's tracer wraps vollab functions by module and attribute
name (`perfbench/launch.py` SPANS); a rename must fail here rather than
silently drop a span from `--trace 1` runs."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vollab.gbdt
import vollab.svr
import vollab.tree
from conftest import planted_signal_data
from oracles import median_loop_fit_gbdt, walk_apply
from vollab import grids
from vollab.gbdt import GbdtParams, fit_gbdt
from vollab.svr import SvrParams, fit_svr
from vollab.tree import TreeLimits, fit_regression_tree
from vollab.walkforward import build_tasks

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def load_launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch


def load_spans():
    return load_launch().SPANS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in load_spans()])
def test_span_target_exists(module, attr):
    target = importlib.import_module(f"vollab.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_importing_the_cli_loads_every_span_module():
    """The tracer rebinds a function only in the vollab modules loaded when it
    is installed, right after `import vollab.cli`; a SPANS module loaded
    later keeps its own unwrapped globals, and its spans read 0.  Checked in
    a fresh interpreter, since this one has loaded the whole package."""
    src = str(LAUNCH.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", "import sys, vollab.cli\n"
                           "print(' '.join(sorted(sys.modules)))"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = set(proc.stdout.split())
    assert {f"vollab.{module}" for module, *_ in load_spans()} <= loaded


def test_one_best_split_call_per_candidate_leaf(monkeypatch, rng):
    """`tree.best_split.*` counts the module-global `best_split` calls of
    `fit_regression_tree`, reading them as (X rows, y rows, features,
    min_samples_leaf); inlining the search would zero those metrics."""
    calls = []
    search = vollab.tree.best_split

    def recording(*args, **kwargs):
        result = search(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(vollab.tree, "best_split", recording)
    X, y = rng.normal(size=(60, 4)), rng.normal(size=60)
    tree = fit_regression_tree(X, y, TreeLimits(max_leaves=64, min_samples_leaf=8),
                               feature_subset=0.5, seed=3)
    # growth ends when no leaf can split, so every node was a candidate once,
    # in id order; a node's rows are those whose path from the root visits it
    size = len(tree.feature)
    assert size > 3 and len(calls) == size
    paths = [{0} for _ in range(len(y))]
    for j in range(size):
        if tree.feature[j] >= 0:
            for i in np.flatnonzero([j in p for p in paths]):
                paths[i].add(tree.left[j] if X[i, tree.feature[j]] < tree.threshold[j]
                             else tree.right[j])
    assert [max(p) for p in paths] == walk_apply(tree, X).tolist()
    cells = load_launch()._best_split_cells
    features = calls[0][0][2]  # the tree's one seeded draw of half the features
    assert len(features) == 2 and set(features) < set(range(4))
    for j, (args, kwargs, result) in enumerate(calls):
        rows = [i for i, p in enumerate(paths) if j in p]
        assert kwargs == {} and len(args) == 4
        Z, _, zrows = args[0]
        np.testing.assert_array_equal(Z[zrows], X[rows])
        np.testing.assert_array_equal(args[1], y[rows])
        assert list(args[2]) == list(features) and args[3] == 8
        assert cells(args, kwargs, result) == len(rows) * 2


def test_ranked_searches_make_the_same_calls_and_cells(monkeypatch, rng):
    """fit_gbdt's trees search rows of one ranking of X, yet each candidate
    leaf still makes one positional `best_split` call, with the y rows,
    features and min_samples_leaf of a fit whose every tree ranks its own
    bag, so `tree.best_split.*` counts the same."""
    calls = []
    search = vollab.tree.best_split

    def recording(*args, **kwargs):
        calls[-1].append((args, kwargs))
        return search(*args, **kwargs)

    monkeypatch.setattr(vollab.tree, "best_split", recording)
    X, y = np.round(rng.normal(size=(90, 8)), 1), rng.normal(size=90)
    p = GbdtParams(leaves=12, min_data=4, rounds=6, learning_rate=0.3, seed=9)
    for fit in (median_loop_fit_gbdt, fit_gbdt):
        calls.append([])
        fit(X, y, p)
    plain, ranked = calls
    cells = load_launch()._best_split_cells
    assert len(plain) == len(ranked) > 6 * 3
    assert any(len(args[1]) < 2 * args[3] for args, _ in ranked)
    for (want, _), (got, kwargs) in zip(plain, ranked):
        assert kwargs == {} and len(got) == 4
        assert got[1].tobytes() == want[1].tobytes() and got[2:] == want[2:]
        assert cells(got, kwargs, None) == cells(want, {}, None)
        (Z, _, rows), (W, _, wrows) = got[0], want[0]
        np.testing.assert_array_equal(Z[rows], W[wrows])


def test_one_fit_gbdt_call_per_distinct_key(monkeypatch):
    """`gbdt.fit_gbdt.calls` counts one fit per distinct fit key of a slice;
    every state of a key gets its fit's forecast."""
    data = planted_signal_data(n=120)
    batch = build_tasks(data, "gbdt", window=63, horizon=1, s=5, root_seed=0)[0].batch
    train = batch.slice(0, 50)
    grid = grids.enumerate_grid("gbdt")
    calls = []
    fit = vollab.gbdt.fit_gbdt

    def recording(*args):
        calls.append(args)
        return fit(*args)

    monkeypatch.setattr(vollab.gbdt, "fit_gbdt", recording)
    [results] = grids.forecast("gbdt", [(train, 3, batch.blocks[50])], {"gbdt": {"rounds": 2}},
                               grid)
    keys = [vollab.gbdt._fit_key(GbdtParams(**grids._gbdt_values(s, 50)), 50) for s in grid]
    first = {k: i for i, k in reversed(list(enumerate(keys)))}  # each key's first state
    assert len(calls) == len(first) < len(grid)
    for args, i in zip(calls, sorted(first.values())):
        values = grids._gbdt_values(grid[i], 50)
        assert {k: getattr(args[2], k) for k in values} == values
    for k, result in zip(keys, results):
        assert repr(result) == repr(results[first[k]])


def test_gbdt_facts_count_trees_and_leaves(rng):
    """`gbdt.trees` and `gbdt.leaves` sum `_gbdt_facts` over the fits; the
    leaves are counted here by the leaves the row walk reaches, so a tree
    format the recorder misreads fails here."""
    X, y = rng.normal(size=(80, 4)), rng.normal(size=80)
    model = fit_gbdt(X, y, GbdtParams(leaves=6, min_data=4, bagging_fraction=1.0,
                                      rounds=12, learning_rate=0.2, min_gain=0.0))
    leaves = sum(len(set(walk_apply(tree, X).tolist())) for tree in model.trees)
    assert leaves > len(model.trees)
    facts = load_launch()._gbdt_facts((X, y, model.params), {}, model)
    assert facts == [len(model.trees), leaves]


def test_svr_facts_read_passes_and_convergence(rng, monkeypatch):
    """`svr.passes` and `svr.converged_frac` sum `_svr_facts` over the fits;
    the passes are counted here by the objective recorded after each pass,
    and a fit cut at the pass cap must count as not converged."""
    X = rng.normal(size=(30, 2))
    y = np.sin(X[:, 0])
    p = SvrParams(kernel="rbf", gamma=1.0, epsilon=0.01, C=10.0)
    launch = load_launch()
    done = fit_svr(X, y, p, tol=1e-6)
    assert done.converged and len(done.objective_history) > 1
    assert launch._svr_facts((X, y, p), {}, done) == [len(done.objective_history), 1]
    monkeypatch.setattr(vollab.svr, "MAX_PASSES", 1)
    capped = fit_svr(X, y, p, tol=1e-6)
    assert len(capped.objective_history) == 1 and not capped.converged
    assert launch._svr_facts((X, y, p), {}, capped) == [1, 0]
