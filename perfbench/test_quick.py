"""Self-tests of the benchmark in quick mode (one date, trimmed grids).

Run from the repository root:  python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def quick(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_metric_with_its_unit(workload, trace):
    result = result_of(quick(workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for item in result["metrics"].values():
        assert isinstance(item["value"], (int, float))
    if not trace:
        assert all(item["value"] > 0 for item in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (result_of(quick("gbdt_sweep", 1))["metrics"] for _ in range(2))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["gbdt.trees"]["value"] > 0 and first["tree.best_split.calls"]["value"] > 0


def test_workloads_and_per_layer_metrics_match_the_spec():
    assert set(WORKLOADS) == set(run.WORKLOADS) == set(run.QUICK)
    assert set(run.LAYER_MOVES) == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_more_task_threads_than_cpus(monkeypatch):
    monkeypatch.setattr(run.os, "cpu_count", lambda: 1)
    with pytest.raises(run.BenchError, match="task threads"):
        run.workload_config("cli_run", quick=False)
    assert run.workload_config("svr_sweep", quick=False)["threads"] == 1


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = quick("gbdt_sweep", 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
