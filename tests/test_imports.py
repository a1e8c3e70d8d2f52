"""Each `vollab` process imports the worker pool only when a run forks one,
the plot writer and the option-chain reader only in their commands, and
numpy.ma never in a run.

Every check runs in a fresh interpreter, since this test process has
imported the whole package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import CHAIN, write_config

ROOT = Path(__file__).resolve().parent.parent
POOL = {"multiprocessing", "concurrent.futures"}
COMMAND_ONLY = {"vollab.plots", "vollab.creditvix"}


def loaded_after(script: str, tmp_path) -> dict:
    """Run `import vollab.cli as cli` and then script, which prints one JSON
    object as its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", "import json, sys\nimport vollab.cli as cli\n"
                           + script], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_pool_plots_or_chain_reader(tmp_path):
    got = set(loaded_after("print(json.dumps(sorted(sys.modules)))", tmp_path))
    assert got & (POOL | COMMAND_ONLY) == set()
    assert {"vollab.walkforward", "vollab.report"} <= got


def test_serial_run_loads_no_pool_and_nothing_while_forecasting(tmp_path):
    config = write_config(tmp_path / "c.json", models=["svr"], windows=[63], horizon=2,
                          grids={"svr": [0, 24]}, out=str(tmp_path / "out"))
    got = loaded_after(f"""
inner, phases = cli.run_experiment, []
def run_experiment(*args, **kwargs):
    entry = set(sys.modules)
    records = inner(*args, **kwargs)
    phases.append(sorted(set(sys.modules) - entry))
    return records
cli.run_experiment = run_experiment
code = cli.main(["run", "--config", {config!r}])
print(json.dumps({{"code": code, "phases": phases, "loaded": sorted(sys.modules)}}))
""", tmp_path)
    assert got["code"] == 0
    assert got["phases"] == [[]]
    assert set(got["loaded"]) & (POOL | COMMAND_ONLY) == set()


def test_gbdt_and_net_run_never_loads_numpy_ma(tmp_path):
    # numpy.ma costs about 1.2 MB and 10 ms a process; np.median loads it
    config = write_config(tmp_path / "c.json", models=["gbdt", "attn_gru"], windows=[63],
                          horizon=2, top_k=6, grids={"gbdt": [0]},
                          model_options={"gbdt": {"rounds": 2}, "net": {"epochs": 1}},
                          out=str(tmp_path / "out"))
    got = loaded_after(f"""
code = cli.main(["run", "--config", {config!r}])
print(json.dumps({{"code": code, "loaded": sorted(sys.modules)}}))
""", tmp_path)
    assert got["code"] == 0
    assert "vollab.gbdt" in got["loaded"] and "vollab.net" in got["loaded"]
    assert "numpy.ma" not in got["loaded"]


def test_vix_loads_the_chain_reader_and_no_pool(tmp_path):
    chain = tmp_path / "chain.csv"
    chain.write_text(CHAIN)
    got = loaded_after(f"""
code = cli.main(["vix", "--chain", {str(chain)!r}])
print(json.dumps({{"code": code, "loaded": sorted(sys.modules)}}))
""", tmp_path)
    assert got["code"] == 0
    assert "vollab.creditvix" in got["loaded"]
    assert set(got["loaded"]) & (POOL | {"vollab.plots"}) == set()
