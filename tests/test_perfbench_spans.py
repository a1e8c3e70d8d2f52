"""The benchmark's tracer wraps vollab functions by module and attribute
name (`perfbench/launch.py` SPANS); a rename must fail here rather than
silently drop a span from `--trace 1` runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    launch = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(launch)
    return launch.SPANS


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in load_spans()])
def test_span_target_exists(module, attr):
    target = importlib.import_module(f"vollab.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
