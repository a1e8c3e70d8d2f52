"""Run configuration: a JSON file with a fixed key schema.

Unknown keys are rejected; every applied default is echoed into the run
manifest so a run is reproducible from the manifest alone.
"""

from __future__ import annotations

import datetime as dt
import json
import platform
from dataclasses import asdict, dataclass

import numpy as np

from .errors import UsageError
from .frames import PartitionSpec
from .grids import MODELS, check_model_options, resolve_grid

DEFAULTS = {
    "target_column": "vol_index",
    "volume_columns": None,  # None = infer columns whose name starts with "volume"
    "models": list(MODELS),
    "windows": [63, 126, 252],
    "horizon": 63,
    "sequence_length": 5,
    "seed": 0,
    "out": "out",
    "top_k": None,
    "partitions": {},
    "grids": {},
    "model_options": {},
    "threads": 1,
}
_TOP_KEYS = {"data", *DEFAULTS}


@dataclass(frozen=True)
class RunConfig:
    data: dict
    target_column: str
    volume_columns: list | None
    models: list
    windows: list
    horizon: int
    sequence_length: int
    seed: int
    out: str
    top_k: int | None
    partitions: dict
    grids: dict
    model_options: dict
    threads: int

    def partition_spec(self, name: str) -> PartitionSpec | None:
        rng = self.partitions.get(name)
        if rng is None:
            return None
        return PartitionSpec(name, dt.date.fromisoformat(rng[0]),
                             dt.date.fromisoformat(rng[1]))


def parse_config(raw: dict) -> RunConfig:
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "data" not in raw:
        raise UsageError("config requires a 'data' section")
    data = raw["data"]
    if not isinstance(data, dict) or set(data) - {"csv", "synthetic"} or len(data) != 1:
        raise UsageError("'data' must be exactly one of {'csv': [...]} or {'synthetic': {...}}")
    if "synthetic" in data:
        extra = set(data["synthetic"]) - {"seed", "n_days", "n_series"}
        if extra:
            raise UsageError(f"unknown synthetic keys: {sorted(extra)}")
    merged = {**DEFAULTS, **{k: v for k, v in raw.items() if k != "data"}}
    cfg = RunConfig(data=data, **merged)
    if not isinstance(cfg.grids, dict) or not isinstance(cfg.model_options, dict):
        raise UsageError("'grids' and 'model_options' must be objects")
    for kind in [*cfg.models, *cfg.grids]:
        if kind not in MODELS:
            raise UsageError(f"unknown model kind {kind!r}")
    for kind, entries in cfg.grids.items():
        resolve_grid(kind, entries)
    check_model_options(cfg.model_options)
    if cfg.horizon < 1 or cfg.sequence_length < 1:
        raise UsageError("horizon and sequence_length must be >= 1")
    if any(w < 12 for w in cfg.windows):
        raise UsageError("windows must be >= 12 sequenced observations")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    return parse_config(raw)


def manifest(cfg: RunConfig, extra: dict) -> str:
    import vollab

    doc = {
        "config": asdict(cfg),
        "versions": {
            "vollab": getattr(vollab, "__version__", "0"),
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    doc.update(extra)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
