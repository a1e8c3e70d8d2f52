"""Run configuration: a JSON file with a fixed key schema.

Unknown keys are rejected; every applied default is echoed into the run
manifest so a run is reproducible from the manifest alone.
"""

from __future__ import annotations

import datetime as dt
import json
import platform
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .errors import UsageError, is_int
from .features import SEQ_LEN
from .frames import SYNTHETIC_DAYS, SYNTHETIC_SERIES, PartitionSpec
from .grids import MODELS, check_model_options, resolve_grid


@dataclass(frozen=True)
class RunConfig:
    """The run config's schema: its fields are the accepted top-level keys,
    with their defaults."""

    data: dict
    target_column: str = "vol_index"
    volume_columns: list | None = None  # None = infer columns whose name starts with "volume"
    models: list = field(default_factory=lambda: list(MODELS))
    windows: list = field(default_factory=lambda: [63, 126, 252])
    horizon: int = 63
    sequence_length: int = SEQ_LEN
    seed: int = 0
    out: str = "out"
    top_k: int | None = None
    partitions: dict = field(default_factory=dict)
    grids: dict = field(default_factory=dict)
    model_options: dict = field(default_factory=dict)
    threads: int = 1

    def partition_spec(self, name: str) -> PartitionSpec | None:
        rng = self.partitions.get(name)
        if rng is None:
            return None
        return PartitionSpec(name, dt.date.fromisoformat(rng[0]),
                             dt.date.fromisoformat(rng[1]))


def _is_strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def _is_date(v) -> bool:
    try:
        dt.date.fromisoformat(v)
    except (TypeError, ValueError):
        return False
    return True


def parse_config(raw: dict) -> RunConfig:
    unknown = set(raw) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    if "data" not in raw:
        raise UsageError("config requires a 'data' section")
    data = raw["data"]
    if not isinstance(data, dict) or set(data) - {"csv", "synthetic"} or len(data) != 1:
        raise UsageError("'data' must be exactly one of {'csv': [...]} or {'synthetic': {...}}")
    if "csv" in data and not (_is_strings(data["csv"]) and data["csv"]):
        raise UsageError(f"data.csv must be a non-empty list of paths, got {data['csv']!r}")
    cfg = RunConfig(**raw)
    if not isinstance(cfg.target_column, str):
        raise UsageError(f"target_column must be a string, got {cfg.target_column!r}")
    if not (cfg.volume_columns is None or _is_strings(cfg.volume_columns)):
        raise UsageError(
            f"volume_columns must be null or a list of strings, got {cfg.volume_columns!r}")
    if not (_is_strings(cfg.models) and cfg.models):
        raise UsageError(f"models must be a non-empty list of strings, got {cfg.models!r}")
    if not (isinstance(cfg.out, str) and cfg.out):
        raise UsageError(f"out must be a non-empty string, got {cfg.out!r}")
    for key in ("horizon", "sequence_length", "seed", "threads"):
        if not is_int(getattr(cfg, key)):
            raise UsageError(f"{key} must be int, got {getattr(cfg, key)!r}")
    if not (isinstance(cfg.windows, list) and cfg.windows and all(map(is_int, cfg.windows))):
        raise UsageError(f"windows must be a non-empty list of ints, got {cfg.windows!r}")
    for key in ("models", "windows"):
        entries = getattr(cfg, key)
        if len(set(entries)) != len(entries):
            raise UsageError(f"{key} must not repeat an entry, got {entries!r}")
    if cfg.top_k is not None and not (is_int(cfg.top_k) and cfg.top_k >= 1):
        raise UsageError(f"top_k must be null or an int >= 1, got {cfg.top_k!r}")
    if not isinstance(cfg.partitions, dict) or set(cfg.partitions) - {"span", "selection"}:
        raise UsageError("'partitions' may hold only 'span' and 'selection'")
    for name, rng in cfg.partitions.items():
        if not (isinstance(rng, list) and len(rng) == 2 and all(map(_is_date, rng))):
            raise UsageError(f"partitions.{name} must be two ISO dates, got {rng!r}")
        if dt.date.fromisoformat(rng[0]) > dt.date.fromisoformat(rng[1]):
            raise UsageError(f"partitions.{name} starts after it ends: {rng!r}")
    if not isinstance(cfg.grids, dict) or not isinstance(cfg.model_options, dict):
        raise UsageError("'grids' and 'model_options' must be objects")
    for kind in [*cfg.models, *cfg.grids]:
        if kind not in MODELS:
            raise UsageError(f"unknown model kind {kind!r}")
    for kind, entries in cfg.grids.items():
        resolve_grid(kind, entries)
    check_model_options(cfg.model_options)
    if cfg.horizon < 1 or cfg.sequence_length < 1 or cfg.threads < 1:
        raise UsageError("horizon, sequence_length and threads must be >= 1")
    if any(w < 12 for w in cfg.windows):
        raise UsageError("windows must be >= 12 sequenced observations")
    if "synthetic" in data:
        cfg = replace(cfg, data={"synthetic": _synthetic_spec(data["synthetic"], cfg.seed)})
    return cfg


def _synthetic_spec(spec, seed: int) -> dict:
    """data.synthetic with the run seed and generate_synthetic's defaults filled in."""
    if not isinstance(spec, dict):
        raise UsageError(f"data.synthetic must be an object, got {spec!r}")
    full = {"seed": seed, "n_days": SYNTHETIC_DAYS, "n_series": SYNTHETIC_SERIES}
    extra = set(spec) - set(full)
    if extra:
        raise UsageError(f"unknown synthetic keys: {sorted(extra)}")
    full.update(spec)
    for key, value in full.items():
        if not (is_int(value) and value >= 0):
            raise UsageError(f"synthetic.{key} must be int >= 0, got {value!r}")
    return full


def load_config(path, **overrides) -> RunConfig:
    """Parse the JSON file at path, with top-level keys replaced by overrides."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config: {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return parse_config({**raw, **overrides})


def manifest(cfg: RunConfig, extra: dict) -> str:
    doc = {
        "config": asdict(cfg),
        "versions": {
            "vollab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    doc.update(extra)
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"
