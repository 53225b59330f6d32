"""Run configuration: one JSON file, overridable by CLI flags.

A pinned config file is the reproducibility unit: it names every input
path, the projection reference, and every tunable (snap radius, sampling
mode, hinge, thresholds, permutation count, seed). Relative paths resolve
against the config file's directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError, DomainError
from .network import DEFAULT_ROAD_CLASSES, DEFAULT_SNAP_MAX_M, sampling_grid_size

SEED_ENV_VAR = "ACCESS_ATLAS_SEED"

_PATH_KEYS = ("tracts", "providers", "roads_nodes", "roads_edges", "demographics")


@dataclass
class RunConfig:
    tracts: str = ""
    providers: str = ""
    roads_nodes: str = ""
    roads_edges: str = ""
    demographics: str = ""
    out_dir: str = ""
    ref_lon: float | None = None
    ref_lat: float | None = None
    road_classes: frozenset[str] = DEFAULT_ROAD_CLASSES
    snap_max_m: float = DEFAULT_SNAP_MAX_M
    ace_net_mode: str = "centroid"
    hinge: float = 1.5
    sig_threshold: float = 0.4000
    sec_threshold: float = 0.1000
    moran_permutations: int = 999
    seed: int | None = None  # resolved via resolve_seed before use
    components_mapped: int = 4

    def validate(self) -> None:
        for key in (*_PATH_KEYS, "out_dir"):
            if not getattr(self, key):
                raise ConfigError(f"config: {key} path is empty")
        if self.ref_lon is None or self.ref_lat is None:
            raise ConfigError("config: ref_lon and ref_lat are required")
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"config: {key} must be finite, got {getattr(self, key)}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"config: seed must be >= 0, got {self.seed}")
        if not (self.hinge > 0):
            raise ConfigError(f"config: hinge must be > 0, got {self.hinge}")
        if self.moran_permutations < 99:
            raise ConfigError(
                f"config: moran_permutations must be >= 99, got {self.moran_permutations}"
            )
        try:
            sampling_grid_size(self.ace_net_mode)
        except DomainError:
            raise ConfigError(
                f"config: ace_net_mode must be 'centroid' or 'grid-K', got {self.ace_net_mode!r}"
            ) from None
        if not (0 < self.sec_threshold < self.sig_threshold):
            raise ConfigError(
                "config: need 0 < sec_threshold < sig_threshold, got "
                f"{self.sec_threshold}, {self.sig_threshold}"
            )
        if self.components_mapped < 1:
            raise ConfigError(
                f"config: components_mapped must be >= 1, got {self.components_mapped}"
            )
        if not (self.snap_max_m > 0):
            raise ConfigError(f"config: snap_max_m must be > 0, got {self.snap_max_m}")


_FIELD_NAMES = {f.name for f in fields(RunConfig)}

_FLOAT_KEYS = ("ref_lon", "ref_lat", "snap_max_m", "hinge", "sig_threshold", "sec_threshold")
_INT_KEYS = ("moran_permutations", "seed", "components_mapped")


def _coerce(key: str, value):
    if key in _FLOAT_KEYS or key in _INT_KEYS:
        # only a JSON number: true/false would pass as 1/0, and "inf" as a float
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config: {key} must be numeric, got {value!r}")
        if key in _FLOAT_KEYS:
            try:
                return float(value)
            except OverflowError:
                raise ConfigError(f"config: {key} is beyond the float range") from None
        # int() would truncate 2.7 to 2
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config: {key} must be an integer, got {value!r}")
        return int(value)
    if key in _PATH_KEYS or key in ("out_dir", "ace_net_mode"):
        if not isinstance(value, str):
            raise ConfigError(f"config: {key} must be a string, got {value!r}")
    return value


def load_config_file(path: str) -> RunConfig:
    """Parse a JSON config; relative paths resolve against its directory."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(raw) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    cfg = RunConfig()
    base = os.path.dirname(os.path.abspath(path))
    for key, value in raw.items():
        if key == "road_classes":
            if not isinstance(value, list):
                raise ConfigError(f"config {path}: road_classes must be a list")
            value = frozenset(value)
        else:
            value = _coerce(key, value)
        if key in _PATH_KEYS or key == "out_dir":
            value = os.path.join(base, value)
        setattr(cfg, key, value)
    return cfg


def apply_overrides(cfg: RunConfig, overrides: dict[str, object]) -> RunConfig:
    """Apply flag-level overrides (already typed); None values are skipped."""
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _FIELD_NAMES:
            raise ConfigError(f"unknown config override {key!r}")
        setattr(cfg, key, value)
    return cfg


def resolve_seed(current: int | None) -> int:
    """Seed precedence: flag/config value if set, else environment, else 0."""
    if current is not None:
        return int(current)
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR}={env!r} is not an integer") from None
    return 0
