"""Run configuration: one JSON file, overridable by CLI flags.

A pinned config file is the reproducibility unit: it names every input
path, the projection reference, and every tunable (snap radius, sampling
mode, hinge, thresholds, permutation count, seed). Relative paths resolve
against the config file's directory.
"""

# Annotations are evaluated, not postponed: typing.NamedTuple would compile
# each field's string annotation into a ForwardRef at import.

import json
import math
import os
from typing import NamedTuple

from .errors import ConfigError, DomainError
from .network import DEFAULT_ROAD_CLASSES, DEFAULT_SNAP_MAX_M, MAX_GRID_K, sampling_grid_size

SEED_ENV_VAR = "ACCESS_ATLAS_SEED"

_PATH_KEYS = ("tracts", "providers", "roads_nodes", "roads_edges", "demographics", "out_dir")


class RunConfig(NamedTuple):
    """The settings of one run. A config is immutable: a copy with some
    fields changed comes from `_replace`."""

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
        for key in _PATH_KEYS:
            if not getattr(self, key):
                raise ConfigError(f"config: {key} path is empty")
        if self.ref_lon is None or self.ref_lat is None:
            raise ConfigError("config: ref_lon and ref_lat are required")
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"config: {key} must be finite, got {getattr(self, key)}")
        if not (-89.0 < self.ref_lat < 89.0):
            raise ConfigError(f"config: ref_lat must be in (-89, 89), got {self.ref_lat}")
        if not (-180.0 <= self.ref_lon <= 180.0):
            raise ConfigError(f"config: ref_lon must be in [-180, 180], got {self.ref_lon}")
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
                f"config: ace_net_mode must be 'centroid' or 'grid-K' with 1 <= K <= {MAX_GRID_K}, "
                f"got {self.ace_net_mode!r}"
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


_FIELD_NAMES = set(RunConfig._fields)

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
    if key in _PATH_KEYS or key == "ace_net_mode":
        if not isinstance(value, str):
            raise ConfigError(f"config: {key} must be a string, got {value!r}")
    if key == "road_classes":
        if not (value and isinstance(value, list) and all(isinstance(c, str) for c in value)):
            raise ConfigError(f"config: {key} must be a non-empty list of strings, got {value!r}")
        return frozenset(value)
    return value


def load_config_file(path: str) -> RunConfig:
    """Parse a JSON config; relative paths resolve against its directory,
    and an empty path stays empty, for validate to reject."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ConfigError(f"config {path} is not a UTF-8 JSON file: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(raw) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    base = os.path.dirname(os.path.abspath(path))
    values = {}
    for key, value in raw.items():
        value = _coerce(key, value)
        if key in _PATH_KEYS and value:
            value = os.path.join(base, value)
        values[key] = value
    return RunConfig(**values)


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
