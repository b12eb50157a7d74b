"""Pipeline configuration: a flat dataclass, loadable from YAML with
``key=value`` command-line overrides.

Every tunable of the five processing stages lives here exactly once, so a
config file fully determines a run: this dataclass holds the only default
of each, and the stage functions take their settings as required
arguments. What the inputs decide is no key: descriptors are imported when
both feature files are given (the two paths go together) and builtin
otherwise, and a target tile's margin is `max_displacement`. Values are
checked, not cast, list elements included: a number is a finite YAML
number, never a quoted string, NaN or infinity, and a boolean is a YAML
boolean, never a quoted string. A ``--set`` value of a
string key (a path) is taken verbatim.
"""

import math
import re
from dataclasses import asdict, dataclass, fields, replace

import yaml

from .errors import ConfigError
from .tiling import MIN_MAX_POINTS


@dataclass
class PipelineConfig:
    # --- inputs / outputs ---------------------------------------------------
    source_path: str = ""
    target_path: str = ""
    cameras_path: str = ""
    source_image_paths: tuple = ()
    target_image_paths: tuple = ()
    source_features_path: str = ""     # precomputed point features, epoch 1
    target_features_path: str = ""     # precomputed point features, epoch 2
    output_dir: str = "out"

    # --- tiling -------------------------------------------------------------
    max_points: int = 1_000_000        # source points per tile, upper bound

    # --- hierarchical partitioning -------------------------------------------
    lambda_factors: tuple = (0.1, 0.5, 2.0)   # x mean feature variance
    min_patch: int = 10
    k_adj: int = 10                    # adjacency graph neighbours

    # --- coarse matching ----------------------------------------------------
    voxel_factor: float = 2.0          # downsample voxel, x scan resolution
    use_images: bool = False           # enable the image channel
    top_k_images: int = 1
    ncc_stride: int = 8
    ncc_template_radius: int = 7
    ncc_search_window: int = 64
    min_conf: float = 0.5
    lift_radius_px: float = 2.0
    max_displacement: float = 10.0     # metres, plausibility gate and tile margin
    min_support: int = 3               # support pairs needed to keep a match

    # --- refinement ---------------------------------------------------------
    delta1: float = 1.5                # metres, MADD acceptance threshold
    delta2: float = 0.1                # minimum passing pair fraction

    # --- fine matching ------------------------------------------------------
    icp_max_iter: int = 30
    icp_conv_tol: float = 1e-6
    icp_gate_factor: float = 5.0       # ICP pair gate, x scan resolution

    # --- evaluation ---------------------------------------------------------
    coverage_voxel_factor: float = 4.0  # coverage voxel, x scan resolution

    # --- execution ----------------------------------------------------------
    # tiles at once; a run that takes tiles one at a time also runs each
    # tile's two epochs at once
    n_workers: int = 1

    def validate(self) -> None:
        for name, f in _FIELDS.items():
            value = getattr(self, name)
            if isinstance(f.default, float) and not _is_finite_number(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if self.max_points < MIN_MAX_POINTS:
            raise ConfigError(f"max_points must be >= {MIN_MAX_POINTS}, "
                              f"got {self.max_points}")
        lf = tuple(self.lambda_factors)
        if (len(lf) != 3 or not all(map(_is_finite_number, lf))
                or not 0 < lf[0] < lf[1] < lf[2]):
            raise ConfigError(
                f"lambda_factors must be 3 increasing positive values, got {lf}")
        for name, low in (("min_patch", 1), ("k_adj", 3), ("ncc_stride", 1),
                          ("ncc_template_radius", 1), ("ncc_search_window", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, "
                                  f"got {getattr(self, name)}")
        if bool(self.source_features_path) != bool(self.target_features_path):
            raise ConfigError("source_features_path and target_features_path "
                              "must be given together")
        if not 0.0 <= self.min_conf <= 1.0:
            raise ConfigError("min_conf must lie in [0, 1]")
        if self.delta1 <= 0:
            raise ConfigError("delta1 must be positive")
        if not 0.0 <= self.delta2 < 1.0:
            raise ConfigError("delta2 must lie in [0, 1)")
        if self.icp_max_iter < 1:
            raise ConfigError("icp_max_iter must be >= 1")
        for name in ("voxel_factor", "lift_radius_px", "max_displacement",
                     "icp_gate_factor", "coverage_voxel_factor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        if self.top_k_images < 1:
            raise ConfigError("top_k_images must be >= 1")
        if self.min_support < 3:
            raise ConfigError("min_support must be >= 3 (rigid fit needs 3 pairs)")


_FIELDS = {f.name: f for f in fields(PipelineConfig)}


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


class _Loader(yaml.SafeLoader):
    """Safe YAML loading in which ``1e-7`` is a number, as in YAML 1.2 (YAML
    1.1 reads an exponent without a decimal point as a string)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def _coerce(name: str, value):
    """Check a parsed YAML value against the declared field type."""
    default = _FIELDS[name].default
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{name}: expected a boolean, got {value!r}")
    if isinstance(default, int):
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if isinstance(default, float):
        if _is_finite_number(value):
            return float(value)
        raise ConfigError(f"{name}: expected a finite number, got {value!r}")
    if isinstance(default, tuple):
        # lambda_factors holds numbers, the image path lists hold strings
        numbers = bool(default)
        if isinstance(value, (list, tuple)) and all(
                _is_finite_number(v) if numbers else isinstance(v, str)
                for v in value):
            return tuple(value)
        raise ConfigError(f"{name}: expected a list of "
                          f"{'finite numbers' if numbers else 'strings'}, "
                          f"got {value!r}")
    if isinstance(value, str):
        return value
    raise ConfigError(f"{name}: expected a string, got {value!r}")


def config_from_mapping(mapping: dict) -> PipelineConfig:
    if not isinstance(mapping, dict):
        raise ConfigError(f"config root must be a mapping, got {type(mapping).__name__}")
    unknown = sorted(set(mapping) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {k: _coerce(k, v) for k, v in mapping.items()}
    return PipelineConfig(**kwargs)


def load_config(path) -> PipelineConfig:
    """Parse a YAML config file; unknown keys are an error, not a warning."""
    with open(path) as fh:
        try:
            raw = yaml.load(fh, Loader=_Loader) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return config_from_mapping(raw)


def apply_overrides(cfg: PipelineConfig, pairs) -> PipelineConfig:
    """Apply ``key=value`` strings (e.g. from ``--set``) on top of a config;
    values are parsed as YAML, those of string keys taken verbatim."""
    updates = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"unknown config key: {key}")
        try:
            value = (raw if isinstance(_FIELDS[key].default, str)
                     else yaml.load(raw, Loader=_Loader))
        except yaml.YAMLError:
            value = raw
        updates[key] = _coerce(key, value)
    return replace(cfg, **updates)


def dump_config(path, cfg: PipelineConfig) -> None:
    data = asdict(cfg)
    for key, value in data.items():
        if isinstance(value, tuple):
            data[key] = list(value)
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
