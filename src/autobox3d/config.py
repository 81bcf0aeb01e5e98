"""Pipeline configuration: defaults, YAML loading, and fingerprinting.

Every constant the pipeline uses lives here or in the config file; nothing
is buried in call sites. ``SCHEMA`` is the one list of YAML keys, and
loading, dumping and fingerprinting all read it. ``load_config`` is strict:
unknown keys fail, so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass, field, replace
from functools import reduce
from pathlib import Path

import yaml

from .costfn import AnchorRange, CostWeights
from .errors import ValidationError, as_float, as_int, as_str, reading
from .filters import DEFAULT_TAU_OCC, FilterThresholds
from .optimizer import SwarmConfig

# Dimension ranges (l, w, h) per class. The car range reflects common sedan
# statistics; the rest are serviceable defaults meant to be overridden from
# the config file when a dataset provides better priors.
DEFAULT_ANCHOR_DIMS: dict[str, tuple[tuple[float, float, float], tuple[float, float, float]]] = {
    "car": ((3.9, 1.6, 1.4), (5.3, 2.1, 1.9)),
    "truck": ((6.0, 2.2, 2.4), (10.5, 2.9, 4.2)),
    "bus": ((9.0, 2.5, 3.0), (13.5, 3.3, 4.1)),
    "construction_vehicle": ((4.0, 2.0, 2.0), (9.0, 3.2, 4.5)),
    "trailer": ((8.0, 2.3, 3.0), (13.0, 2.9, 4.3)),
    "pedestrian": ((0.4, 0.4, 1.4), (1.0, 0.9, 2.0)),
    "bicycle": ((1.4, 0.4, 0.9), (2.0, 0.8, 1.6)),
    "motorcycle": ((1.6, 0.6, 1.0), (2.5, 1.0, 1.7)),
    "traffic_cone": ((0.25, 0.25, 0.5), (0.6, 0.6, 1.2)),
    "barrier": ((1.5, 0.3, 0.8), (2.6, 0.8, 1.3)),
}


def default_anchors() -> dict[str, AnchorRange]:
    return {
        cls: AnchorRange(cls, list(lo), list(hi))
        for cls, (lo, hi) in DEFAULT_ANCHOR_DIMS.items()
    }


@dataclass(eq=False)
class PipelineConfig:
    """Everything one annotation run needs, in one place."""

    scenes_dir: Path = Path("scenes")
    output_dir: Path = Path("out")
    seed: int = 0
    workers: int = 1
    weights: CostWeights = field(default_factory=CostWeights)
    # None means the surface clip adapts per proposal to the cluster range.
    surface_clip: float | None = None
    swarm: SwarmConfig = field(default_factory=SwarmConfig)
    tau_match: float = 2.0
    d_min: float = 0.5
    d_max: float = 60.0
    match_criterion: str = "closest_point"
    ground_cell: float = 4.0
    ground_height: float = 0.25
    ground_refits: int = 3
    ground_quantile: float = 0.30
    cluster_eps: float = 0.5
    cluster_min_pts: int = 5
    nms_iou: float = 0.5
    thresholds: FilterThresholds = field(default_factory=FilterThresholds)
    anchors: dict[str, AnchorRange] = field(default_factory=default_anchors)
    bench_budgets: tuple[int, ...] = (37500, 75000, 150000)

    def __post_init__(self) -> None:
        self.scenes_dir = Path(self.scenes_dir)
        self.output_dir = Path(self.output_dir)
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        if self.surface_clip is not None and not (
            math.isfinite(self.surface_clip) and self.surface_clip > 0
        ):
            raise ValidationError(f"surface_clip must be positive, got {self.surface_clip}")
        if self.tau_match <= 0:
            raise ValidationError(f"tau_match must be positive, got {self.tau_match}")
        if not (0.0 < self.d_min < self.d_max):
            raise ValidationError(
                f"need 0 < d_min < d_max, got {self.d_min}, {self.d_max}"
            )
        if self.match_criterion not in ("closest_point", "centroid"):
            raise ValidationError(f"unknown match_criterion {self.match_criterion!r}")
        if self.ground_cell <= 0 or self.ground_height <= 0:
            raise ValidationError("ground cell and height threshold must be positive")
        if self.ground_refits < 0:
            raise ValidationError("ground refit rounds must be non-negative")
        if not (0.0 < self.ground_quantile <= 1.0):
            raise ValidationError(f"ground_quantile must be in (0, 1], got {self.ground_quantile}")
        if self.cluster_eps <= 0 or self.cluster_min_pts < 1:
            raise ValidationError("clustering needs eps > 0 and min_pts >= 1")
        if not (0.0 <= self.nms_iou < 1.0):
            raise ValidationError(f"nms_iou must be in [0, 1), got {self.nms_iou}")
        if not self.bench_budgets or any(b < 1 for b in self.bench_budgets):
            raise ValidationError("bench budgets must be positive")
        self.bench_budgets = tuple(as_int(b, "bench budget") for b in self.bench_budgets)


def _mapping(value, key: str, allowed: set[str] | None = None) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"config key {key!r} must be a mapping")
    if allowed is not None and set(value) - allowed:
        raise ValidationError(
            f"unknown config key(s) under {key!r}: {sorted(set(value) - allowed)}; "
            f"allowed: {sorted(allowed)}"
        )
    return value


def _yaml_number(value):
    """A string that spells a number as that number (PyYAML reads ``1e3`` as a string)."""
    if isinstance(value, str):
        for parse in (int, float):
            with suppress(ValueError):
                return parse(value)
    return value


def _float(value, key: str) -> float:
    return as_float(_yaml_number(value), f"config key {key!r}")


def _int(value, key: str) -> int:
    return as_int(_yaml_number(value), f"config key {key!r}")


def _str(value, key: str) -> str:
    return as_str(value, f"config key {key!r}")


def _anchor(cls: str, spec, key: str) -> AnchorRange:
    spec = _mapping(spec, key, {"min", "max"})
    if len(spec) != 2:
        raise ValidationError(f"{key} needs both min and max")
    for end, dims in spec.items():
        if not isinstance(dims, (list, tuple)) or len(dims) != 3:
            raise ValidationError(f"config key '{key}.{end}' must be a list of 3 numbers")
    return AnchorRange(cls, *([_float(v, key) for v in spec[end]] for end in ("min", "max")))


def _merged(table: dict, value, key: str, parse_entry) -> dict:
    """A class table: the file's entries merge over the defaults in ``table``."""
    for cls, spec in _mapping(value, key).items():
        name = as_str(cls, f"a class name under config key {key!r}")
        table[name] = parse_entry(name, spec, f"{key}.{cls}")
    return table


def _budgets(value, key: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{key} must be a non-empty list")
    return tuple(_int(b, key) for b in value)


# The one list of config keys, read by load_config, its unknown-key checks and config_to_dict
# (so config_fingerprint and save_config too). A row holds the dotted YAML key, the dotted
# PipelineConfig attribute, a parser (YAML value, key) -> attribute and a dumper to plain data.
ConfigKey = namedtuple("ConfigKey", "key attr parse dump", defaults=(_float, lambda v: v))
SCHEMA: tuple[ConfigKey, ...] = (
    ConfigKey("seed", "seed", _int),
    ConfigKey("workers", "workers", _int),
    ConfigKey("paths.scenes", "scenes_dir", _str, str),
    ConfigKey("paths.output", "output_dir", _str, str),
    ConfigKey("weights.lambda1", "weights.lambda1"),
    ConfigKey("weights.lambda2", "weights.lambda2"),
    ConfigKey("weights.lambda3", "weights.lambda3"),
    ConfigKey("weights.gamma", "weights.gamma"),
    ConfigKey(
        "surface_clip", "surface_clip",
        lambda v, key: None if v in ("adaptive", None) else _float(v, key),
        lambda v: "adaptive" if v is None else v,
    ),
    ConfigKey("swarm.n_swarm", "swarm.n_swarm", _int),
    ConfigKey("swarm.n_iter", "swarm.n_iter", _int),
    ConfigKey("swarm.w_init", "swarm.w_init"),
    ConfigKey("swarm.w_end", "swarm.w_end"),
    ConfigKey("swarm.c1", "swarm.c1"),
    ConfigKey("swarm.c2", "swarm.c2"),
    ConfigKey("swarm.c_noise", "swarm.c_noise"),
    ConfigKey("association.tau_match", "tau_match"),
    ConfigKey("association.d_min", "d_min"),
    ConfigKey("association.d_max", "d_max"),
    ConfigKey("association.criterion", "match_criterion", _str),
    ConfigKey("ground.cell", "ground_cell"),
    ConfigKey("ground.height_threshold", "ground_height"),
    ConfigKey("ground.refit_rounds", "ground_refits", _int),
    ConfigKey("ground.seed_quantile", "ground_quantile"),
    ConfigKey("clustering.eps", "cluster_eps"),
    ConfigKey("clustering.min_pts", "cluster_min_pts", _int),
    ConfigKey("nms_iou", "nms_iou"),
    ConfigKey("thresholds.tau_res", "thresholds.tau_res"),
    ConfigKey("thresholds.tau_mv", "thresholds.tau_mv"),
    ConfigKey(
        "thresholds.tau_occ", "thresholds.tau_occ",
        lambda v, key: _merged(dict(DEFAULT_TAU_OCC), v, key, lambda c, s, k: _float(s, k)),
        lambda table: dict(sorted(table.items())),
    ),
    ConfigKey(
        "anchors", "anchors",
        lambda v, key: _merged(default_anchors(), v, key, _anchor),
        lambda table: {
            c: {"min": a.dims_min.tolist(), "max": a.dims_max.tolist()}
            for c, a in sorted(table.items())
        },
    ),
    ConfigKey("bench.budgets", "bench_budgets", _budgets, list),
)
_BY_KEY = {row.key: row for row in SCHEMA}


def _flatten(raw, prefix: str = "") -> dict:
    """Dotted schema key -> value; fails on any key the schema lacks."""
    allowed = {k[len(prefix):].split(".")[0] for k in _BY_KEY if k.startswith(prefix)}
    flat = {}
    for name, value in _mapping(raw, prefix[:-1] or "<root>", allowed).items():
        key = prefix + name
        flat.update({key: value} if key in _BY_KEY else _flatten(value, key + "."))
    return flat


def load_config(path: str | Path) -> PipelineConfig:
    """Read a YAML pipeline config, strictly validated, defaults filled in."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: not valid YAML: {exc}") from exc
    fields: dict[str, dict] = {}  # sub-config ("" for the top level) -> field -> value
    with reading(path):
        for key, value in _flatten({} if raw is None else raw).items():
            head, _, name = _BY_KEY[key].attr.rpartition(".")
            fields.setdefault(head, {})[name] = _BY_KEY[key].parse(value, key)
        base = PipelineConfig()
        subs = {head: replace(getattr(base, head), **f) for head, f in fields.items() if head}
        cfg = replace(base, **fields.get("", {}), **subs)
    # A class in only one table would stop the run at its first proposal, after
    # every earlier frame was fitted. Class tables are the only mapping values.
    tables = {k: set(v) for k, v in _flatten(config_to_dict(cfg)).items() if isinstance(v, dict)}
    named = set().union(*tables.values())
    holes = [f"{key} lacks {sorted(named - have)}" for key, have in tables.items() if named - have]
    if holes:
        raise ValidationError(f"{path}: class tables differ: {'; '.join(holes)}")
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Plain-data view of a config in schema order, JSON-serializable."""
    out: dict = {}
    for row in SCHEMA:
        section, _, leaf = row.key.rpartition(".")
        value = reduce(getattr, row.attr.split("."), cfg)
        (out.setdefault(section, {}) if section else out)[leaf] = row.dump(value)
    return out


def config_fingerprint(cfg: PipelineConfig) -> str:
    """Hex digest identifying the full parameter set of a run."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    """Write a config back out as YAML (round-trips through load_config)."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
