"""Pipeline configuration: defaults, YAML loading, and fingerprinting.

Every constant the pipeline uses lives here or in the config file; nothing
is buried in call sites. Each YAML section is the frozen settings dataclass
of the stage it sets, with one field per key, named like the key, and its
own checks: ``weights`` is ``CostWeights``, ``swarm`` ``SwarmConfig``,
``association`` ``AssocConfig``, ``ground`` ``GroundConfig``,
``clustering`` ``ClusterConfig``, ``thresholds`` ``FilterThresholds`` and
``bench`` ``BenchConfig``. ``PipelineConfig`` holds them next to the
top-level keys, so its fields are the one list of keys. ``load_config``
maps ``paths`` to ``scenes_dir`` and ``output_dir`` and reads the rest with
``errors.read_record``, strictly: unknown keys fail, so typos cannot fall
back to defaults. ``config_to_dict`` and the fingerprint walk the same
fields, each value through the field rule of its declared type.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args

import numpy as np
import yaml

from .assoc import AssocConfig
from .costfn import AnchorRange, CostWeights
from .errors import ValidationError, as_dict, as_int, field_types, read_record, reading
from .filters import FilterThresholds
from .optimizer import SwarmConfig
from .sceneprep import ClusterConfig, GroundConfig

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
        cls: AnchorRange(list(lo), list(hi))
        for cls, (lo, hi) in DEFAULT_ANCHOR_DIMS.items()
    }


@dataclass(frozen=True)
class BenchConfig:
    """The ``bench`` config section: the candidate budgets each search method
    gets per instance, one pass per budget."""

    budgets: tuple[int, ...] = (37500, 75000, 150000)

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(as_int(b, "bench budget") for b in self.budgets))
        if not self.budgets or min(self.budgets) < 1:
            raise ValidationError(f"bench.budgets must be a non-empty list of positive "
                                  f"integers, got {list(self.budgets)}")


@dataclass(eq=False, frozen=True)
class PipelineConfig:
    """Everything one annotation run needs, in one place.

    Frozen, because the stages trust the values checked here and in the
    sections: derive a changed config with ``dataclasses.replace``, which
    checks it again. ``scenes_dir`` and ``output_dir`` are the YAML
    ``paths`` section; every other field is the YAML key of its name.
    """

    scenes_dir: Path = Path("scenes")
    output_dir: Path = Path("out")
    seed: int = 0
    workers: int = 1
    weights: CostWeights = field(default_factory=CostWeights)
    swarm: SwarmConfig = field(default_factory=SwarmConfig)
    association: AssocConfig = field(default_factory=AssocConfig)
    ground: GroundConfig = field(default_factory=GroundConfig)
    clustering: ClusterConfig = field(default_factory=ClusterConfig)
    nms_iou: float = 0.5
    thresholds: FilterThresholds = field(default_factory=FilterThresholds)
    anchors: dict[str, AnchorRange] = field(default_factory=default_anchors)
    bench: BenchConfig = field(default_factory=BenchConfig)

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenes_dir", Path(self.scenes_dir))
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        if not (0.0 <= self.nms_iou < 1.0):
            raise ValidationError(f"nms_iou must be in [0, 1), got {self.nms_iou}")
        # ``read_frame`` checks a proposal's class against ``anchors`` alone; a
        # class missing from ``tau_occ`` would fail in the filters, after a fit.
        tables = {"anchors": set(self.anchors),
                  "thresholds.tau_occ": set(self.thresholds.tau_occ)}
        named = set().union(*tables.values())
        holes = [f"{k} lacks {sorted(named - have)}" for k, have in tables.items() if named - have]
        if holes:
            raise ValidationError(f"class tables differ: {'; '.join(holes)}")


# YAML ``paths`` key -> PipelineConfig field.
_PATHS = {"scenes": "scenes_dir", "output": "output_dir"}


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader that also reads YAML 1.2 floats such as ``1e3``
    and ``4.5e1``, which YAML 1.1 leaves as strings. The float pattern also
    matches ints; the int resolver, registered before it, takes those."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$"),
    list("-+0123456789."),
)


def read_yaml(path: str | Path, what: str):
    """The parsed YAML document at ``path``; a missing file, a directory or
    invalid YAML fails as a ValidationError that names the ``what`` file."""
    try:
        return yaml.load(Path(path).read_text(), Loader=_Loader)
    except FileNotFoundError:
        raise ValidationError(f"{what} file not found: {path}") from None
    except IsADirectoryError:
        raise ValidationError(f"{what} file is a directory: {path}") from None
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: not valid YAML: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    """Read a YAML pipeline config, strictly validated, defaults filled in."""
    raw = read_yaml(path, "config")
    with reading(path):
        doc = as_dict({} if raw is None else raw, "the config")
        dirs = read_record(dict[str, str], doc.get("paths", {}), "paths")
        # ``scenes_dir`` and ``output_dir`` are keys only under ``paths``.
        unknown = {f"paths.{k}" for k in set(dirs) - set(_PATHS)} | set(_PATHS.values()) & set(doc)
        if unknown:
            raise ValidationError(f"unknown key(s) {sorted(unknown)}")
        base = PipelineConfig(**{_PATHS[k]: v for k, v in dirs.items()})
        return read_record(PipelineConfig, {k: v for k, v in doc.items() if k != "paths"}, base=base)


def _dump(value, hint):
    """Plain data for a config value of declared type ``hint``: sections and
    class tables become mappings, and each scalar goes through the field rule
    ``load_config`` reads it with, so a config built in code with ``3000``
    for a float dumps ``3000.0``, as its YAML loads."""
    if is_dataclass(value):
        hints = field_types(type(value))
        return {f.name: _dump(getattr(value, f.name), hints[f.name]) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _dump(v, get_args(hint)[1]) for k, v in sorted(value.items())}
    if isinstance(value, tuple):
        return [_dump(v, get_args(hint)[0]) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return str(value) if isinstance(value, Path) else read_record(hint, value, "a config value")


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Plain-data view of a config, keyed like its YAML, JSON-serializable."""
    out = _dump(cfg, PipelineConfig)
    return {"paths": {k: out.pop(attr) for k, attr in _PATHS.items()}, **out}


def config_fingerprint(cfg: PipelineConfig) -> str:
    """Hex digest identifying the full parameter set of a run."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()
