"""Pipeline configuration: defaults, YAML loading, and fingerprinting.

Every constant the pipeline uses lives here or in the config file; nothing
is buried in call sites. ``load_config`` is strict: unknown keys fail, so
typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .costfn import AnchorRange, CostWeights
from .errors import ValidationError
from .filters import FilterThresholds
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
        self.bench_budgets = tuple(int(b) for b in self.bench_budgets)


def _require_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"config key {path!r} must be a mapping")
    return value


def _check_keys(d: dict, allowed: set[str], path: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValidationError(
            f"unknown config key(s) under {path!r}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _floats3(value, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ValidationError(f"config key {path!r} must be a list of 3 numbers")
    return [float(v) for v in value]


def load_config(path: str | Path) -> PipelineConfig:
    """Read a YAML pipeline config, strictly validated, defaults filled in.

    Every class the file names under ``anchors`` or ``thresholds.tau_occ``
    must end up in both tables.
    """
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    raw = _require_mapping(raw, "<root>")
    _check_keys(
        raw,
        {
            "seed", "workers", "paths", "weights", "surface_clip", "swarm",
            "association", "ground", "clustering", "nms_iou", "thresholds",
            "anchors", "bench",
        },
        "<root>",
    )
    kwargs: dict = {}
    try:
        if "seed" in raw:
            kwargs["seed"] = int(raw["seed"])
        if "workers" in raw:
            kwargs["workers"] = int(raw["workers"])
        if "paths" in raw:
            paths = _require_mapping(raw["paths"], "paths")
            _check_keys(paths, {"scenes", "output"}, "paths")
            if "scenes" in paths:
                kwargs["scenes_dir"] = Path(str(paths["scenes"]))
            if "output" in paths:
                kwargs["output_dir"] = Path(str(paths["output"]))
        if "weights" in raw:
            wd = _require_mapping(raw["weights"], "weights")
            _check_keys(wd, {"lambda1", "lambda2", "lambda3", "gamma"}, "weights")
            base = CostWeights()
            kwargs["weights"] = replace(
                base, **{k: float(v) for k, v in wd.items()}
            )
        if "surface_clip" in raw:
            sc = raw["surface_clip"]
            if sc == "adaptive" or sc is None:
                kwargs["surface_clip"] = None
            else:
                kwargs["surface_clip"] = float(sc)
        if "swarm" in raw:
            sd = _require_mapping(raw["swarm"], "swarm")
            allowed = {"n_swarm", "n_iter", "w_init", "w_end", "c1", "c2", "c_noise"}
            _check_keys(sd, allowed, "swarm")
            ints = {"n_swarm", "n_iter"}
            kwargs["swarm"] = replace(
                SwarmConfig(),
                **{k: int(v) if k in ints else float(v) for k, v in sd.items()},
            )
        if "association" in raw:
            ad = _require_mapping(raw["association"], "association")
            _check_keys(ad, {"tau_match", "d_min", "d_max", "criterion"}, "association")
            if "tau_match" in ad:
                kwargs["tau_match"] = float(ad["tau_match"])
            if "d_min" in ad:
                kwargs["d_min"] = float(ad["d_min"])
            if "d_max" in ad:
                kwargs["d_max"] = float(ad["d_max"])
            if "criterion" in ad:
                kwargs["match_criterion"] = str(ad["criterion"])
        if "ground" in raw:
            gd = _require_mapping(raw["ground"], "ground")
            _check_keys(
                gd, {"cell", "height_threshold", "refit_rounds", "seed_quantile"}, "ground"
            )
            if "cell" in gd:
                kwargs["ground_cell"] = float(gd["cell"])
            if "height_threshold" in gd:
                kwargs["ground_height"] = float(gd["height_threshold"])
            if "refit_rounds" in gd:
                kwargs["ground_refits"] = int(gd["refit_rounds"])
            if "seed_quantile" in gd:
                kwargs["ground_quantile"] = float(gd["seed_quantile"])
        if "clustering" in raw:
            cd = _require_mapping(raw["clustering"], "clustering")
            _check_keys(cd, {"eps", "min_pts"}, "clustering")
            if "eps" in cd:
                kwargs["cluster_eps"] = float(cd["eps"])
            if "min_pts" in cd:
                kwargs["cluster_min_pts"] = int(cd["min_pts"])
        if "nms_iou" in raw:
            kwargs["nms_iou"] = float(raw["nms_iou"])
        if "thresholds" in raw:
            td = _require_mapping(raw["thresholds"], "thresholds")
            _check_keys(td, {"tau_occ", "tau_res", "tau_mv"}, "thresholds")
            thr_kwargs: dict = {}
            if "tau_res" in td:
                thr_kwargs["tau_res"] = float(td["tau_res"])
            if "tau_mv" in td:
                thr_kwargs["tau_mv"] = float(td["tau_mv"])
            if "tau_occ" in td:
                occ = _require_mapping(td["tau_occ"], "thresholds.tau_occ")
                thr_kwargs["tau_occ"] = {str(k): float(v) for k, v in occ.items()}
            kwargs["thresholds"] = FilterThresholds(**thr_kwargs)
        if "anchors" in raw:
            anchors_raw = _require_mapping(raw["anchors"], "anchors")
            anchors = default_anchors()
            for cls, spec in anchors_raw.items():
                sd = _require_mapping(spec, f"anchors.{cls}")
                _check_keys(sd, {"min", "max"}, f"anchors.{cls}")
                if "min" not in sd or "max" not in sd:
                    raise ValidationError(f"anchors.{cls} needs both min and max")
                anchors[str(cls)] = AnchorRange(
                    str(cls),
                    _floats3(sd["min"], f"anchors.{cls}.min"),
                    _floats3(sd["max"], f"anchors.{cls}.max"),
                )
            kwargs["anchors"] = anchors
        if "bench" in raw:
            bd = _require_mapping(raw["bench"], "bench")
            _check_keys(bd, {"budgets"}, "bench")
            if "budgets" in bd:
                budgets = bd["budgets"]
                if not isinstance(budgets, list) or not budgets:
                    raise ValidationError("bench.budgets must be a non-empty list")
                kwargs["bench_budgets"] = tuple(int(b) for b in budgets)
        cfg = PipelineConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"{path}: {exc}") from exc
    # A class named in only one table would stop the run at its first
    # proposal, after every earlier frame has been fitted.
    named = set(map(str, raw.get("anchors", {})))
    named |= set(map(str, raw.get("thresholds", {}).get("tau_occ", {})))
    holes = [
        f"{table} lacks {sorted(named - set(entries))}"
        for table, entries in (("anchors", cfg.anchors), ("thresholds.tau_occ", cfg.thresholds.tau_occ))
        if named - set(entries)
    ]
    if holes:
        raise ValidationError(f"{path}: class tables differ: {'; '.join(holes)}")
    return cfg


def config_to_dict(cfg: PipelineConfig) -> dict:
    """Plain-data view of a config, stable key order, JSON-serializable."""
    return {
        "seed": cfg.seed,
        "workers": cfg.workers,
        "paths": {"scenes": str(cfg.scenes_dir), "output": str(cfg.output_dir)},
        "weights": {
            "lambda1": cfg.weights.lambda1,
            "lambda2": cfg.weights.lambda2,
            "lambda3": cfg.weights.lambda3,
            "gamma": cfg.weights.gamma,
        },
        "surface_clip": "adaptive" if cfg.surface_clip is None else cfg.surface_clip,
        "swarm": {
            "n_swarm": cfg.swarm.n_swarm,
            "n_iter": cfg.swarm.n_iter,
            "w_init": cfg.swarm.w_init,
            "w_end": cfg.swarm.w_end,
            "c1": cfg.swarm.c1,
            "c2": cfg.swarm.c2,
            "c_noise": cfg.swarm.c_noise,
        },
        "association": {
            "tau_match": cfg.tau_match,
            "d_min": cfg.d_min,
            "d_max": cfg.d_max,
            "criterion": cfg.match_criterion,
        },
        "ground": {
            "cell": cfg.ground_cell,
            "height_threshold": cfg.ground_height,
            "refit_rounds": cfg.ground_refits,
            "seed_quantile": cfg.ground_quantile,
        },
        "clustering": {"eps": cfg.cluster_eps, "min_pts": cfg.cluster_min_pts},
        "nms_iou": cfg.nms_iou,
        "thresholds": {
            "tau_res": cfg.thresholds.tau_res,
            "tau_mv": cfg.thresholds.tau_mv,
            "tau_occ": dict(sorted(cfg.thresholds.tau_occ.items())),
        },
        "anchors": {
            cls: {
                "min": [float(v) for v in a.dims_min],
                "max": [float(v) for v in a.dims_max],
            }
            for cls, a in sorted(cfg.anchors.items())
        },
        "bench": {"budgets": list(cfg.bench_budgets)},
    }


def config_fingerprint(cfg: PipelineConfig) -> str:
    """Hex digest identifying the full parameter set of a run."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    """Write a config back out as YAML (round-trips through load_config)."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
