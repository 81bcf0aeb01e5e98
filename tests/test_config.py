"""YAML config loading, validation, round trips, and fingerprints."""

import re
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml

from autobox3d.assoc import AssocConfig
from autobox3d.config import (
    DEFAULT_ANCHOR_DIMS,
    BenchConfig,
    PipelineConfig,
    config_fingerprint,
    config_to_dict,
    default_anchors,
    load_config,
)
from autobox3d.costfn import AnchorRange
from autobox3d.errors import ValidationError
from autobox3d.filters import FilterThresholds
from autobox3d.sceneprep import ClusterConfig, GroundConfig

from _util import save_config


def write_config(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return path


def nested(key: str, value) -> dict:
    """{"a": {"b": value}} for the dotted key "a.b"."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def lookup(d: dict, key: str):
    for part in key.split("."):
        d = d[part]
    return d


PATH_KEYS = {"scenes_dir": "paths.scenes", "output_dir": "paths.output"}


def yaml_keys(section=PipelineConfig(), prefix: str = "") -> list[str]:
    """Every dotted YAML key, from the dataclass fields: a section's fields
    are its keys, and ``scenes_dir`` and ``output_dir`` are under ``paths``."""
    keys = []
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            keys += yaml_keys(value, f"{prefix}{f.name}.")
        else:
            keys.append(PATH_KEYS.get(f.name, prefix + f.name))
    return keys


KEYS = yaml_keys()
# The two class tables, each one key whose value is a mapping.
CLASS_TABLES = ("thresholds.tau_occ", "anchors")

# A value other than the default for every key.
NON_DEFAULT = {
    "seed": 11,
    "workers": 2,
    "paths.scenes": "s/scenes",
    "paths.output": "s/out",
    "weights.lambda1": 4.5,
    "weights.lambda2": 1.5,
    "weights.lambda3": 0.5,
    "weights.gamma": 2.5,
    "swarm.n_swarm": 20,
    "swarm.n_iter": 40,
    "swarm.w_init": 8.0,
    "swarm.w_end": 0.2,
    "swarm.c1": 1.2,
    "swarm.c2": 0.8,
    "swarm.c_noise": 0.2,
    "association.tau_match": 1.5,
    "association.d_min": 1.0,
    "association.d_max": 50.0,
    "ground.cell": 3.0,
    "ground.height_threshold": 0.3,
    "ground.refit_rounds": 2,
    "ground.seed_quantile": 0.4,
    "clustering.eps": 0.6,
    "clustering.min_pts": 4,
    "nms_iou": 0.4,
    "thresholds.tau_res": 3000.0,
    "thresholds.tau_mv": 0.6,
    "thresholds.tau_occ": {"car": 0.6},
    "anchors": {"car": {"min": [4.0, 1.7, 1.5], "max": [5.0, 2.0, 1.8]}},
    "bench.budgets": [100, 200],
}

# Sets every key, with a full tau_occ table.
EVERY_KEY = """
seed: 11
workers: 2
paths: {scenes: s/scenes, output: s/out}
weights: {lambda1: 4.5, lambda2: 1.5, lambda3: 0.5, gamma: 2.5}
swarm: {n_swarm: 20, n_iter: 40, w_init: 8.0, w_end: 0.2, c1: 1.2, c2: 0.8, c_noise: 0.2}
association: {tau_match: 1.5, d_min: 1.0, d_max: 50.0}
ground: {cell: 3.0, height_threshold: 0.3, refit_rounds: 2, seed_quantile: 0.4}
clustering: {eps: 0.6, min_pts: 4}
nms_iou: 0.4
thresholds:
  tau_occ:
    car: 0.6
    truck: 0.5
    bus: 0.5
    construction_vehicle: 0.5
    trailer: 0.5
    pedestrian: 0.3
    bicycle: 0.35
    motorcycle: 0.35
    traffic_cone: 0.3
    barrier: 0.4
  tau_res: 3000
  tau_mv: 0.6
anchors:
  car: {min: [4.0, 1.7, 1.5], max: [5.0, 2.0, 1.8]}
  pedestrian: {min: [0.5, 0.5, 1.5], max: [1.1, 1.0, 2.1]}
bench: {budgets: [100, 200]}
"""

INT_KEYS = (
    "seed", "workers", "swarm.n_swarm", "swarm.n_iter", "ground.refit_rounds",
    "clustering.min_pts", "bench.budgets",
)
DEFAULTS = config_to_dict(PipelineConfig())
FLOAT_KEYS = tuple(key for key in KEYS if isinstance(lookup(DEFAULTS, key), float))
FLOAT_KEYS += ("thresholds.tau_occ.car",)


class TestDefaults:
    def test_default_values(self):
        cfg = PipelineConfig()
        assert cfg.seed == 0
        assert cfg.workers == 1
        assert cfg.association.tau_match == 2.0
        assert (cfg.association.d_min, cfg.association.d_max) == (0.5, 60.0)
        assert cfg.nms_iou == 0.5
        assert cfg.bench.budgets == (37500, 75000, 150000)
        assert cfg.weights.lambda1 == 5.0
        assert cfg.weights.gamma == 3.0
        assert cfg.swarm.n_swarm == 50
        assert cfg.swarm.n_iter == 3000

    def test_default_anchor_table(self):
        cfg = PipelineConfig()
        assert set(cfg.anchors) == set(DEFAULT_ANCHOR_DIMS)
        car = cfg.anchors["car"]
        assert tuple(car.min) == (3.9, 1.6, 1.4)
        assert tuple(car.max) == (5.3, 2.1, 1.9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PipelineConfig(seed=-1)
        with pytest.raises(ValidationError):
            PipelineConfig(workers=0)
        with pytest.raises(ValidationError):
            PipelineConfig(nms_iou=1.0)
        tractor = AnchorRange((3.0, 2.0, 2.0), (5.0, 3.0, 3.0))
        with pytest.raises(ValidationError, match=r"thresholds.tau_occ lacks \['tractor'\]"):
            PipelineConfig(anchors={**default_anchors(), "tractor": tractor})
        # The one check of the association, ground, clustering and bench
        # settings: associate, remove_ground, cluster_objects and run_bench
        # trust the section they are given.
        for section, bad in (
            (AssocConfig, dict(tau_match=0.0)), (AssocConfig, dict(d_min=0.0)),
            (AssocConfig, dict(d_min=5.0, d_max=5.0)), (GroundConfig, dict(cell=0.0)),
            (GroundConfig, dict(height_threshold=0.0)), (GroundConfig, dict(refit_rounds=-1)),
            (GroundConfig, dict(seed_quantile=0.0)), (ClusterConfig, dict(eps=0.0)),
            (ClusterConfig, dict(min_pts=0)), (BenchConfig, dict(budgets=())),
            (BenchConfig, dict(budgets=(100, 0))),
        ):
            with pytest.raises(ValidationError):
                section(**bad)

    def test_budgets_built_in_code_are_not_truncated(self):
        with pytest.raises(ValidationError, match="bench budget must be an integer, got 2.5"):
            BenchConfig(budgets=(2.5, 300))
        assert BenchConfig(budgets=[300.0]).budgets == (300,)

    def test_frozen_after_checks(self):
        # The stages trust the checked values, so no assignment may skip the
        # checks, in the config or in any of its sections; a changed config
        # comes from replace, which checks again.
        cfg = PipelineConfig(scenes_dir="in")
        with pytest.raises(FrozenInstanceError):
            cfg.nms_iou = 1.0
        for section in (getattr(cfg, f.name) for f in fields(cfg)):
            if is_dataclass(section):
                with pytest.raises(FrozenInstanceError):
                    setattr(section, fields(section)[0].name, 0.0)
        assert cfg.nms_iou == 0.5 and cfg.scenes_dir == Path("in")
        with pytest.raises(ValidationError):
            replace(cfg, nms_iou=1.0)
        with pytest.raises(ValidationError):
            replace(cfg.clustering, eps=0.0)


class TestLoadConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, ""))
        assert config_to_dict(cfg) == config_to_dict(PipelineConfig())

    def test_partial_overrides(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
seed: 7
workers: 2
paths:
  scenes: data/scenes
  output: data/out
swarm:
  n_swarm: 10
  n_iter: 50
association:
  tau_match: 1.5
nms_iou: 0.3
"""))
        assert cfg.seed == 7
        assert cfg.workers == 2
        assert cfg.scenes_dir == Path("data/scenes")
        assert cfg.output_dir == Path("data/out")
        assert cfg.swarm.n_swarm == 10
        assert cfg.swarm.n_iter == 50
        assert cfg.swarm.w_init == 10.0  # untouched default
        assert cfg.association.tau_match == 1.5
        assert cfg.association.d_max == 60.0
        assert cfg.nms_iou == 0.3

    def test_weights_and_thresholds(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
weights:
  lambda1: 4.0
  gamma: 2.0
thresholds:
  tau_res: 1000
  tau_occ:
    car: 0.6
"""))
        assert cfg.weights.lambda1 == 4.0
        assert cfg.weights.lambda2 == 1.0
        assert cfg.weights.gamma == 2.0
        assert cfg.thresholds.tau_res == 1000.0
        # tau_occ merges over the defaults, as anchors do.
        assert cfg.thresholds.tau_occ["car"] == 0.6
        assert cfg.thresholds.tau_occ["pedestrian"] == 0.25

    def test_anchor_override_keeps_other_classes(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
anchors:
  car:
    min: [4.0, 1.7, 1.5]
    max: [5.0, 2.0, 1.8]
"""))
        assert tuple(cfg.anchors["car"].min) == (4.0, 1.7, 1.5)
        assert tuple(cfg.anchors["pedestrian"].max) == (1.0, 0.9, 2.0)

    def test_anchor_class_without_tau_occ_fails(self, tmp_path):
        with pytest.raises(ValidationError, match=r"thresholds.tau_occ lacks \['tractor'\]"):
            load_config(write_config(tmp_path, """
anchors:
  tractor:
    min: [3, 2, 2]
    max: [5, 3, 3]
"""))

    def test_tau_occ_class_without_anchor_fails(self, tmp_path):
        with pytest.raises(ValidationError, match=r"anchors lacks \['tractor'\]"):
            load_config(write_config(tmp_path, """
thresholds:
  tau_occ:
    car: 0.5
    tractor: 0.4
"""))

    def test_new_class_in_both_tables_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
anchors:
  tractor:
    min: [3, 2, 2]
    max: [5, 3, 3]
thresholds:
  tau_occ:
    car: 0.5
    tractor: 0.4
"""))
        assert cfg.thresholds.tau_occ["tractor"] == 0.4
        assert tuple(cfg.anchors["tractor"].max) == (5.0, 3.0, 3.0)

    def test_ground_and_clustering(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
ground:
  cell: 2.0
  height_threshold: 0.2
clustering:
  eps: 0.7
  min_pts: 4
bench:
  budgets: [100, 200]
"""))
        assert cfg.ground == GroundConfig(cell=2.0, height_threshold=0.2)
        assert cfg.clustering == ClusterConfig(eps=0.7, min_pts=4)
        assert cfg.bench.budgets == (100, 200)

    def test_unknown_root_key(self, tmp_path):
        with pytest.raises(ValidationError, match="swam"):
            load_config(write_config(tmp_path, "swam:\n  n_swarm: 5\n"))
        # The two path fields are set only under paths.
        with pytest.raises(ValidationError, match="scenes_dir"):
            load_config(write_config(tmp_path, "scenes_dir: data\n"))

    def test_unknown_nested_key(self, tmp_path):
        with pytest.raises(ValidationError, match="particles"):
            load_config(write_config(tmp_path, "swarm:\n  particles: 5\n"))
        # The surface clip is set per pair, not in the file.
        with pytest.raises(ValidationError, match="c_surface"):
            load_config(write_config(tmp_path, "weights:\n  c_surface: 5.0\n"))

    def test_anchor_needs_min_and_max(self, tmp_path):
        path = write_config(tmp_path, "anchors:\n  car:\n    min: [4, 1.7, 1.5]\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: "
                                                  r"missing key 'anchors\.car\.max'$"):
            load_config(path)

    def test_anchor_triplet_shape(self, tmp_path):
        with pytest.raises(ValidationError, match=r"anchors\.car: min must be 3 finite numbers"):
            load_config(write_config(
                tmp_path, "anchors:\n  car:\n    min: [4, 1.7]\n    max: [5, 2, 1.8]\n"
            ))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_invalid_yaml(self, tmp_path):
        with pytest.raises(ValidationError, match="YAML"):
            load_config(write_config(tmp_path, "seed: [unclosed"))

    def test_non_mapping_root(self, tmp_path):
        with pytest.raises(ValidationError, match="mapping"):
            load_config(write_config(tmp_path, "- 1\n- 2\n"))

    @pytest.mark.parametrize("bad", [2.5, True], ids=["fraction", "bool"])
    @pytest.mark.parametrize("key", INT_KEYS)
    def test_integer_keys_are_strict(self, tmp_path, key, bad):
        value = [bad] if key == "bench.budgets" else bad
        path = write_config(tmp_path, yaml.safe_dump(nested(key, value)))
        named = f"{key}[0]" if key == "bench.budgets" else key
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(f'{path}: {named}')} must be an integer"):
            load_config(path)

    def test_integral_float_loads_as_int(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "seed: 3.0\nbench: {budgets: [100.0]}\n"))
        assert cfg.seed == 3 and type(cfg.seed) is int
        assert cfg.bench.budgets == (100,) and type(cfg.bench.budgets[0]) is int

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_keys_reject_booleans(self, tmp_path, key):
        path = write_config(tmp_path, yaml.safe_dump(nested(key, True)))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {key}')} must be a number"):
            load_config(path)

    def test_quoted_number_rejected(self, tmp_path):
        # A quoted value is a string, whatever it spells.
        with pytest.raises(ValidationError, match=r"cfg\.yaml: swarm\.n_iter must be an integer"):
            load_config(write_config(tmp_path, 'swarm: {n_iter: "10"}\n'))
        with pytest.raises(ValidationError, match=r"cfg\.yaml: nms_iou must be a number"):
            load_config(write_config(tmp_path, "nms_iou: '1e-1'\n"))

    def test_bad_value_propagates_as_validation_error(self, tmp_path):
        with pytest.raises(ValidationError):
            load_config(write_config(tmp_path, "seed: banana"))
        with pytest.raises(ValidationError):
            load_config(write_config(tmp_path, "nms_iou: 1.0"))


class TestRoundTrip:
    def test_save_then_load_preserves_everything(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
seed: 3
swarm:
  n_swarm: 12
weights:
  gamma: 2.5
anchors:
  car:
    min: [4.0, 1.7, 1.5]
    max: [5.0, 2.0, 1.8]
"""))
        out = tmp_path / "saved.yaml"
        save_config(cfg, out)
        again = load_config(out)
        assert config_to_dict(again) == config_to_dict(cfg)
        assert config_fingerprint(again) == config_fingerprint(cfg)


class TestSchema:
    def test_every_key_has_a_test_value(self):
        assert sorted(NON_DEFAULT) == sorted(KEYS)

    def test_schema_reaches_every_config_field(self):
        # config_to_dict dumps exactly the keys the dataclass fields declare.
        def leaves(d, prefix=""):
            for name, value in d.items():
                key = prefix + name
                if isinstance(value, dict) and key not in CLASS_TABLES:
                    yield from leaves(value, key + ".")
                else:
                    yield key
        assert sorted(leaves(DEFAULTS)) == sorted(KEYS)
        assert set(CLASS_TABLES) <= set(KEYS)

    @pytest.mark.parametrize("key", KEYS)
    def test_key_round_trips_and_moves_fingerprint(self, tmp_path, key):
        value = NON_DEFAULT[key]
        cfg = load_config(write_config(tmp_path, yaml.safe_dump(nested(key, value))))
        default = lookup(DEFAULTS, key)
        # Class tables merge the file's entries over the defaults.
        expect = {**default, **value} if isinstance(value, dict) else value
        assert lookup(config_to_dict(cfg), key) == expect != default
        assert config_fingerprint(cfg) != config_fingerprint(PipelineConfig())
        out = tmp_path / "saved.yaml"
        save_config(cfg, out)
        again = load_config(out)
        assert config_to_dict(again) == config_to_dict(cfg)
        assert config_fingerprint(again) == config_fingerprint(cfg)


class TestReadme:
    @staticmethod
    def config_block() -> str:
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("\n## Configuration\n", 1)[1]
        return section.split("```yaml\n", 1)[1].split("```", 1)[0]

    def test_block_loads_as_the_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, self.config_block()))
        assert config_to_dict(cfg) == config_to_dict(PipelineConfig())

    def test_block_names_every_key(self):
        raw = yaml.safe_load(self.config_block())
        missing = []
        for key in KEYS:
            try:
                lookup(raw, key)
            except (KeyError, TypeError):
                missing.append(key)
        assert missing == []


class TestFingerprint:
    # Digests recorded when `surface_clip` and `association.criterion` left
    # the schema; each equals the old dump without those two keys. A change
    # here changes every report.json.
    def test_pinned_default_digest(self):
        assert config_fingerprint(PipelineConfig()) == (
            "bc99186d09e735d966d7a73f3cec25047f3e823aa27ac8e0fd8786eb24353266"
        )

    def test_pinned_every_key_digest(self, tmp_path):
        cfg = load_config(write_config(tmp_path, EVERY_KEY))
        for key in KEYS:
            lookup(yaml.safe_load(EVERY_KEY), key)  # KeyError if the config skips a key
        assert config_fingerprint(cfg) == (
            "b656f456716ba6af649d106a50cd34018e3e06a487523d2aa49017225f26ddd8"
        )

    def test_code_built_config_matches_its_yaml(self, tmp_path):
        # An int given in code for a float key dumps as the float its YAML loads as.
        cfg = load_config(write_config(tmp_path, "nms_iou: 0\nthresholds: {tau_res: 3000}\n"))
        built = PipelineConfig(nms_iou=0, thresholds=FilterThresholds(tau_res=3000))
        assert config_fingerprint(built) == config_fingerprint(cfg)

    def test_stable_for_equal_configs(self):
        assert config_fingerprint(PipelineConfig()) == config_fingerprint(PipelineConfig())

    def test_sensitive_to_any_parameter(self):
        base = config_fingerprint(PipelineConfig())
        assert config_fingerprint(PipelineConfig(seed=1)) != base
        assert config_fingerprint(PipelineConfig(nms_iou=0.4)) != base

    def test_is_hex_sha256(self):
        fp = config_fingerprint(PipelineConfig())
        assert len(fp) == 64
        int(fp, 16)
