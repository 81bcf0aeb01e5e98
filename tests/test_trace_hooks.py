"""The benchmark's traced run patches the program's functions by name.

``perfbench/workloads.py`` lists each span as (owner, attribute, name), and
the tracer replaces ``vars(owner)[attribute]``. A rename in the program that
misses the list breaks ``perfbench/run.py --trace 1``; these checks make it
fail the test suite instead. The benchmark also writes each workload's
config and splits it per frame with ``dataclasses.replace``, which the last
check guards.
"""

import importlib.util
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import autobox3d
from autobox3d.config import config_to_dict, load_config
from autobox3d.costfn import BoxCostBatch, CostWeights

from _util import build_pair, car_box

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner(path: str):
    """``config`` -> autobox3d.config; ``costfn.BoxCostBatch`` -> the class."""
    module, *rest = path.split(".")
    owner = importlib.import_module(f"{autobox3d.__name__}.{module}")
    for name in rest:
        owner = getattr(owner, name)
    return owner


def test_every_span_names_an_attribute_of_its_owner():
    spans = _workloads().SPANS
    assert spans
    for owner, attr, name in spans:
        assert attr in vars(_owner(owner)), f"span {name}: {owner} has no attribute {attr!r}"


def test_evaluate_observer_reads_n_points():
    # The traced run counts (candidate, point) pairs as rows times n_points.
    pair = build_pair(car_box(), seed=2)
    one = BoxCostBatch(pair.points, pair.scene.ego, pair.proposal.box, pair.calib,
                       CostWeights(), 10.0)
    other = BoxCostBatch(pair.points[:10], pair.scene.ego, pair.proposal.box, pair.calib,
                         CostWeights(), 10.0)
    assert one.n_points == len(pair.points)
    joined = BoxCostBatch.join([one, other])
    assert 2 * joined.n_points == len(pair.points) + 10
    assert np.isfinite(joined.evaluate(np.tile(car_box().as_array(), (4, 1))).totals).all()


@pytest.mark.parametrize("name", sorted(_workloads().WORKLOADS))
def test_workload_config_loads_and_splits_per_frame(tmp_path, name):
    # Written as perfbench/child.py writes it: the workload's keys and the paths, as JSON.
    keys = _workloads().WORKLOADS[name]["config"]
    paths = {"scenes": str(tmp_path / "corpus"), "output": str(tmp_path / "out")}
    path = tmp_path / "config.yaml"
    path.write_text(json.dumps({**keys, "paths": paths}, indent=1) + "\n")
    cfg = load_config(path)
    loaded = config_to_dict(cfg)
    assert loaded.pop("paths") == paths
    for key, value in keys.items():
        assert loaded[key] == ({**loaded[key], **value} if isinstance(value, dict) else value)
    # child.py gives each frame its own scenes and output dirs.
    frame = replace(cfg, scenes_dir=tmp_path / "corpus" / "0000", output_dir=tmp_path / "o" / "0000")
    split = config_to_dict(frame)
    assert split.pop("paths") == {"scenes": f"{paths['scenes']}/0000", "output": f"{tmp_path}/o/0000"}
    assert split == loaded
