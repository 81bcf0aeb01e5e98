"""Benchmark harness: instance loading, row schema, method dispatch."""

import csv
import json

import numpy as np
import pytest

from autobox3d.bench import load_bench_instances, run_bench, write_bench_csv
from autobox3d.config import PipelineConfig
from autobox3d.errors import UnknownClassError, ValidationError
from autobox3d.geom import iou_bev, points_in_box
from autobox3d.optimizer import SwarmConfig
from autobox3d.synth import SynthClassSpec, SynthSpec, generate


BENCH_SPEC = SynthSpec(
    seed=23,
    n_frames=2,
    classes=[SynthClassSpec(name="car", count=1, distance_min=8.0, distance_max=20.0)],
    ground_extent=15.0,
    n_cameras=2,
)


@pytest.fixture(scope="module")
def bench_config(tmp_path_factory):
    scenes = tmp_path_factory.mktemp("bench_scenes")
    generate(BENCH_SPEC, scenes)
    return PipelineConfig(
        scenes_dir=scenes,
        output_dir=scenes / "out",
        swarm=SwarmConfig(n_swarm=10, n_iter=50),
    )


class TestLoadInstances:
    def test_instances_wired_to_ground_truth(self, bench_config):
        instances = load_bench_instances(bench_config)
        assert [i.key for i in instances] == ["0000:0", "0001:0"]
        for inst in instances:
            assert inst.class_id == "car"
            pts = inst.pair.points
            assert points_in_box(pts, inst.gt_box).all()
            assert inst.pair.distance_to_ray < 2.0
            assert inst.pair.proposal.index == 0

    def test_missing_gt_sidecar(self, bench_config, tmp_path):
        import shutil

        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in bench_config.scenes_dir.glob("0000.*"):
            if not src.name.endswith(".gt.json"):
                shutil.copy(src, scenes / src.name)
        config = PipelineConfig(scenes_dir=scenes, output_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="gt.json"):
            load_bench_instances(config)

    def test_cluster_count_mismatch(self, bench_config, tmp_path):
        import shutil

        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in bench_config.scenes_dir.glob("0000.*"):
            shutil.copy(src, scenes / src.name)
        gt = json.loads((scenes / "0000.gt.json").read_text())
        gt["instances"] = []
        (scenes / "0000.gt.json").write_text(json.dumps(gt))
        config = PipelineConfig(scenes_dir=scenes, output_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="0 ground-truth instances"):
            load_bench_instances(config)


class TestRunBench:
    def test_row_schema_and_counts(self, bench_config):
        rows = run_bench(bench_config, budgets=(300, 500))
        # 2 instances x 2 budgets x 2 methods.
        assert len(rows) == 8
        for row in rows:
            assert set(row) == {"instance", "method", "budget", "cost", "bev_iou", "wall_time"}
            assert row["method"] in ("greedy", "adaptive")
            assert row["budget"] in (300, 500)
            assert np.isfinite(row["cost"])
            assert 0.0 <= row["bev_iou"] <= 1.0
            assert row["wall_time"] > 0.0

    def test_method_selection(self, bench_config):
        rows = run_bench(bench_config, methods=("adaptive",), budgets=(200,))
        assert len(rows) == 2
        assert all(row["method"] == "adaptive" for row in rows)

    def test_unknown_method(self, bench_config):
        with pytest.raises(ValidationError, match="annealing"):
            run_bench(bench_config, methods=("annealing",))

    def test_adaptive_rows_reproducible(self, bench_config):
        a = run_bench(bench_config, methods=("adaptive",), budgets=(400,))
        b = run_bench(bench_config, methods=("adaptive",), budgets=(400,))
        for ra, rb in zip(a, b):
            assert ra["cost"] == rb["cost"]
            assert ra["bev_iou"] == rb["bev_iou"]

    def test_budget_changes_seed_and_iterations(self, bench_config):
        rows = run_bench(bench_config, methods=("adaptive",), budgets=(100, 2000))
        by_budget = {r["budget"]: r for r in rows if r["instance"] == "0000:0"}
        assert by_budget[100]["cost"] != by_budget[2000]["cost"]

    def test_csv_output(self, bench_config, tmp_path):
        out = tmp_path / "bench.csv"
        rows = run_bench(bench_config, budgets=(200,), out_csv=out)
        with open(out, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        assert list(back[0]) == ["instance", "method", "budget", "cost", "bev_iou", "wall_time"]
        for row, orig in zip(back, rows):
            assert row["instance"] == orig["instance"]
            assert float(row["cost"]) == pytest.approx(orig["cost"])

    def test_unknown_class_raises(self, bench_config):
        inst = load_bench_instances(bench_config)[0]
        inst.class_id = inst.pair.proposal.class_id = "yeti"
        with pytest.raises(UnknownClassError, match="yeti"):
            run_bench(bench_config, methods=("greedy",), budgets=(128,), instances=[inst])

    def test_precomputed_instances_reused(self, bench_config):
        instances = load_bench_instances(bench_config)
        rows = run_bench(
            bench_config, methods=("greedy",), budgets=(128,), instances=instances[:1]
        )
        assert len(rows) == 1
        assert rows[0]["instance"] == "0000:0"


def test_write_bench_csv_roundtrip(tmp_path):
    rows = [{
        "instance": "x:0", "method": "greedy", "budget": 100,
        "cost": -5.25, "bev_iou": 0.5, "wall_time": 0.01,
    }]
    path = tmp_path / "rows.csv"
    write_bench_csv(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert back[0]["method"] == "greedy"
    assert float(back[0]["cost"]) == -5.25
