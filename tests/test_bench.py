"""Benchmark harness: instance loading, row schema, method dispatch."""

import csv
import hashlib
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from autobox3d import bench
from autobox3d.bench import load_bench_instances, run_bench, write_bench_csv
from autobox3d.cli import main
from autobox3d.config import PipelineConfig
from autobox3d.errors import UnknownClassError, ValidationError
from autobox3d.geom import iou_bev
from autobox3d.optimizer import SwarmConfig
from autobox3d.pipeline import derive_pair_seed, fit_pair
from autobox3d.synth import SynthClassSpec, SynthSpec, generate

from _costfn_reference import points_in_box
from _util import save_config, swarm_fit


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


def _edited_gt_config(bench_config, tmp_path, edit) -> PipelineConfig:
    """Frame 0000 alone in a new scenes dir, its ``gt.json`` changed by ``edit``."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for src in bench_config.scenes_dir.glob("0000.*"):
        shutil.copy(src, scenes / src.name)
    gt = json.loads((scenes / "0000.gt.json").read_text())
    edit(gt)
    (scenes / "0000.gt.json").write_text(json.dumps(gt))
    return PipelineConfig(scenes_dir=scenes, output_dir=tmp_path / "out")


class TestLoadInstances:
    def test_instances_wired_to_ground_truth(self, bench_config):
        instances = load_bench_instances(bench_config)
        assert [i.key for i in instances] == ["0000:0", "0001:0"]
        for inst in instances:
            assert inst.pair.proposal.class_id == "car"
            pts = inst.pair.points
            assert points_in_box(pts, inst.gt_box).all()
            assert inst.pair.distance_to_ray < 2.0
            assert inst.pair.proposal.index == 0

    def test_missing_gt_sidecar(self, bench_config, tmp_path):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in bench_config.scenes_dir.glob("0000.*"):
            if not src.name.endswith(".gt.json"):
                shutil.copy(src, scenes / src.name)
        config = PipelineConfig(scenes_dir=scenes, output_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="gt.json"):
            load_bench_instances(config)

    def test_cluster_count_mismatch(self, bench_config, tmp_path):
        config = _edited_gt_config(bench_config, tmp_path,
                                   lambda gt: gt.update(instances=[]))
        with pytest.raises(ValidationError, match="0 ground-truth instances"):
            load_bench_instances(config)

    @pytest.mark.parametrize("instances", [5, None])
    def test_instances_not_a_list_exits_2(self, bench_config, tmp_path, capsys, instances):
        # A number here used to escape as a TypeError traceback, exit code 1.
        config = _edited_gt_config(bench_config, tmp_path,
                                   lambda gt: gt.update(instances=instances))
        with pytest.raises(ValidationError, match=r"0000\.gt\.json: instances must be a list"):
            load_bench_instances(config)
        save_config(config, tmp_path / "config.yaml")
        assert main(["bench", "--config", str(tmp_path / "config.yaml")]) == 2
        assert "0000.gt.json: instances must be a list" in capsys.readouterr().err

    @pytest.mark.parametrize("index", [-1, 1, 0.0, True, "0"])
    def test_bad_proposal_index(self, bench_config, tmp_path, index):
        # -1 used to pair the instance with the last proposal.
        config = _edited_gt_config(bench_config, tmp_path,
                                   lambda gt: gt["instances"][0].update(proposal_index=index))
        with pytest.raises(ValidationError, match=r"0000\.gt\.json: ground-truth instance 0: "
                                                  "proposal_index must be an integer"):
            load_bench_instances(config)

    def test_bad_box_value(self, bench_config, tmp_path):
        config = _edited_gt_config(bench_config, tmp_path,
                                   lambda gt: gt["instances"][0]["box"].update(l="4.5"))
        with pytest.raises(ValidationError, match=r"0000\.gt\.json: ground-truth instance 0: "
                                                  r"box\.l must be a number"):
            load_bench_instances(config)

    def test_class_differs_from_proposal(self, bench_config, tmp_path):
        # Bench fits with the proposal's anchor, so a differing class used to pass.
        config = _edited_gt_config(bench_config, tmp_path,
                                   lambda gt: gt["instances"][0].update({"class": "truck"}))
        with pytest.raises(ValidationError, match=r"0000\.gt\.json: ground-truth instance 0: "
                                                  "class 'truck' but proposal 0 has class 'car'"):
            load_bench_instances(config)

    def test_missing_box_key_exits_2(self, bench_config, tmp_path, capsys):
        config = _edited_gt_config(bench_config, tmp_path,
                                   lambda gt: gt["instances"][0]["box"].pop("ry"))
        with pytest.raises(ValidationError, match=r"0000\.gt\.json: ground-truth instance 0: "
                                                  r"missing key 'box\.ry'"):
            load_bench_instances(config)
        save_config(config, tmp_path / "config.yaml")
        assert main(["bench", "--config", str(tmp_path / "config.yaml")]) == 2
        assert "missing key 'box.ry'" in capsys.readouterr().err

    def test_unknown_class_fails_before_any_search(self, bench_config, tmp_path, monkeypatch,
                                                   capsys):
        # A "yeti" instance in the last frame used to load, and run_bench raised
        # only on reaching it, after searching every earlier instance.
        scenes = tmp_path / "scenes"
        shutil.copytree(bench_config.scenes_dir, scenes, ignore=shutil.ignore_patterns("out"))
        for suffix, records in (("proposals", lambda raw: raw),
                                ("gt", lambda raw: raw["instances"])):
            path = scenes / f"0001.{suffix}.json"
            raw = json.loads(path.read_text())
            records(raw)[0]["class"] = "yeti"
            path.write_text(json.dumps(raw))
        config = PipelineConfig(scenes_dir=scenes, output_dir=tmp_path / "out")

        def no_search(*args, **kwargs):
            raise AssertionError("bench searched before it checked the classes")

        monkeypatch.setattr(bench, "greedy_search", no_search)
        monkeypatch.setattr(bench, "pso_search", no_search)
        with pytest.raises(UnknownClassError,
                           match="instance 0001:0: proposal 0: no anchor range for class 'yeti'"):
            run_bench(config)
        save_config(config, tmp_path / "config.yaml")
        assert main(["bench", "--config", str(tmp_path / "config.yaml")]) == 2
        assert "yeti" in capsys.readouterr().err


# sha256 of every row's (instance, method, cost, bev_iou), the floats as
# float.hex, for both methods at PINNED_BUDGETS on the BENCH_SPEC corpus.
PINNED_ROWS_SHA256 = "eb98955df0393fe341f8da27e61e287502b957d3bddd1c47859a204af0b7778a"
PINNED_BUDGETS = (300, 700)


class TestRunBench:
    def test_pinned_rows(self, bench_config):
        rows = run_bench(bench_config, budgets=PINNED_BUDGETS)
        assert {r["method"] for r in rows} == {"greedy", "adaptive"}
        h = hashlib.sha256()
        for r in rows:
            h.update(f"{r['instance']} {r['method']} {float(r['cost']).hex()} "
                     f"{float(r['bev_iou']).hex()}\n".encode())
        assert h.hexdigest() == PINNED_ROWS_SHA256

    def test_row_schema_and_counts(self, bench_config):
        rows = run_bench(bench_config, budgets=(300, 500))
        # 2 instances x 2 budgets x 2 methods, in (budget, method, instance) order.
        assert [(r["budget"], r["method"], r["instance"]) for r in rows] == [
            (b, m, i) for b in (300, 500) for m in ("greedy", "adaptive") for i in ("0000:0", "0001:0")
        ]
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
        rows = run_bench(bench_config, budgets=(200,))
        write_bench_csv(rows, out)
        with open(out, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert len(back) == len(rows)
        assert list(back[0]) == ["instance", "method", "budget", "cost", "bev_iou", "wall_time"]
        for row, orig in zip(back, rows):
            assert row["instance"] == orig["instance"]
            assert float(row["cost"]) == pytest.approx(orig["cost"])

    def test_unknown_class_raises(self, bench_config):
        inst = load_bench_instances(bench_config)[0]
        inst.pair.proposal.class_id = "yeti"
        with pytest.raises(UnknownClassError, match=f"^instance {inst.key}: proposal .*'yeti'"):
            run_bench(bench_config, methods=("greedy",), budgets=(128,), instances=[inst])

    def test_lockstep_rows_equal_searches_alone(self, bench_config):
        # All instances' swarms of one budget share one search; each row must
        # still be what its swarm gets searched alone (K = 1).
        instances = load_bench_instances(bench_config)
        assert len(instances) == 2
        budgets = (300, 700)
        rows = run_bench(bench_config, methods=("adaptive",), budgets=budgets, instances=instances)
        runs = [(b, inst) for b in budgets for inst in instances]
        assert [(r["budget"], r["instance"]) for r in rows] == [(b, inst.key) for b, inst in runs]
        for row, (budget, inst) in zip(rows, runs):
            cfg = replace(bench_config.swarm, n_iter=budget // bench_config.swarm.n_swarm)
            seed = derive_pair_seed(bench_config.seed, f"bench:{inst.key}", budget)
            start, batch = fit_pair(inst.pair, bench_config, seed)
            alone = swarm_fit(batch.evaluate, inst.pair, cfg, seed, start.anchor)
            assert row["cost"] == alone.best_cost.total
            assert row["bev_iou"] == iou_bev(alone.best_box, inst.gt_box)
        for budget in budgets:
            walls = {r["wall_time"] for r in rows if r["budget"] == budget}
            assert len(walls) == 1 and walls.pop() > 0.0

    def test_no_instances_no_rows(self, bench_config):
        assert run_bench(bench_config, instances=[]) == []

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
