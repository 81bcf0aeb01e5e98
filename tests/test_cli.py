"""Command line interface: subcommands, output, and exit codes."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import autobox3d
from autobox3d import bench, pipeline
from autobox3d.cli import main
from autobox3d.config import PipelineConfig
from autobox3d.synth import generate

from _util import NMS_FRAME_SPEC, NMS_FRAME_SWARM, save_config


SPEC_YAML = """
seed: 31
n_frames: 1
n_cameras: 2
ground_extent: 15.0
classes:
  - name: car
    count: 2
    distance_min: 8.0
    distance_max: 20.0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Scenes generated through the CLI itself, plus a small config."""
    root = tmp_path_factory.mktemp("cli")
    spec = root / "spec.yaml"
    spec.write_text(SPEC_YAML)
    scenes = root / "scenes"
    assert main(["synth", "--spec", str(spec), "--out", str(scenes)]) == 0
    config = root / "config.yaml"
    config.write_text(f"""
seed: 5
paths:
  scenes: {scenes}
  output: {root / 'out'}
swarm:
  n_swarm: 10
  n_iter: 60
bench:
  budgets: [300]
""")
    return root


class TestSynth:
    def test_writes_scene_files(self, workdir, capsys):
        assert (workdir / "scenes" / "0000.bin").exists()
        assert (workdir / "scenes" / "0000.gt.json").exists()

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text("n_frame: 2\n")
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_class_value_type_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.yaml"
        spec.write_text('classes:\n  - name: car\n    count: "2"\n')
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "classes[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where", [
        ("n_frames: 1.5\n", "n_frames"),
        ("classes:\n  - name: car\n    count: 1.5\n", "classes[0].count"),
    ], ids=["n_frames", "count"])
    def test_fractional_integer_exits_2(self, tmp_path, capsys, text, where):
        spec = tmp_path / "spec.yaml"
        spec.write_text(text)
        code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert code == 2
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("text, out_is_file, message", [
        ("seed: -1\n", False, "seed must be non-negative, got -1"),
        ("focal: 0\n", False, "focal must be positive, got 0"),
        ("image_width: 0\n", False, "image_width must be positive, got 0"),
        ("ground_jitter: -0.1\n", False, "ground_jitter must be non-negative, got -0.1"),
        ("focal: 1.0e-9\n", False, "focal: intrinsic matrix is singular"),
        ("n_frames: 1\n", True, "cannot create output directory"),
    ], ids=["seed", "focal", "image_width", "ground_jitter", "near_singular_focal",
            "out_is_a_file"])
    def test_bad_input_exits_2_before_any_frame(self, tmp_path, capsys, text, out_is_file,
                                                message):
        # Each used to end in a traceback, exit code 1, from numpy, the camera
        # check or mkdir.
        spec = tmp_path / "spec.yaml"
        spec.write_text(text)
        out = tmp_path / "o"
        if out_is_file:
            out.write_text("")
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not list(tmp_path.rglob("0000.*"))
        assert out_is_file or not out.exists()
        if out_is_file:
            assert str(out) in err


class TestAnnotate:
    def test_full_run(self, workdir, capsys):
        code = main(["annotate", "--config", str(workdir / "config.yaml")])
        assert code == 0
        out = capsys.readouterr().out
        assert "targets banked" in out
        assert "bank written to" in out
        assert (workdir / "out" / "bank.jsonl").exists()
        assert (workdir / "out" / "report.json").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["annotate", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("swam: {}\n")
        assert main(["annotate", "--config", str(cfg)]) == 2
        assert "swam" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("surface_clip: adaptive", "surface_clip"),
        ("association: {criterion: closest_point}", "association.criterion"),
    ], ids=["surface_clip", "association.criterion"])
    def test_removed_key_exits_2_before_fitting(
        self, workdir, tmp_path, capsys, monkeypatch, text, key
    ):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"paths: {{scenes: {workdir / 'scenes'}, output: {tmp_path}}}\n{text}\n")

        def no_search(*args, **kwargs):
            raise AssertionError("annotate searched under a config it should reject")

        monkeypatch.setattr(pipeline, "pso_search", no_search)
        assert main(["annotate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key(s) ['{key}']" in err

    def test_empty_cloud_exits_2(self, workdir, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "0000.bin").write_bytes(b"")
        for suffix in ("calib.json", "proposals.json"):  # without proposals, no cloud is read
            shutil.copy(workdir / "scenes" / f"0000.{suffix}", scenes / f"0000.{suffix}")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"paths:\n  scenes: {scenes}\n  output: {tmp_path / 'out'}\n")
        assert main(["annotate", "--config", str(cfg)]) == 2
        assert "empty cloud" in capsys.readouterr().err


    def test_fractional_crop_exits_2(self, workdir, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for path in (workdir / "scenes").glob("0000.*"):
            shutil.copy(path, scenes / path.name)
        props_path = scenes / "0000.proposals.json"
        props = json.loads(props_path.read_text())
        props[0].update(crop_w=40.7, crop_h=True, mask_pixel_count=100.9)
        props_path.write_text(json.dumps(props))
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"paths:\n  scenes: {scenes}\n  output: {tmp_path / 'out'}\n")
        assert main(["annotate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "proposal 0: mask_pixel_count must be an integer, got 100.9" in err

    def test_output_dir_that_is_a_file_exits_2_before_fitting(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        # The output dir used to be made only after every frame was fitted,
        # and a file in its place then ended the run with a traceback.
        out = tmp_path / "out"
        out.write_text("not a directory\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"paths:\n  scenes: {workdir / 'scenes'}\n  output: {out}\n")

        def no_search(*args, **kwargs):
            raise AssertionError("annotate searched before it made its output dir")

        monkeypatch.setattr(pipeline, "pso_search", no_search)
        assert main(["annotate", "--config", str(cfg)]) == 2
        assert f"cannot create output directory {out}" in capsys.readouterr().err


    @pytest.mark.parametrize("command", [
        ["annotate"], ["fit-box", "--scene", "0001", "--proposal", "0"], ["bench"],
    ], ids=["annotate", "fit-box", "bench"])
    def test_unknown_camera_exits_2_before_fitting(
        self, workdir, tmp_path, capsys, monkeypatch, command
    ):
        # A proposal naming a camera its frame's calib lacks used to stop the
        # run only at that frame, after every earlier frame was fitted.
        cfg, scenes = _two_frames(workdir, tmp_path, monkeypatch)
        props_path = scenes / "0001.proposals.json"
        props = json.loads(props_path.read_text())
        props[0]["camera_id"] = "camX"
        props_path.write_text(json.dumps(props))
        assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
        assert "frame 0001: unknown camera 'camX'" in capsys.readouterr().err

    def test_duplicate_camera_id_exits_2_before_fitting(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        cfg, scenes = _two_frames(workdir, tmp_path, monkeypatch)
        calib_path = scenes / "0001.calib.json"
        calib = json.loads(calib_path.read_text())
        calib["cameras"] = [calib["cameras"][0]] * 2
        calib_path.write_text(json.dumps(calib))
        assert main(["annotate", "--config", str(cfg)]) == 2
        assert f"{calib_path}: camera 1: duplicate camera id 'cam0'" in capsys.readouterr().err

    def test_missing_cloud_exits_2_before_fitting(self, workdir, tmp_path, capsys, monkeypatch):
        # The cloud file used to be looked for only when its frame's turn came.
        cfg, scenes = _two_frames(workdir, tmp_path, monkeypatch)
        (scenes / "0001.bin").unlink()
        assert main(["annotate", "--config", str(cfg)]) == 2
        assert f"frame 0001: no cloud file under {scenes}" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", ["proposals.json", "calib.json"])
    def test_input_path_that_is_a_directory_exits_2(
        self, workdir, tmp_path, capsys, monkeypatch, suffix
    ):
        # It used to exit 1 with an IsADirectoryError traceback.
        cfg, scenes = _two_frames(workdir, tmp_path, monkeypatch)
        path = scenes / f"0001.{suffix}"
        path.unlink()
        path.mkdir()
        assert main(["annotate", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err


def _two_frames(workdir, tmp_path, monkeypatch):
    """Config over copies 0000 and 0001 of the fixture frame, and the copies'
    dir; any search fails the test."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    for path in (workdir / "scenes").glob("0000.*"):
        for frame in ("0000", "0001"):
            shutil.copy(path, scenes / path.name.replace("0000", frame))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(f"paths:\n  scenes: {scenes}\n  output: {tmp_path / 'out'}\n")

    def no_search(*args, **kwargs):
        raise AssertionError("searched before every frame was checked")

    for owner, name in ((pipeline, "pso_search"), (bench, "pso_search"), (bench, "greedy_search")):
        monkeypatch.setattr(owner, name, no_search)
    return cfg, scenes


class TestFitBox:
    def test_prints_box_json(self, workdir, capsys):
        code = main([
            "fit-box", "--config", str(workdir / "config.yaml"),
            "--scene", "0000", "--proposal", "0",
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["frame"] == "0000"
        assert out["proposal"] == 0
        assert out["class"] == "car"
        assert set(out["box"]) == {"x", "y", "z", "l", "w", "h", "ry"}
        assert set(out["cost"]) == {"density", "lshape", "surface", "iou2d", "total"}
        assert out["evaluations"] == 600
        assert len(out["candidates"]) >= 1

    def test_reproduces_banked_target(self, workdir, capsys):
        # Pair seeds count pairs across the whole frame, so a proposal
        # other than the first is the one that shows a numbering mismatch.
        config = str(workdir / "config.yaml")
        assert main(["annotate", "--config", config]) == 0
        capsys.readouterr()
        lines = (workdir / "out" / "bank.jsonl").read_text().splitlines()
        banked = [json.loads(line) for line in lines]
        later = [t for t in banked if t["provenance"]["proposal"] > 0]
        assert later, "fixture frame must bank a target for a later proposal"
        target = later[0]
        code = main([
            "fit-box", "--config", config, "--scene", target["frame"],
            "--proposal", str(target["provenance"]["proposal"]),
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["box"] == target["box"]
        assert out["cost"] == target["cost"]

    def test_prints_suppressed_by(self, tmp_path, capsys):
        # NMS removes proposal 3's target in favour of proposal 0's, so
        # annotate banks nothing for proposal 3; fit-box says why.
        generate(NMS_FRAME_SPEC, tmp_path / "scenes")
        config = tmp_path / "config.yaml"
        save_config(PipelineConfig(scenes_dir=tmp_path / "scenes", output_dir=tmp_path / "out",
                                   swarm=NMS_FRAME_SWARM), config)
        outs = []
        for proposal in (3, 0):
            code = main(["fit-box", "--config", str(config), "--scene", "0000",
                         "--proposal", str(proposal)])
            assert code == 0
            outs.append(json.loads(capsys.readouterr().out))
        suppressed, kept = outs
        assert suppressed["suppressed_by"] == 0
        assert kept["suppressed_by"] is None
        for out in outs:
            totals = [c["total_cost"] for c in out["candidates"]]
            assert len(totals) == 2 and totals == sorted(totals)
            assert out["cost"]["total"] == totals[0]

    def test_out_of_range_proposal_exits_2(self, workdir, capsys, monkeypatch):
        # The index is checked before the frame is loaded, ground-stripped and clustered.
        def no_load(*args, **kwargs):
            raise AssertionError("fit-box read the frame before checking the proposal index")

        monkeypatch.setattr(pipeline, "load_scene", no_load)
        code = main([
            "fit-box", "--config", str(workdir / "config.yaml"),
            "--scene", "0000", "--proposal", "99",
        ])
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_unknown_frame_exits_2(self, workdir, capsys):
        code = main([
            "fit-box", "--config", str(workdir / "config.yaml"),
            "--scene", "nope", "--proposal", "0",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "frame nope not found under" in err
        assert "out of range" not in err

    @staticmethod
    def _copied_frame(workdir, tmp_path):
        """Config over a copy of the fixture frame, and the copy's proposals path."""
        scenes = tmp_path / "scenes"
        shutil.copytree(workdir / "scenes", scenes)
        config = tmp_path / "config.yaml"
        config.write_text(
            f"paths:\n  scenes: {scenes}\n  output: {tmp_path / 'out'}\n"
            "swarm:\n  n_swarm: 10\n  n_iter: 60\n"
        )
        return str(config), scenes / "0000.proposals.json"

    def test_unknown_class_in_frame_exits_2_before_fitting(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        config, proposals_path = self._copied_frame(workdir, tmp_path)
        proposals = json.loads(proposals_path.read_text())
        proposals[1]["class"] = "yeti"
        proposals_path.write_text(json.dumps(proposals))

        def no_fit(*args, **kwargs):
            raise AssertionError("fit-box fitted a pair before checking classes")

        monkeypatch.setattr(pipeline, "fit_pair", no_fit)
        code = main(["fit-box", "--config", config, "--scene", "0000", "--proposal", "0"])
        assert code == 2
        assert "frame 0000: proposal 1: no anchor range for class 'yeti'" in capsys.readouterr().err

    def test_frame_without_proposals_exits_2(self, workdir, tmp_path, capsys):
        config, proposals_path = self._copied_frame(workdir, tmp_path)
        proposals_path.unlink()
        code = main(["fit-box", "--config", config, "--scene", "0000", "--proposal", "0"])
        assert code == 2
        assert "out of range; frame has 0" in capsys.readouterr().err


class TestBench:
    def test_writes_csv_and_summary(self, workdir, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code = main([
            "bench", "--config", str(workdir / "config.yaml"), "--out", str(out_csv),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean IoU" in printed
        assert "greedy" in printed and "adaptive" in printed
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 2 instances x 1 budget x 2 methods.
        assert len(rows) == 4
        assert {r["method"] for r in rows} == {"greedy", "adaptive"}

    def test_out_in_missing_dir_exits_2_before_fitting(self, workdir, tmp_path, capsys,
                                                       monkeypatch):
        # The CSV used to be written only after every fit.
        def no_search(*args, **kwargs):
            raise AssertionError("bench searched before it checked its output path")

        monkeypatch.setattr(bench, "greedy_search", no_search)
        monkeypatch.setattr(bench, "pso_search", no_search)
        out_csv = tmp_path / "missing" / "x.csv"
        code = main(["bench", "--config", str(workdir / "config.yaml"), "--out", str(out_csv)])
        assert code == 2
        assert str(out_csv) in capsys.readouterr().err
        assert not out_csv.parent.exists()

    def test_default_csv_location(self, workdir, capsys):
        code = main(["bench", "--config", str(workdir / "config.yaml")])
        assert code == 0
        capsys.readouterr()
        assert (workdir / "out" / "bench.csv").exists()


class TestReport:
    def test_summarizes_bank(self, workdir, capsys):
        main(["annotate", "--config", str(workdir / "config.yaml")])
        capsys.readouterr()
        code = main(["report", "--bank", str(workdir / "out" / "bank.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "targets:" in out
        assert "fit for alignment:" in out

    def test_missing_bank_exits_2(self, tmp_path, capsys):
        code = main(["report", "--bank", str(tmp_path / "none.jsonl")])
        assert code == 2
        capsys.readouterr()


@pytest.mark.parametrize("command, flag, what", [
    ("annotate", "--config", "config"),
    ("synth", "--spec", "spec"),
    ("report", "--bank", "bank"),
], ids=["annotate", "synth", "report"])
def test_directory_as_input_file_exits_2(tmp_path, capsys, command, flag, what):
    # It used to exit 1 with an IsADirectoryError traceback.
    out = ["--out", str(tmp_path / "out")] if command == "synth" else []
    assert main([command, flag, str(tmp_path), *out]) == 2
    assert capsys.readouterr().err == f"error: {what} file is a directory: {tmp_path}\n"
    assert not (tmp_path / "out").exists()


def _fresh_stdout(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this package."""
    src = str(Path(autobox3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    return out.stdout


def test_cli_import_loads_no_scipy():
    # scipy.sparse and scipy.spatial take about 0.45 s to import, and only
    # clustering raw sweeps needs them.
    code = "import sys, autobox3d.cli; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    assert _fresh_stdout(code) == "[]\n"


def test_optimizer_import_loads_no_assoc():
    # The swarm takes its start point from the pair; it does not search a ray.
    code = "import sys, autobox3d.optimizer; print('autobox3d.assoc' in sys.modules)"
    assert _fresh_stdout(code) == "False\n"


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        capsys.readouterr()
