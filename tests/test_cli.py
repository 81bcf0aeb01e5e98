"""Command line interface: subcommands, output, and exit codes."""

import csv
import json
import shutil

import pytest

from autobox3d import pipeline
from autobox3d.cli import main


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

    def test_empty_cloud_exits_2(self, workdir, tmp_path, capsys):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        (scenes / "0000.bin").write_bytes(b"")
        calib = (workdir / "scenes" / "0000.calib.json").read_text()
        (scenes / "0000.calib.json").write_text(calib)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"paths:\n  scenes: {scenes}\n  output: {tmp_path / 'out'}\n")
        assert main(["annotate", "--config", str(cfg)]) == 2
        assert "empty cloud" in capsys.readouterr().err


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

    def test_out_of_range_proposal_exits_2(self, workdir, capsys):
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
        capsys.readouterr()

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
        assert "yeti" in capsys.readouterr().err

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


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
        capsys.readouterr()
