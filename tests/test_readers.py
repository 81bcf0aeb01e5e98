"""The one field rule, at every reader: a wrong type or a non-finite number
fails at its file, entry and key, and the CLI exits 2.

Each table holds values that an earlier reader converted (``"false"`` to
True, 1600.7 to 1600, null to ``"None"``) or let through (NaN).
"""

import json

import numpy as np
import pytest

from autobox3d.cli import main
from autobox3d.config import load_config
from autobox3d.sceneprep import save_cloud
from autobox3d.synth import SynthClassSpec, SynthSpec, generate

from _util import simple_calib

GOOD_LINE = (
    '{"frame":"0","box":{"x":0,"y":0,"z":0,"l":4,"w":2,"h":1.5,"ry":0},'
    '"class":"car","cost":{"density":-1,"lshape":0,"surface":-1,"iou2d":-3,'
    '"total":-9},"fit_for_alignment":true,'
    '"provenance":{"frame":"0","camera":"cam0","proposal":0}}'
)


def _set(doc, path, value):
    """``doc`` with the value at ``path`` (a tuple of keys and indices) replaced."""
    *head, last = path
    for part in head:
        doc = doc[part]
    doc[last] = value


def _run(argv, capsys) -> str:
    assert main(argv) == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("path, value, named", [
    (("fit_for_alignment",), "false", "fit_for_alignment must be true or false"),
    (("provenance", "proposal"), 2.7, "provenance.proposal must be an integer"),
    (("box", "x"), "1.5", "box.x must be a number"),
    (("box", "x"), True, "box.x must be a number"),
], ids=["fit-string", "proposal-fraction", "box-string", "box-bool"])
def test_bank_fields(tmp_path, capsys, path, value, named):
    obj = json.loads(GOOD_LINE)
    _set(obj, path, value)
    bank = tmp_path / "bank.jsonl"
    bank.write_text(GOOD_LINE + "\n" + json.dumps(obj) + "\n")
    assert f"{bank}: line 2: {named}" in _run(["report", "--bank", str(bank)], capsys)


def _calib_doc() -> dict:
    calib = simple_calib()
    return {
        "ego": [0.0, 0.0, 0.0],
        "cameras": [{
            "camera_id": calib.camera_id,
            "extrinsic": calib.extrinsic.tolist(),
            "intrinsic": calib.intrinsic.tolist(),
            "image_width": calib.image_width,
            "image_height": calib.image_height,
        }],
    }


def _proposal(**kw) -> dict:
    entry = {
        "camera_id": "cam0", "box": [10.0, 10.0, 30.0, 30.0], "class": "car",
        "score": 0.8, "mask_pixel_count": 50, "crop_w": 10, "crop_h": 10,
        "embedding": [0.5, 0.5, 0.5],
    }
    entry.update(kw)
    return entry


def _fit_box(tmp_path, capsys, calib: dict, proposals: list) -> str:
    """stderr of ``fit-box`` on one frame ``f0`` written from the given documents."""
    scenes = tmp_path / "scenes"
    scenes.mkdir()
    save_cloud(scenes / "f0.bin", np.array([[0.0, 0.0, 5.0], [0.1, 0.0, 5.0], [0.0, 0.1, 5.0]]))
    (scenes / "f0.calib.json").write_text(json.dumps(calib))
    (scenes / "f0.proposals.json").write_text(json.dumps(proposals))
    config = tmp_path / "config.yaml"
    config.write_text(f"paths: {{scenes: {scenes}, output: {tmp_path / 'out'}}}\n")
    return _run(["fit-box", "--config", str(config), "--scene", "f0", "--proposal", "0"], capsys)


@pytest.mark.parametrize("path, value, named", [
    (("cameras", 0, "image_width"), 1600.7, "camera 0: image_width must be an integer"),
    (("cameras", 0, "image_width"), True, "camera 0: image_width must be an integer"),
    (("cameras", 0, "camera_id"), None, "camera 0: camera_id must be a string"),
    (("cameras", 0, "intrinsic", 0, 2), float("nan"), "camera 0: intrinsic must be finite"),
    (("ego",), ["0", "0", "0"], "ego must be a number"),
    # Each of these used to leak a Python error such as "camera 0: string
    # indices must be integers, not 'str'".
    (("cameras",), "cam0", "cameras must be a list, got 'cam0'"),
    (("cameras",), 2, "cameras must be a list, got 2"),
    (("cameras",), {"cam0": {}}, "cameras must be a list, got {'cam0': {}}"),
    (("cameras", 0), "cam0", "camera 0 must be a mapping, got 'cam0'"),
], ids=["width-fraction", "width-bool", "id-null", "cx-nan", "ego-strings",
        "cameras-string", "cameras-number", "cameras-mapping", "camera-string"])
def test_calib_fields(tmp_path, capsys, path, value, named):
    calib = _calib_doc()
    _set(calib, path, value)
    err = _fit_box(tmp_path, capsys, calib, [_proposal()])
    assert f"f0.calib.json: {named}" in err


def test_calib_not_a_mapping(tmp_path, capsys):
    err = _fit_box(tmp_path, capsys, [_calib_doc()], [_proposal()])
    assert "f0.calib.json: the document must be a mapping, got [{" in err


@pytest.mark.parametrize("key, value, named", [
    ("class", 7, "class must be a string"),
    ("camera_id", None, "camera_id must be a string"),
    ("embedding", [True, False, 0.5], "embedding must be a number"),
    ("embedding", [float("nan"), 1.0], "embedding must be finite"),
    ("box", ["10", "10", "30", "30"], "box must be a number"),
], ids=["class-int", "camera-null", "embedding-bools", "embedding-nan", "box-strings"])
def test_proposal_fields(tmp_path, capsys, key, value, named):
    err = _fit_box(tmp_path, capsys, _calib_doc(), [_proposal(), _proposal(**{key: value})])
    assert f"f0.proposals.json: proposal 1: {named}" in err


@pytest.mark.parametrize("text, key", [
    ("association: {tau_match: .nan}\n", "association.tau_match"),
    ("ground: {cell: .inf}\n", "ground.cell"),
    ("clustering: {eps: .nan}\n", "clustering.eps"),
], ids=["tau-match-nan", "ground-cell-inf", "eps-nan"])
def test_config_fields(tmp_path, capsys, text, key):
    config = tmp_path / "config.yaml"
    config.write_text(text + f"paths: {{scenes: {tmp_path / 'none'}}}\n")
    err = _run(["annotate", "--config", str(config)], capsys)
    assert f"{config}: {key} must be finite" in err


def test_config_reads_numeric_strings(tmp_path):
    # YAML 1.1 leaves 1e3 a string; the config and synth-spec reader take it as 1000.
    config = tmp_path / "config.yaml"
    config.write_text("seed: 1e3\nthresholds: {tau_res: 1e3}\n")
    cfg = load_config(config)
    assert (cfg.seed, cfg.thresholds.tau_res) == (1000, 1000.0)


def _config_case(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("anchors:\n  car: {min: [4, 1.7, 1.5], max: [5, 2, x]}\n")
    return ["annotate", "--config", str(config)], f"{config}: anchors.car.max must be a number"


def _synth_case(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("classes:\n  - {name: car}\n  - {name: bus, count: 1.5}\n")
    argv = ["synth", "--spec", str(spec), "--out", str(tmp_path / "scenes")]
    return argv, f"{spec}: classes[1].count must be an integer"


def _bank_case(tmp_path):
    obj = json.loads(GOOD_LINE)
    obj["cost"]["total"] = None
    bank = tmp_path / "bank.jsonl"
    bank.write_text(GOOD_LINE + "\n" + json.dumps(obj) + "\n")
    return ["report", "--bank", str(bank)], f"{bank}: line 2: cost.total must be a number"


def _ground_truth_case(tmp_path):
    scenes = tmp_path / "scenes"
    car = SynthClassSpec(distance_min=8.0, distance_max=12.0)
    generate(SynthSpec(classes=[car], ground_extent=15.0), scenes)
    gt_path = scenes / "0000.gt.json"
    gt = json.loads(gt_path.read_text())
    gt["instances"][0]["box"]["l"] = True
    gt_path.write_text(json.dumps(gt))
    config = tmp_path / "config.yaml"
    config.write_text(f"paths: {{scenes: {scenes}, output: {tmp_path / 'out'}}}\n")
    argv = ["bench", "--config", str(config)]
    return argv, f"{gt_path}: ground-truth instance 0: box.l must be a number"


@pytest.mark.parametrize("case", [_config_case, _synth_case, _bank_case, _ground_truth_case],
                         ids=["config", "synth-spec", "bank", "ground-truth"])
def test_message_names_file_entry_and_dotted_key(tmp_path, capsys, case):
    # One form at every reader that walks records: the file, then the entry
    # (a bank line, a ground-truth instance), then the full dotted key.
    argv, prefix = case(tmp_path)
    assert _run(argv, capsys).startswith(f"error: {prefix}, got ")
