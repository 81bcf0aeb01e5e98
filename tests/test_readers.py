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
    (("provenance", "proposal"), 2.7, "provenance proposal must be an integer"),
    (("box", "x"), "1.5", "box x must be a number"),
    (("box", "x"), True, "box x must be a number"),
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
], ids=["width-fraction", "width-bool", "id-null", "cx-nan", "ego-strings"])
def test_calib_fields(tmp_path, capsys, path, value, named):
    calib = _calib_doc()
    _set(calib, path, value)
    err = _fit_box(tmp_path, capsys, calib, [_proposal()])
    assert f"f0.calib.json: {named}" in err


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
    assert f"{config}: config key {key!r} must be finite" in err


def test_config_reads_numeric_strings(tmp_path):
    # PyYAML reads 1e3 as a string; the config, and no other reader, takes it as 1000.
    config = tmp_path / "config.yaml"
    config.write_text("seed: 1e3\nthresholds: {tau_res: 1e3}\n")
    cfg = load_config(config)
    assert (cfg.seed, cfg.thresholds.tau_res) == (1000, 1000.0)
