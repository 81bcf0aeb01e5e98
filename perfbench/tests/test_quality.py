"""The quality scorer on a hand-built bank and ground-truth file.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import quality  # noqa: E402


def box(x=10.0, y=0.0, l=4.0, w=2.0, ry=0.0):
    return {"x": x, "y": y, "z": -1.0, "l": l, "w": w, "h": 1.5, "ry": ry}


def target(frame, proposal, b, total):
    return json.dumps({
        "frame": frame,
        "box": b,
        "class": "car",
        "cost": {"density": -1.0, "lshape": 0.1, "surface": -9.0, "iou2d": -0.9, "total": total},
        "fit_for_alignment": True,
        "provenance": {"frame": frame, "camera": "cam0", "proposal": proposal},
    })


@pytest.fixture
def corpus(tmp_path):
    truth = [box(x=10.0), box(x=20.0, y=5.0, ry=0.3), box(x=-8.0, y=3.0)]
    instances = [
        {"id": f"0000:{k}", "class": "car", "proposal_index": k, "box": b}
        for k, b in enumerate(truth)
    ]
    (tmp_path / "0000.gt.json").write_text(json.dumps({"frame": "0000", "instances": instances}))
    return tmp_path


def test_exact_offset_and_missing(corpus):
    truth = quality.load_ground_truth(corpus)
    assert sorted(truth) == [("0000", 0), ("0000", 1), ("0000", 2)]
    # Exact match, a target shifted 1 m along its 4 m length (overlap 6 of
    # union 10, IoU 0.6), and instance 2 with no target at all.
    shifted = box(x=20.0 + math.cos(0.3), y=5.0 + math.sin(0.3), ry=0.3)
    bank = target("0000", 0, box(x=10.0), -30.0) + "\n" + target("0000", 1, shifted, -20.0) + "\n"
    scored = quality.score_bank(bank, truth)
    assert scored["recall_iou70"] == pytest.approx(1 / 3)
    assert scored["median_iou"] == pytest.approx(0.6)
    assert scored["median_cost"] == pytest.approx(-25.0)
    assert (scored["banked"], scored["instances"]) == (2, 3)


def test_iou_ignores_half_turn_and_swapped_sides():
    a = box(l=4.0, w=2.0, ry=0.0)
    assert quality.iou_bev(a, box(l=4.0, w=2.0, ry=math.pi)) == pytest.approx(1.0)
    assert quality.iou_bev(a, box(l=2.0, w=4.0, ry=math.pi / 2)) == pytest.approx(1.0)
    assert quality.iou_bev(a, box(x=30.0)) == 0.0


def test_target_without_ground_truth_is_an_error(corpus):
    truth = quality.load_ground_truth(corpus)
    with pytest.raises(ValueError, match="no ground truth"):
        quality.score_bank(target("0001", 0, box(), -30.0) + "\n", truth)
    twice = target("0000", 0, box(), -30.0) + "\n"
    with pytest.raises(ValueError, match="banked twice"):
        quality.score_bank(twice + twice, truth)
