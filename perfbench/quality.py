"""Quality scorer: a bank of fitted boxes against the synthetic ground truth.

Stdlib only, with its own bird's-eye-view IoU, so that the score does not
depend on the geometry code it is checking.

A banked target is matched to its ground-truth instance by frame and
proposal index (the generator writes proposal k for instance k). A
ground-truth instance with no banked target scores IoU 0.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

RECALL_IOU = 0.7


def footprint(box: dict) -> list[tuple[float, float]]:
    """Counter-clockwise xy corners of a box given as x, y, l, w, ry."""
    c, s = math.cos(box["ry"]), math.sin(box["ry"])
    hl, hw = 0.5 * box["l"], 0.5 * box["w"]
    local = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    corners = [(box["x"] + c * u - s * v, box["y"] + s * u + c * v) for u, v in local]
    return corners if _signed_area(corners) >= 0 else corners[::-1]


def _signed_area(poly: list[tuple[float, float]]) -> float:
    n = len(poly)
    return 0.5 * sum(
        poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
        for i in range(n)
    )


def _clip(poly, a, b):
    """Part of a polygon on the left of the directed line a -> b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    side = [dx * (p[1] - a[1]) - dy * (p[0] - a[0]) for p in poly]
    out = []
    for i, p in enumerate(poly):
        j = (i + 1) % len(poly)
        if side[i] >= 0:
            out.append(p)
        if (side[i] >= 0) != (side[j] >= 0):
            t = side[i] / (side[i] - side[j])
            q = poly[j]
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def iou_bev(a: dict, b: dict) -> float:
    """Ground-plane IoU of two oriented boxes."""
    inter = footprint(a)
    clip = footprint(b)
    for i in range(len(clip)):
        inter = _clip(inter, clip[i], clip[(i + 1) % len(clip)])
        if len(inter) < 3:
            return 0.0
    overlap = abs(_signed_area(inter))
    union = a["l"] * a["w"] + b["l"] * b["w"] - overlap
    return min(1.0, max(0.0, overlap / union)) if union > 0 else 0.0


def load_ground_truth(corpus: Path) -> dict[tuple[str, int], dict]:
    """Ground-truth boxes of a corpus keyed by (frame, proposal index)."""
    truth = {}
    for path in sorted(Path(corpus).glob("*.gt.json")):
        doc = json.loads(path.read_text())
        for inst in doc["instances"]:
            truth[(doc["frame"], int(inst["proposal_index"]))] = inst["box"]
    return truth


def score(ious: list[float], costs: list[float]) -> dict:
    """recall_iou70, median_iou and median_cost from per-instance IoUs."""
    if not ious:
        raise ValueError("no ground-truth instances to score against")
    return {
        "recall_iou70": sum(v >= RECALL_IOU for v in ious) / len(ious),
        "median_iou": statistics.median(ious),
        "median_cost": statistics.median(costs) if costs else math.nan,
    }


def score_bank(bank_text: str, truth: dict[tuple[str, int], dict]) -> dict:
    """Score JSONL bank lines against ground truth.

    Raises ``ValueError`` for a target that names no ground-truth instance
    or a proposal banked twice: either means the bank is wrong.
    """
    matched: dict[tuple[str, int], float] = {}
    costs = []
    for lineno, line in enumerate(bank_text.splitlines(), start=1):
        if not line.strip():
            continue
        target = json.loads(line)
        key = (target["provenance"]["frame"], int(target["provenance"]["proposal"]))
        if key not in truth:
            raise ValueError(f"bank line {lineno}: no ground truth for {key}")
        if key in matched:
            raise ValueError(f"bank line {lineno}: proposal {key} banked twice")
        matched[key] = iou_bev(target["box"], truth[key])
        costs.append(float(target["cost"]["total"]))
    ious = [matched.get(key, 0.0) for key in sorted(truth)]
    return {**score(ious, costs), "banked": len(matched), "instances": len(truth)}
