"""The output side: fitted targets and their JSONL bank on disk.

One bank line is one target. Key order and float formatting are fixed so
identical runs produce byte-identical files; that property is load-bearing
for reproducibility checks and is asserted in the acceptance suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .costfn import CostBreakdown
from .errors import ValidationError
from .filters import AlignmentVerdict
from .geom import BoxParams


class Provenance(NamedTuple):
    """Where a target came from: frame, camera, and proposal index."""

    frame: str
    camera: str
    proposal: int


@dataclass(eq=False)
class NovelObjectTarget:
    """One auto-annotated object.

    ``fit_for_alignment`` says whether the crop passed the alignment
    filters and carries an embedding. ``verdict`` keeps the per-filter
    outcome for reporting and never gets serialized.
    """

    box: BoxParams
    class_id: str
    cost: CostBreakdown
    fit_for_alignment: bool
    provenance: Provenance
    embedding: np.ndarray | None = None
    verdict: AlignmentVerdict | None = None

    def __post_init__(self) -> None:
        if self.embedding is not None:
            self.embedding = np.asarray(self.embedding, dtype=float)


@dataclass(eq=False)
class NovelObjectBank:
    """All targets of a run, grouped per frame."""

    frames: dict[str, list[NovelObjectTarget]]

    def all_targets(self) -> Iterator[NovelObjectTarget]:
        for frame_id in sorted(self.frames):
            yield from self.frames[frame_id]

    def __len__(self) -> int:
        return sum(len(v) for v in self.frames.values())


def _target_to_obj(frame_id: str, t: NovelObjectTarget) -> dict:
    obj = {
        "frame": frame_id,
        "box": {
            "x": t.box.x, "y": t.box.y, "z": t.box.z,
            "l": t.box.l, "w": t.box.w, "h": t.box.h, "ry": t.box.ry,
        },
        "class": t.class_id,
        "cost": {
            "density": t.cost.density,
            "lshape": t.cost.lshape,
            "surface": t.cost.surface,
            "iou2d": t.cost.iou2d,
            "total": t.cost.total,
        },
        "fit_for_alignment": bool(t.fit_for_alignment),
    }
    if t.embedding is not None:
        obj["embedding"] = [float(v) for v in t.embedding]
    obj["provenance"] = {
        "frame": t.provenance.frame,
        "camera": t.provenance.camera,
        "proposal": t.provenance.proposal,
    }
    return obj


def write_bank(bank: NovelObjectBank, path: str | Path) -> None:
    """Write one JSON object per line, frames in sorted order."""
    path = Path(path)
    lines = []
    for frame_id in sorted(bank.frames):
        for t in bank.frames[frame_id]:
            lines.append(json.dumps(_target_to_obj(frame_id, t), separators=(",", ":")))
    path.write_text("".join(line + "\n" for line in lines))


def _parse_target(obj: dict) -> tuple[str, NovelObjectTarget]:
    frame = str(obj["frame"])
    b = obj["box"]
    box = BoxParams(
        float(b["x"]), float(b["y"]), float(b["z"]),
        float(b["l"]), float(b["w"]), float(b["h"]), float(b["ry"]),
    )
    c = obj["cost"]
    cost = CostBreakdown(
        float(c["density"]), float(c["lshape"]), float(c["surface"]),
        float(c["iou2d"]), float(c["total"]),
    )
    p = obj["provenance"]
    provenance = Provenance(str(p["frame"]), str(p["camera"]), int(p["proposal"]))
    embedding = obj.get("embedding")
    if embedding is not None:
        embedding = np.asarray(embedding, dtype=float)
    return frame, NovelObjectTarget(
        box=box,
        class_id=str(obj["class"]),
        cost=cost,
        fit_for_alignment=bool(obj["fit_for_alignment"]),
        provenance=provenance,
        embedding=embedding,
    )


def read_bank(path: str | Path) -> NovelObjectBank:
    """Read a JSONL bank back; malformed lines fail with their line number."""
    path = Path(path)
    frames: dict[str, list[NovelObjectTarget]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                frame, target = _parse_target(obj)
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValidationError(f"{path}: line {lineno}: {detail}") from exc
            frames.setdefault(frame, []).append(target)
    return NovelObjectBank(frames)
