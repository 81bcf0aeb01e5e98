"""The output side: fitted targets and their JSONL bank on disk.

One bank line is one target. Key order and float formatting are fixed so
identical runs produce byte-identical files; that property is load-bearing
for reproducibility checks and is asserted in the acceptance suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .costfn import CostBreakdown
from .errors import as_bool, as_floats, as_str, from_mapping, reading
from .filters import AlignmentVerdict
from .geom import BoxParams


@dataclass(frozen=True)
class Provenance:
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
    embedding = {} if t.embedding is None else {"embedding": t.embedding.tolist()}
    return {
        "frame": frame_id,
        "box": asdict(t.box),
        "class": t.class_id,
        "cost": asdict(t.cost),
        "fit_for_alignment": bool(t.fit_for_alignment),
        **embedding,
        "provenance": asdict(t.provenance),
    }


def write_bank(bank: NovelObjectBank, path: str | Path) -> None:
    """Write one JSON object per line, frames in sorted order."""
    Path(path).write_text("".join(
        json.dumps(_target_to_obj(frame_id, t), separators=(",", ":")) + "\n"
        for frame_id in sorted(bank.frames) for t in bank.frames[frame_id]
    ))


def _parse_target(obj: dict) -> tuple[str, NovelObjectTarget]:
    embedding = obj.get("embedding")
    return as_str(obj["frame"], "frame"), NovelObjectTarget(
        box=from_mapping(BoxParams, obj["box"], "box"),
        class_id=as_str(obj["class"], "class"),
        cost=from_mapping(CostBreakdown, obj["cost"], "cost"),
        fit_for_alignment=as_bool(obj["fit_for_alignment"], "fit_for_alignment"),
        provenance=from_mapping(Provenance, obj["provenance"], "provenance"),
        embedding=None if embedding is None else as_floats(embedding, "embedding", (None,)),
    )


def read_bank(path: str | Path) -> NovelObjectBank:
    """Read a JSONL bank back; malformed lines fail with their line number."""
    frames: dict[str, list[NovelObjectTarget]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            with reading(f"{path}: line {lineno}"):
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                frame, target = _parse_target(obj)
            frames.setdefault(frame, []).append(target)
    return NovelObjectBank(frames)
