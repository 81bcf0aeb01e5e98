"""The output side: fitted targets and their JSONL bank on disk.

One bank line is one target. Key order and float formatting are fixed so
identical runs produce byte-identical files; that property is load-bearing
for reproducibility checks and is asserted in the acceptance suite.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .costfn import CostBreakdown
from .errors import as_bool, as_floats, as_str, read_record, reading
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


def _target_to_obj(t: NovelObjectTarget) -> dict:
    embedding = {} if t.embedding is None else {"embedding": t.embedding.tolist()}
    return {
        "frame": t.provenance.frame,
        "box": asdict(t.box),
        "class": t.class_id,
        "cost": asdict(t.cost),
        "fit_for_alignment": bool(t.fit_for_alignment),
        **embedding,
        "provenance": asdict(t.provenance),
    }


def write_bank(targets: list[NovelObjectTarget], path: str | Path) -> None:
    """Write one JSON object per line, frames in sorted order; targets of one
    frame keep their list order."""
    Path(path).write_text("".join(
        json.dumps(_target_to_obj(t), separators=(",", ":")) + "\n"
        for t in sorted(targets, key=lambda t: t.provenance.frame)
    ))


def _parse_target(obj: dict) -> NovelObjectTarget:
    embedding = obj.get("embedding")
    target = NovelObjectTarget(
        box=read_record(BoxParams, obj["box"], "box"),
        class_id=as_str(obj["class"], "class"),
        cost=read_record(CostBreakdown, obj["cost"], "cost"),
        fit_for_alignment=as_bool(obj["fit_for_alignment"], "fit_for_alignment"),
        provenance=read_record(Provenance, obj["provenance"], "provenance"),
        embedding=None if embedding is None else as_floats(embedding, "embedding", (None,)),
    )
    frame = as_str(obj["frame"], "frame")
    if frame != target.provenance.frame:
        raise ValueError(
            f"frame {frame!r} differs from provenance.frame {target.provenance.frame!r}"
        )
    return target


def read_bank(path: str | Path) -> list[NovelObjectTarget]:
    """Read a JSONL bank back as its targets in file order; malformed lines,
    and lines whose frame is not their provenance frame, fail with their line
    number."""
    targets: list[NovelObjectTarget] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            with reading(f"{path}: line {lineno}"):
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError("line is not a JSON object")
                targets.append(_parse_target(obj))
    return targets
