"""End-to-end annotation: scenes in, deduplicated target bank out.

Per frame: load the cloud and cameras, strip ground, cluster, and associate
clusters with 2D proposals; then ``decide_frame`` fits a box to every
matched pair, keeps each proposal's best fit, filters it for alignment
quality, and deduplicates with rotated NMS. Frames are independent, so they
can fan out over worker processes; results are merged in frame order to
keep output deterministic.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .assoc import CrossModalProposal, Proposal2D, associate, load_proposals
from .bank import NovelObjectTarget, Provenance, read_bank, write_bank
from .config import PipelineConfig, config_fingerprint
from .costfn import BoxCostBatch, adaptive_surface_clip
from .errors import UnknownClassError, ValidationError, make_output_dir
from .filters import REJECT_REASONS, verdict
from .geom import CameraCalib, EgoPose, iou_bev
from .optimizer import SearchResult, SwarmStart, pso_search
from .sceneprep import (
    Scene,
    cluster_objects,
    cloud_path,
    clusters_from_labels,
    discover_frames,
    load_calib,
    load_ground_mask,
    load_point_labels,
    load_scene,
    remove_ground,
)


def derive_pair_seed(seed: int, frame_id: str, pair_index: int) -> int:
    """Stable per-pair search seed from run seed, frame id, and pair position."""
    digest = hashlib.blake2s(frame_id.encode(), digest_size=4).digest()
    ss = np.random.SeedSequence([seed, int.from_bytes(digest, "big"), pair_index])
    return int(ss.generate_state(1, np.uint32)[0])


def fit_pair(
    pair: CrossModalProposal, config: PipelineConfig, seed: int
) -> tuple[SwarmStart, BoxCostBatch]:
    """Swarm start, seeded with ``seed``, and cost kernel for fitting one
    pair under the run config.

    The surface term's clip adapts to the pair's cluster range (see
    ``adaptive_surface_clip``).
    """
    anchor = config.anchors[pair.proposal.class_id]
    c_surface = adaptive_surface_clip(pair.ego, pair.points.mean(axis=0), anchor)
    batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box, pair.calib,
                         config.weights, c_surface)
    return SwarmStart(pair.points, pair.nearest, anchor, seed), batch


Fit = tuple[SearchResult, CrossModalProposal]


@dataclass(frozen=True)
class ProposalRecord:
    """The frame decision for one proposal: its ``fits`` ranked by (total cost, pair
    order), the ``target`` built from the first, and ``suppressed_by``, the proposal
    index of the target whose NMS removed this one, or None when it is banked."""

    fits: list[Fit]
    target: NovelObjectTarget
    suppressed_by: int | None


def nms(targets: list[NovelObjectTarget], iou_threshold: float) -> list[int | None]:
    """Greedy rotated NMS on ground-plane IoU, best (lowest) cost first.

    A target is suppressed by the first kept target it overlaps with IoU
    strictly above the threshold. Returns, for each target, the index of the
    kept target that suppressed it, or None when it is kept; run through
    again, the survivors are all kept.
    """
    order = sorted(range(len(targets)), key=lambda i: (targets[i].cost.total, i))
    kept: list[int] = []
    suppressed_by: list[int | None] = [None] * len(targets)
    for i in order:
        suppressed_by[i] = next(
            (j for j in kept if iou_bev(targets[i].box, targets[j].box) > iou_threshold), None
        )
        if suppressed_by[i] is None:
            kept.append(i)
    return suppressed_by


def decide_frame(
    scene: Scene, pairs: list[CrossModalProposal], config: PipelineConfig
) -> list[ProposalRecord]:
    """The frame decision: one record per matched proposal, in proposal order.

    All of the frame's pairs are fitted in one lockstep search, each seeded
    by its position among them. Filters never drop a target, they only
    withhold the alignment flag; NMS is what removes duplicates.
    """
    by_proposal: dict[int, list[Fit]] = {}
    if pairs:
        starts, batches = zip(*[
            fit_pair(pair, config, derive_pair_seed(config.seed, scene.frame_id, k))
            for k, pair in enumerate(pairs)
        ])
        results = pso_search(BoxCostBatch.join(batches).evaluate, list(starts), config.swarm)
        for result, pair in zip(results, pairs):
            by_proposal.setdefault(pair.proposal.index, []).append((result, pair))
    ranked = [sorted(fits, key=lambda fit: fit[0].best_cost.total)
              for _, fits in sorted(by_proposal.items())]
    targets = []
    for fits in ranked:
        result, pair = fits[0]
        vd = verdict(pair.proposal, result.best_box, pair.calib, config.thresholds)
        targets.append(NovelObjectTarget(
            box=result.best_box,
            class_id=pair.proposal.class_id,
            cost=result.best_cost,
            fit_for_alignment=vd.fit_for_alignment,
            provenance=Provenance(scene.frame_id, pair.proposal.camera_id, pair.proposal.index),
            embedding=pair.proposal.embedding,
            verdict=vd,
        ))
    return [
        ProposalRecord(fits, target, None if by is None else targets[by].provenance.proposal)
        for fits, target, by in zip(ranked, targets, nms(targets, config.nms_iou))
    ]


def prepare_targets(
    scene: Scene, pairs: list[CrossModalProposal], config: PipelineConfig
) -> list[NovelObjectTarget]:
    """The targets of one frame that ``decide_frame`` banks, in proposal order."""
    return [r.target for r in decide_frame(scene, pairs, config) if r.suppressed_by is None]


def load_clusters(scene: Scene, config: PipelineConfig) -> list[np.ndarray]:
    """Clusters for a frame, as index arrays into its cloud: from a label
    sidecar if present, else computed."""
    labels_path = config.scenes_dir / f"{scene.frame_id}.ptlabels.txt"
    if labels_path.exists():
        return clusters_from_labels(load_point_labels(labels_path, len(scene.cloud)))
    mask_path = config.scenes_dir / f"{scene.frame_id}.ground.txt"
    if mask_path.exists():
        ground = load_ground_mask(mask_path, len(scene.cloud))
        object_idx = np.where(~ground)[0]
    else:
        _, object_idx = remove_ground(scene.cloud, config.ground)
    return cluster_objects(scene.cloud, object_idx, config.clustering)


def read_frame(
    config: PipelineConfig, frame_id: str
) -> tuple[list[Proposal2D] | None, EgoPose, dict[str, CameraCalib]]:
    """A frame's proposals (None without a proposal file), ego pose and cameras
    by id, each file read once, after checking every proposal's class and camera
    and that the frame has a cloud file. The one proposal check: past it, the fit
    indexes ``config.anchors`` (and the filters ``tau_occ``, kept in step)."""
    path = config.scenes_dir / f"{frame_id}.proposals.json"
    proposals = load_proposals(path) if path.exists() else None
    ego, cameras = load_calib(config.scenes_dir, frame_id)
    for prop in proposals or []:
        if prop.class_id not in config.anchors:
            raise UnknownClassError(
                f"frame {frame_id}: proposal {prop.index}: no anchor range for class "
                f"{prop.class_id!r}; have {sorted(config.anchors)}"
            )
        if prop.camera_id not in cameras:
            raise ValidationError(
                f"frame {frame_id}: unknown camera {prop.camera_id!r}, have {sorted(cameras)}"
            )
    cloud_path(config.scenes_dir, frame_id)  # fails when the frame has no cloud file
    return proposals, ego, cameras


def associate_frame(
    config: PipelineConfig, frame_id: str, frame: tuple
) -> tuple[Scene, list[CrossModalProposal], dict]:
    """Load, cluster and associate a ``frame`` from ``read_frame`` that has a
    proposal list; returns (scene, pairs, counters)."""
    proposals, ego, cameras = frame
    scene = load_scene(config.scenes_dir, frame_id, ego, cameras)
    clusters = load_clusters(scene, config)
    pairs = associate(scene, proposals, clusters, config.association)
    return scene, pairs, {"clusters": len(clusters), "pairs": len(pairs)}


def process_frame(
    config: PipelineConfig, frame_id: str, frame: tuple
) -> tuple[list[NovelObjectTarget], dict]:
    """Annotate a ``frame`` from ``read_frame``; returns (targets, counters). A
    frame without proposals can bank nothing, so its cloud is never read."""
    if not frame[0]:
        return [], {"clusters": 0, "pairs": 0}
    scene, pairs, stats = associate_frame(config, frame_id, frame)
    return prepare_targets(scene, pairs, config), stats


def run_annotate(config: PipelineConfig) -> dict:
    """Annotate every frame under the configured scenes dir.

    Writes ``bank.jsonl`` and ``report.json`` into the output dir and
    returns the report. The bank is byte-identical across runs with the
    same config and inputs. Before any fit, the output dir is made, every
    frame is read by ``read_frame``, and the embedding dimension is checked
    across the run: the bank holds one, that of the first embedding. The
    report's ``clusters`` and ``pairs`` count only the frames with proposals.
    """
    t0 = time.perf_counter()
    make_output_dir(config.output_dir)
    frame_ids = discover_frames(config.scenes_dir)
    frames = [read_frame(config, fid) for fid in frame_ids]
    frames_missing_proposals = [fid for fid, frame in zip(frame_ids, frames) if frame[0] is None]
    proposals = [p for props, _, _ in frames for p in props or []]
    dims = [(f"frame {fid}: proposal {p.index}", len(p.embedding))
            for fid, (props, _, _) in zip(frame_ids, frames)
            for p in props or [] if p.embedding is not None]
    for where, dim in dims:
        if dim != dims[0][1]:
            raise ValidationError(
                f"{where}: embedding dimension {dim} differs from {dims[0][1]} ({dims[0][0]})"
            )
    if config.workers > 1 and len(frame_ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(frame_ids))) as ex:
            results = list(ex.map(partial(process_frame, config), frame_ids, frames))
    else:
        results = list(map(partial(process_frame, config), frame_ids, frames))

    bank = [t for targets, _ in results for t in targets]
    write_bank(bank, config.output_dir / "bank.jsonl")
    reasons = {"fit": 0, **{r: 0 for r in REJECT_REASONS}}
    for t in bank:
        reasons[t.verdict.reason or "fit"] += 1

    report = {
        "fingerprint": config_fingerprint(config),
        "frames": len(frame_ids),
        "frames_missing_proposals": frames_missing_proposals,
        "proposals": len(proposals),
        "clusters": sum(stats["clusters"] for _, stats in results),
        "pairs": sum(stats["pairs"] for _, stats in results),
        "targets": len(bank),
        "reasons": reasons,
        "fractions": {
            k: (round(v / len(bank), 4) if bank else 0.0) for k, v in reasons.items()
        },
        "per_class": _tally_classes(bank),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    (config.output_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _tally_classes(targets: list[NovelObjectTarget]) -> dict[str, dict[str, int]]:
    """Banked and fit-for-alignment target counts per class, in class order."""
    per_class: dict[str, dict[str, int]] = {}
    for t in targets:
        cls = per_class.setdefault(t.class_id, {"targets": 0, "fit": 0})
        cls["targets"] += 1
        if t.fit_for_alignment:
            cls["fit"] += 1
    return dict(sorted(per_class.items()))


def format_report(report: dict) -> str:
    """Human-readable run summary with one line per held-out reason."""
    n = report["targets"]

    def pct(k: str) -> str:
        count = report["reasons"][k]
        share = round(100.0 * count / n) if n else 0
        return f"{share}% ({count})"

    lines = [
        f"targets banked: {n} "
        f"(from {report['pairs']} pairs, {report['proposals']} proposals, "
        f"{report['frames']} frames)",
        f"fit for alignment: {pct('fit')}",
        *(f"held out, {r}: {pct(r)}" for r in REJECT_REASONS),
    ]
    if report.get("frames_missing_proposals"):
        lines.append(
            "frames without a proposal file: "
            + ", ".join(report["frames_missing_proposals"])
        )
    return "\n".join(lines)


def summarize_bank(path: str | Path) -> dict:
    """Counts from an existing bank file (for the report subcommand); the bank
    has no line for a frame without targets, so only the others are counted."""
    bank = read_bank(path)
    n = len(bank)
    per_class = _tally_classes(bank)
    fit = sum(d["fit"] for d in per_class.values())
    return {
        "path": str(path),
        "frames_with_targets": len({t.provenance.frame for t in bank}),
        "targets": n,
        "fit_for_alignment": fit,
        "fit_fraction": round(fit / n, 4) if n else 0.0,
        "per_class": per_class,
    }


def format_bank_summary(summary: dict) -> str:
    n = summary["targets"]
    fit = summary["fit_for_alignment"]
    share = round(100.0 * fit / n) if n else 0
    lines = [
        f"bank: {summary['path']}",
        f"frames with targets: {summary['frames_with_targets']}",
        f"targets: {n}",
        f"fit for alignment: {share}% ({fit})",
    ]
    for cls, d in summary["per_class"].items():
        lines.append(f"  {cls}: {d['targets']} targets, {d['fit']} fit")
    return "\n".join(lines)
