"""End-to-end annotation: scenes in, deduplicated target bank out.

Per frame: load the cloud and cameras, strip ground, cluster, associate
clusters with 2D proposals, fit a box to every matched pair, keep the best
fit per proposal, filter for alignment quality, and deduplicate with
rotated NMS. Frames are independent, so they can fan out over worker
processes; results are merged in frame order to keep output deterministic.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Iterable
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .assoc import CrossModalProposal, Proposal2D, associate, load_proposals
from .bank import NovelObjectBank, NovelObjectTarget, Provenance, read_bank, write_bank
from .config import PipelineConfig, config_fingerprint
from .costfn import AnchorRange, BoxCostBatch, adaptive_surface_clip
from .errors import UnknownClassError, ValidationError
from .filters import verdict
from .geom import iou_bev
from .optimizer import SearchResult, pso_search
from .sceneprep import (
    Scene,
    cluster_objects,
    clusters_from_labels,
    load_ground_mask,
    load_point_labels,
    load_scene,
    remove_ground,
)

# Order in which a held-out target gets attributed to a single reason.
REJECT_REASONS = ("occlusion", "resolution", "multi_view", "no_embedding")


def derive_pair_seed(seed: int, frame_id: str, pair_index: int) -> int:
    """Stable per-pair search seed from run seed, frame id, and pair position."""
    digest = hashlib.blake2s(frame_id.encode(), digest_size=4).digest()
    ss = np.random.SeedSequence([seed, int.from_bytes(digest, "big"), pair_index])
    return int(ss.generate_state(1, np.uint32)[0])


def fit_setup(pair: CrossModalProposal, config: PipelineConfig) -> tuple[AnchorRange, BoxCostBatch]:
    """Anchor range and cost kernel for fitting one pair under the run config.

    With ``surface_clip`` unset, the surface term's clip adapts to the pair's
    cluster range (see ``adaptive_surface_clip``).
    """
    try:
        anchor = config.anchors[pair.proposal.class_id]
    except KeyError:
        known = sorted(config.anchors)
        raise UnknownClassError(
            f"no anchor range for class {pair.proposal.class_id!r}; have {known}"
        ) from None
    c_surface = config.surface_clip
    if c_surface is None:
        c_surface = adaptive_surface_clip(pair.scene.ego, pair.cluster.centroid, anchor)
    weights = replace(config.weights, c_surface=c_surface)
    batch = BoxCostBatch(pair.points, pair.scene.ego, pair.proposal.box, pair.calib, weights)
    return anchor, batch


def fit_pair(pair: CrossModalProposal, config: PipelineConfig, seed: int) -> SearchResult:
    """Run the swarm search for one matched pair under the run config."""
    anchor, batch = fit_setup(pair, config)
    cfg = replace(config.swarm, seed=seed)
    return pso_search(batch.evaluate, pair.points, pair.ray, anchor, cfg)


Fit = tuple[SearchResult, CrossModalProposal]


def fit_proposal(
    scene: Scene, pairs: list[CrossModalProposal], config: PipelineConfig, index: int
) -> list[Fit]:
    """Swarm fits of every pair matched to proposal ``index``, in pair order.

    A pair's seed derives from its position among all of the frame's pairs,
    so fitting one proposal gives what annotating the whole frame gives it.
    """
    return [
        (fit_pair(pair, config, derive_pair_seed(config.seed, scene.frame_id, k)), pair)
        for k, pair in enumerate(pairs)
        if pair.proposal.index == index
    ]


def best_fit(fits: list[Fit]) -> Fit:
    """The fit with the lowest total cost; the earliest wins a tie."""
    return min(fits, key=lambda fit: fit[0].best_cost.total)


def nms(targets: list[NovelObjectTarget], iou_threshold: float) -> list[NovelObjectTarget]:
    """Greedy rotated NMS on ground-plane IoU, best (lowest) cost first.

    A target is suppressed when it overlaps an already kept target with IoU
    strictly above the threshold. Survivors keep their input order. Running
    the result through again changes nothing.
    """
    order = sorted(range(len(targets)), key=lambda i: (targets[i].cost.total, i))
    kept: list[int] = []
    for i in order:
        if all(iou_bev(targets[i].box, targets[j].box) <= iou_threshold for j in kept):
            kept.append(i)
    return [targets[i] for i in sorted(kept)]


def prepare_targets(
    scene: Scene, pairs: list[CrossModalProposal], config: PipelineConfig
) -> list[NovelObjectTarget]:
    """Fit, resolve per-proposal conflicts, filter, and deduplicate one frame.

    When several clusters matched the same proposal, only the fit with the
    lowest total cost survives. Filters never drop a target, they only
    withhold the alignment flag; NMS is what removes duplicates.
    """
    targets: list[NovelObjectTarget] = []
    for idx in sorted({pair.proposal.index for pair in pairs}):
        result, pair = best_fit(fit_proposal(scene, pairs, config, idx))
        vd = verdict(pair.proposal, result.best_box, pair.calib, config.thresholds)
        has_embedding = pair.proposal.embedding is not None
        targets.append(
            NovelObjectTarget(
                box=result.best_box,
                class_id=pair.proposal.class_id,
                cost=result.best_cost,
                fit_for_alignment=vd.fit_for_alignment and has_embedding,
                provenance=Provenance(scene.frame_id, pair.proposal.camera_id, idx),
                embedding=pair.proposal.embedding,
                verdict=vd,
            )
        )
    return nms(targets, config.nms_iou)


def reject_reason(t: NovelObjectTarget) -> str | None:
    """Why a banked target was held out of alignment, or None if it was fit."""
    if t.fit_for_alignment:
        return None
    if t.verdict is not None:
        if not t.verdict.not_occluded:
            return "occlusion"
        if not t.verdict.high_res:
            return "resolution"
        if not t.verdict.mv_aligned:
            return "multi_view"
    return "no_embedding"


def discover_frames(scenes_dir: str | Path) -> list[str]:
    """Frame ids under a scenes dir: every ``<id>.calib.json``, sorted."""
    scenes_dir = Path(scenes_dir)
    if not scenes_dir.is_dir():
        raise ValidationError(f"scenes directory not found: {scenes_dir}")
    ids = sorted(p.name[: -len(".calib.json")] for p in scenes_dir.glob("*.calib.json"))
    return ids


def load_clusters(scene: Scene, config: PipelineConfig):
    """Clusters for a frame: from a label sidecar if present, else computed."""
    labels_path = config.scenes_dir / f"{scene.frame_id}.ptlabels.txt"
    if labels_path.exists():
        labels = load_point_labels(labels_path, len(scene.cloud))
        return clusters_from_labels(scene.cloud, labels)
    mask_path = config.scenes_dir / f"{scene.frame_id}.ground.txt"
    if mask_path.exists():
        ground = load_ground_mask(mask_path, len(scene.cloud))
        object_idx = np.where(~ground)[0]
    else:
        _, object_idx = remove_ground(
            scene.cloud,
            cell_size=config.ground_cell,
            height_threshold=config.ground_height,
            refit_rounds=config.ground_refits,
            seed_quantile=config.ground_quantile,
        )
    return cluster_objects(scene.cloud, object_idx, config.cluster_eps, config.cluster_min_pts)


def check_classes(proposals: list[Proposal2D], config: PipelineConfig) -> None:
    """Fail before any fit when a proposal's class is missing from a class table."""
    tables = (("anchor range", config.anchors), ("tau_occ threshold", config.thresholds.tau_occ))
    for prop in proposals:
        for what, table in tables:
            if prop.class_id not in table:
                raise UnknownClassError(
                    f"proposal {prop.index}: no {what} for class {prop.class_id!r}; "
                    f"have {sorted(table)}"
                )


def associate_frame(
    config: PipelineConfig, frame_id: str
) -> tuple[Scene, list[CrossModalProposal], dict]:
    """Load one frame, check its proposal classes, cluster it, and pair
    proposals with clusters; returns (scene, pairs, counters)."""
    scene = load_scene(config.scenes_dir, frame_id)
    proposals_path = config.scenes_dir / f"{frame_id}.proposals.json"
    proposals = load_proposals(proposals_path) if proposals_path.exists() else []
    check_classes(proposals, config)
    clusters = load_clusters(scene, config)
    pairs = associate(
        scene,
        proposals,
        clusters,
        tau_match=config.tau_match,
        d_min=config.d_min,
        d_max=config.d_max,
        criterion=config.match_criterion,
    )
    stats = {
        "proposals": len(proposals),
        "clusters": len(clusters),
        "pairs": len(pairs),
        "had_proposal_file": proposals_path.exists(),
    }
    return scene, pairs, stats


def process_frame(config: PipelineConfig, frame_id: str) -> tuple[str, list[NovelObjectTarget], dict]:
    """Annotate one frame; returns (frame_id, targets, counters)."""
    scene, pairs, stats = associate_frame(config, frame_id)
    return frame_id, prepare_targets(scene, pairs, config), stats


def run_annotate(config: PipelineConfig) -> dict:
    """Annotate every frame under the configured scenes dir.

    Writes ``bank.jsonl`` and ``report.json`` into the output dir and
    returns the report. The bank is byte-identical across runs with the
    same config and inputs.
    """
    t0 = time.perf_counter()
    frame_ids = discover_frames(config.scenes_dir)
    results: list[tuple[str, list[NovelObjectTarget], dict]] = []
    if config.workers > 1 and len(frame_ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(frame_ids))) as ex:
            results = list(ex.map(partial(process_frame, config), frame_ids))
    else:
        results = [process_frame(config, fid) for fid in frame_ids]
    results.sort(key=lambda r: r[0])

    frames: dict[str, list[NovelObjectTarget]] = {}
    totals = {"proposals": 0, "clusters": 0, "pairs": 0}
    frames_missing_proposals: list[str] = []
    embed_dims: set[int] = set()
    for frame_id, targets, stats in results:
        frames[frame_id] = targets
        for key in totals:
            totals[key] += stats[key]
        if not stats["had_proposal_file"]:
            frames_missing_proposals.append(frame_id)
        for t in targets:
            if t.embedding is not None:
                embed_dims.add(len(t.embedding))
    if len(embed_dims) > 1:
        raise ValidationError(
            f"embedding dimension must be constant per run, saw {sorted(embed_dims)}"
        )

    bank = NovelObjectBank(frames)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    write_bank(bank, config.output_dir / "bank.jsonl")

    n_targets = len(bank)
    reasons = {"fit": 0, **{r: 0 for r in REJECT_REASONS}}
    for t in bank.all_targets():
        reason = reject_reason(t)
        reasons["fit" if reason is None else reason] += 1

    report = {
        "fingerprint": config_fingerprint(config),
        "frames": len(frame_ids),
        "frames_missing_proposals": frames_missing_proposals,
        "proposals": totals["proposals"],
        "clusters": totals["clusters"],
        "pairs": totals["pairs"],
        "targets": n_targets,
        "reasons": reasons,
        "fractions": {
            k: (round(v / n_targets, 4) if n_targets else 0.0) for k, v in reasons.items()
        },
        "per_class": _tally_classes(bank.all_targets()),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
    (config.output_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _tally_classes(targets: Iterable[NovelObjectTarget]) -> dict[str, dict[str, int]]:
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
        f"held out, occlusion: {pct('occlusion')}",
        f"held out, resolution: {pct('resolution')}",
        f"held out, multi-view: {pct('multi_view')}",
        f"held out, no embedding: {pct('no_embedding')}",
    ]
    if report.get("frames_missing_proposals"):
        lines.append(
            "frames without a proposal file: "
            + ", ".join(report["frames_missing_proposals"])
        )
    return "\n".join(lines)


def summarize_bank(path: str | Path) -> dict:
    """Counts from an existing bank file (for the report subcommand)."""
    bank = read_bank(path)
    n = len(bank)
    per_class = _tally_classes(bank.all_targets())
    fit = sum(d["fit"] for d in per_class.values())
    return {
        "path": str(path),
        "frames": len(bank.frames),
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
        f"frames: {summary['frames']}",
        f"targets: {n}",
        f"fit for alignment: {share}% ({fit})",
    ]
    for cls, d in summary["per_class"].items():
        lines.append(f"  {cls}: {d['targets']} targets, {d['fit']} fit")
    return "\n".join(lines)
