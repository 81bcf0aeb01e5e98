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
from functools import partial
from pathlib import Path

import numpy as np

from .assoc import CrossModalProposal, Proposal2D, associate, load_proposals
from .bank import NovelObjectTarget, Provenance, read_bank, write_bank
from .config import PipelineConfig, config_fingerprint
from .costfn import BoxCostBatch, adaptive_surface_clip
from .errors import UnknownClassError, ValidationError, make_output_dir
from .filters import verdict
from .geom import CameraCalib, EgoPose, iou_bev
from .optimizer import SearchResult, SwarmStart, pso_search
from .sceneprep import (
    Scene,
    cluster_objects,
    clusters_from_labels,
    load_calib,
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


def fit_pair(
    pair: CrossModalProposal, config: PipelineConfig, seed: int
) -> tuple[SwarmStart, BoxCostBatch]:
    """Swarm start, seeded with ``seed``, and cost kernel for fitting one
    pair under the run config.

    The surface term's clip adapts to the pair's cluster range (see
    ``adaptive_surface_clip``).
    """
    anchor = config.anchors[pair.proposal.class_id]
    c_surface = adaptive_surface_clip(pair.scene.ego, pair.points.mean(axis=0), anchor)
    batch = BoxCostBatch(
        pair.points, pair.scene.ego, pair.proposal.box, pair.calib, config.weights, c_surface
    )
    return SwarmStart(pair.points, pair.nearest, anchor, seed), batch


Fit = tuple[SearchResult, CrossModalProposal]


def fit_proposal(
    scene: Scene, pairs: list[CrossModalProposal], config: PipelineConfig, index: int | None = None
) -> list[Fit]:
    """Swarm fits of every pair matched to proposal ``index`` (of every pair
    when None), in pair order, as one lockstep search.

    A pair's seed derives from its position among all of the frame's pairs,
    and a lockstep fit equals a separate one, so fitting one proposal gives
    what annotating the whole frame gives it.
    """
    chosen = [(k, pair) for k, pair in enumerate(pairs) if index in (None, pair.proposal.index)]
    if not chosen:
        return []
    starts, batches = zip(*[
        fit_pair(pair, config, derive_pair_seed(config.seed, scene.frame_id, k))
        for k, pair in chosen
    ])
    results = pso_search(BoxCostBatch.join(batches).evaluate, list(starts), config.swarm)
    return [(result, pair) for result, (_, pair) in zip(results, chosen)]


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

    All of the frame's pairs are fitted in one lockstep search. When
    several clusters matched the same proposal, only the fit with the
    lowest total cost survives. Filters never drop a target, they only
    withhold the alignment flag; NMS is what removes duplicates.
    """
    fits = fit_proposal(scene, pairs, config)
    targets: list[NovelObjectTarget] = []
    for idx in sorted({pair.proposal.index for pair in pairs}):
        result, pair = best_fit([fit for fit in fits if fit[1].proposal.index == idx])
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


def check_classes(proposals: list[Proposal2D], config: PipelineConfig, source: str) -> None:
    """Fail before any fit when a proposal's class is missing from a class table,
    naming the ``source`` the proposals came from. The one class check: past
    it, the fit and the filters index the tables."""
    tables = (("anchor range", config.anchors), ("tau_occ threshold", config.thresholds.tau_occ))
    for prop in proposals:
        for what, table in tables:
            if prop.class_id not in table:
                raise UnknownClassError(
                    f"{source}: proposal {prop.index}: no {what} for class {prop.class_id!r}; "
                    f"have {sorted(table)}"
                )


def frame_proposals(config: PipelineConfig, frame_id: str) -> list[Proposal2D] | None:
    """A frame's proposals; None when it has no proposal file."""
    path = config.scenes_dir / f"{frame_id}.proposals.json"
    return load_proposals(path) if path.exists() else None


Calib = tuple[EgoPose, list[CameraCalib]]


def frame_calib(config: PipelineConfig, frame_id: str, proposals: list[Proposal2D]) -> Calib:
    """A frame's ego pose and cameras, read once, after checking that every
    one of its ``proposals`` names one of those cameras."""
    ego, cameras = load_calib(config.scenes_dir, frame_id)
    known = Scene(frame_id, np.zeros((0, 3)), ego, cameras)
    for prop in proposals:
        known.camera(prop.camera_id)  # fails on a camera the calib lacks
    return ego, cameras


def associate_frame(
    config: PipelineConfig, frame_id: str, proposals: list[Proposal2D], calib: Calib
) -> tuple[Scene, list[CrossModalProposal], dict]:
    """Load one frame with its ``calib``, cluster it, and pair its
    ``proposals`` with clusters; returns (scene, pairs, counters)."""
    scene = load_scene(config.scenes_dir, frame_id, *calib)
    clusters = load_clusters(scene, config)
    pairs = associate(scene, proposals, clusters, config.association)
    return scene, pairs, {"clusters": len(clusters), "pairs": len(pairs)}


def process_frame(
    config: PipelineConfig, frame_id: str, proposals: list[Proposal2D], calib: Calib
) -> tuple[list[NovelObjectTarget], dict]:
    """Annotate one frame with its ``proposals``; returns (targets, counters)."""
    scene, pairs, stats = associate_frame(config, frame_id, proposals, calib)
    return prepare_targets(scene, pairs, config), stats


def run_annotate(config: PipelineConfig) -> dict:
    """Annotate every frame under the configured scenes dir.

    Writes ``bank.jsonl`` and ``report.json`` into the output dir and
    returns the report. The bank is byte-identical across runs with the
    same config and inputs. The output dir is made, and every frame's proposal
    classes, cameras and embedding dimensions are checked, before any fit.
    """
    t0 = time.perf_counter()
    make_output_dir(config.output_dir)
    frame_ids = discover_frames(config.scenes_dir)
    loaded = [frame_proposals(config, fid) for fid in frame_ids]
    frames_missing_proposals = [fid for fid, props in zip(frame_ids, loaded) if props is None]
    proposals = [props or [] for props in loaded]
    calibs = []
    for fid, props in zip(frame_ids, proposals):
        check_classes(props, config, f"frame {fid}")
        calibs.append(frame_calib(config, fid, props))
    embed_dims = {len(p.embedding) for props in proposals for p in props if p.embedding is not None}
    if len(embed_dims) > 1:
        raise ValidationError(
            f"embedding dimension must be constant per run, saw {sorted(embed_dims)}"
        )
    if config.workers > 1 and len(frame_ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(frame_ids))) as ex:
            results = list(ex.map(partial(process_frame, config), frame_ids, proposals, calibs))
    else:
        results = list(map(partial(process_frame, config), frame_ids, proposals, calibs))

    bank = [t for targets, _ in results for t in targets]
    write_bank(bank, config.output_dir / "bank.jsonl")
    reasons = {"fit": 0, **{r: 0 for r in REJECT_REASONS}}
    for t in bank:
        reason = reject_reason(t)
        reasons["fit" if reason is None else reason] += 1

    report = {
        "fingerprint": config_fingerprint(config),
        "frames": len(frame_ids),
        "frames_missing_proposals": frames_missing_proposals,
        "proposals": sum(map(len, proposals)),
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
