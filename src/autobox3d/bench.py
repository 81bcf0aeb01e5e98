"""Search-method benchmark over synthetic scenes with known boxes.

Loads ground-truth instances from a generated scene set, runs the swarm
search and the grid baseline at matched candidate budgets, and reports
final cost, ground-plane IoU against the true box, and wall time per run.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .assoc import CrossModalProposal, center_ray, load_proposals, points_to_ray_distances
from .config import PipelineConfig
from .errors import ValidationError
from .geom import BoxParams, iou_bev
from .optimizer import greedy_search, pso_search
from .pipeline import derive_pair_seed, discover_frames, fit_setup
from .sceneprep import clusters_from_labels, load_point_labels, load_scene


_BOX_KEYS = ("x", "y", "z", "l", "w", "h", "ry")


@dataclass(eq=False)
class BenchInstance:
    """One ground-truth object wired up as a ready-to-fit pair."""

    key: str
    class_id: str
    pair: CrossModalProposal
    gt_box: BoxParams


def load_bench_instances(config: PipelineConfig) -> list[BenchInstance]:
    """Every ground-truth instance under the scenes dir, in frame order.

    Requires the sidecars the synthetic generator writes: ``<id>.gt.json``
    with true boxes and ``<id>.ptlabels.txt`` tying points to instances.
    """
    instances: list[BenchInstance] = []
    for frame_id in discover_frames(config.scenes_dir):
        gt_path = config.scenes_dir / f"{frame_id}.gt.json"
        labels_path = config.scenes_dir / f"{frame_id}.ptlabels.txt"
        if not gt_path.exists():
            raise ValidationError(f"frame {frame_id}: benchmark needs {gt_path.name}")
        if not labels_path.exists():
            raise ValidationError(f"frame {frame_id}: benchmark needs {labels_path.name}")
        scene = load_scene(config.scenes_dir, frame_id)
        labels = load_point_labels(labels_path, len(scene.cloud))
        clusters = clusters_from_labels(scene.cloud, labels)
        proposals = load_proposals(config.scenes_dir / f"{frame_id}.proposals.json")
        try:
            gt = json.loads(gt_path.read_text())
            entries = gt["instances"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValidationError(f"{gt_path}: {exc}") from exc
        if len(entries) != len(clusters):
            raise ValidationError(
                f"frame {frame_id}: {len(entries)} ground-truth instances but "
                f"{len(clusters)} labeled clusters"
            )
        for k, entry in enumerate(entries):
            try:
                gt_box, prop_index, class_id = _gt_instance(entry, len(proposals))
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValidationError(
                    f"frame {frame_id}: ground-truth instance {k}: {detail}"
                ) from exc
            prop = proposals[prop_index]
            ray = center_ray(prop.box, scene.camera(prop.camera_id))
            cluster = clusters[k]
            pts = scene.cloud[cluster.point_indices]
            dist = float(points_to_ray_distances(pts, ray).min())
            pair = CrossModalProposal(prop, cluster, scene, dist, ray)
            instances.append(
                BenchInstance(
                    key=str(entry.get("id", f"{frame_id}:{k}")),
                    class_id=class_id,
                    pair=pair,
                    gt_box=gt_box,
                )
            )
    return instances


def _gt_instance(entry: dict, n_proposals: int) -> tuple[BoxParams, int, str]:
    """True box, proposal index and class of one ``gt.json`` instance."""
    if not isinstance(entry, dict):
        raise ValueError("entry is not an object")
    box = entry["box"]
    vals = [box[key] for key in _BOX_KEYS]
    for key, v in zip(_BOX_KEYS, vals):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"box {key} must be a number, got {v!r}")
    index = entry["proposal_index"]
    if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < n_proposals:
        raise ValueError(
            f"proposal_index must be an integer in [0, {n_proposals}), got {index!r}"
        )
    return BoxParams(*(float(v) for v in vals)), index, str(entry["class"])


def run_bench(
    config: PipelineConfig,
    methods: tuple[str, ...] = ("greedy", "adaptive"),
    budgets: tuple[int, ...] | None = None,
    instances: list[BenchInstance] | None = None,
) -> list[dict]:
    """Fit every instance with every method at every budget.

    Returns one row per run: instance, method, budget, final cost,
    ground-plane IoU against the true box, wall seconds. The adaptive
    search spends its budget as swarm_size x iterations; the greedy
    baseline scans the largest even grid inside the budget.
    """
    for m in methods:
        if m not in ("greedy", "adaptive"):
            raise ValidationError(f"unknown bench method {m!r}")
    if budgets is None:
        budgets = config.bench_budgets
    if instances is None:
        instances = load_bench_instances(config)
    rows: list[dict] = []
    for inst in instances:
        anchor, batch = fit_setup(inst.pair, config)
        for budget in budgets:
            for method in methods:
                t0 = time.perf_counter()
                if method == "greedy":
                    result = greedy_search(batch.evaluate, inst.pair.points, anchor, budget)
                else:
                    n_iter = max(1, budget // config.swarm.n_swarm)
                    seed = derive_pair_seed(config.seed, f"bench:{inst.key}", budget)
                    cfg = replace(config.swarm, n_iter=n_iter, seed=seed)
                    result = pso_search(
                        batch.evaluate, inst.pair.points, inst.pair.ray, anchor, cfg
                    )
                rows.append(
                    {
                        "instance": inst.key,
                        "method": method,
                        "budget": budget,
                        "cost": result.best_cost.total,
                        "bev_iou": iou_bev(result.best_box, inst.gt_box),
                        "wall_time": time.perf_counter() - t0,
                    }
                )
    return rows


def write_bench_csv(rows: list[dict], path: str | Path) -> None:
    fields = ["instance", "method", "budget", "cost", "bev_iou", "wall_time"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})
