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

from .assoc import CrossModalProposal, load_proposals, ray_pair
from .config import PipelineConfig
from .errors import ValidationError, as_index, as_str, from_mapping, reading
from .geom import BoxParams, iou_bev
from .optimizer import greedy_search, pso_search
from .pipeline import check_classes, derive_pair_seed, discover_frames, fit_setup
from .sceneprep import clusters_from_labels, load_point_labels, load_scene


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
        for sidecar in (gt_path, labels_path):
            if not sidecar.exists():
                raise ValidationError(f"frame {frame_id}: benchmark needs {sidecar.name}")
        scene = load_scene(config.scenes_dir, frame_id)
        labels = load_point_labels(labels_path, len(scene.cloud))
        clusters = clusters_from_labels(scene.cloud, labels)
        proposals = load_proposals(config.scenes_dir / f"{frame_id}.proposals.json")
        check_classes(proposals, config)
        with reading(gt_path):
            entries = json.loads(gt_path.read_text())["instances"]
        if len(entries) != len(clusters):
            raise ValidationError(
                f"frame {frame_id}: {len(entries)} ground-truth instances but "
                f"{len(clusters)} labeled clusters"
            )
        for k, entry in enumerate(entries):
            with reading(f"frame {frame_id}: ground-truth instance {k}"):
                if not isinstance(entry, dict):
                    raise ValueError("entry is not an object")
                gt_box = from_mapping(BoxParams, entry["box"], "box")
                prop_index = as_index(entry["proposal_index"], len(proposals), "proposal_index")
                class_id = as_str(entry["class"], "class")
                key = as_str(entry.get("id", f"{frame_id}:{k}"), "id")
            pair, _ = ray_pair(proposals[prop_index], clusters[k], scene)
            instances.append(BenchInstance(key, class_id, pair, gt_box))
    return instances


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
