"""Search-method benchmark over synthetic scenes with known boxes.

Loads ground-truth instances from a generated scene set, runs the swarm
search and the grid baseline at matched candidate budgets, and reports
final cost, ground-plane IoU against the true box, and wall-time share per run.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from .assoc import CrossModalProposal, load_proposals, ray_pairs
from .config import PipelineConfig
from .costfn import BoxCostBatch
from .errors import ValidationError, as_index, as_str, read_record, reading
from .geom import BoxParams, iou_bev
from .optimizer import greedy_search, pso_search
from .pipeline import check_classes, derive_pair_seed, discover_frames, fit_pair
from .sceneprep import clusters_from_labels, load_calib, load_point_labels, load_scene


@dataclass(eq=False)
class BenchInstance:
    """One ground-truth object wired up as a ready-to-fit pair."""

    key: str
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
        scene = load_scene(config.scenes_dir, frame_id, *load_calib(config.scenes_dir, frame_id))
        clusters = clusters_from_labels(load_point_labels(labels_path, len(scene.cloud)))
        proposals = load_proposals(config.scenes_dir / f"{frame_id}.proposals.json")
        with reading(gt_path):
            entries = json.loads(gt_path.read_text())["instances"]
            if not isinstance(entries, list):
                raise ValueError(f"instances must be a list, got {entries!r}")
        if len(entries) != len(clusters):
            raise ValidationError(
                f"frame {frame_id}: {len(entries)} ground-truth instances but "
                f"{len(clusters)} labeled clusters"
            )
        for k, entry in enumerate(entries):
            with reading(f"{gt_path}: ground-truth instance {k}"):
                if not isinstance(entry, dict):
                    raise ValueError("entry is not an object")
                gt_box = read_record(BoxParams, entry["box"], "box")
                prop_index = as_index(entry["proposal_index"], len(proposals), "proposal_index")
                class_id = as_str(entry["class"], "class")
                if class_id != proposals[prop_index].class_id:
                    raise ValueError(f"class {class_id!r} but proposal {prop_index} "
                                     f"has class {proposals[prop_index].class_id!r}")
                key = as_str(entry.get("id", f"{frame_id}:{k}"), "id")
            [(pair, _)] = ray_pairs([proposals[prop_index]], [clusters[k]], scene)
            instances.append(BenchInstance(key, pair, gt_box))
    return instances


def run_bench(
    config: PipelineConfig,
    methods: tuple[str, ...] = ("greedy", "adaptive"),
    budgets: tuple[int, ...] | None = None,
    instances: list[BenchInstance] | None = None,
) -> list[dict]:
    """Fit every instance with every method at every budget.

    Returns one row per run, in (budget, method, instance) order: instance,
    method, budget, final cost, ground-plane IoU against the true box, and
    the row's share of its (budget, method) pass in wall seconds. The
    adaptive search spends its budget as swarm_size x iterations, with all
    instances' swarms in lockstep; the greedy baseline scans the largest
    even grid inside the budget.
    """
    for m in methods:
        if m not in ("greedy", "adaptive"):
            raise ValidationError(f"unknown bench method {m!r}")
    if budgets is None:
        budgets = config.bench.budgets
    if instances is None:
        instances = load_bench_instances(config)
    for inst in instances:
        check_classes([inst.pair.proposal], config, f"instance {inst.key}")
    if not instances:
        return []
    rows: list[dict] = []
    for budget in budgets:
        starts, batches = zip(*[
            fit_pair(inst.pair, config, derive_pair_seed(config.seed, f"bench:{inst.key}", budget))
            for inst in instances
        ])
        for method in methods:
            t0 = time.perf_counter()
            if method == "greedy":
                results = [
                    greedy_search(batch.evaluate, start.points, start.anchor, budget)
                    for start, batch in zip(starts, batches)
                ]
            else:
                cfg = replace(config.swarm, n_iter=max(1, budget // config.swarm.n_swarm))
                results = pso_search(BoxCostBatch.join(batches).evaluate, list(starts), cfg)
            share = (time.perf_counter() - t0) / len(instances)
            rows += [
                {"instance": inst.key, "method": method, "budget": budget,
                 "cost": result.best_cost.total, "bev_iou": iou_bev(result.best_box, inst.gt_box),
                 "wall_time": share}
                for inst, result in zip(instances, results)
            ]
    return rows


def write_bench_csv(rows: list[dict], path: str | Path) -> None:
    fields = ["instance", "method", "budget", "cost", "bev_iou", "wall_time"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})
