"""Fresh-process side of the benchmark: generate inputs, set up, measure.

``run.py`` starts one process per step, with BLAS pinned to one thread and
the program's ``src`` on ``PYTHONPATH``. Each step writes one JSON file and
prints nothing on standard output.

    child.py gen     WORKLOAD WORKDIR --seed N --out OUT
    child.py setup   WORKLOAD WORKDIR --out OUT --t-spawn T
    child.py measure WORKLOAD WORKDIR --out OUT --t-spawn T --seconds S --trace 0|1

``--t-spawn`` is the parent's ``time.monotonic()`` just before it started
this process; both read the same system-wide clock, so set-up time counts
from before the interpreter starts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

from tracer import Tracer
from workloads import SPANS, TOP_STAGES, WORKLOADS

SETUP_SPANS = {"config.load_config", "bench.load_bench_instances"}
MAX_MEASURE_S = 120.0


def generate_inputs(name: str, seed: int, workdir: Path) -> dict:
    """Write the workload's corpus, config and per-frame scene dirs."""
    import numpy as np

    from autobox3d.sceneprep import load_cloud, load_point_labels
    from autobox3d.synth import SynthClassSpec, SynthSpec, generate

    wl = WORKLOADS[name]
    synth = dict(wl["synth"])
    cars = synth.pop("cars")
    spec = SynthSpec(
        seed=seed + wl["seed_offset"],
        classes=[SynthClassSpec(name="car", count=cars, distance_min=5.0, distance_max=40.0)],
        **synth,
    )
    corpus = workdir / "corpus"
    generate(spec, corpus)

    frame_ids = sorted(p.name[: -len(".calib.json")] for p in corpus.glob("*.calib.json"))
    points, object_points, proposals = {}, [], 0
    for fid in frame_ids:
        cloud = load_cloud(corpus / f"{fid}.bin")
        labels = load_point_labels(corpus / f"{fid}.ptlabels.txt", len(cloud))
        points[fid] = len(cloud)
        object_points.append(int(np.count_nonzero(labels >= 0)))
        proposals += len(json.loads((corpus / f"{fid}.proposals.json").read_text()))
        if not wl["keep_labels"]:
            (corpus / f"{fid}.ptlabels.txt").unlink()

    scenes = corpus
    if wl["kind"] == "annotate":
        # One scenes dir per frame, so that each frame is one timed
        # run_annotate call. Ground truth stays behind for the scorer.
        scenes = workdir / "frames"
        for fid in frame_ids:
            frame_dir = scenes / fid
            frame_dir.mkdir(parents=True)
            for path in corpus.glob(f"{fid}.*"):
                if not path.name.endswith(".gt.json"):
                    shutil.move(str(path), frame_dir / path.name)

    config = {**wl["config"], "paths": {"scenes": str(scenes), "output": str(workdir / "out")}}
    # JSON is YAML, which load_config reads.
    (workdir / "config.yaml").write_text(json.dumps(config, indent=1) + "\n")
    return {
        "frames": len(frame_ids),
        "frame_points": points,
        "points_per_frame": statistics.mean(points.values()),
        "object_points_per_frame": statistics.mean(object_points),
        "points_per_instance": sum(object_points) / proposals,
        "proposals": proposals,
    }


def _count(key, value_of):
    def observe(tracer, args, result):
        tracer.counts[key] += value_of(args, result)

    return observe


def _observe_clusters(tracer, args, result):
    tracer.counts["clusters"] += len(result)
    tracer.counts["cluster_points"] += sum(len(c) for c in result)


def _observe_evaluate(tracer, args, result):
    batch, thetas = args[0], args[1]
    tracer.counts["candidates"] += len(thetas)
    tracer.counts["point_candidates"] += len(thetas) * batch.n_points


OBSERVERS = {
    "sceneprep.load_scene": _count("points", lambda a, r: len(r.cloud)),
    "pipeline.load_clusters": _observe_clusters,
    "assoc.load_proposals": _count("proposals", lambda a, r: len(r)),
    "assoc.associate": _count("pairs", lambda a, r: len(r)),
    "pipeline.prepare_targets": _count("kept", lambda a, r: len(r)),
    "filters.verdict": _count("verdict_fit", lambda a, r: int(r.fit_for_alignment)),
    "bank.write_bank": _count("bank_bytes", lambda a, r: os.path.getsize(a[1])),
    "costfn.BoxCostBatch.evaluate": _observe_evaluate,
}


def _owners():
    from autobox3d import bench, config, costfn, pipeline

    return {
        "config": config,
        "pipeline": pipeline,
        "bench": bench,
        "costfn.BoxCostBatch": costfn.BoxCostBatch,
    }


def install(tracer: Tracer, names: set[str]) -> None:
    """Patch the named spans into the tracer."""
    owners = _owners()
    for owner_name, attr, name in SPANS:
        if name in names:
            tracer.patch(owners[owner_name], attr, name, OBSERVERS.get(name))


class Workload:
    """A workload's items, ready to run: frames or bench instances."""

    def __init__(self, name: str, workdir: Path):
        from autobox3d import bench, config, pipeline
        from autobox3d.optimizer import grid_axis_counts

        self.wl = WORKLOADS[name]
        self.pipeline = pipeline
        self.bench = bench
        self.config = config.load_config(workdir / "config.yaml")
        if self.wl["kind"] == "annotate":
            self.items = []
            for frame_dir in sorted(self.config.scenes_dir.iterdir()):
                found = pipeline.discover_frames(frame_dir)
                if found != [frame_dir.name]:
                    raise RuntimeError(f"{frame_dir}: expected one frame, found {found}")
                out = self.config.output_dir / frame_dir.name
                self.items.append((frame_dir.name, replace(self.config, scenes_dir=frame_dir, output_dir=out)))
            swarm = self.config.swarm
            self.candidates_per_item = swarm.n_swarm * swarm.n_iter
        else:
            instances = bench.load_bench_instances(self.config)[: self.wl["instances"]]
            self.items = [(inst.key, inst) for inst in instances]
            self.candidates_per_item = math.prod(grid_axis_counts(self.wl["budget"]))

    def run_item(self, key, item) -> dict:
        """Run one item; time it, hash its output, and catch its failure."""
        rec = {"key": key, "error": None, "output": "", "targets": 0, "pairs": 0, "candidates": 0}
        if self.wl["kind"] == "annotate":
            bank_path = item.output_dir / "bank.jsonl"
            bank_path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                report = self.pipeline.run_annotate(item)
            except Exception:
                rec["error"] = traceback.format_exc()
            rec["wall"] = time.perf_counter() - t0
            if rec["error"] is None:
                rec["output"] = bank_path.read_text()
                for k in ("targets", "pairs", "proposals", "clusters"):
                    rec[k] = report[k]
                rec["candidates"] = report["pairs"] * self.candidates_per_item
        else:
            t0 = time.perf_counter()
            try:
                rows = self.bench.run_bench(
                    self.config, methods=("greedy",), budgets=(self.wl["budget"],), instances=[item]
                )
            except Exception:
                rec["error"] = traceback.format_exc()
            rec["wall"] = time.perf_counter() - t0
            if rec["error"] is None:
                rec["output"] = json.dumps(
                    [[r["instance"], r["cost"], r["bev_iou"]] for r in rows]
                )
                rec["targets"] = rec["pairs"] = len(rows)
                rec["candidates"] = len(rows) * self.candidates_per_item
        rec["sha256"] = hashlib.sha256(rec["output"].encode()).hexdigest()
        return rec


class Probe:
    """A fixed mix of array and interpreter work, timed before every item.

    It runs the cost kernel's array operations on ``batch`` candidates and
    170 points, about 5,000 candidates in all, then a plain Python loop. It
    is benchmark code, so it stays the same while the program changes;
    scaling an item's rate by the probe's time taken just before it cancels
    the machine's speed drift, which on a shared 2-vCPU VM moves wall-clock
    rates by 20-30 % from one minute to the next. Each workload probes at its
    own batch shape because small batches are bound by interpreter overhead
    and large ones by memory, and the two drift apart.
    """

    def __init__(self, batch: int) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.points = rng.random((3, 1, 170))
        self.thetas = rng.random((batch, 7))
        self.reps = max(1, 5000 // batch)

    def __call__(self) -> float:
        np = self.np
        px, py, pz = self.points
        thetas = self.thetas
        t0 = time.perf_counter()
        for _ in range(self.reps):
            c, s = np.cos(thetas[:, 6]), np.sin(thetas[:, 6])
            dx = px - thetas[:, 0, None]
            dy = py - thetas[:, 1, None]
            lx = c[:, None] * dx + s[:, None] * dy
            ly = c[:, None] * dy - s[:, None] * dx
            lz = pz - thetas[:, 2, None]
            inside = (np.abs(lx) <= 0.5) & (np.abs(ly) <= 0.5) & (np.abs(lz) <= 0.5)
            np.where(inside, np.sqrt(lx**2 + ly**2 + lz**2), 0.0).sum(axis=1)
        total = 0
        for i in range(30000):
            total += i * i
        return time.perf_counter() - t0


def measure(wl: Workload, seconds: float, trace: bool) -> tuple[list[dict], Tracer, int]:
    """Run whole passes over the items until the next would overrun ``seconds``.

    At least two passes run, so that every item has a repetition to compare
    with. With tracing, passes alternate untraced and traced.
    """
    tracer = Tracer()
    names = {name for _, _, name in SPANS} - SETUP_SPANS
    records: list[dict] = []
    probe = Probe(wl.wl["probe_batch"])
    passes = traced_passes = 0
    t_start = time.perf_counter()
    while True:
        traced = trace and passes % 2 == 1
        if traced:
            install(tracer, names)
        try:
            for key, item in wl.items:
                probe_s = probe()
                rec = wl.run_item(key, item)
                rec.update(rep=passes, traced=traced, probe_s=probe_s)
                records.append(rec)
        finally:
            tracer.restore()
        passes += 1
        traced_passes += traced
        predicted = (time.perf_counter() - t_start) * (passes + 1) / passes
        if (passes >= 2 and predicted > seconds) or predicted > MAX_MEASURE_S:
            break
    return records, tracer, traced_passes


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(setup: Tracer, passes: Tracer, n: int, records: list[dict], setup_s: float) -> dict:
    """Per-layer metrics of one traced pass, from the spans and counts.

    Span times are shares: of the traced pass's wall time, or of the set-up
    time for set-up spans. A layer that a workload bypasses reads 0 as a
    share; ``traced_pass_s`` turns shares back into seconds.
    """
    pass_walls: dict[tuple[int, bool], float] = defaultdict(float)
    for rec in records:
        pass_walls[rec["rep"], rec["traced"]] += rec["wall"]
    traced_wall = statistics.median(w for (_, t), w in pass_walls.items() if t)
    untraced_wall = statistics.median(w for (_, t), w in pass_walls.items() if not t)

    m: dict[str, float] = {"traced_pass_s": traced_wall}
    for _, _, name in SPANS:
        if name in SETUP_SPANS:
            span, per, base = setup.spans[name], 1, setup_s
        else:
            span, per, base = passes.spans[name], n, traced_wall
        m[f"{name}.share"] = span.total_s / per / base
        m[f"{name}.calls"] = span.calls / per
    for name in ("optimizer.pso_search", "optimizer.greedy_search", "pipeline.prepare_targets"):
        m[f"{name}.self_share"] = passes.spans[name].self_s / n / traced_wall
    m["pipeline.fit_pair.p50_share"] = passes.spans["pipeline.fit_pair"].p50() / traced_wall

    c = passes.counts
    frames = passes.spans["sceneprep.load_scene"].calls
    cluster_calls = passes.spans["pipeline.load_clusters"].calls
    m["sceneprep.points_per_frame"] = _ratio(c["points"], frames)
    m["sceneprep.object_points_per_frame"] = _ratio(c["cluster_points"], cluster_calls)
    m["sceneprep.clusters_per_frame"] = _ratio(c["clusters"], cluster_calls)
    m["sceneprep.points_per_cluster"] = _ratio(c["cluster_points"], c["clusters"])
    m["assoc.pairs_per_proposal"] = _ratio(c["pairs"], c["proposals"])
    m["pipeline.kept_per_fit"] = _ratio(c["kept"], passes.spans["pipeline.fit_pair"].calls)
    m["filters.fit_frac"] = _ratio(c["verdict_fit"], passes.spans["filters.verdict"].calls)
    m["bank.write_bank.bytes"] = c["bank_bytes"] / n

    ev = "costfn.BoxCostBatch.evaluate"
    m[f"{ev}.candidates"] = c["candidates"] / n
    m[f"{ev}.batch_size"] = _ratio(c["candidates"], passes.spans[ev].calls)
    m[f"{ev}.us_per_candidate"] = 1e6 * _ratio(passes.spans[ev].total_s, c["candidates"])
    m[f"{ev}.ns_per_point_candidate"] = 1e9 * _ratio(passes.spans[ev].total_s, c["point_candidates"])

    m["sceneprep.share"] = m["sceneprep.load_scene.share"] + m["pipeline.load_clusters.share"]
    m["pipeline.stage_coverage"] = _ratio(
        sum(m[f"{s}.share"] for s in TOP_STAGES), m["pipeline.run_annotate.share"]
    )
    m["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def fidelity_problems(name: str, setup: Tracer, passes: Tracer) -> list[str]:
    """Spans that missed calls they should see, or saw calls they should not."""
    bypassed = WORKLOADS[name]["bypassed"]
    problems = []
    for _, _, span in SPANS:
        calls = (setup if span in SETUP_SPANS else passes).spans[span].calls
        if span in bypassed and calls:
            problems.append(f"{span}: {calls} calls on a workload that bypasses it")
        if span not in bypassed and not calls:
            problems.append(f"{span}: no calls recorded; the wrapper missed its call site")
    return problems


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("step", choices=("gen", "setup", "measure"))
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t-spawn", type=float)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.step == "gen":
        result = generate_inputs(args.workload, args.seed, args.workdir)
    else:
        setup_tracer = Tracer()
        if args.trace:
            install(setup_tracer, SETUP_SPANS)
        try:
            wl = Workload(args.workload, args.workdir)
        finally:
            setup_tracer.restore()
        result = {"setup_s": time.monotonic() - args.t_spawn, "problems": []}
        probe = Probe(WORKLOADS[args.workload]["probe_batch"])
        result["setup_probe_s"] = statistics.median(probe() for _ in range(3))
        if args.step == "measure":
            records, tracer, n_traced = measure(wl, args.seconds, bool(args.trace))
            result["records"] = records
            result["candidates_per_item"] = wl.candidates_per_item
            if args.trace:
                result["problems"] += fidelity_problems(args.workload, setup_tracer, tracer)
                if n_traced:
                    result["layers"] = layer_metrics(
                        setup_tracer, tracer, n_traced, records, result["setup_s"]
                    )
                else:
                    result["problems"].append("no traced pass fitted in the time budget")
        result["env"] = environment()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
