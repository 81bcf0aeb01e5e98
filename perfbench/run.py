"""The autobox3d benchmark, standard library only.

    python3 perfbench/run.py --workload annotate-fit --seed 101 --seconds 20 --trace 0

Generates the workload's corpus from the seed into a temporary directory
of the checkout, then runs the workload in fresh single-threaded
processes: several set-ups, then one measuring process. With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` the same process
alternates untraced and traced passes and it prints the per-layer metrics;
``--trace both`` does one run of each.
Either way it checks the outputs: every repetition's bank must match the
first byte for byte, and the bank is scored against the ground truth.
The last line of standard output is one JSON object; the exit code is 0
only when every item succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import quality
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
MIN_STAGE_COVERAGE = 0.9
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(args: list[str], out: Path, timeout: float) -> dict:
    """Run one ``child.py`` step in a fresh pinned process; return its JSON."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(ROOT / "src")}
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--out", str(out), "--t-spawn", repr(t_spawn)]
    subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout, check=True)
    return json.loads(out.read_text())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    None below 21 samples, where that percentile would not exceed the median.
    """
    n = len(values)
    if n < 21:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def check_items(records: list[dict]) -> list[str]:
    """Failed items: each one that raised or whose output differs from rep 0's."""
    first: dict[str, dict] = {}
    failures = []
    for rec in records:
        ref = first.setdefault(rec["key"], rec)
        label = f"item {rec['key']} rep {rec['rep']}{' (traced)' if rec['traced'] else ''}"
        if rec["error"]:
            failures.append(f"{label} raised:\n{rec['error']}")
        elif rec["sha256"] != ref["sha256"]:
            failures.append(
                f"{label}: output sha256 {rec['sha256'][:16]} differs from "
                f"rep {ref['rep']}'s {ref['sha256'][:16]}"
            )
    return failures


def score_quality(name: str, workdir: Path, first: dict[str, dict]) -> dict:
    """Quality metrics of the first repetition's outputs."""
    if WORKLOADS[name]["kind"] == "annotate":
        bank = "".join(first[key]["output"] for key in sorted(first))
        return quality.score_bank(bank, quality.load_ground_truth(workdir / "corpus"))
    rows = [row for key in sorted(first) for row in json.loads(first[key]["output"])]
    return quality.score([row[2] for row in rows], [row[1] for row in rows])


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp_root: Path):
    """Run one workload; return (metrics, attempted, failed, problems)."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root))
    res_path = workdir / "result.json"
    inputs = run_child(["gen", name, str(workdir), "--seed", str(seed)], res_path, timeout=150)
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(run_child(["setup", name, str(workdir)], res_path, timeout=60))
    res = run_child(
        ["measure", name, str(workdir), "--seconds", str(seconds), "--trace", str(int(trace))],
        res_path,
        timeout=seconds + 150,
    )
    setups.append(res)
    records = res["records"]
    env = res["env"]
    print(
        f"env: nproc={os.cpu_count()} cpu={cpu_model()!r} python={env['python']} "
        f"numpy={env['numpy']} scipy={env['scipy']} "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} OMP_NUM_THREADS={env['OMP_NUM_THREADS']}"
    )

    problems = list(res["problems"])
    failures = check_items(records)
    first = {}
    for rec in records:
        first.setdefault(rec["key"], rec)
    reps = sorted({rec["rep"] for rec in records})
    for rep in reps:
        digest = hashlib.sha256()
        for rec in records:
            if rec["rep"] == rep:
                digest.update(rec["output"].encode())
        traced = any(rec["traced"] for rec in records if rec["rep"] == rep)
        print(f"rep {rep}{' traced' if traced else ''}: output sha256 {digest.hexdigest()}")

    rep0 = [rec for rec in records if rec["rep"] == 0]
    size = (
        f"input: frames={inputs['frames']} points/frame={inputs['points_per_frame']:.0f} "
        f"object points/frame={inputs['object_points_per_frame']:.0f} "
        f"proposals={inputs['proposals']} N/instance={inputs['points_per_instance']:.1f}"
    )
    if WORKLOADS[name]["kind"] == "annotate":
        size += (
            f" clusters={sum(r.get('clusters', 0) for r in rep0)}"
            f" pairs={sum(r['pairs'] for r in rep0)}"
            f" targets={sum(r['targets'] for r in rep0)}"
        )
    else:
        size += f" searched instances={len(rep0)} candidates/search={res['candidates_per_item']}"
    if res.get("layers", {}).get("sceneprep.points_per_cluster"):
        size += f" mean N/cluster={res['layers']['sceneprep.points_per_cluster']:.1f}"
    print(size)

    try:
        q = score_quality(name, workdir, first)
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"quality scoring failed: {exc!r}")
        q = {}

    extras = []
    if trace:
        metrics = dict(res.get("layers", {}))
        coverage = metrics.get("pipeline.stage_coverage", 1.0)
        if WORKLOADS[name]["kind"] == "annotate" and coverage < MIN_STAGE_COVERAGE:
            problems.append(
                f"traced top-level stages cover {coverage:.3f} of run_annotate, "
                f"below {MIN_STAGE_COVERAGE}"
            )
    else:
        untraced = [rec for rec in records if not rec["traced"]]
        walls = [rec["wall"] for rec in untraced]
        busy = sum(walls)
        if WORKLOADS[name]["work"] == "points":
            work = [inputs["frame_points"][rec["key"]] if not rec["error"] else 0 for rec in untraced]
        else:
            work = [rec["candidates"] for rec in untraced]
        rates = [w / rec["wall"] for w, rec in zip(work, untraced)]
        ref = WORKLOADS[name]["probe_ref_s"]
        setup_walls = [r["setup_s"] for r in setups]
        metrics = {
            "setup_s": statistics.median(r["setup_s"] * ref / r["setup_probe_s"] for r in setups),
            "work_per_s": statistics.median(
                r * rec["probe_s"] / ref for r, rec in zip(rates, untraced)
            ),
            "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        }
        if "median_iou" in q:
            metrics["median_iou"] = q["median_iou"]
        t = tail(walls)
        extras += [
            ("item_s.p50", statistics.median(walls), "s", f"n={len(walls)} items, {len(reps)} passes"),
            ("item_s.tail", t[0] if t else math.nan, "s", f"p{t[1]:.0f}" if t else "n/a under 21 items"),
            ("setup_wall_s", statistics.median(setup_walls), "s", "setup_s before probe scaling"),
            ("work_per_wall_s", statistics.median(rates), "1/s", "work_per_s before probe scaling"),
            ("probe_s", statistics.median(rec["probe_s"] for rec in untraced), "s", f"reference {ref}"),
            ("targets_per_s", sum(rec["targets"] for rec in untraced) / busy, "1/s", ""),
            ("candidates_per_s", sum(rec["candidates"] for rec in untraced) / busy, "1/s", ""),
        ]
        print("setup_s wall samples: " + ", ".join(f"{s:.4f}" for s in setup_walls))
    if q:
        extras += [
            ("recall_iou70", q["recall_iou70"], "frac", ""),
            ("median_cost", q["median_cost"], "cost", ""),
        ]
    extras.append(("failed_frac", len(failures) / len(records), "frac", f"{len(failures)}/{len(records)}"))
    for metric, value, unit, note in extras:
        print(f"  {metric:<48} {value:>16.8g} {unit:<6} {note}")
    for msg in failures + problems:
        print(f"FAIL {name}: {msg}")
    return metrics, len(records), len(failures), problems


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument(
        "--trace", choices=("0", "1", "both"), default="0",
        help="0: end-to-end metrics; 1: per-layer metrics; both: each in turn",
    )
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "autobox3d" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'autobox3d'}", file=sys.stderr)
        return 2
    modes = [False, True] if args.trace == "both" else [args.trace == "1"]
    # Turn SIGTERM into an exception so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(dir=tmp_parent))
    out_metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    try:
        for name in names:
            for trace in modes:
                print(f"== workload {name}  seed {args.seed}  trace {int(trace)}")
                try:
                    metrics, n, n_failed, problems = run_workload(
                        name, args.seed, args.seconds, trace, tmp_root
                    )
                except (subprocess.SubprocessError, OSError, KeyError, ValueError) as exc:
                    print(f"FAIL {name}: {exc!r}")
                    metrics, n, n_failed, problems = {}, 1, 1, [repr(exc)]
                attempted += n
                failed += n_failed
                units = declared_metrics(trace)
                missing = sorted(set(units) - set(metrics))
                if missing:
                    problems.append(f"missing metrics: {missing}")
                    print(f"FAIL {name}: missing metrics {missing}")
                correct = correct and not problems and not n_failed
                prefix = "" if len(names) * len(modes) == 1 else f"{name}/"
                for metric, unit in units.items():
                    if metric in metrics:
                        print(f"  {metric:<48} {metrics[metric]:>16.8g} {unit}")
                        out_metrics[prefix + metric] = {"value": metrics[metric], "unit": unit}
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
