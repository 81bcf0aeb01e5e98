"""Command line entry points.

Subcommands: ``annotate`` runs the full pipeline over a scenes dir,
``fit-box`` prints the frame decision for one proposal, ``bench`` compares
search methods on ground-truth scenes, ``synth`` generates those scenes,
and ``report`` summarizes an existing bank. Exit codes: 0 on success,
1 on a runtime failure, 2 on invalid input or config.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict
from pathlib import Path

from .bench import run_bench, write_bench_csv
from .config import load_config
from .errors import CloudFormatError, ValidationError, make_output_dir
from .pipeline import (
    associate_frame,
    decide_frame,
    discover_frames,
    format_bank_summary,
    format_report,
    read_frame,
    run_annotate,
    summarize_bank,
)
from .synth import generate, load_synth_spec


def _cmd_annotate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    report = run_annotate(config)
    print(format_report(report))
    print(f"bank written to {config.output_dir / 'bank.jsonl'}")
    return 0


def _cmd_fit_box(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.scene not in discover_frames(config.scenes_dir):
        raise ValidationError(f"frame {args.scene} not found under {config.scenes_dir}")
    frame = read_frame(config, args.scene)
    n_proposals = len(frame[0] or [])
    if not 0 <= args.proposal < n_proposals:
        raise ValidationError(
            f"proposal index {args.proposal} out of range; frame has {n_proposals}"
        )
    scene, pairs, _ = associate_frame(config, args.scene, frame)
    records = decide_frame(scene, pairs, config)
    record = next((r for r in records if r.target.provenance.proposal == args.proposal), None)
    if record is None:
        print(f"no cluster matched proposal {args.proposal} of frame {args.scene}", file=sys.stderr)
        return 1
    out = {
        "frame": args.scene,
        "proposal": args.proposal,
        "class": record.target.class_id,
        "candidates": [
            {"cluster_points": len(pair.cluster), "distance_to_ray": pair.distance_to_ray,
             "total_cost": result.best_cost.total}
            for result, pair in record.fits
        ],
        "box": asdict(record.target.box),
        "cost": asdict(record.target.cost),
        "evaluations": record.fits[0][0].evaluations,
        "suppressed_by": record.suppressed_by,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_csv = Path(args.out) if args.out else make_output_dir(config.output_dir) / "bench.csv"
    if out_csv.is_dir() or not out_csv.parent.is_dir():
        raise ValidationError(f"cannot write bench rows to {out_csv}")
    rows = run_bench(config)
    write_bench_csv(rows, out_csv)
    by_key: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        by_key.setdefault((row["method"], row["budget"]), []).append(row["bev_iou"])
    print(f"{len(rows)} runs over {len({r['instance'] for r in rows})} instances")
    for (method, budget), ious in sorted(by_key.items()):
        print(f"  {method:8s} budget {budget:>8d}: mean IoU {sum(ious) / len(ious):.3f}")
    print(f"rows written to {out_csv}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = load_synth_spec(args.spec)
    summary = generate(spec, args.out)
    print(
        f"wrote {summary['frames']} frames, {summary['instances']} instances "
        f"to {summary['out_dir']}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(format_bank_summary(summarize_bank(args.bank)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autobox3d",
        description="Fit amodal 3D boxes to LiDAR clusters picked out by 2D detections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="run the full pipeline over a scenes dir")
    p.add_argument("--config", required=True, help="YAML pipeline config")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("fit-box", help="fit one frame and print one proposal's box")
    p.add_argument("--config", required=True, help="YAML pipeline config")
    p.add_argument("--scene", required=True, help="frame id, e.g. 0003")
    p.add_argument("--proposal", required=True, type=int, help="proposal index in the frame")
    p.set_defaults(func=_cmd_fit_box)

    p = sub.add_parser("bench", help="compare search methods on ground-truth scenes")
    p.add_argument("--config", required=True, help="YAML pipeline config")
    p.add_argument("--out", default=None, help="CSV output path (default: <output>/bench.csv)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("synth", help="generate synthetic scenes with ground truth")
    p.add_argument("--spec", required=True, help="YAML scene recipe")
    p.add_argument("--out", required=True, help="output scenes dir")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="summarize an existing bank file")
    p.add_argument("--bank", required=True, help="bank.jsonl path")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, CloudFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
