"""End-to-end acceptance gate for the box auto-annotation stack.

Each test records one CRITERION line, and tests/conftest.py writes them all
in the terminal summary, so the verdicts show under pytest's default output
capture. The heavy fixtures (a 200-instance synthetic corpus fitted at full
budget) are shared across the comparison tests, so this module takes
several minutes end to end.
"""

import math
import time

import numpy as np
import pytest

from autobox3d.bank import NovelObjectTarget, Provenance
from autobox3d.bench import load_bench_instances, run_bench
from autobox3d.config import PipelineConfig
from autobox3d.costfn import CostBreakdown, CostWeights, adaptive_surface_clip
from autobox3d.filters import FilterThresholds, verdict
from autobox3d.geom import (
    Box2D,
    BoxParams,
    EgoPose,
    box_corners,
    iou_bev,
    project_box_to_2d,
    rotation_z,
)
from autobox3d.assoc import Proposal2D
from autobox3d.optimizer import SwarmConfig, grid_axis_counts, inertia_at
from autobox3d.pipeline import nms, run_annotate
from autobox3d.synth import SynthClassSpec, SynthSpec, generate

from _costfn_reference import points_in_box, project_points
from _util import CAR_ANCHOR, build_pair, car_box, score_box, simple_calib, swarm_fit, totals_eval

BUDGET_FULL = 150000
BUDGET_QUARTER = 37500
BUDGET_GRID = 78125


def emit_and_assert(request, name, ok, detail):
    """Record one CRITERION line for the terminal summary, then assert."""
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    request.node.user_properties.append(("verdict", line))
    assert ok, line


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """200 synthetic cars over 40 frames, 5 to 40 meters out."""
    spec = SynthSpec(
        seed=101,
        n_frames=40,
        classes=[SynthClassSpec(name="car", count=5, distance_min=5.0, distance_max=40.0)],
        ground_extent=45.0,
        n_cameras=3,
    )
    out = tmp_path_factory.mktemp("accept_scenes")
    stats = generate(spec, out)
    assert stats["instances"] == 200
    return out


@pytest.fixture(scope="module")
def config(corpus, tmp_path_factory):
    return PipelineConfig(scenes_dir=corpus, output_dir=tmp_path_factory.mktemp("accept_out"))


@pytest.fixture(scope="module")
def instances(config):
    insts = load_bench_instances(config)
    assert len(insts) == 200
    return insts


@pytest.fixture(scope="module")
def full_budget_rows(config, instances):
    """Swarm fits of all 200 instances at the default 50 x 3000 budget."""
    t0 = time.perf_counter()
    rows = run_bench(config, methods=("adaptive",), budgets=(BUDGET_FULL,), instances=instances)
    elapsed = time.perf_counter() - t0
    assert [r["instance"] for r in rows] == [inst.key for inst in instances]
    return rows, elapsed


def test_criterion_1_full_budget_recovery(request, instances, full_budget_rows):
    rows, elapsed = full_budget_rows
    ious = np.array([r["bev_iou"] for r in rows])
    hits = int((ious >= 0.7).sum())
    need = math.ceil(0.85 * len(rows))
    ok = len(rows) == 200 and hits >= need and elapsed <= 600.0
    emit_and_assert(
        request, "CRITERION 1 synthetic recovery", ok,
        f"{hits}/{len(rows)} at BEV IoU >= 0.7, need {need}, wall {elapsed:.1f}s of 600s",
    )


def test_criterion_2_adaptive_beats_greedy(request, config, instances, full_budget_rows):
    rows, _ = full_budget_rows
    sub = instances[:50]
    swarm_cost = np.array([r["cost"] for r in rows[:50]])
    swarm_iou = np.array([r["bev_iou"] for r in rows[:50]])

    greedy_rows = run_bench(config, methods=("greedy",), budgets=(BUDGET_FULL,), instances=sub)
    quarter_rows = run_bench(config, methods=("adaptive",), budgets=(BUDGET_QUARTER,), instances=sub)
    greedy_cost = np.array([r["cost"] for r in greedy_rows])
    greedy_iou = np.array([r["bev_iou"] for r in greedy_rows])
    quarter_iou = np.array([r["bev_iou"] for r in quarter_rows])

    cost_ok = np.median(swarm_cost) < np.median(greedy_cost)
    iou_ok = np.median(swarm_iou) > np.median(greedy_iou)
    quarter_ok = np.median(quarter_iou) >= np.median(greedy_iou)
    ok = cost_ok and iou_ok and quarter_ok
    emit_and_assert(
        request, "CRITERION 2 greedy baseline", ok,
        f"median cost {np.median(swarm_cost):.3f} vs {np.median(greedy_cost):.3f}, "
        f"median IoU {np.median(swarm_iou):.3f} vs {np.median(greedy_iou):.3f}, "
        f"quarter-budget IoU {np.median(quarter_iou):.3f}",
    )


def test_criterion_3_swarm_matches_exhaustive_grid(request, config, instances, full_budget_rows):
    rows, _ = full_budget_rows
    assert grid_axis_counts(BUDGET_GRID) == (5,) * 7
    sub = instances[:20]
    grid_rows = run_bench(config, methods=("greedy",), budgets=(BUDGET_GRID,), instances=sub)
    swarm_cost = np.array([r["cost"] for r in rows[:20]])
    grid_cost = np.array([r["cost"] for r in grid_rows])
    margins = swarm_cost - grid_cost
    ok = bool((margins <= 0.05).all())
    emit_and_assert(
        request, "CRITERION 3 exhaustive grid", ok,
        f"worst swarm minus grid margin {margins.max():+.3f} <= +0.05 over {len(sub)} instances",
    )


def test_criterion_4_cost_oracles(request):
    calib = simple_calib()
    cube = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)
    visible = BoxParams(0.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0)
    hull_rect = Box2D(25.0, 25.0, 75.0, 75.0)
    side_ego = EgoPose(10.0, 3.0, 0.0)
    w = CostWeights()
    ten_points = np.array([
        [0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [-0.5, -0.5, -0.5], [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0], [0.0, 0.0, -1.0], [0.9, -0.9, 0.9], [2.0, 0.0, 0.0],
        [0.0, 3.0, 0.0], [5.0, 5.0, 5.0],
    ])

    checks = []

    def arithmetic(label, got, want):
        checks.append((label, got, want, 1e-9))

    def geometric(label, got, want):
        checks.append((label, got, want, 1e-6))

    far = BoxParams(100.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)
    off_axis = BoxParams(3.0, 4.0, 0.0, 2.0, 2.0, 2.0, 0.0)

    def iou_term(prop):
        return score_box(visible, proposal=prop, calib=calib, weights=w).iou2d

    arithmetic("density 7 of 10 enclosed", score_box(cube, ten_points).density, -0.7)
    arithmetic("edge distance single point",
               score_box(cube, np.array([[1.0, 0.5, 0.7]]), side_ego).lshape, 0.3)
    arithmetic("edge distance mean of pair",
               score_box(cube, np.array([[1.0, 0.5, 0.7], [1.0, -0.5, 0.5]]), side_ego).lshape,
               0.4)
    arithmetic("edge distance empty box", score_box(far, ten_points, side_ego).lshape, 0.0)
    arithmetic("surface 3-4-5", score_box(off_axis, ego=EgoPose(), weights=w).surface, -5.0)
    arithmetic("surface clipped at 4",
               score_box(off_axis, ego=EgoPose(), weights=w, c_surface=4.0).surface,
               -4.0)
    arithmetic("surface relative to ego",
               score_box(off_axis, ego=EgoPose(3.0, 0.0, 0.0), weights=w).surface, -4.0)
    arithmetic("adaptive surface clip",
               adaptive_surface_clip(EgoPose(), np.array([3.0, 4.0, -1.0]), CAR_ANCHOR),
               5.570087712549569)
    arithmetic("image IoU perfect", iou_term(hull_rect), -3.0)
    arithmetic("image IoU half", iou_term(Box2D(25.0, 25.0, 75.0, 50.0)), -1.5)
    arithmetic("image IoU third", iou_term(Box2D(50.0, 25.0, 100.0, 75.0)), -1.0)
    arithmetic("image IoU disjoint", iou_term(Box2D(0.0, 0.0, 10.0, 10.0)), 0.0)

    comp = score_box(visible, np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [9.0, 9.0, 9.0]]),
                     EgoPose(-4.0, 3.0, 0.0), hull_rect, calib, w)
    arithmetic("composition density", comp.density, -2.0 / 3.0)
    arithmetic("composition surface", comp.surface, -5.0)
    arithmetic("composition image IoU", comp.iou2d, -3.0)
    arithmetic("composition weighted sum", comp.total,
               w.lambda1 * comp.density + w.lambda2 * comp.lshape
               + w.lambda3 * comp.surface + comp.iou2d)

    corners = box_corners(BoxParams(1.0, 2.0, 3.0, 4.0, 2.0, 2.0, 0.0))
    for k, want in enumerate([[3.0, 3.0, 2.0], [-1.0, 3.0, 2.0], [-1.0, 1.0, 2.0], [3.0, 1.0, 2.0]]):
        geometric(f"corner layout bottom {k}", float(np.abs(corners[k] - want).max()), 0.0)
    geometric("corner layout top ring",
              float(np.abs(corners[4:] - corners[:4] - [0.0, 0.0, 2.0]).max()), 0.0)
    quarter = box_corners(BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, math.pi / 4.0))
    geometric("corner quarter turn",
              float(np.abs(quarter[0] - [0.0, math.sqrt(2.0), -1.0]).max()), 0.0)

    uvd, valid = project_points(np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [-1.0, 2.0, 4.0]]),
                                calib)
    assert valid.all()
    geometric("projection principal point", float(np.abs(uvd[0] - [50.0, 50.0, 5.0]).max()), 0.0)
    geometric("projection offset point", float(np.abs(uvd[1] - [70.0, 50.0, 5.0]).max()), 0.0)
    geometric("projection near point", float(np.abs(uvd[2] - [25.0, 100.0, 4.0]).max()), 0.0)

    hull = project_box_to_2d(visible, calib)
    assert hull is not None
    geometric("projected hull",
              float(np.abs(np.array([hull.u_min, hull.v_min, hull.u_max, hull.v_max])
                           - [25.0, 25.0, 75.0, 75.0]).max()), 0.0)

    sq = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
    geometric("bev IoU shifted third",
              iou_bev(sq, BoxParams(1.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)), 1.0 / 3.0)
    geometric("bev IoU rotated octagon",
              iou_bev(sq, BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, math.pi / 4.0)),
              math.sqrt(2.0) / 2.0)
    geometric("bev IoU contained quarter",
              iou_bev(sq, BoxParams(0.0, 0.0, 0.0, 4.0, 4.0, 1.0, 0.7)), 0.25)

    failures = [f"{label}: got {got!r}, want {want!r} within {tol}"
                for label, got, want, tol in checks if not abs(got - want) <= tol]
    emit_and_assert(
        request, "CRITERION 4 cost oracles",
        not failures,
        f"{len(checks) - len(failures)}/{len(checks)} oracle values within tolerance"
        + ("; " + "; ".join(failures) if failures else ""),
    )


def test_criterion_5_alignment_filter_fixture(request):
    box = BoxParams(0.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0)
    calib = simple_calib()
    thresholds = FilterThresholds()
    hull = (25.0, 25.0, 75.0, 75.0)
    emb = np.array([0.1, 0.2])

    def prop(class_id="car", crop=(100, 80), mask=7000, rect=hull, embedding=emb):
        return Proposal2D(
            box=Box2D(*rect), camera_id="cam0", class_id=class_id, score=0.9,
            mask_pixel_count=mask, crop_w=crop[0], crop_h=crop[1], embedding=embedding,
        )

    # Hand-labeled fixture: every proposal pairs with the same fitted box,
    # so only class, crop, mask, rectangle, and embedding decide the flag.
    fixture = [
        ("clean car", prop(), True),
        ("mask ratio exactly at car bar", prop(mask=4000), False),
        ("mask one pixel over car bar", prop(mask=4001), True),
        ("heavily occluded car", prop(mask=1000), False),
        ("crop area exactly at bar", prop(crop=(100, 40), mask=3000), False),
        ("crop area just over bar", prop(crop=(63, 64), mask=3500), True),
        ("crop area just under bar", prop(crop=(63, 63), mask=3500), False),
        ("pedestrian ratio exactly at bar", prop(class_id="pedestrian", mask=2000), False),
        ("pedestrian one pixel over bar", prop(class_id="pedestrian", mask=2001), True),
        ("reprojection IoU exactly half", prop(rect=(25.0, 25.0, 50.0, 75.0)), True),
        ("reprojection IoU just under half", prop(rect=(25.0, 25.0, 49.0, 75.0)), False),
        ("disjoint proposal rectangle", prop(rect=(0.0, 0.0, 10.0, 10.0)), False),
        ("clean but missing embedding", prop(embedding=None), False),
        ("bicycle just over its bar", prop(class_id="bicycle", mask=3201), True),
        ("bicycle exactly at its bar", prop(class_id="bicycle", mask=3200), False),
        ("clean truck", prop(class_id="truck", mask=6000), True),
        ("traffic cone with shifted rectangle", prop(
            class_id="traffic_cone", mask=2500, rect=(25.0, 25.0, 70.0, 75.0)), True),
        ("barrier under its bar", prop(class_id="barrier", mask=2500), False),
        ("tall thin crop over both bars", prop(crop=(40, 101), mask=2021), True),
        ("everything failing at once", prop(
            class_id="pedestrian", crop=(60, 60), mask=800,
            rect=(0.0, 0.0, 10.0, 10.0), embedding=None), False),
    ]
    assert len(fixture) == 20

    mismatches = []
    kept = 0
    for label, p, expect in fixture:
        fit = verdict(p, box, calib, thresholds).fit_for_alignment and p.embedding is not None
        kept += int(fit)
        if fit != expect:
            mismatches.append(f"{label}: got {fit}, expected {expect}")
    emit_and_assert(
        request, "CRITERION 5 alignment filters",
        not mismatches,
        f"kept {kept}/20, exact expected subset"
        + ("; " + "; ".join(mismatches) if mismatches else ""),
    )


def test_criterion_6_deterministic_bank(request, tmp_path_factory):
    spec = SynthSpec(
        seed=7, n_frames=2,
        classes=[SynthClassSpec(name="car", count=2, distance_min=8.0, distance_max=16.0)],
        ground_extent=18.0, n_cameras=2,
    )
    scenes = tmp_path_factory.mktemp("det_scenes")
    generate(spec, scenes)

    out = tmp_path_factory.mktemp("det_out")
    cfg = PipelineConfig(scenes_dir=scenes, output_dir=out)
    banks = []
    reports = []
    for _ in range(2):
        report = dict(run_annotate(cfg))
        report.pop("elapsed_s", None)
        reports.append(report)
        banks.append((out / "bank.jsonl").read_bytes())

    ok = banks[0] == banks[1] and len(banks[0]) > 0 and reports[0] == reports[1]
    emit_and_assert(
        request, "CRITERION 6 deterministic reruns", ok,
        f"two runs, {len(banks[0])} byte banks {'identical' if banks[0] == banks[1] else 'differ'}",
    )


def test_criterion_7_property_suites(request):
    cases = 1000
    failures = []

    # Containment is invariant under shared yaw rotations and translations.
    rng = np.random.default_rng(70707)
    for _ in range(cases):
        b = BoxParams(*rng.uniform(-5.0, 5.0, size=3),
                      *rng.uniform(0.5, 5.0, size=3), rng.uniform(0.0, math.pi))
        pts = rng.uniform(-6.0, 6.0, size=(64, 3))
        before = points_in_box(pts, b)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        shift = rng.uniform(-10.0, 10.0, size=3)
        rot = rotation_z(angle)
        center = rot @ np.array([b.x, b.y, b.z]) + shift
        moved = BoxParams(*center, b.l, b.w, b.h, b.ry + angle)
        after = points_in_box(pts @ rot.T + shift, moved)
        if not np.array_equal(before, after):
            failures.append("containment changed under a rigid motion")
            break
        if score_box(b, pts).density != -float(before.sum()) / len(pts):
            failures.append("cost kernel encloses other points than the reference")
            break

    # Ground-plane IoU stays in [0, 1], is symmetric, and is 1 on itself.
    rng = np.random.default_rng(70708)
    for _ in range(cases):
        a = BoxParams(*rng.uniform(-5.0, 5.0, size=2), 0.0,
                      *rng.uniform(0.5, 5.0, size=3), rng.uniform(0.0, math.pi))
        b = BoxParams(*rng.uniform(-5.0, 5.0, size=2), 0.0,
                      *rng.uniform(0.5, 5.0, size=3), rng.uniform(0.0, math.pi))
        ab, ba = iou_bev(a, b), iou_bev(b, a)
        if not (0.0 <= ab <= 1.0 and abs(ab - ba) <= 1e-9
                and abs(iou_bev(a, a) - 1.0) <= 1e-9):
            failures.append(f"IoU bounds or symmetry broke: {ab} vs {ba}")
            break

    # Deduplication is idempotent: a second pass changes nothing.
    rng = np.random.default_rng(70709)
    for _ in range(cases):
        targets = [
            NovelObjectTarget(
                box=BoxParams(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0), 0.0,
                              rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), 1.0,
                              rng.uniform(0.0, math.pi)),
                class_id="car",
                cost=CostBreakdown(0.0, 0.0, 0.0, 0.0, float(rng.normal())),
                fit_for_alignment=False,
                provenance=Provenance("0000", "cam0", k),
            )
            for k in range(int(rng.integers(0, 7)))
        ]
        once = nms(targets, 0.3)
        twice = nms(once, 0.3)
        if twice != once:
            failures.append("second deduplication pass changed survivors")
            break

    # The inertia ramp hits its endpoints exactly and never increases.
    rng = np.random.default_rng(70710)
    default = SwarmConfig()
    if not (inertia_at(0, default) == 10.0 and inertia_at(default.n_iter - 1, default) == 0.1):
        failures.append("default inertia endpoints moved")
    for _ in range(cases):
        w_end = float(rng.uniform(0.01, 1.0))
        w_init = w_end + float(rng.uniform(0.0, 20.0))
        n_iter = int(rng.integers(1, 40))
        cfg = SwarmConfig(n_swarm=4, n_iter=n_iter, w_init=w_init, w_end=w_end)
        ramp = np.array([inertia_at(i, cfg) for i in range(n_iter)])
        endpoints_ok = ramp[0] == w_init and (n_iter == 1 or ramp[-1] == w_end)
        if not (endpoints_ok and (np.diff(ramp) <= 1e-12).all()):
            failures.append(f"inertia ramp broke for n_iter={n_iter}")
            break

    # Best-so-far traces never increase and end at the reported best.
    rng = np.random.default_rng(70711)
    pair = build_pair(car_box(), seed=3)
    for _ in range(cases):
        target = rng.uniform(-3.0, 3.0, size=7)

        def sphere(thetas, t=target):
            return ((thetas - t) ** 2).sum(axis=1)

        cfg = SwarmConfig(n_swarm=int(rng.integers(3, 9)), n_iter=int(rng.integers(5, 21)))
        res = swarm_fit(totals_eval(sphere), pair, cfg, seed=int(rng.integers(0, 2**31)))
        trace = res.trace
        if trace is None or len(trace) != cfg.n_iter:
            failures.append("trace missing or wrong length")
            break
        if not ((np.diff(trace) <= 0.0).all() and trace[-1] == res.best_cost.total
                and res.evaluations == cfg.n_swarm * cfg.n_iter):
            failures.append("trace increased or disagreed with the reported best")
            break

    emit_and_assert(
        request, "CRITERION 7 property suites",
        not failures,
        f"5 suites x {cases} randomized cases, {len(failures)} failures"
        + ("; " + "; ".join(failures) if failures else ""),
    )
