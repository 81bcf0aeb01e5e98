"""Shared builders for the test suite.

Everything here constructs scenes in memory (float64, no storage round
trip) so unit tests stay fast and bit-stable.
"""

import math
from pathlib import Path

import numpy as np
import yaml

from autobox3d.assoc import CrossModalProposal, Proposal2D, ray_pairs
from autobox3d.config import PipelineConfig, config_to_dict
from autobox3d.costfn import AnchorRange, BatchEval, BoxCostBatch, CostBreakdown, CostWeights
from autobox3d.geom import (
    NEAR_DEPTH, Box2D, BoxParams, CameraCalib, EgoPose, box_corners, project_box_to_2d,
)
from autobox3d.optimizer import EvalFn, SearchResult, SwarmConfig, SwarmStart, pso_search
from autobox3d.sceneprep import Scene
from autobox3d.synth import make_camera, sample_box_surface

CAR_ANCHOR = AnchorRange((3.9, 1.6, 1.4), (5.3, 2.1, 1.9))
PEDESTRIAN_ANCHOR = AnchorRange((0.3, 0.3, 1.4), (1.0, 1.0, 2.0))

GROUND_Z = -1.8


def simple_calib(camera_id: str = "cam0", focal: float = 100.0,
                 width: int = 100, height: int = 100) -> CameraCalib:
    """Camera whose frame coincides with the ego frame (optical axis = ego z).

    Handy for projection oracles: u = f * x / z + w/2, v = f * y / z + h/2.
    """
    intrinsic = np.array(
        [[focal, 0.0, width / 2.0], [0.0, focal, height / 2.0], [0.0, 0.0, 1.0]]
    )
    return CameraCalib(np.eye(4), intrinsic, width, height, camera_id)


def car_box(dist: float = 12.0, azimuth: float = 0.2, ry: float = 0.6,
            l: float = 4.6, w: float = 1.9, h: float = 1.7) -> BoxParams:
    """A car-sized box placed on the synthetic ground plane."""
    return BoxParams(
        dist * math.cos(azimuth), dist * math.sin(azimuth), GROUND_Z + h / 2.0,
        l, w, h, ry,
    )


def build_pair(box: BoxParams, class_id: str = "car", seed: int = 0,
               spacing: float = 0.25, mask_ratio: float = 0.9,
               score: float = 0.9, embedding=None,
               camera: CameraCalib | None = None,
               extra_points: np.ndarray | None = None) -> CrossModalProposal:
    """A ready-to-fit (proposal, cluster) pair for one surface-sampled box.

    The camera looks straight at the box unless one is passed in. The
    cluster holds every sampled point; ``extra_points`` appends outliers
    that stay part of the cluster (for density stress tests).
    """
    rng = np.random.default_rng(seed)
    ego = EgoPose()
    if camera is None:
        camera = make_camera("cam0", math.atan2(box.y, box.x), 800.0, 1600, 900)
    pts = sample_box_surface(rng, box, ego, spacing, ground_z=GROUND_Z)
    if extra_points is not None:
        pts = np.vstack([pts, np.asarray(extra_points, dtype=float)])
    scene = Scene("f0", pts, ego, [camera])
    hull = project_box_to_2d(box, camera)
    assert hull is not None, "test box must be visible to its camera"
    crop_w = max(1, int(round(hull.width)))
    crop_h = max(1, int(round(hull.height)))
    mask = int(round(mask_ratio * crop_w * crop_h))
    prop = Proposal2D(hull, camera.camera_id, class_id, score, mask,
                      crop_w, crop_h, embedding, index=0)
    return ray_pairs([prop], [np.arange(len(pts))], scene)[0][0]


def lockstep_pairs() -> list[tuple[CrossModalProposal, AnchorRange]]:
    """Three pairs, with their anchors, for checking a lockstep search.

    Their clusters hold 175, 1,786 and 28 points; the second tiles a block
    of 50 candidate rows. The third is a pedestrian with its own anchor, the
    second has a camera of its own, and the first car is near enough that
    candidates around it are cut by its image plane.
    """
    near = build_pair(car_box(dist=3.2, azimuth=0.1, ry=0.3), seed=30)
    far_box = car_box(dist=9.0, azimuth=-0.4, ry=1.2)
    wide = make_camera("cam1", math.atan2(far_box.y, far_box.x), 500.0, 1280, 720)
    dense = build_pair(far_box, seed=31, spacing=0.07, camera=wide)
    walker = BoxParams(7.0, 2.0, GROUND_Z + 0.85, 0.6, 0.6, 1.7, 0.4)
    person = build_pair(walker, class_id="pedestrian", seed=32)
    return [(near, CAR_ANCHOR), (dense, CAR_ANCHOR), (person, PEDESTRIAN_ANCHOR)]


def is_cut(theta: np.ndarray, calib: CameraCalib) -> bool:
    """Whether box ``theta`` straddles the camera's near plane."""
    ext = calib.extrinsic
    depth = box_corners(BoxParams.from_array(theta)) @ ext[2, :3] + ext[2, 3]
    return depth.min() < NEAR_DEPTH <= depth.max()


def random_box(rng: np.random.Generator, span: float = 8.0) -> BoxParams:
    """A random reasonably-sized box for property tests."""
    x, y = rng.uniform(-span, span, size=2)
    z = rng.uniform(-2.0, 1.0)
    l, w, h = rng.uniform(0.8, 5.5, size=3)
    ry = rng.uniform(0.0, math.pi)
    return BoxParams(x, y, z, l, w, h, ry)


def score_box(box: BoxParams, points=((0.0, 0.0, 0.0),), ego: EgoPose = EgoPose(),
              proposal: Box2D = Box2D(0.0, 0.0, 100.0, 100.0),
              calib: CameraCalib | None = None,
              weights: CostWeights = CostWeights(), c_surface: float = 10.0) -> CostBreakdown:
    """One box scored by the production kernel, ``BoxCostBatch``.

    An oracle passes what its term reads. The rest default to one dummy
    point at the origin, the ego at the origin, ``simple_calib()``, a
    proposal covering its whole image and a 10 m surface clip.
    """
    batch = BoxCostBatch(np.asarray(points, dtype=float), ego, proposal,
                         simple_calib() if calib is None else calib, weights, c_surface)
    return batch.evaluate(box.as_array()[None]).breakdown_at(0)


def kernel_eval(pair: CrossModalProposal, weights: CostWeights = CostWeights(),
                c_surface: float = 10.0) -> EvalFn:
    """The production evaluator for one pair, ``BoxCostBatch(...).evaluate``."""
    return BoxCostBatch(pair.points, pair.scene.ego, pair.proposal.box,
                        pair.calib, weights, c_surface).evaluate


def swarm_fit(evaluate: EvalFn, pair: CrossModalProposal, cfg: SwarmConfig, seed: int,
              anchor: AnchorRange = CAR_ANCHOR) -> SearchResult:
    """One swarm searched alone (K = 1) over ``pair``'s cluster, from its
    point nearest the proposal's center ray."""
    return pso_search(evaluate, [SwarmStart(pair.points, pair.nearest, anchor, seed)], cfg)[0]


def totals_eval(fn) -> EvalFn:
    """An evaluator from a totals-only scorer, (S, 7) thetas -> (S,) totals.

    Its breakdown terms are NaN; only ``total`` carries the score.
    """
    def evaluate(thetas: np.ndarray) -> BatchEval:
        totals = np.asarray(fn(thetas), dtype=float)
        nan = np.full_like(totals, np.nan)
        return BatchEval(totals, nan, nan, nan, nan)

    return evaluate


def save_config(cfg: PipelineConfig, path: str | Path) -> None:
    """Write a config back out as YAML (round-trips through load_config)."""
    Path(path).write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=False))
