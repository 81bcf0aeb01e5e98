"""Shared builders for the test suite.

Everything here constructs scenes in memory (float64, no storage round
trip) so unit tests stay fast and bit-stable.
"""

import math

import numpy as np

from autobox3d.assoc import CrossModalProposal, Proposal2D, center_ray, points_to_ray_distances
from autobox3d.costfn import AnchorRange, BatchEval, BoxCostBatch, CostBreakdown, CostWeights
from autobox3d.geom import Box2D, BoxParams, CameraCalib, EgoPose, project_box_to_2d
from autobox3d.optimizer import EvalFn
from autobox3d.sceneprep import Cluster, Scene
from autobox3d.synth import make_camera, sample_box_surface

CAR_ANCHOR = AnchorRange("car", (3.9, 1.6, 1.4), (5.3, 2.1, 1.9))

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
    cluster = Cluster.from_indices(pts, np.arange(len(pts)))
    ray = center_ray(hull, camera)
    dist = float(points_to_ray_distances(pts, ray).min())
    return CrossModalProposal(prop, cluster, scene, dist, ray)


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
              weights: CostWeights = CostWeights()) -> CostBreakdown:
    """One box scored by the production kernel, ``BoxCostBatch``.

    An oracle passes what its term reads. The rest default to one dummy
    point at the origin, the ego at the origin, ``simple_calib()`` and a
    proposal covering its whole image.
    """
    batch = BoxCostBatch(np.asarray(points, dtype=float), ego, proposal,
                         simple_calib() if calib is None else calib, weights)
    return batch.evaluate(box.as_array()[None]).breakdown_at(0)


def kernel_eval(pair: CrossModalProposal, weights: CostWeights = CostWeights()) -> EvalFn:
    """The production evaluator for one pair, ``BoxCostBatch(...).evaluate``."""
    return BoxCostBatch(pair.points, pair.scene.ego, pair.proposal.box,
                        pair.calib, weights).evaluate


def totals_eval(fn) -> EvalFn:
    """An evaluator from a totals-only scorer, (S, 7) thetas -> (S,) totals.

    Its breakdown terms are NaN; only ``total`` carries the score.
    """
    def evaluate(thetas: np.ndarray) -> BatchEval:
        totals = np.asarray(fn(thetas), dtype=float)
        nan = np.full_like(totals, np.nan)
        return BatchEval(totals, nan, nan, nan, nan)

    return evaluate
