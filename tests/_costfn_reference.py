"""Single-box cost path with clamped segment distances, kept as a test reference.

This is the scalar scorer that ``costfn.BoxCostBatch`` replaced: a
containment mask per box, the ego-nearest top edges chosen by midpoint
distance, and point-to-segment distances clamped to the segment ends. Its
image hull, ``reference_hull``, projects the front corners one point at a
time and finds the near-plane crossings of the box edges in a Python loop.
It shares no edge-selection, distance or projection code with the kernel,
so agreement between the two is an independent check.
"""

import math

import numpy as np

from autobox3d.costfn import CostBreakdown, CostWeights
from autobox3d.geom import (
    BOUNDARY_TOL,
    Box2D,
    BoxParams,
    CameraCalib,
    EgoPose,
    NEAR_DEPTH,
    box_corners,
)

# Corner index pairs of the four top-face edges, grouped by direction: one
# pair runs along the box length axis (constant y in the box frame), the
# other along the width axis (constant x). Within each pair the edge on the
# negative side is listed first so that distance ties resolve the same way
# as a sign test on the query position.
TOP_EDGES_ALONG_LENGTH = ((6, 7), (4, 5))
TOP_EDGES_ALONG_WIDTH = ((5, 6), (7, 4))

# Corner index pairs of all 12 box edges: bottom ring, top ring, verticals.
BOX_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 0),
    (4, 5), (5, 6), (6, 7), (7, 4),
    (0, 4), (1, 5), (2, 6), (3, 7),
)


def project_points(points: np.ndarray, calib: CameraCalib) -> tuple[np.ndarray, np.ndarray]:
    """Pinhole-project ego-frame points into one camera.

    Returns ``(uvd, valid)`` where ``uvd`` has shape (N, 3) holding
    (u, v, depth) and ``valid`` flags points with positive camera depth.
    Invalid points keep their depth but carry NaN pixel coordinates, so the
    rows stay aligned with the input.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    rot = calib.extrinsic[:3, :3]
    t = calib.extrinsic[:3, 3]
    cam = pts @ rot.T + t
    depth = cam[:, 2]
    valid = depth > 0.0
    uvd = np.full((pts.shape[0], 3), np.nan)
    uvd[:, 2] = depth
    if np.any(valid):
        proj = cam[valid] @ calib.intrinsic.T
        uvd[valid, 0] = proj[:, 0] / proj[:, 2]
        uvd[valid, 1] = proj[:, 1] / proj[:, 2]
    return uvd, valid


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection-over-union of two axis-aligned rectangles, in [0, 1]."""
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.width * a.height + b.width * b.height - inter
    return inter / union


def reference_hull(box: BoxParams, calib: CameraCalib) -> Box2D | None:
    """Image hull of the box part at depth ``NEAR_DEPTH`` or more, one point at a time.

    The hull spans the corners in front of the near plane and, for every
    edge with one end on each side, the point where the edge crosses it,
    clipped to the image. None when nothing is in front or the clipped hull
    has no area.
    """
    corners = box_corners(box)
    depth = project_points(corners, calib)[0][:, 2]
    hull_pts = [c for c, d in zip(corners, depth) if d >= NEAR_DEPTH]
    for i, j in BOX_EDGES:
        if (depth[i] >= NEAR_DEPTH) != (depth[j] >= NEAR_DEPTH):
            t = (depth[i] - NEAR_DEPTH) / (depth[i] - depth[j])
            hull_pts.append(corners[i] + t * (corners[j] - corners[i]))
    if not hull_pts:
        return None
    uv = project_points(np.array(hull_pts), calib)[0][:, :2]
    u_min = max(float(uv[:, 0].min()), 0.0)
    v_min = max(float(uv[:, 1].min()), 0.0)
    u_max = min(float(uv[:, 0].max()), float(calib.image_width))
    v_max = min(float(uv[:, 1].max()), float(calib.image_height))
    if u_min >= u_max or v_min >= v_max:
        return None
    return Box2D(u_min, v_min, u_max, v_max)


def points_in_box(points: np.ndarray, box: BoxParams, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Boolean mask of points inside the box, boundary inclusive.

    ``points`` is (N, 3) in the ego frame. The test is done in the box frame
    with an absolute tolerance of ``tol`` on each half-extent, so points
    sitting exactly on a face count as inside.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    dx = pts[:, 0] - box.x
    dy = pts[:, 1] - box.y
    c, s = math.cos(box.ry), math.sin(box.ry)
    local_x = c * dx + s * dy
    local_y = -s * dx + c * dy
    local_z = pts[:, 2] - box.z
    return (
        (np.abs(local_x) <= 0.5 * box.l + tol)
        & (np.abs(local_y) <= 0.5 * box.w + tol)
        & (np.abs(local_z) <= 0.5 * box.h + tol)
    )


def anchor_edges(
    box: BoxParams, ego: EgoPose
) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The two ego-nearest, non-parallel top edges of the box.

    One edge runs along the box length, one along the width; within each
    parallel pair the edge whose midpoint is closer to the ego wins. Each
    edge is returned as a pair of corner points in the ego frame.
    """
    corners = box_corners(box)
    ego_pt = np.array([ego.x, ego.y, ego.z])

    def nearest(pairs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
        best = None
        best_d = math.inf
        for i, j in pairs:
            mid = 0.5 * (corners[i] + corners[j])
            d = float(np.linalg.norm(mid - ego_pt))
            if d < best_d:
                best_d = d
                best = (corners[i], corners[j])
        assert best is not None
        return best

    return nearest(TOP_EDGES_ALONG_LENGTH), nearest(TOP_EDGES_ALONG_WIDTH)


def _point_segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from each point (N, 3) to the 3D segment from a to b."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ ab / denom, 0.0, 1.0)
    closest = a + t[:, None] * ab
    return np.linalg.norm(points - closest, axis=1)


def reference_cost(
    box: BoxParams,
    obj_points: np.ndarray,
    ego: EgoPose,
    proposal: Box2D,
    calib: CameraCalib,
    weights: CostWeights,
    c_surface: float,
) -> CostBreakdown:
    """Score one candidate box; the containment mask is computed once."""
    pts = np.asarray(obj_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"obj_points must be (N, 3), got {pts.shape}")
    if len(pts) == 0:
        raise ValueError("obj_points is empty; cannot score an empty cluster")
    inside = points_in_box(pts, box)
    density = -float(inside.sum()) / len(pts)
    if np.any(inside):
        enclosed = pts[inside]
        (e0a, e0b), (e1a, e1b) = anchor_edges(box, ego)
        d0 = _point_segment_distances(enclosed, e0a, e0b)
        d1 = _point_segment_distances(enclosed, e1a, e1b)
        lshape = float(np.mean(np.minimum(d0, d1)))
    else:
        lshape = 0.0
    surface = -min(math.hypot(box.x - ego.x, box.y - ego.y), c_surface)
    hull = reference_hull(box, calib)
    iou_term = 0.0 if hull is None else -weights.gamma * iou_2d(hull, proposal)
    total = (
        weights.lambda1 * density
        + weights.lambda2 * lshape
        + weights.lambda3 * surface
        + iou_term
    )
    return CostBreakdown(density, lshape, surface, iou_term, total)
