"""Rotated-box geometry, pinhole projection, and IoU primitives.

Conventions, relied on by every module downstream:

* Ego/LiDAR frame: right handed, z up, meters.
* Camera frame: right handed, +z forward along the optical axis, +x right,
  +y down. A box's image hull spans its part at camera depth ``NEAR_DEPTH``
  or more (``image_hulls``).
* A 3D box is center (x, y, z), dimensions (l, w, h), and yaw ``ry`` about
  the up axis. At ``ry == 0`` the length axis runs along +x.
* Corner order is fixed, because ``bev_footprint`` takes corners 0-3 as a
  counter-clockwise polygon: bottom face 0-3 counter-clockwise seen from
  above, starting at (+l/2, +w/2, -h/2); top face 4-7 vertically above 0-3.

Everything here is a pure function over plain arrays and is safe to call
from worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Inclusive containment tolerance. Points sampled exactly on a box face must
# not fall outside their own box through floating-point noise.
BOUNDARY_TOL = 1e-9

# Unit offsets of the 8 corners in the box frame, in the documented order.
_CORNER_SIGNS = np.array(
    [
        [+0.5, +0.5, -0.5],
        [-0.5, +0.5, -0.5],
        [-0.5, -0.5, -0.5],
        [+0.5, -0.5, -0.5],
        [+0.5, +0.5, +0.5],
        [-0.5, +0.5, +0.5],
        [-0.5, -0.5, +0.5],
        [+0.5, -0.5, +0.5],
    ]
)

# Corner index pairs of the 12 box edges, as (2, 12): the bottom ring, the
# top ring, then the four vertical edges.
_BOX_EDGES = np.array(
    [(i, (i + 1) % 4) for i in range(4)]
    + [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    + [(i, i + 4) for i in range(4)]
).T

# Camera depth, in meters, of the near plane at which image hulls clip the
# box edges; projections blow up as depth goes to 0. A point nearer than
# this lands inside the image only within NEAR_DEPTH times the half-width
# to focal ratio of the optical axis, so the clip loses no visible part of
# a box in practice.
NEAR_DEPTH = 1e-2


@dataclass(frozen=True)
class BoxParams:
    """Seven-parameter oriented box: center, dimensions, yaw.

    Dimensions must be strictly positive and every field finite. Yaw is not
    range-restricted here; the search layer keeps it in [0, pi) because the
    box is symmetric under a half turn.
    """

    x: float
    y: float
    z: float
    l: float
    w: float
    h: float
    ry: float

    def __post_init__(self) -> None:
        vals = (self.x, self.y, self.z, self.l, self.w, self.h, self.ry)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"box parameters must be finite, got {vals}")
        if self.l <= 0 or self.w <= 0 or self.h <= 0:
            raise ValueError(
                f"box dimensions must be positive, got l={self.l} w={self.w} h={self.h}"
            )

    def as_array(self) -> np.ndarray:
        """Return (x, y, z, l, w, h, ry) as a float64 array of shape (7,)."""
        return np.array([self.x, self.y, self.z, self.l, self.w, self.h, self.ry])

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BoxParams":
        return cls(*(float(v) for v in arr))

    @property
    def center(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @property
    def dims(self) -> np.ndarray:
        return np.array([self.l, self.w, self.h])


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned image rectangle in pixels, (u_min, v_min) top-left."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self) -> None:
        vals = (self.u_min, self.v_min, self.u_max, self.v_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"2D box must be finite, got {vals}")
        if self.u_min >= self.u_max or self.v_min >= self.v_max:
            raise ValueError(f"2D box must have positive extent, got {vals}")

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u_min + self.u_max), 0.5 * (self.v_min + self.v_max))


@dataclass(eq=False)
class CameraCalib:
    """One camera: ego-to-camera extrinsic, intrinsic, and image size.

    ``extrinsic`` maps ego-frame points into the camera frame as
    ``x_cam = R @ x_ego + t`` with R = extrinsic[:3, :3], t = extrinsic[:3, 3].
    The intrinsic is the usual upper-triangular pinhole matrix.
    """

    extrinsic: np.ndarray
    intrinsic: np.ndarray
    image_width: int
    image_height: int
    camera_id: str = "cam0"

    def __post_init__(self) -> None:
        self.extrinsic = np.asarray(self.extrinsic, dtype=float)
        self.intrinsic = np.asarray(self.intrinsic, dtype=float)
        if self.extrinsic.shape != (4, 4):
            raise ValueError(f"extrinsic must be 4x4, got {self.extrinsic.shape}")
        if not np.allclose(self.extrinsic[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
            raise ValueError("extrinsic bottom row must be [0, 0, 0, 1]")
        rot = self.extrinsic[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-6):
            raise ValueError("extrinsic rotation block is not orthonormal")
        if abs(np.linalg.det(rot) - 1.0) > 1e-6:
            raise ValueError("extrinsic rotation block must have determinant +1")
        if self.intrinsic.shape != (3, 3):
            raise ValueError(f"intrinsic must be 3x3, got {self.intrinsic.shape}")
        lower = self.intrinsic[np.tril_indices(3, k=-1)]
        if np.any(np.abs(lower) > 1e-9):
            raise ValueError("intrinsic must be upper triangular")
        diag = np.diag(self.intrinsic)
        if np.any(diag <= 0):
            raise ValueError(f"intrinsic diagonal must be positive, got {diag}")
        if abs(np.linalg.det(self.intrinsic)) < 1e-12:
            raise ValueError("intrinsic matrix is singular")
        if self.image_width <= 0 or self.image_height <= 0:
            raise ValueError("image size must be positive")


@dataclass(frozen=True)
class EgoPose:
    """Sensor origin in the ego/world frame."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ValueError("ego pose must be finite")


def rotation_z(angle: float) -> np.ndarray:
    """3x3 rotation about the up axis, counter-clockwise seen from above."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def box_corners(box: BoxParams) -> np.ndarray:
    """Return the 8 box corners, shape (8, 3), in the documented order."""
    local = _CORNER_SIGNS * box.dims
    c, s = math.cos(box.ry), math.sin(box.ry)
    out = np.empty((8, 3))
    out[:, 0] = c * local[:, 0] - s * local[:, 1] + box.x
    out[:, 1] = s * local[:, 0] + c * local[:, 1] + box.y
    out[:, 2] = local[:, 2] + box.z
    return out


def camera_columns(calibs: list[CameraCalib]) -> np.ndarray:
    """Hull parameters of K cameras, (15, K): per camera K [R | t] column by
    column, the near plane's homogeneous depth W, image width and height."""
    return np.array([
        [*(c.intrinsic @ c.extrinsic[:3]).T.ravel(), NEAR_DEPTH * c.intrinsic[2, 2],
         c.image_width, c.image_height]
        for c in calibs
    ], dtype=float).T


def image_hulls(
    thetas: np.ndarray, calib: CameraCalib | np.ndarray, trig: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Image hulls of many boxes at once, (S, 7) thetas -> ((S, 4) rects, (S,) ok).

    ``calib`` is one camera, or each row's as (15, S) ``camera_columns``.
    ``trig`` is the rows' (cos, sin) of yaw, if the caller has them already.
    A hull is the bounding rectangle (u_min, v_min, u_max, v_max) of the
    part of the box at camera depth ``NEAR_DEPTH`` or more, clipped to the
    image. That part's vertices are the corners in front of the near plane
    and the points where the box edges cross it, so a box cut by the image
    plane reaches the image border on its cut side. ``ok`` is False where
    no part is in front or the clipped hull has no area; those rows hold the
    empty rectangle (0, 0, 0, 0). Detectors emit axis-aligned rectangles, so
    the hull is axis-aligned too.

    Each row's arithmetic is elementwise and its own, so a row's hull does
    not depend on the batch around it.
    """
    cam = camera_columns([calib]) if isinstance(calib, CameraCalib) else calib
    # Homogeneous pixel rows (U, V, W) of K [R | t], each (3, 1) or (3, S); W = k22 * depth.
    a0, a1, a2, a3 = cam[:12].reshape(4, 3, -1)
    w_near, size = cam[12], cam[13:]
    cos, sin = (np.cos(thetas[:, 6]), np.sin(thetas[:, 6])) if trig is None else trig
    half_l, half_w, half_h = 0.5 * thetas[:, 3:6].T
    center = a0 * thetas[:, 0] + a1 * thetas[:, 1] + a2 * thetas[:, 2] + a3
    # Half-axis vectors. Away from subnormals, halving a factor rounds as
    # halving the product does.
    hl = (a0 * cos + a1 * sin) * half_l
    hw = (a1 * cos - a0 * sin) * half_w
    hh = a2 * half_h
    # Corners as (8, 3, S) in _CORNER_SIGNS order: with P = hl + hw and
    # M = hl - hw, corners 0, 3, 4, 7 are P - hh, M - hh, P + hh, M + hh and
    # corners 6, 5, 2, 1 their negations; IEEE rounding is symmetric in sign,
    # so those are exact up to the sign of an exact zero. Corners lead, so
    # the extremes below reduce over whole (3, S) blocks.
    p, m = hl + hw, hl - hw
    corners = np.empty((8, *hl.shape))
    np.subtract(p, hh, out=corners[0])
    np.subtract(m, hh, out=corners[3])
    np.add(p, hh, out=corners[4])
    np.add(m, hh, out=corners[7])
    np.negative(corners[3::-3], out=corners[5:7])
    np.negative(corners[7:3:-3], out=corners[1:3])
    corners += center
    w = corners[:, 2]
    front = w >= w_near
    cut = ~front.all(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = corners[:, :2] / w[:, None]
        lo, hi = uv.min(axis=0), uv.max(axis=0)
    if cut.any():
        # Only cut rows take masked extremes over the corners and the edges'
        # near-plane crossings, which on a row wholly in front equal the direct ones.
        a, b = corners[..., cut][_BOX_EDGES]
        w_cut = np.broadcast_to(w_near, cut.shape)[cut]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (a[:, 2:] - w_cut) / (a[:, 2:] - b[:, 2:])
            cuts = (a[:, :2] + t * (b[:, :2] - a[:, :2])) / w_cut
        uv = np.concatenate([uv[..., cut], cuts])
        f = front[:, cut]
        keep = np.concatenate([f, f[_BOX_EDGES[0]] != f[_BOX_EDGES[1]]])[:, None]
        lo[:, cut] = np.where(keep, uv, np.inf).min(axis=0)
        hi[:, cut] = np.where(keep, uv, -np.inf).max(axis=0)
    lo = np.maximum(lo, 0.0)
    hi = np.minimum(hi, size)
    ok = (lo < hi).all(axis=0)
    return np.where(ok, np.concatenate([lo, hi]), 0.0).T, ok


def project_box_to_2d(box: BoxParams, calib: CameraCalib) -> Box2D | None:
    """Image hull of one box, ``image_hulls`` at S = 1.

    None when no part of the box is in front of the near plane or its hull
    misses the image. A box cut by the image plane reaches the border.
    """
    rects, ok = image_hulls(box.as_array()[None], calib)
    return Box2D(*rects[0].tolist()) if ok[0] else None


def rect_ious(rects: np.ndarray, box: Box2D | np.ndarray) -> np.ndarray:
    """IoU of each (u_min, v_min, u_max, v_max) row of ``rects`` with ``box``.

    ``box`` is one rectangle for every row, or each row's rectangle as the
    columns of a (4, S) array. An empty rectangle, as ``image_hulls``
    returns for a row that is not ok, scores 0.
    """
    u0, v0, u1, v1 = (box.u_min, box.v_min, box.u_max, box.v_max) if isinstance(box, Box2D) else box
    iw = np.minimum(rects[:, 2], u1) - np.maximum(rects[:, 0], u0)
    ih = np.minimum(rects[:, 3], v1) - np.maximum(rects[:, 1], v0)
    inter = np.where((iw > 0.0) & (ih > 0.0), iw * ih, 0.0)
    union = (rects[:, 2] - rects[:, 0]) * (rects[:, 3] - rects[:, 1]) + (u1 - u0) * (v1 - v0) - inter
    return np.where(inter > 0.0, inter / union, 0.0)


def bev_footprint(box: BoxParams) -> np.ndarray:
    """(4, 2) corners of the box footprint in the xy plane, counter-clockwise."""
    return box_corners(box)[:4, :2]


def _polygon_area(poly: np.ndarray) -> float:
    """Shoelace area of a counter-clockwise polygon, shape (M, 2)."""
    if len(poly) < 3:
        return 0.0
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

def _clip_halfplane(poly: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Keep the part of polygon ``poly`` on the left of the directed line a->b."""
    if len(poly) == 0:
        return poly
    d = b - a
    # z-component of cross(d, p - a); >= 0 means on or left of the line
    side = d[0] * (poly[:, 1] - a[1]) - d[1] * (poly[:, 0] - a[0])
    out: list[np.ndarray] = []
    m = len(poly)
    for i in range(m):
        j = (i + 1) % m
        if side[i] >= 0.0:
            out.append(poly[i])
        if (side[i] >= 0.0) != (side[j] >= 0.0):
            t = side[i] / (side[i] - side[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    if not out:
        return np.empty((0, 2))
    return np.array(out)


def convex_intersection_area(poly_a: np.ndarray, poly_b: np.ndarray) -> float:
    """Area of the intersection of two counter-clockwise convex polygons."""
    clipped = np.asarray(poly_a, dtype=float)
    clip = np.asarray(poly_b, dtype=float)
    n = len(clip)
    for i in range(n):
        clipped = _clip_halfplane(clipped, clip[i], clip[(i + 1) % n])
        if len(clipped) == 0:
            return 0.0
    return abs(_polygon_area(clipped))


def iou_bev(a: BoxParams, b: BoxParams) -> float:
    """Bird's-eye-view IoU of two oriented boxes, exact via polygon clipping."""
    fa = bev_footprint(a)
    fb = bev_footprint(b)
    inter = convex_intersection_area(fa, fb)
    area_a = a.l * a.w
    area_b = b.l * b.w
    union = area_a + area_b - inter
    if union <= 0.0:
        return 0.0
    return min(1.0, max(0.0, inter / union))
