"""Rotated-box geometry, pinhole projection, and IoU primitives.

Conventions, relied on by every module downstream:

* Ego/LiDAR frame: right handed, z up, meters.
* Camera frame: right handed, +z forward along the optical axis, +x right,
  +y down. Points at non-positive camera depth do not project.
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
        arr = np.asarray(arr, dtype=float)
        if arr.shape != (7,):
            raise ValueError(f"expected shape (7,), got {arr.shape}")
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
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.u_min + self.u_max), 0.5 * (self.v_min + self.v_max))

    def as_array(self) -> np.ndarray:
        return np.array([self.u_min, self.v_min, self.u_max, self.v_max])


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


def project_box_to_2d(box: BoxParams, calib: CameraCalib) -> Box2D | None:
    """Axis-aligned image hull of a 3D box, or None when not usefully visible.

    The hull is the bounding rectangle of the corners that project at
    positive depth, clipped to the image. Returns None when fewer than two
    corners sit in front of the camera or when the clipped hull has no area.
    Detectors emit axis-aligned rectangles, so the hull is axis-aligned too.
    """
    uvd, valid = project_points(box_corners(box), calib)
    if int(valid.sum()) < 2:
        return None
    u = uvd[valid, 0]
    v = uvd[valid, 1]
    u_min = max(float(u.min()), 0.0)
    v_min = max(float(v.min()), 0.0)
    u_max = min(float(u.max()), float(calib.image_width))
    v_max = min(float(v.max()), float(calib.image_height))
    if u_min >= u_max or v_min >= v_max:
        return None
    return Box2D(u_min, v_min, u_max, v_max)


def iou_2d(a: Box2D, b: Box2D) -> float:
    """Intersection-over-union of two axis-aligned rectangles, in [0, 1]."""
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


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
