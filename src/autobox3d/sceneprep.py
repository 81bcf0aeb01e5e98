"""Scene loading, ground removal, and point clustering.

A scene is one LiDAR sweep plus its cameras. Preparation strips the ground
with piecewise plane fits and groups the remaining points into clusters by
density connectivity; those clusters are what the association and fitting
stages consume. Sidecar loaders let precomputed ground masks or cluster
labels short-circuit either step.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

from .errors import CloudFormatError, ValidationError
from .geom import CameraCalib, EgoPose


@dataclass(eq=False)
class Cluster:
    """A group of cloud points, stored as sorted indices into the scene cloud."""

    point_indices: np.ndarray
    centroid: np.ndarray

    def __post_init__(self) -> None:
        self.point_indices = np.asarray(self.point_indices, dtype=np.int64)
        self.centroid = np.asarray(self.centroid, dtype=float)
        if self.point_indices.ndim != 1 or len(self.point_indices) == 0:
            raise ValueError("cluster must hold at least one point index")
        if self.centroid.shape != (3,):
            raise ValueError("cluster centroid must have shape (3,)")

    @classmethod
    def from_indices(cls, cloud: np.ndarray, indices: np.ndarray) -> "Cluster":
        idx = np.sort(np.asarray(indices, dtype=np.int64))
        if len(idx) == 0:
            raise ValueError("cluster must hold at least one point index")
        if idx[0] < 0 or idx[-1] >= len(cloud):
            raise ValueError("cluster indices out of cloud bounds")
        if len(np.unique(idx)) != len(idx):
            raise ValueError("cluster indices must be unique")
        return cls(idx, cloud[idx].mean(axis=0))

    def __len__(self) -> int:
        return len(self.point_indices)


@dataclass(eq=False)
class Scene:
    """One sweep: the point cloud, the ego pose, and the camera set."""

    frame_id: str
    cloud: np.ndarray
    ego: EgoPose
    cameras: list[CameraCalib]
    _by_id: dict[str, CameraCalib] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.cloud = np.asarray(self.cloud, dtype=float)
        if self.cloud.ndim != 2 or self.cloud.shape[1] != 3:
            raise ValueError(f"cloud must be (N, 3), got {self.cloud.shape}")
        self._by_id = {}
        for cam in self.cameras:
            if cam.camera_id in self._by_id:
                raise ValidationError(f"duplicate camera id {cam.camera_id!r}")
            self._by_id[cam.camera_id] = cam

    def camera(self, camera_id: str) -> CameraCalib:
        try:
            return self._by_id[camera_id]
        except KeyError:
            known = sorted(self._by_id)
            raise ValidationError(
                f"frame {self.frame_id}: unknown camera {camera_id!r}, have {known}"
            ) from None


def load_cloud(path: str | Path, fmt: str = "auto") -> np.ndarray:
    """Read a point cloud as an (N, 3) float64 array.

    ``fmt`` is one of ``auto``, ``bin4`` (packed float32 x, y, z, intensity),
    ``bin3`` (packed float32 x, y, z), or ``csv`` (header row with x, y, z
    columns; extra columns ignored). ``auto`` picks by suffix and, for .bin,
    prefers the 16-byte record layout when the file size allows both.
    """
    path = Path(path)
    if fmt not in ("auto", "bin4", "bin3", "csv"):
        raise ValueError(f"unknown cloud format {fmt!r}")
    if fmt == "auto":
        fmt = "csv" if path.suffix.lower() in (".csv", ".txt") else "bin"
    if fmt == "csv":
        return _load_cloud_csv(path)
    raw = path.read_bytes()
    n = len(raw)
    if n == 0:
        return np.empty((0, 3))
    if fmt == "bin4":
        stride = 16
    elif fmt == "bin3":
        stride = 12
    elif n % 16 == 0:
        stride = 16
    elif n % 12 == 0:
        stride = 12
    else:
        raise CloudFormatError(
            f"{path}: {n} bytes is not a whole number of 16- or 12-byte records; "
            f"trailing fragment starts at byte offset {n - n % 16}"
        )
    if n % stride != 0:
        raise CloudFormatError(
            f"{path}: {n} bytes is not a whole number of {stride}-byte records; "
            f"trailing fragment starts at byte offset {n - n % stride}"
        )
    arr = np.frombuffer(raw, dtype="<f4").reshape(-1, stride // 4)[:, :3]
    bad = ~np.all(np.isfinite(arr), axis=1)
    if np.any(bad):
        first = int(np.argmax(bad))
        raise CloudFormatError(
            f"{path}: non-finite coordinates in record {first} at byte offset {first * stride}"
        )
    return arr.astype(np.float64)


def _load_cloud_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return np.empty((0, 3))
        names = [name.strip().lower() for name in header]
        try:
            cols = [names.index(axis) for axis in ("x", "y", "z")]
        except ValueError:
            raise CloudFormatError(
                f"{path}: line 1: header must name x, y and z columns, got {header}"
            ) from None
        rows: list[tuple[float, float, float]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                xyz = tuple(float(row[c]) for c in cols)
            except (ValueError, IndexError) as exc:
                raise CloudFormatError(f"{path}: line {lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in xyz):
                raise CloudFormatError(f"{path}: line {lineno}: non-finite coordinates {xyz}")
            rows.append(xyz)
    if not rows:
        return np.empty((0, 3))
    return np.asarray(rows, dtype=np.float64)


def save_cloud(path: str | Path, points: np.ndarray, fmt: str = "bin4") -> None:
    """Write a cloud in one of the formats :func:`load_cloud` reads.

    ``bin4`` pads a zero intensity column; binary formats store float32.
    """
    path = Path(path)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    if fmt == "bin4":
        out = np.zeros((len(pts), 4), dtype="<f4")
        out[:, :3] = pts.astype("<f4")
        path.write_bytes(out.tobytes())
    elif fmt == "bin3":
        path.write_bytes(pts.astype("<f4").tobytes())
    elif fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "z"])
            for x, y, z in pts:
                writer.writerow([repr(float(x)), repr(float(y)), repr(float(z))])
    else:
        raise ValueError(f"unknown cloud format {fmt!r}")


def load_scene(scenes_dir: str | Path, frame_id: str) -> Scene:
    """Load ``<frame_id>.bin`` (or .csv) plus ``<frame_id>.calib.json``."""
    scenes_dir = Path(scenes_dir)
    cloud_path = scenes_dir / f"{frame_id}.bin"
    if not cloud_path.exists():
        csv_path = scenes_dir / f"{frame_id}.csv"
        if csv_path.exists():
            cloud_path = csv_path
        else:
            raise ValidationError(f"frame {frame_id}: no cloud file under {scenes_dir}")
    cloud = load_cloud(cloud_path)
    calib_path = scenes_dir / f"{frame_id}.calib.json"
    try:
        calib_raw = json.loads(calib_path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"frame {frame_id}: missing {calib_path.name}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{calib_path}: not valid JSON: {exc}") from exc
    try:
        ego_vals = calib_raw["ego"]
        ego = EgoPose(float(ego_vals[0]), float(ego_vals[1]), float(ego_vals[2]))
        cameras = [
            CameraCalib(
                extrinsic=np.asarray(cam["extrinsic"], dtype=float),
                intrinsic=np.asarray(cam["intrinsic"], dtype=float),
                image_width=int(cam["image_width"]),
                image_height=int(cam["image_height"]),
                camera_id=str(cam["camera_id"]),
            )
            for cam in calib_raw["cameras"]
        ]
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValidationError(f"{calib_path}: {exc}") from exc
    return Scene(frame_id=frame_id, cloud=cloud, ego=ego, cameras=cameras)


def _fit_plane(points: np.ndarray) -> np.ndarray | None:
    """Least-squares z = a*x + b*y + c, or None if it comes out non-finite."""
    a = np.column_stack([points[:, 0], points[:, 1], np.ones(len(points))])
    sol, *_ = np.linalg.lstsq(a, points[:, 2], rcond=None)
    if not np.all(np.isfinite(sol)):
        return None
    return sol


def _plane_residuals(points: np.ndarray, plane: np.ndarray) -> np.ndarray:
    return np.abs(points[:, 2] - (plane[0] * points[:, 0] + plane[1] * points[:, 1] + plane[2]))


def _fit_ground_plane(
    points: np.ndarray,
    height_threshold: float,
    refit_rounds: int,
    seed_quantile: float,
) -> np.ndarray | None:
    """Plane through the low points of one region, with outlier-rejecting refits."""
    z = points[:, 2]
    cand = points[z <= np.quantile(z, seed_quantile)]
    if len(cand) < 3:
        return None
    plane = _fit_plane(cand)
    if plane is None:
        return None
    for _ in range(refit_rounds):
        keep = _plane_residuals(cand, plane) <= height_threshold
        n_keep = int(keep.sum())
        if n_keep < 3 or n_keep == len(cand):
            break
        cand = cand[keep]
        refit = _fit_plane(cand)
        if refit is None:
            break
        plane = refit
    return plane


def remove_ground(
    cloud: np.ndarray,
    cell_size: float = 4.0,
    height_threshold: float = 0.25,
    refit_rounds: int = 3,
    seed_quantile: float = 0.30,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a cloud into (ground_indices, object_indices).

    The xy plane is tiled into ``cell_size`` squares; each cell fits a plane
    to its lowest-z quantile with ``refit_rounds`` outlier-rejecting refits.
    Cells with fewer than 3 seed points inherit the nearest fitted cell's
    plane (or a single global fit when no cell succeeds). A point is ground
    when it sits within ``height_threshold`` of its cell's plane. The two
    index arrays are ascending and partition the cloud exactly.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"cloud must be (N, 3), got {pts.shape}")
    if len(pts) == 0:
        raise ValidationError("cannot remove ground from an empty cloud")
    if cell_size <= 0 or height_threshold <= 0:
        raise ValueError("cell_size and height_threshold must be positive")
    if not (0.0 < seed_quantile <= 1.0):
        raise ValueError(f"seed_quantile must be in (0, 1], got {seed_quantile}")

    cells = np.floor(pts[:, :2] / cell_size).astype(np.int64)
    uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    sorted_inv = inverse[order]
    starts = np.searchsorted(sorted_inv, np.arange(len(uniq)), side="left")
    ends = np.searchsorted(sorted_inv, np.arange(len(uniq)), side="right")

    planes = np.full((len(uniq), 3), np.nan)
    for k in range(len(uniq)):
        members = order[starts[k] : ends[k]]
        plane = _fit_ground_plane(pts[members], height_threshold, refit_rounds, seed_quantile)
        if plane is not None:
            planes[k] = plane

    fitted = np.all(np.isfinite(planes), axis=1)
    if not np.any(fitted):
        plane = _fit_ground_plane(pts, height_threshold, refit_rounds, seed_quantile)
        if plane is None:
            # Tiny cloud: fall back to a horizontal plane through the lowest point.
            plane = np.array([0.0, 0.0, float(pts[:, 2].min())])
        planes[:] = plane
    elif not np.all(fitted):
        centers = (uniq.astype(float) + 0.5) * cell_size
        missing = np.where(~fitted)[0]
        have = np.where(fitted)[0]
        for k in missing:
            d2 = np.sum((centers[have] - centers[k]) ** 2, axis=1)
            planes[k] = planes[have[int(np.argmin(d2))]]

    cell_planes = planes[inverse]
    residual = np.abs(
        pts[:, 2] - (cell_planes[:, 0] * pts[:, 0] + cell_planes[:, 1] * pts[:, 1] + cell_planes[:, 2])
    )
    ground = residual <= height_threshold
    return np.where(ground)[0], np.where(~ground)[0]


def cluster_objects(
    cloud: np.ndarray,
    indices: np.ndarray,
    eps: float = 0.5,
    min_pts: int = 5,
) -> list[Cluster]:
    """Density-connected clusters among ``cloud[indices]``.

    A point with at least ``min_pts`` neighbors within ``eps`` (itself
    included) is a core point; clusters are the connected components of
    core points, and each non-core point joins the cluster of its nearest
    core neighbor, which keeps membership stable under input reordering.
    Points with no core neighbor are dropped as noise. Clusters come back
    ordered by their smallest cloud index.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be at least 1, got {min_pts}")
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) == 0:
        return []
    pts = np.asarray(cloud, dtype=float)[idx]

    tree = cKDTree(pts)
    neighbors = tree.query_ball_point(pts, r=eps)
    core = np.fromiter((len(nb) for nb in neighbors), dtype=np.int64, count=len(pts)) >= min_pts

    labels = np.full(len(pts), -1, dtype=np.int64)
    n_clusters = 0
    for seed in range(len(pts)):
        if not core[seed] or labels[seed] != -1:
            continue
        labels[seed] = n_clusters
        stack = [seed]
        while stack:
            cur = stack.pop()
            for nb in neighbors[cur]:
                if core[nb] and labels[nb] == -1:
                    labels[nb] = n_clusters
                    stack.append(nb)
        n_clusters += 1

    for i in range(len(pts)):
        if core[i]:
            continue
        core_nb = [nb for nb in neighbors[i] if core[nb]]
        if not core_nb:
            continue
        d2 = np.sum((pts[core_nb] - pts[i]) ** 2, axis=1)
        labels[i] = labels[core_nb[int(np.argmin(d2))]]

    out = []
    for cid in range(n_clusters):
        members = idx[labels == cid]
        out.append(Cluster.from_indices(cloud, members))
    out.sort(key=lambda c: int(c.point_indices[0]))
    return out


def load_ground_mask(path: str | Path, n_points: int) -> np.ndarray:
    """Read a precomputed ground mask: one 0/1 per line, 1 meaning ground."""
    path = Path(path)
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line not in ("0", "1"):
                raise ValidationError(f"{path}: line {lineno}: expected 0 or 1, got {line!r}")
            vals.append(line == "1")
    if len(vals) != n_points:
        raise ValidationError(
            f"{path}: {len(vals)} mask entries for a cloud of {n_points} points"
        )
    return np.asarray(vals, dtype=bool)


def load_point_labels(path: str | Path, n_points: int) -> np.ndarray:
    """Read per-point integer labels: -1 for ground/noise, else a cluster id."""
    path = Path(path)
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                v = int(line)
            except ValueError:
                raise ValidationError(f"{path}: line {lineno}: not an integer: {line!r}") from None
            if v < -1:
                raise ValidationError(f"{path}: line {lineno}: label must be >= -1, got {v}")
            vals.append(v)
    if len(vals) != n_points:
        raise ValidationError(
            f"{path}: {len(vals)} labels for a cloud of {n_points} points"
        )
    return np.asarray(vals, dtype=np.int64)


def clusters_from_labels(cloud: np.ndarray, labels: np.ndarray) -> list[Cluster]:
    """Build clusters from a per-point label array, ordered by label value."""
    labels = np.asarray(labels, dtype=np.int64)
    out = []
    for cid in np.unique(labels[labels >= 0]):
        out.append(Cluster.from_indices(cloud, np.where(labels == cid)[0]))
    return out
