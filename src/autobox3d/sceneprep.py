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
from scipy.sparse import csr_array
from scipy.spatial import cKDTree

from .errors import CloudFormatError, ValidationError, as_floats, as_int, as_str, reading
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


def load_cloud(path: str | Path) -> np.ndarray:
    """Read a point cloud as an (N, 3) float64 array.

    A ``.csv`` or ``.txt`` file needs a header row naming x, y and z columns
    (extra columns are ignored). Anything else is packed little-endian
    float32: 16-byte records (x, y, z, intensity) when the file size allows,
    else 12-byte records (x, y, z).
    """
    path = Path(path)
    if path.suffix.lower() in (".csv", ".txt"):
        return _load_cloud_csv(path)
    raw = path.read_bytes()
    n = len(raw)
    if n == 0:
        return np.empty((0, 3))
    if n % 16 == 0:
        stride = 16
    elif n % 12 == 0:
        stride = 12
    else:
        raise CloudFormatError(
            f"{path}: {n} bytes is not a whole number of 16- or 12-byte records; "
            f"trailing fragment starts at byte offset {n - n % 16}"
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


def save_cloud(path: str | Path, points: np.ndarray) -> None:
    """Write a cloud as 16-byte float32 records with a zero intensity column."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    out = np.zeros((len(pts), 4), dtype="<f4")
    out[:, :3] = pts.astype("<f4")
    Path(path).write_bytes(out.tobytes())


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
    with reading(calib_path):
        ego = EgoPose(*as_floats(calib_raw["ego"], "ego", (3,)).tolist())
        cameras = list(calib_raw["cameras"])
    for k, cam in enumerate(cameras):
        with reading(f"{calib_path}: camera {k}"):
            cameras[k] = CameraCalib(
                extrinsic=as_floats(cam["extrinsic"], "extrinsic", (4, 4)),
                intrinsic=as_floats(cam["intrinsic"], "intrinsic", (3, 3)),
                image_width=as_int(cam["image_width"], "image_width"),
                image_height=as_int(cam["image_height"], "image_height"),
                camera_id=as_str(cam["camera_id"], "camera_id"),
            )
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


def _seed_thresholds(
    z_sorted: np.ndarray, starts: np.ndarray, counts: np.ndarray, q: float
) -> np.ndarray:
    """``np.quantile(run, q)`` of each ascending run ``z_sorted[start:start + count]``.

    Repeats numpy's ``linear`` method step for step, so each threshold is the
    same float: virtual index ``(n - 1) * q``, the sorted values at its floor
    and the next position (both the maximum when ``q`` is 1), and numpy's
    two-sided lerp, which switches to ``b - (b - a) * (1 - t)`` from
    ``t >= 0.5``.
    """
    virtual = (counts - 1) * q
    below = np.floor(virtual)
    t = virtual - below
    lo = starts + below.astype(np.int64)
    a = z_sorted[lo]
    b = z_sorted[np.minimum(lo + 1, starts + counts - 1)]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _fit_ground_plane(
    cand: np.ndarray,
    height_threshold: float,
    refit_rounds: int,
) -> np.ndarray | None:
    """Plane through one region's seed points, with outlier-rejecting refits."""
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
    to its points at or below its ``seed_quantile`` height, with
    ``refit_rounds`` outlier-rejecting refits. Cells with fewer than 3 seed
    points inherit the nearest fitted cell's plane (or a single global fit
    when no cell succeeds). A point is ground when it sits within
    ``height_threshold`` of its cell's plane. The two index arrays are
    ascending and partition the cloud exactly.

    Points are grouped by one scalar key per cell, the row-major index of
    the cell in the occupied grid, which orders cells lexicographically by
    (x, y); a grid too large for int64 keys raises ``ValidationError``. All
    seed heights come from one sort of z within cells. Each cell's plane is
    a least-squares fit to its seed points in cloud order.
    """
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"cloud must be (N, 3), got {pts.shape}")
    if len(pts) == 0:
        raise ValidationError("cannot remove ground from an empty cloud")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("cannot remove ground from a cloud with non-finite coordinates")
    if cell_size <= 0 or height_threshold <= 0:
        raise ValueError("cell_size and height_threshold must be positive")
    if not (0.0 < seed_quantile <= 1.0):
        raise ValueError(f"seed_quantile must be in (0, 1], got {seed_quantile}")

    cells = np.floor(pts[:, :2] / cell_size).astype(np.int64)
    origin = cells.min(axis=0)
    dims = cells.max(axis=0) - origin + 1
    try:
        keys = np.ravel_multi_index(tuple((cells - origin).T), dims)
    except ValueError:
        raise ValidationError(
            f"ground grid of {dims[0]} x {dims[1]} cells of size {cell_size} "
            "is too large to index"
        ) from None
    uniq_keys, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse)
    starts = np.cumsum(counts) - counts
    # z order, then a stable sort by cell; cell ids cast to the smallest
    # unsigned type, which lets numpy's stable argsort run as a radix sort.
    by_z = np.argsort(pts[:, 2])
    cell_ids = inverse[by_z].astype(np.min_scalar_type(len(counts) - 1))
    by_cell_z = by_z[np.argsort(cell_ids, kind="stable")]
    seed_z = _seed_thresholds(pts[by_cell_z, 2], starts, counts, seed_quantile)

    # Each cell's points stay in cloud order; the fits depend on row order.
    by_cell = pts[np.argsort(inverse, kind="stable")]
    is_seed = by_cell[:, 2] <= np.repeat(seed_z, counts)
    planes = np.full((len(counts), 3), np.nan)
    for k, (start, stop) in enumerate(zip(starts, starts + counts)):
        plane = _fit_ground_plane(
            by_cell[start:stop][is_seed[start:stop]], height_threshold, refit_rounds
        )
        if plane is not None:
            planes[k] = plane

    fitted = np.all(np.isfinite(planes), axis=1)
    if not np.any(fitted):
        global_z = _seed_thresholds(
            np.sort(pts[:, 2]), np.zeros(1, np.int64), np.array([len(pts)]), seed_quantile
        )[0]
        plane = _fit_ground_plane(pts[pts[:, 2] <= global_z], height_threshold, refit_rounds)
        if plane is None:
            # Tiny cloud: fall back to a horizontal plane through the lowest point.
            plane = np.array([0.0, 0.0, float(pts[:, 2].min())])
        planes[:] = plane
    elif not np.all(fitted):
        uniq = np.column_stack(np.unravel_index(uniq_keys, dims)) + origin
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
    core neighbor (the lowest index on a tie), which keeps membership stable
    under input reordering. Points with no core neighbor are dropped as
    noise. Clusters come back ordered by their smallest cloud index.

    The neighbor pairs come from one k-d tree pair query; the core graph's
    components come from ``scipy.sparse.csgraph``, and one sort over
    (point, squared distance, neighbor) picks every border point's nearest
    core neighbor.
    """
    # Imported here: csgraph pulls in scipy.sparse.linalg, about 25 ms of
    # start-up that runs with sidecar labels never use.
    from scipy.sparse.csgraph import connected_components

    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be at least 1, got {min_pts}")
    idx = np.asarray(indices, dtype=np.int64)
    if len(idx) == 0:
        return []
    pts = np.asarray(cloud, dtype=float)[idx]

    pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray")
    core = np.bincount(pairs.ravel(), minlength=len(pts)) + 1 >= min_pts
    n_core = int(core.sum())
    if n_core == 0:
        return []
    first, second = pairs.T
    rank = np.cumsum(core) - 1
    linked = core[first] & core[second]
    graph = csr_array(
        (np.ones(int(linked.sum()), dtype=np.int8), (rank[first[linked]], rank[second[linked]])),
        shape=(n_core, n_core),
    )
    labels = np.full(len(pts), -1, dtype=np.int64)
    labels[core] = connected_components(graph, directed=False)[1]

    # Each (border point, core neighbor) pair, in both pair orientations.
    to_second = core[second] & ~core[first]
    to_first = core[first] & ~core[second]
    border = np.concatenate([first[to_second], second[to_first]])
    neighbor = np.concatenate([second[to_second], first[to_first]])
    delta = pts[neighbor] - pts[border]
    # Summed in the order np.sum(axis=1) adds three terms: near-ties between
    # core neighbors resolve on the last bit.
    d2 = (delta[:, 0] ** 2 + delta[:, 1] ** 2) + delta[:, 2] ** 2
    pick = np.lexsort((neighbor, d2, border))
    border, neighbor = border[pick], neighbor[pick]
    nearest = np.diff(border, prepend=-1) != 0
    labels[border[nearest]] = labels[neighbor[nearest]]

    members = np.argsort(labels, kind="stable")
    members = members[labels[members] >= 0]
    groups = np.split(idx[members], np.cumsum(np.bincount(labels[members]))[:-1])
    out = [Cluster.from_indices(cloud, g) for g in groups]
    out.sort(key=lambda c: int(c.point_indices[0]))
    return out


def _per_point(path: str | Path, n_points: int, noun: str, parse) -> list:
    """One value per non-blank line of a sidecar, read by ``parse``, which
    raises ``ValueError`` with the reason; the count must be ``n_points``."""
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if token := line.strip():
                try:
                    vals.append(parse(token))
                except ValueError as exc:
                    raise ValidationError(f"{path}: line {lineno}: {exc}") from None
    if len(vals) != n_points:
        raise ValidationError(f"{path}: {len(vals)} {noun} for a cloud of {n_points} points")
    return vals


def _ground_flag(token: str) -> bool:
    if token not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {token!r}")
    return token == "1"


def _label(token: str) -> int:
    try:
        v = int(token)
    except ValueError:
        raise ValueError(f"not an integer: {token!r}") from None
    if v < -1:
        raise ValueError(f"label must be >= -1, got {v}")
    return v


def load_ground_mask(path: str | Path, n_points: int) -> np.ndarray:
    """Read a precomputed ground mask: one 0/1 per line, 1 meaning ground."""
    return np.asarray(_per_point(path, n_points, "mask entries", _ground_flag), dtype=bool)


def load_point_labels(path: str | Path, n_points: int) -> np.ndarray:
    """Read per-point integer labels: -1 for ground/noise, else a cluster id."""
    return np.asarray(_per_point(path, n_points, "labels", _label), dtype=np.int64)


def clusters_from_labels(cloud: np.ndarray, labels: np.ndarray) -> list[Cluster]:
    """Build clusters from a per-point label array, ordered by label value."""
    labels = np.asarray(labels, dtype=np.int64)
    out = []
    for cid in np.unique(labels[labels >= 0]):
        out.append(Cluster.from_indices(cloud, np.where(labels == cid)[0]))
    return out
