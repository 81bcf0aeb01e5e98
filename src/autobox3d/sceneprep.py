"""Scene loading, ground removal, and point clustering.

A scene is one LiDAR sweep plus its cameras. Preparation strips the ground
with piecewise plane fits and groups the remaining points into clusters by
density connectivity; those clusters are what the association and fitting
stages consume; a cluster is the ascending int64 array of its points'
indices into the scene cloud. Sidecar loaders let precomputed ground masks
or cluster labels short-circuit either step.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The gufunc np.linalg.lstsq calls. numpy 1.x splits it into lstsq_m and
# lstsq_n, so there this import fails, naming it.
from numpy.linalg._umath_linalg import lstsq as _lstsq_gufunc

from .errors import CloudFormatError, ValidationError, as_dict, as_floats, as_int, as_str, reading
from .geom import CameraCalib, EgoPose


@dataclass(frozen=True)
class GroundConfig:
    """Ground removal settings, the ``ground`` config section (see ``remove_ground``)."""

    cell: float = 4.0
    height_threshold: float = 0.25
    refit_rounds: int = 3
    seed_quantile: float = 0.30

    def __post_init__(self) -> None:
        if self.cell <= 0 or self.height_threshold <= 0:
            raise ValidationError("ground cell and height threshold must be positive")
        if self.refit_rounds < 0:
            raise ValidationError("ground refit rounds must be non-negative")
        if not (0.0 < self.seed_quantile <= 1.0):
            raise ValidationError(f"seed_quantile must be in (0, 1], got {self.seed_quantile}")


@dataclass(frozen=True)
class ClusterConfig:
    """Clustering settings, the ``clustering`` config section (see ``cluster_objects``)."""

    eps: float = 0.5
    min_pts: int = 5

    def __post_init__(self) -> None:
        if self.eps <= 0 or self.min_pts < 1:
            raise ValidationError("clustering needs eps > 0 and min_pts >= 1")


@dataclass(eq=False)
class Scene:
    """One sweep: the (N, 3) float64 cloud, the ego pose, and the cameras by id."""

    frame_id: str
    cloud: np.ndarray
    ego: EgoPose
    cameras: dict[str, CameraCalib]


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
    if not np.isfinite(arr).all():
        first = int(np.argmin(np.isfinite(arr).all(axis=1)))
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
    """Write an (N, 3) cloud as 16-byte float32 records with a zero intensity column."""
    out = np.zeros((len(points), 4), dtype="<f4")
    out[:, :3] = points
    Path(path).write_bytes(out.tobytes())


def discover_frames(scenes_dir: str | Path) -> list[str]:
    """Frame ids under a scenes dir: every ``<id>.calib.json``, sorted."""
    scenes_dir = Path(scenes_dir)
    if not scenes_dir.is_dir():
        raise ValidationError(f"scenes directory not found: {scenes_dir}")
    return sorted(p.name[: -len(".calib.json")] for p in scenes_dir.glob("*.calib.json"))


def cloud_path(scenes_dir: Path, frame_id: str) -> Path:
    """``<frame_id>.bin``, else ``<frame_id>.csv``, under ``scenes_dir``."""
    for suffix in (".bin", ".csv"):
        path = scenes_dir / f"{frame_id}{suffix}"
        if path.exists():
            return path
    raise ValidationError(f"frame {frame_id}: no cloud file under {scenes_dir}")


def load_scene(
    scenes_dir: Path, frame_id: str, ego: EgoPose, cameras: dict[str, CameraCalib]
) -> Scene:
    """The scene of ``frame_id``: its ``cloud_path`` cloud with the ``ego`` pose
    and ``cameras`` that ``load_calib`` read for the frame."""
    return Scene(frame_id, load_cloud(cloud_path(scenes_dir, frame_id)), ego, cameras)


def load_calib(scenes_dir: Path, frame_id: str) -> tuple[EgoPose, dict[str, CameraCalib]]:
    """The ego pose of ``<frame_id>.calib.json`` and its cameras by id; an
    entry that repeats an earlier camera id fails, naming the entry."""
    calib_path = scenes_dir / f"{frame_id}.calib.json"
    try:
        calib_raw = json.loads(calib_path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"frame {frame_id}: missing {calib_path.name}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{calib_path}: not valid JSON: {exc}") from exc
    with reading(calib_path):
        as_dict(calib_raw, "the document")
        ego = EgoPose(*as_floats(calib_raw["ego"], "ego", (3,)).tolist())
        entries = calib_raw["cameras"]
        if not isinstance(entries, list):
            raise ValueError(f"cameras must be a list, got {entries!r}")
    cameras: dict[str, CameraCalib] = {}
    for k, cam in enumerate(entries):
        where = f"{calib_path}: camera {k}"
        as_dict(cam, where)
        with reading(where):
            calib = CameraCalib(
                extrinsic=as_floats(cam["extrinsic"], "extrinsic", (4, 4)),
                intrinsic=as_floats(cam["intrinsic"], "intrinsic", (3, 3)),
                image_width=as_int(cam["image_width"], "image_width"),
                image_height=as_int(cam["image_height"], "image_height"),
                camera_id=as_str(cam["camera_id"], "camera_id"),
            )
            if calib.camera_id in cameras:
                raise ValueError(f"duplicate camera id {calib.camera_id!r}")
        cameras[calib.camera_id] = calib
    return ego, cameras


def _lstsq_failed(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _fit_planes(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Least-squares z = a*x + b*y + c through each run of ``counts`` rows,
    the runs back to back in ``rows`` and each at least 3 rows long.

    Runs of one length go to one call of the gufunc that ``np.linalg.lstsq``
    wraps, with its ``rcond`` and error state. The gufunc runs LAPACK's
    ``dgelsd`` on each run alone, with a workspace sized by the run length,
    so each plane is the float ``lstsq`` returns for that run.
    """
    by_len = np.argsort(counts, kind="stable")
    lens = counts[by_len]
    first = np.cumsum(lens) - lens
    # The rows run by run in order of length, then the design matrix [x, y, 1].
    shift = np.repeat((np.cumsum(counts) - counts)[by_len] - first, lens)
    design = np.take(rows, np.arange(len(rows)) + shift, axis=0)
    z = design[:, 2:].copy()
    design[:, 2] = 1.0
    planes = np.empty((len(counts), 3))
    cuts = np.flatnonzero(np.diff(lens, prepend=0, append=0)).tolist()
    with np.errstate(
        call=_lstsq_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
    ):
        for i, j in zip(cuts[:-1], cuts[1:]):
            m = int(lens[i])
            rows_of = slice(int(first[i]), int(first[i]) + (j - i) * m)
            sol = _lstsq_gufunc(
                design[rows_of].reshape(j - i, m, 3),
                z[rows_of].reshape(j - i, m, 1),
                np.finfo(float).eps * max(m, 3),
                signature="ddd->ddid",
            )[0]
            planes[by_len[i:j]] = sol[..., 0]
    return planes


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


def _fit_ground_planes(seeds: np.ndarray, counts: np.ndarray, config: GroundConfig) -> np.ndarray:
    """A plane through each region's seed points, with outlier-rejecting refits.

    ``seeds`` holds the regions' seed points back to back, each region's in
    cloud order, and ``counts`` how many each region has. A region with
    fewer than 3 seed points, or whose first fit is non-finite, gets a row
    of NaN. Every region refits in the same rounds and leaves them at the
    first of: a non-finite refit (keeping its last plane), fewer than 3
    points within ``config.height_threshold`` of its plane, or all of them.
    """
    planes = np.full((len(counts), 3), np.nan)
    live = np.flatnonzero(counts >= 3)
    rows, n = seeds.compress(np.repeat(counts >= 3, counts), axis=0), counts[live]
    for refit in range(config.refit_rounds + 1):
        if len(live) == 0:
            break
        fit = _fit_planes(rows, n)
        ok = np.isfinite(fit).all(axis=1)
        planes[live[ok]] = fit[ok]
        if refit == config.refit_rounds:
            break
        rows, live, n, fit = rows.compress(np.repeat(ok, n), axis=0), live[ok], n[ok], fit[ok]
        keep = _plane_residuals(rows, np.repeat(fit, n, axis=0).T) <= config.height_threshold
        n_keep = np.add.reduceat(keep, np.cumsum(n) - n, dtype=np.intp)
        go = (n_keep >= 3) & (n_keep < n)
        rows, live, n = rows.compress(keep & np.repeat(go, n), axis=0), live[go], n_keep[go]
    return planes


def remove_ground(cloud: np.ndarray, config: GroundConfig) -> tuple[np.ndarray, np.ndarray]:
    """Split a cloud into (ground_indices, object_indices).

    The xy plane is tiled into ``config.cell`` squares; each cell fits a
    plane to its points at or below its ``config.seed_quantile`` height,
    with ``config.refit_rounds`` outlier-rejecting refits. Cells with fewer
    than 3 seed points inherit the nearest fitted cell's plane (or a single
    global fit when no cell succeeds). A point is ground when it sits within
    ``config.height_threshold`` of its cell's plane. The two index arrays
    are ascending and partition the cloud exactly.

    Points are grouped by one scalar key per cell, the row-major index of
    the cell in the occupied grid, which orders cells lexicographically by
    (x, y); a grid too large for int64 keys raises ``ValidationError``. All
    seed heights come from one sort of z within cells. Each cell's plane is
    a least-squares fit to its seed points in cloud order; every cell fits
    and refits in the same rounds, with one LAPACK call per seed count and
    round (``_fit_planes``).
    """
    if len(cloud) == 0:
        raise ValidationError("cannot remove ground from an empty cloud")

    cx = np.floor(cloud[:, 0] / config.cell).astype(np.int64)
    cy = np.floor(cloud[:, 1] / config.cell).astype(np.int64)
    origin = np.array([cx.min(), cy.min()])
    dims = np.array([cx.max(), cy.max()]) - origin + 1
    try:
        keys = np.ravel_multi_index((cx - origin[0], cy - origin[1]), dims)
    except ValueError:
        raise ValidationError(
            f"ground grid of {dims[0]} x {dims[1]} cells of size {config.cell} "
            "is too large to index"
        ) from None
    # Stable sorts keep each cell's points in cloud order; the fits depend on
    # row order. Keys and cell ids are cast to the smallest unsigned type,
    # which lets numpy's stable argsort run as a radix sort.
    order = np.argsort(keys.astype(np.min_scalar_type(keys.max())), kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.diff(sorted_keys, prepend=-1))
    counts = np.diff(starts, append=len(cloud))
    inverse = np.empty(len(cloud), np.intp)
    inverse[order] = np.repeat(np.arange(len(counts)), counts)
    # z order, then a stable sort by cell.
    by_z = np.argsort(cloud[:, 2])
    cell_ids = inverse[by_z].astype(np.min_scalar_type(len(counts) - 1))
    by_cell_z = by_z[np.argsort(cell_ids, kind="stable")]
    seed_z = _seed_thresholds(cloud[by_cell_z, 2], starts, counts, config.seed_quantile)

    is_seed = cloud[order, 2] <= np.repeat(seed_z, counts)
    seed_counts = np.add.reduceat(is_seed, starts, dtype=np.intp)
    planes = _fit_ground_planes(np.take(cloud, order.compress(is_seed), axis=0), seed_counts, config)

    fitted = np.all(np.isfinite(planes), axis=1)
    if not np.any(fitted):
        global_z = _seed_thresholds(
            np.sort(cloud[:, 2]), np.zeros(1, np.int64), np.array([len(cloud)]), config.seed_quantile
        )[0]
        seeds = cloud[cloud[:, 2] <= global_z]
        plane = _fit_ground_planes(seeds, np.array([len(seeds)]), config)[0]
        if np.isnan(plane[0]):
            # Tiny cloud: fall back to a horizontal plane through the lowest point.
            plane = np.array([0.0, 0.0, float(cloud[:, 2].min())])
        planes[:] = plane
    elif not np.all(fitted):
        uniq = np.column_stack(np.unravel_index(sorted_keys[starts], dims)) + origin
        centers = (uniq.astype(float) + 0.5) * config.cell
        missing = np.where(~fitted)[0]
        have = np.where(fitted)[0]
        for k in missing:
            d2 = np.sum((centers[have] - centers[k]) ** 2, axis=1)
            planes[k] = planes[have[int(np.argmin(d2))]]

    ground = _plane_residuals(cloud, np.take(planes, inverse, axis=0).T) <= config.height_threshold
    return np.where(ground)[0], np.where(~ground)[0]


def cluster_objects(
    cloud: np.ndarray, indices: np.ndarray, config: ClusterConfig
) -> list[np.ndarray]:
    """Density-connected clusters among ``cloud[indices]``.

    A point with at least ``config.min_pts`` neighbors within ``config.eps``
    (itself included) is a core point; clusters are the connected
    components of core points, and each non-core point joins the cluster of
    its nearest core neighbor (the lowest index on a tie), which keeps
    membership stable under input reordering. Points with no core neighbor
    are dropped as noise. Clusters come back ordered by their smallest
    cloud index.

    The neighbor pairs come from one k-d tree pair query; the core graph's
    components come from ``scipy.sparse.csgraph``, and one sort over
    (point, squared distance, neighbor) picks every border point's nearest
    core neighbor.
    """
    # Imported here: scipy.sparse and scipy.spatial take about 0.45 s to import,
    # which runs that never cluster (sidecar labels, bench, synth) then skip.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    if len(indices) == 0:
        return []
    pts = cloud[indices]

    pairs = cKDTree(pts).query_pairs(config.eps, output_type="ndarray")
    core = np.bincount(pairs.ravel(), minlength=len(pts)) + 1 >= config.min_pts
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

    cloud_labels = np.full(len(cloud), -1, dtype=np.int64)
    cloud_labels[indices] = labels
    return sorted(clusters_from_labels(cloud_labels), key=lambda c: int(c[0]))


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
    """Read per-point integer labels: -1 for ground/noise, else a cluster id.

    ``np.loadtxt`` reads a well-formed file; anything else goes through the
    line reader, which names the bad line or reads what ``int`` accepts.
    """
    try:
        with warnings.catch_warnings():
            # A file of blank lines; the line reader reports its count.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            labels = np.loadtxt(path, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        # ndmin=2 keeps a one-line "1 2" as one row of two labels, not two.
        if labels.shape == (n_points, 1) and (labels >= -1).all():
            return labels[:, 0]
    return np.asarray(_per_point(path, n_points, "labels", _label), dtype=np.int64)


def clusters_from_labels(labels: np.ndarray) -> list[np.ndarray]:
    """Clusters from a per-point label array (-1 for none), in label order:
    each the ascending int64 indices of the points that share a label."""
    members = np.flatnonzero(labels >= 0)
    members = members[np.argsort(labels[members], kind="stable")]
    groups = np.split(members, np.flatnonzero(np.diff(labels[members])) + 1)
    return [g for g in groups if len(g)]
