"""Loop versions of ground removal and DBSCAN, kept as test references.

These are the per-cell and per-point Python implementations that
``sceneprep.remove_ground`` and ``sceneprep.cluster_objects`` replaced:
``np.unique`` over cell rows, ``np.quantile`` per cell, ``query_ball_point``
neighbor lists, a breadth-first search over core points and a per-point
nearest-core loop. The vectorised versions must return the same arrays
bit for bit.
"""

import numpy as np
from scipy.spatial import cKDTree

from autobox3d.errors import ValidationError
from autobox3d.sceneprep import ClusterConfig, GroundConfig, _fit_plane, _plane_residuals


def fit_ground_plane_loop(
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


def remove_ground_loop(cloud: np.ndarray, config: GroundConfig) -> tuple[np.ndarray, np.ndarray]:
    """Split a cloud into (ground_indices, object_indices).

    The xy plane is tiled into ``cell_size`` squares; each cell fits a plane
    to its lowest-z quantile with ``refit_rounds`` outlier-rejecting refits.
    Cells with fewer than 3 seed points inherit the nearest fitted cell's
    plane (or a single global fit when no cell succeeds). A point is ground
    when it sits within ``height_threshold`` of its cell's plane. The two
    index arrays are ascending and partition the cloud exactly.
    """
    cell_size, height_threshold = config.cell, config.height_threshold
    refit_rounds, seed_quantile = config.refit_rounds, config.seed_quantile
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
        plane = fit_ground_plane_loop(pts[members], height_threshold, refit_rounds, seed_quantile)
        if plane is not None:
            planes[k] = plane

    fitted = np.all(np.isfinite(planes), axis=1)
    if not np.any(fitted):
        plane = fit_ground_plane_loop(pts, height_threshold, refit_rounds, seed_quantile)
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


def cluster_objects_loop(
    cloud: np.ndarray, indices: np.ndarray, config: ClusterConfig
) -> list[np.ndarray]:
    """Density-connected clusters among ``cloud[indices]``, each the sorted
    array of its cloud indices.

    A point with at least ``min_pts`` neighbors within ``eps`` (itself
    included) is a core point; clusters are the connected components of
    core points, and each non-core point joins the cluster of its nearest
    core neighbor, which keeps membership stable under input reordering.
    Points with no core neighbor are dropped as noise. Clusters come back
    ordered by their smallest cloud index.
    """
    eps, min_pts = config.eps, config.min_pts
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

    out = [np.sort(idx[labels == cid]) for cid in range(n_clusters)]
    out.sort(key=lambda c: int(c[0]))
    return out
