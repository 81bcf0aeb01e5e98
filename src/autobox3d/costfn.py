"""Cost terms scored against candidate boxes, and their weighted total.

A candidate is scored against one cluster / 2D-proposal pairing with four
terms, all phrased so that lower is better:

* density: negated fraction of cluster points enclosed by the box.
* lshape: mean distance from enclosed points to the two nearest
  non-parallel top edges of the box, the visible "L" of the roofline.
* surface: negated distance from the ego to the box center in the ground
  plane, clipped at ``c_surface``, which pushes the box toward the visible
  near surface. The clip is set per pair (``adaptive_surface_clip``) and
  passed to ``BoxCostBatch`` next to the ``CostWeights``; it is not a
  config key.
* iou2d: negated, weighted image IoU between the box's near-plane-clipped
  image hull (``geom.image_hulls``) and the 2D proposal rectangle.

``BoxCostBatch`` is the one implementation. It scores many candidates at
once; the swarm search calls it thousands of times per frame, once per
iteration for all of the frame's pairs, so it avoids all per-candidate
Python work and keeps its full (candidates x points) array passes few.

The cluster points' coordinates in each candidate's box frame come from
one float64 BLAS product per row tile of S candidates. The kernel stores
its cluster once as homogeneous offsets [p - o; 1], (4, N), from the
cluster centroid o; the tile stacks its rows' rigid transforms [R | t] into a
(3S, 4) matrix, with t taken from the candidate center minus o, and the
product gives x, y and z as three (S, N) planes. The offsets keep every
term within a few meters of zero, so the coordinates agree with rotating
p minus the center directly to about 1e-15 m, far inside ``BOUNDARY_TOL``.

The top-edge term needs no segment clamping. Only enclosed points count,
and an enclosed point's coordinate along an edge already lies within that
edge's face, so its distance to the edge at x = sx running along y is
sqrt((lx - sx)^2 + dz^2), and likewise for the other edge. Because IEEE
addition is commutative and sqrt is monotone, the nearer of the two is
sqrt(min((lx - sx)^2, (ly - sy)^2) + dz^2), bit for bit what a clamped
point-to-segment distance gives. The one exception is a point in the
``BOUNDARY_TOL`` band just outside a side face: it counts as enclosed, and
the clamped form adds its squared overshoot, at most about 1e-18.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import BOUNDARY_TOL, Box2D, CameraCalib, EgoPose, camera_columns, image_hulls, rect_ious

# Candidate x point elements per row tile of ``BoxCostBatch.evaluate``: 256 KB
# per (S, N) float buffer, which stays in L2 cache. A tile costs fixed overhead.
# A grid-search sweep from 4,096 to 131,072 peaked here (README Performance).
_TILE_ELEMS = 32768
# Rows per chunk of ``BoxCostBatch.evaluate``. Chunks bound the memory of the
# per-row temporaries: one chunk per call raised grid-search's peak RSS 28 %
# and cut its work_per_s about 17 % (ROADMAP dead ends). Annotate calls (about
# 320 to 880 rows) fit in one chunk.
_CHUNK_ROWS = 2048
# How far the skip test of ``BoxCostBatch`` widens each candidate box, in m.
_SKIP_MARGIN = BOUNDARY_TOL + 1e-6


@dataclass(frozen=True)
class CostWeights:
    """Weights of the four cost terms, the ``weights`` config section.

    ``lambda1`` scales the density term, ``lambda2`` the top-edge term,
    ``lambda3`` the near-surface term, and ``gamma`` the image-IoU reward.
    """

    lambda1: float = 5.0
    lambda2: float = 1.0
    lambda3: float = 1.0
    gamma: float = 3.0

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "lambda3", "gamma"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")


@dataclass(eq=False)
class AnchorRange:
    """Per-class bounds on box dimensions (l, w, h), both ends inclusive."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self) -> None:
        for end in ("min", "max"):
            dims = np.asarray(getattr(self, end), dtype=float)
            if dims.shape != (3,) or not np.all(np.isfinite(dims)):
                raise ValueError(f"{end} must be 3 finite numbers, got {dims.tolist()}")
            setattr(self, end, dims)
        if np.any(self.min <= 0):
            raise ValueError(f"anchor minimum dims must be positive, got {self.min}")
        if np.any(self.min > self.max):
            raise ValueError(
                f"anchor minimum must not exceed maximum, got {self.min} > {self.max}"
            )


@dataclass(frozen=True)
class CostBreakdown:
    """Per-term values for one evaluated box.

    ``density``, ``lshape`` and ``surface`` are stored unweighted; ``iou2d``
    is stored as its weighted contribution (already negated and scaled), and
    ``total`` is the weighted sum actually minimized.
    """

    density: float
    lshape: float
    surface: float
    iou2d: float
    total: float


def adaptive_surface_clip(ego: EgoPose, cluster_centroid: np.ndarray, anchor: AnchorRange) -> float:
    """Surface clip distance tuned to one cluster.

    Ego-to-centroid ground distance plus a small outward margin scaled to
    the anchor footprint. Visible-surface points bias the centroid toward
    the ego, so the margin lets the term keep nudging the center outward
    roughly until it reaches the true one; past that it saturates, which
    matters, because an unclipped term would happily push an empty box far
    beyond the cluster while the image IoU stays put along the view ray.
    """
    d = math.hypot(cluster_centroid[0] - ego.x, cluster_centroid[1] - ego.y)
    margin = max(0.5, 0.1 * math.hypot(float(anchor.max[0]), float(anchor.max[1])))
    return d + margin


@dataclass(eq=False)
class BatchEval:
    """Arrays of per-candidate cost values from one batched evaluation."""

    totals: np.ndarray
    density: np.ndarray
    lshape: np.ndarray
    surface: np.ndarray
    iou2d: np.ndarray

    def breakdown_at(self, i: int) -> CostBreakdown:
        terms = (self.density, self.lshape, self.surface, self.iou2d, self.totals)
        return CostBreakdown(*(float(term[i]) for term in terms))


def _tiles(stop: int, tile: int) -> list[tuple[int, int]]:
    """Row ranges of [0, stop), each of one to two ``tile``s of rows; none if it is empty."""
    rows = -(-stop // max(1, stop // tile)) or 1
    return [(s, min(s + rows, stop)) for s in range(0, stop, rows)]


def _box_frames(th, cos, sin, origin) -> np.ndarray:
    """[R | t] of rows ``th`` into their box frames, (3, S, 4); t is the center minus ``origin``."""
    tx, ty, tz = th[:, :3].T - origin
    rt = np.zeros((3, len(th), 4))
    rt[0, :, 0] = rt[1, :, 1] = cos
    rt[0, :, 1] = sin
    rt[1, :, 0] = -sin
    rt[2, :, 2] = 1.0
    rt[0, :, 3] = -(cos * tx + sin * ty)
    rt[1, :, 3] = sin * tx - cos * ty
    rt[2, :, 3] = -tz
    return rt


# Rows of a BoxCostBatch parameter column: proposal, ego x y, weights and
# surface clip, the center and half-extents of the cluster's axis-aligned
# bounding box, the cluster centroid, camera.
_RECT, _EGO, _WEIGHTS, _BOUNDS, _ORIGIN, _CAMERA = (
    slice(0, 4), slice(4, 6), slice(6, 11), slice(11, 17), slice(17, 20), slice(20, None)
)


class BoxCostBatch:
    """The fitting cost of many candidate boxes at once.

    Bound to one cluster / ego / 2D-proposal / camera / weights / surface
    clip set; a ``join`` of K kernels splits its rows into K equal blocks,
    block k scored against set k. It checks none of these: ``fit_pair``
    builds it from a non-empty cluster and a finite positive clip, and the
    searches pass float (S, 7) rows, K equal blocks when joined. Rows go
    through in chunks of at most ``_CHUNK_ROWS``. In each chunk, the terms
    that read no point run once, from per-row parameter columns. The (S, N)
    point terms run only on the rows that the skip test below keeps: each
    block's kept rows are packed and taken in row tiles of about
    ``_TILE_ELEMS`` (candidate, point) elements, so their buffers stay in
    cache and no tile holds a skipped row.

    The skip test widens each box by ``_SKIP_MARGIN``, ``BOUNDARY_TOL``
    plus 1e-6 m, and looks for a separating axis between it and the
    cluster's axis-aligned bounding box among world x, y and z and the
    box's own x and y. For a box that turns only about z, these are all
    the axes on which the two can separate. A point that the pass counts
    lies within ``BOUNDARY_TOL`` of the box, give or take the product's
    ~1e-15 m error, so it lies inside the widened box with about 1e-6 m to
    spare. That is far more than the rounding of the test's own arithmetic
    (~1e-14 m at scene scale), so no axis separates a row that encloses a
    point. A skipped row keeps density and lshape 0.0, exactly what the
    pass gives a row that encloses no point (``-counts / N`` is +0.0 at
    zero counts), so the skip changes no bit of the result.

    A candidate's result depends on the rows around it only through its
    tile's row count, which is set by how many rows its block keeps in its
    chunk. ``_hom`` is F-contiguous, and on it OpenBLAS 0.3.31 rounds the
    last N mod 8 columns of the box-frame product differently as the row
    count changes (README Performance), so the tiles are part of the
    result. The top-edge term uses the enclosed-point identity from the
    module docstring instead of clamping.
    """

    def __init__(
        self,
        points: np.ndarray,
        ego: EgoPose,
        proposal: Box2D,
        calib: CameraCalib,
        weights: CostWeights,
        c_surface: float,
    ) -> None:
        self.n_points = len(points)
        origin = points.mean(axis=0)
        self._hom = np.vstack([(points - origin).T, np.ones(len(points))])
        self._tile = max(1, _TILE_ELEMS // self.n_points)
        self.parts: tuple[BoxCostBatch, ...] = (self,)
        # (row count, chunks) of the last call on a joined kernel; a plain
        # kernel keeps none (``join``).
        self._layout: tuple[int, list] | None = None
        lo, hi = points.min(axis=0), points.max(axis=0)
        self._cols = np.concatenate([
            [proposal.u_min, proposal.v_min, proposal.u_max, proposal.v_max, ego.x, ego.y,
             weights.lambda1, weights.lambda2, weights.lambda3, weights.gamma, c_surface],
            0.5 * (lo + hi), 0.5 * (hi - lo), origin,
            camera_columns([calib])[:, 0],
        ])[:, None]

    @classmethod
    def join(cls, kernels: list[BoxCostBatch]) -> BoxCostBatch:
        """One kernel whose block k scores bit for bit as ``kernels[k]``.

        ``n_points`` is the mean over the clusters, so rows times
        ``n_points`` still counts (candidate, point) pairs. The joined
        kernel keeps its row layout (``_chunks``) while the row count stays
        the same, as over a lockstep search. A plain kernel keeps none, so
        a kernel handed a whole grid holds no columns between calls.
        """
        joined = cls.__new__(cls)
        joined.parts = tuple(part for k in kernels for part in k.parts)
        joined.n_points = sum(part.n_points for part in joined.parts) / len(joined.parts)
        joined._cols = np.concatenate([part._cols for part in joined.parts], axis=1)
        joined._layout = (0, [])  # zero rows make no chunks
        return joined

    def evaluate(self, thetas: np.ndarray) -> BatchEval:
        """Score candidates of shape (S, 7) laid out as (x, y, z, l, w, h, ry)."""
        chunks = self._chunks(len(thetas))
        if self._layout is not None:
            if self._layout[0] != len(thetas):
                self._layout = (len(thetas), list(chunks))
            chunks = self._layout[1]
        out = np.empty((5, len(thetas)))
        for c0, c1, cols, parts, starts in chunks:
            out[:, c0:c1] = self._score(thetas[c0:c1], cols, parts, starts)
        return BatchEval(*out)

    def _chunks(self, n: int):
        """Row layout of n rows, one (c0, c1, cols, parts, starts) per chunk
        [c0, c1): its per-row parameter columns, the kernel of each block in
        it, and each block's first row in the chunk, then the chunk's size."""
        rows = n // len(self.parts)
        for c0 in range(0, n, _CHUNK_ROWS):
            c1 = min(c0 + _CHUNK_ROWS, n)
            blocks = range(c0 // rows, (c1 - 1) // rows + 1)
            starts = np.array([max(c0, i * rows) - c0 for i in blocks] + [c1 - c0])
            cols = self._cols.take(np.arange(c0, c1) // rows, axis=1)
            yield c0, c1, cols, [self.parts[i] for i in blocks], starts

    def _score(self, th: np.ndarray, cols: np.ndarray, parts, starts) -> tuple[np.ndarray, ...]:
        """(totals, density, lshape, surface, iou2d) of rows ``th`` under
        per-row parameter columns ``cols``; the point terms run on the kept
        rows of each block, block i scored by ``parts[i]`` from row
        ``starts[i]`` up to ``starts[i + 1]``."""
        ego_x, ego_y = cols[_EGO]
        lambda1, lambda2, lambda3, gamma, c_surface = cols[_WEIGHTS]
        trig = cos, sin = np.cos(th[:, 6]), np.sin(th[:, 6])
        edx, edy = ego_x - th[:, 0], ego_y - th[:, 1]
        # Rows that cannot enclose a point keep density and lshape 0.0 (class
        # docstring). The kept rows' transforms and point pass values are set
        # up once; each block's kept rows are one run of them, tiled.
        kept = np.flatnonzero(self._may_enclose(th, cos, sin, cols[_BOUNDS]))
        th_k, cos_k, sin_k, ex, ey = th[kept], cos[kept], sin[kept], edx[kept], edy[kept]
        rt = _box_frames(th_k, cos_k, sin_k, cols[_ORIGIN][:, kept])
        # Ego position in each box frame picks the near top edges by sign:
        # the edge at x = sx running along y, and the edge at y = sy running
        # along x, both on the top face.
        half_l, half_w, half_h = half = 0.5 * th_k[:, 3:6].T
        e_lx = cos_k * ex + sin_k * ey
        e_ly = cos_k * ey - sin_k * ex
        per_row = np.vstack([half + BOUNDARY_TOL, np.where(e_lx > 0.0, half_l, -half_l),
                             np.where(e_ly > 0.0, half_w, -half_w), half_h])
        terms = np.empty((2, len(kept)))
        ends = np.searchsorted(kept, starts).tolist()
        for part, a0, b0 in zip(parts, ends[:-1], ends[1:]):
            if a0 == b0:
                continue
            for a, b in _tiles(b0 - a0, part._tile):
                t = slice(a0 + a, a0 + b)
                terms[:, t] = part._point_terms(rt[:, t], per_row[:, t])
        density, lshape = np.zeros((2, len(th)))
        density[kept], lshape[kept] = terms

        surface = -np.minimum(np.hypot(edx, edy), c_surface)

        iou_term = -gamma * rect_ious(image_hulls(th, cols[_CAMERA], trig)[0], cols[_RECT])

        totals = lambda1 * density + lambda2 * lshape + lambda3 * surface + iou_term
        return totals, density, lshape, surface, iou_term

    @staticmethod
    def _may_enclose(th, cos, sin, bounds) -> np.ndarray:
        """Rows whose box, widened by ``_SKIP_MARGIN``, no axis separates from
        the cluster's bounding box (center and half-extents ``bounds``, (6, S));
        a NaN bound separates nothing."""
        (dx, dy, dz), (ax, ay, az) = bounds[:3] - th[:, :3].T, bounds[3:]
        hl, hw, hh = (0.5 * th[:, 3:6] + _SKIP_MARGIN).T
        ac, as_ = np.abs(cos), np.abs(sin)
        far = np.abs(dx) > hl * ac + hw * as_ + ax
        far |= np.abs(dy) > hl * as_ + hw * ac + ay
        far |= np.abs(dz) > hh + az
        far |= np.abs(cos * dx + sin * dy) > hl + ax * ac + ay * as_
        far |= np.abs(cos * dy - sin * dx) > hw + ax * as_ + ay * ac
        return ~far

    def _point_terms(self, rt, per_row) -> tuple[np.ndarray, np.ndarray]:
        """(density, lshape) against this kernel's one cluster of the rows with
        transforms ``rt``, (3, S, 4), and ``per_row`` values, (6, S): half
        extents plus ``BOUNDARY_TOL``, edge offsets sx and sy, half height."""
        lim_x, lim_y, lim_z, sx, sy, hh = per_row[:, :, None]

        # Cluster points in each candidate's box frame, (S, N): the stacked
        # transforms times the homogeneous points give lx, ly and lz as three
        # contiguous planes.
        lx, ly, lz = (rt.reshape(-1, 4) @ self._hom).reshape(3, rt.shape[1], self.n_points)
        buf = np.abs(lx)
        inside = buf <= lim_x
        inside &= np.abs(ly, out=buf) <= lim_y
        inside &= np.abs(lz, out=buf) <= lim_z
        counts = inside.sum(axis=1)

        # Distance to the nearer top edge; enclosed points need no clamping
        # (see the module docstring). The (S, N) passes dominate the cost, so
        # buffers are reused once a value is dead.
        lx -= sx
        ly -= sy
        lz -= hh
        d_near = np.minimum(np.square(lx, out=lx), np.square(ly, out=ly), out=lx)
        d_near += np.square(lz, out=lz)
        np.sqrt(d_near, out=d_near)
        # Zeroed outside the box (a finite d_near times False is +0.0), then
        # summed over the full row, so numpy's pairwise summation groups the
        # terms the same way whatever the mask.
        d_near *= inside
        lshape = np.where(counts > 0, d_near.sum(axis=1) / np.maximum(counts, 1), 0.0)
        return -counts / self.n_points, lshape
