"""Box-parameter search: particle swarm, and a budgeted grid baseline.

Both searches minimize the totals of a candidate evaluator (in production,
``BoxCostBatch.evaluate``) over the seven box parameters
(x, y, z, l, w, h, ry) under hard constraints: dimensions inside the class
anchor range, yaw in [0, pi) thanks to the half-turn symmetry of a box,
and centers inside the cluster's dilated bounding region. Cost is charged
per evaluated candidate so the two methods compare at equal budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assoc import Ray, points_to_ray_distances
from .costfn import AnchorRange, BatchEval, CostBreakdown
from .geom import BoxParams

# Candidate evaluator used by the search loops: (S, 7) thetas -> BatchEval.
EvalFn = Callable[[np.ndarray], BatchEval]


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm search settings.

    Inertia follows a half-cosine ramp from ``w_init`` down to ``w_end``
    across the iterations; ``c1``/``c2`` weigh the pull toward each
    particle's own best and the swarm best. ``c_noise`` scales the spread
    of initial positions relative to the class anchor size.
    """

    n_swarm: int = 50
    n_iter: int = 3000
    w_init: float = 10.0
    w_end: float = 0.1
    c1: float = 1.0
    c2: float = 1.0
    c_noise: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_swarm < 1:
            raise ValueError(f"n_swarm must be at least 1, got {self.n_swarm}")
        if self.n_iter < 1:
            raise ValueError(f"n_iter must be at least 1, got {self.n_iter}")
        for name in ("w_init", "w_end", "c1", "c2", "c_noise"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {v}")
        if self.w_init < self.w_end:
            raise ValueError(
                f"w_init must not be below w_end, got {self.w_init} < {self.w_end}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(eq=False)
class SearchResult:
    """Outcome of one search: best box, its cost breakdown, and bookkeeping.

    ``trace`` holds the swarm's best total after each iteration (None for
    the grid); ``evaluations`` counts every scored candidate.
    """

    best_box: BoxParams
    best_cost: CostBreakdown
    evaluations: int
    trace: np.ndarray | None = None


def inertia_at(iteration: int, cfg: SwarmConfig) -> float:
    """Inertia weight at a given iteration of the half-cosine ramp.

    Returns exactly ``w_init`` at iteration 0 and ``w_end`` at the last
    iteration, decreasing monotonically in between.
    """
    if not 0 <= iteration < cfg.n_iter:
        raise ValueError(f"iteration {iteration} outside [0, {cfg.n_iter})")
    if iteration == 0 or cfg.n_iter == 1:
        return cfg.w_init
    if iteration == cfg.n_iter - 1:
        return cfg.w_end
    frac = iteration / (cfg.n_iter - 1)
    return cfg.w_end + 0.5 * (cfg.w_init - cfg.w_end) * (1.0 + math.cos(math.pi * frac))


def search_bounds(points: np.ndarray, anchor: AnchorRange) -> tuple[np.ndarray, np.ndarray]:
    """Feasible-region bounds (lower, upper), each shape (7,).

    Centers range over the cluster's axis-aligned bounds dilated by half the
    anchor's largest diagonal, so a box can always cover the cluster from
    either side; dimensions range over the anchor; yaw over [0, pi].
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError("points must be a non-empty (N, 3) array")
    dilate = 0.5 * float(np.linalg.norm(anchor.dims_max))
    lb = np.concatenate([pts.min(axis=0) - dilate, anchor.dims_min, [0.0]])
    ub = np.concatenate([pts.max(axis=0) + dilate, anchor.dims_max, [math.pi]])
    return lb, ub


def clamp_thetas(thetas: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Project candidates onto the feasible region; yaw wraps instead of clips."""
    out = np.array(thetas, dtype=float)
    out[:, :6] = np.clip(out[:, :6], lb[:6], ub[:6])
    out[:, 6] = np.mod(out[:, 6], math.pi)
    return out


def init_particles(
    points: np.ndarray,
    ray: Ray,
    anchor: AnchorRange,
    cfg: SwarmConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Initial swarm positions, shape (n_swarm, 7).

    Half the particles start at the cluster point closest to the frustum
    center ray, the other half at the cluster centroid; both sites get
    Gaussian position noise with per-axis spread ``c_noise`` times the mean
    anchor size. Dimensions and yaw draw uniformly from their ranges.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError("points must be a non-empty (N, 3) array")
    s = cfg.n_swarm
    near_ray = pts[int(np.argmin(points_to_ray_distances(pts, ray)))]
    centroid = pts.mean(axis=0)
    n_near = s // 2
    sites = np.empty((s, 3))
    sites[:n_near] = near_ray
    sites[n_near:] = centroid
    noise_scale = cfg.c_noise * 0.5 * (anchor.dims_min + anchor.dims_max)
    positions = sites + rng.standard_normal((s, 3)) * noise_scale
    dims = rng.uniform(anchor.dims_min, anchor.dims_max, size=(s, 3))
    ry = rng.uniform(0.0, math.pi, size=(s, 1))
    return np.hstack([positions, dims, ry])


def pso_search(
    evaluate: EvalFn,
    points: np.ndarray,
    ray: Ray,
    anchor: AnchorRange,
    cfg: SwarmConfig,
) -> SearchResult:
    """Fit a box to one cluster with a constrained particle swarm.

    ``evaluate`` scores candidates; ``points`` and ``ray`` place the initial
    swarm and bound the search. Every iteration scores the whole swarm once,
    so the total budget is ``n_swarm * n_iter`` evaluations, the first
    iteration being the scored initial population. Runs with the same
    config are bit-reproducible.
    """
    rng = np.random.default_rng(cfg.seed)
    lb, ub = search_bounds(points, anchor)
    vmax = 0.5 * (ub - lb)

    x = clamp_thetas(init_particles(points, ray, anchor, cfg, rng), lb, ub)
    v = np.zeros_like(x)
    res = evaluate(x)
    pbest_x = x.copy()
    pbest_f = res.totals.copy()
    g = int(np.argmin(res.totals))
    gbest_x = x[g].copy()
    gbest_f = float(res.totals[g])
    gbest_parts = res.breakdown_at(g)
    trace = [gbest_f]

    for it in range(1, cfg.n_iter):
        w = inertia_at(it, cfg)
        r1 = rng.random(x.shape)
        r2 = rng.random(x.shape)
        v = w * v + cfg.c1 * r1 * (pbest_x - x) + cfg.c2 * r2 * (gbest_x[None, :] - x)
        np.clip(v, -vmax, vmax, out=v)
        x = clamp_thetas(x + v, lb, ub)
        res = evaluate(x)
        improved = res.totals < pbest_f
        pbest_f = np.where(improved, res.totals, pbest_f)
        pbest_x[improved] = x[improved]
        g = int(np.argmin(res.totals))
        if float(res.totals[g]) < gbest_f:
            gbest_f = float(res.totals[g])
            gbest_x = x[g].copy()
            gbest_parts = res.breakdown_at(g)
        trace.append(gbest_f)

    return SearchResult(
        best_box=BoxParams.from_array(gbest_x),
        best_cost=gbest_parts,
        evaluations=cfg.n_swarm * cfg.n_iter,
        trace=np.asarray(trace),
    )


def grid_axis_counts(budget: int) -> tuple[int, ...]:
    """Grid resolution per axis for a candidate budget, spread evenly.

    Axis counts start at 1 and grow round-robin in the fixed order
    (x, y, z, l, w, h, ry) while the grid size stays within the budget, so
    position axes end up at most one step finer than the rest.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    counts = [1] * 7
    frozen = [False] * 7
    while not all(frozen):
        for k in range(7):
            if frozen[k]:
                continue
            prod = 1
            for j, c in enumerate(counts):
                prod *= c + 1 if j == k else c
            if prod <= budget:
                counts[k] += 1
            else:
                frozen[k] = True
    return tuple(counts)


def _grid_axes(
    counts: tuple[int, ...], lb: np.ndarray, ub: np.ndarray
) -> list[np.ndarray]:
    """Per-axis candidate values: cell centers for position and yaw, inclusive
    endpoints for dimensions (a single value sits mid-range)."""
    axes: list[np.ndarray] = []
    for k in range(3):
        n = counts[k]
        step = (ub[k] - lb[k]) / n
        axes.append(lb[k] + (np.arange(n) + 0.5) * step)
    for k in range(3, 6):
        n = counts[k]
        if n == 1:
            axes.append(np.array([0.5 * (lb[k] + ub[k])]))
        else:
            axes.append(np.linspace(lb[k], ub[k], n))
    n = counts[6]
    axes.append((np.arange(n) + 0.5) * (math.pi / n))
    return axes


def greedy_search(
    evaluate: EvalFn,
    points: np.ndarray,
    anchor: AnchorRange,
    budget: int,
    chunk: int = 2048,
) -> SearchResult:
    """Exhaustive scan of an even grid over the same feasible region.

    The grid shape comes from :func:`grid_axis_counts`, so the number of
    scored candidates is the largest even grid not exceeding ``budget``.
    Ties on cost keep the earliest candidate in grid enumeration order.
    """
    lb, ub = search_bounds(points, anchor)
    counts = grid_axis_counts(budget)
    axes = _grid_axes(counts, lb, ub)
    mesh = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([m.ravel() for m in mesh], axis=1)
    total = len(thetas)

    best_f = math.inf
    best_theta: np.ndarray | None = None
    best_parts: CostBreakdown | None = None
    for start in range(0, total, chunk):
        batch = thetas[start : start + chunk]
        res = evaluate(batch)
        g = int(np.argmin(res.totals))
        if float(res.totals[g]) < best_f:
            best_f = float(res.totals[g])
            best_theta = batch[g]
            best_parts = res.breakdown_at(g)
    assert best_theta is not None and best_parts is not None
    return SearchResult(
        best_box=BoxParams.from_array(best_theta),
        best_cost=best_parts,
        evaluations=total,
    )
