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
from typing import Callable, NamedTuple

import numpy as np

from .costfn import AnchorRange, BatchEval, CostBreakdown
from .geom import BoxParams

# Candidate evaluator used by the search loops: (S, 7) thetas -> BatchEval.
EvalFn = Callable[[np.ndarray], BatchEval]


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm search settings, the ``swarm`` config section.

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


class SwarmStart(NamedTuple):
    """One swarm: the cluster's points and its point nearest the proposal's
    center ray (they place and bound it), anchor, seed."""

    points: np.ndarray
    nearest: np.ndarray
    anchor: AnchorRange
    seed: int


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
    if iteration == 0:
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
    dilate = 0.5 * float(np.linalg.norm(anchor.max))
    lb = np.concatenate([pts.min(axis=0) - dilate, anchor.min, [0.0]])
    ub = np.concatenate([pts.max(axis=0) + dilate, anchor.max, [math.pi]])
    return lb, ub


def clamp_thetas(thetas: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Project candidates (..., 7) onto the feasible region; yaw wraps
    instead of clips. ``lb`` and ``ub`` broadcast against the candidates."""
    out = np.array(thetas, dtype=float)
    out[..., :6] = np.clip(out[..., :6], lb[..., :6], ub[..., :6])
    out[..., 6] = np.mod(out[..., 6], math.pi)
    return out


def init_particles(
    points: np.ndarray,
    nearest: np.ndarray,
    anchor: AnchorRange,
    cfg: SwarmConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Initial swarm positions, shape (n_swarm, 7).

    Half the particles start at ``nearest``, the cluster point closest to the
    frustum center ray, the other half at the cluster centroid; both sites
    get Gaussian position noise with per-axis spread ``c_noise`` times the
    mean anchor size. Dimensions and yaw draw uniformly from their ranges.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) == 0:
        raise ValueError("points must be a non-empty (N, 3) array")
    s = cfg.n_swarm
    n_near = s // 2
    sites = np.empty((s, 3))
    sites[:n_near] = nearest
    sites[n_near:] = pts.mean(axis=0)
    noise_scale = cfg.c_noise * 0.5 * (anchor.min + anchor.max)
    positions = sites + rng.standard_normal((s, 3)) * noise_scale
    dims = rng.uniform(anchor.min, anchor.max, size=(s, 3))
    ry = rng.uniform(0.0, math.pi, size=(s, 1))
    return np.hstack([positions, dims, ry])


def pso_search(evaluate: EvalFn, starts: list[SwarmStart], cfg: SwarmConfig) -> list[SearchResult]:
    """Fit a box to each of K clusters with K constrained particle swarms in lockstep.

    Every iteration scores all K swarms in one ``evaluate`` call of
    K * ``n_swarm`` rows, swarm k in block k. Each swarm's budget is
    ``n_swarm * n_iter`` evaluations, the first iteration being the scored
    initial population. Each swarm keeps its own generator, bounds, bests
    and trace, and its arithmetic is elementwise, so its result is bit for
    bit what it gets searched alone (K = 1). K = 0 returns [] unscored.
    """
    if not starts:
        return []
    k, n = len(starts), cfg.n_swarm
    rngs = [np.random.default_rng(s.seed) for s in starts]
    lb, ub = (np.stack(b)[:, None] for b in zip(*(search_bounds(s.points, s.anchor) for s in starts)))
    vmax = 0.5 * (ub - lb)

    x = [init_particles(s.points, s.nearest, s.anchor, cfg, rng) for s, rng in zip(starts, rngs)]
    x = clamp_thetas(np.stack(x), lb, ub)
    v = np.zeros_like(x)
    pbest_x = x.copy()
    pbest_f = np.full((k, n), np.inf)
    swarms = np.arange(k)
    gbest_x = x[:, 0].copy()
    gbest_f = np.full(k, np.inf)
    gbest_parts: list[CostBreakdown | None] = [None] * k
    trace = np.empty((cfg.n_iter, k))
    # r1 then r2 of every swarm, each pair drawn from the swarm's own generator.
    r = np.empty((k, 2, n, 7))

    # Iteration 0 scores the initial population; the bests start at +inf, and
    # the kernel's totals are finite, so it seeds every best.
    for it in range(cfg.n_iter):
        if it:
            w = inertia_at(it, cfg)
            for rng, out in zip(rngs, r):
                rng.random(out=out)
            v = w * v + cfg.c1 * r[:, 0] * (pbest_x - x) + cfg.c2 * r[:, 1] * (gbest_x[:, None] - x)
            np.clip(v, -vmax, vmax, out=v)
            x = clamp_thetas(x + v, lb, ub)
        res = evaluate(x.reshape(k * n, 7))
        f = res.totals.reshape(k, n)
        improved = f < pbest_f
        pbest_f = np.where(improved, f, pbest_f)
        pbest_x[improved] = x[improved]
        g = np.argmin(f, axis=1)
        best = f[swarms, g]
        for i in np.flatnonzero(best < gbest_f):
            gbest_f[i] = best[i]
            gbest_x[i] = x[i, g[i]]
            gbest_parts[i] = res.breakdown_at(i * n + g[i])
        trace[it] = gbest_f

    return [
        SearchResult(
            best_box=BoxParams.from_array(gbest_x[i]),
            best_cost=gbest_parts[i],
            evaluations=n * cfg.n_iter,
            trace=trace[:, i].copy(),
        )
        for i in range(k)
    ]


def grid_axis_counts(budget: int) -> tuple[int, ...]:
    """Grid resolution per axis for a candidate budget, spread evenly.

    Axis counts start at 1 and grow round-robin in the fixed order
    (x, y, z, l, w, h, ry) while the grid size stays within the budget, so
    position axes end up at most one step finer than the rest.
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    # The grid only grows, so an axis that cannot grow once never can again.
    counts = [1] * 7
    grown = True
    while grown:
        grown = False
        for k in range(7):
            if math.prod(counts) // counts[k] * (counts[k] + 1) <= budget:
                counts[k] += 1
                grown = True
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
) -> SearchResult:
    """Exhaustive scan of an even grid over the same feasible region.

    The grid shape comes from :func:`grid_axis_counts`, so the number of
    scored candidates is the largest even grid not exceeding ``budget``.
    The whole grid goes to ``evaluate`` in one call; ``BoxCostBatch`` chunks
    it internally. Ties on cost keep the earliest candidate in grid
    enumeration order, as ``np.argmin`` does.
    """
    lb, ub = search_bounds(points, anchor)
    axes = _grid_axes(grid_axis_counts(budget), lb, ub)
    mesh = np.meshgrid(*axes, indexing="ij")
    thetas = np.stack([m.ravel() for m in mesh], axis=1)
    res = evaluate(thetas)
    g = int(np.argmin(res.totals))
    return SearchResult(
        best_box=BoxParams.from_array(thetas[g]),
        best_cost=res.breakdown_at(g),
        evaluations=len(thetas),
    )
