"""Swarm search, inertia schedule, bounds, and the grid baseline."""

import math
from dataclasses import replace

import numpy as np
import pytest

from autobox3d.costfn import BoxCostBatch, CostWeights
from autobox3d.optimizer import (
    SwarmConfig,
    SwarmStart,
    _grid_axes,
    clamp_thetas,
    greedy_search,
    grid_axis_counts,
    inertia_at,
    init_particles,
    pso_search,
    search_bounds,
)

from _util import (
    CAR_ANCHOR, build_pair, car_box, is_cut, kernel_eval, lockstep_pairs, swarm_fit, totals_eval,
)

TINY = SwarmConfig(n_swarm=16, n_iter=60)
TINY_SEED = 7


def rng_of(seed: int = TINY_SEED) -> np.random.Generator:
    return np.random.default_rng(seed)


def sphere_cost(target: np.ndarray):
    t = np.asarray(target, dtype=float)

    def cost(thetas: np.ndarray) -> np.ndarray:
        return ((thetas - t) ** 2).sum(axis=1)

    return cost


class TestConfig:
    def test_defaults(self):
        cfg = SwarmConfig()
        assert (cfg.n_swarm, cfg.n_iter) == (50, 3000)
        assert (cfg.w_init, cfg.w_end) == (10.0, 0.1)
        assert (cfg.c1, cfg.c2, cfg.c_noise) == (1.0, 1.0, 0.1)

    @pytest.mark.parametrize("bad", [
        dict(n_swarm=0), dict(n_iter=0), dict(w_init=-1.0),
        dict(w_end=-0.5), dict(c1=-1.0), dict(c_noise=-0.1),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            SwarmConfig(**bad)


class TestInertia:
    def test_endpoints_exact(self):
        cfg = SwarmConfig()
        assert inertia_at(0, cfg) == 10.0
        assert inertia_at(cfg.n_iter - 1, cfg) == 0.1

    def test_midpoint(self):
        cfg = SwarmConfig(n_iter=3)
        assert inertia_at(1, cfg) == pytest.approx(5.05, abs=1e-12)

    def test_single_iteration_run(self):
        cfg = SwarmConfig(n_iter=1)
        assert inertia_at(0, cfg) == 10.0

    def test_monotone_non_increasing(self):
        cfg = SwarmConfig(n_iter=100)
        vals = [inertia_at(i, cfg) for i in range(100)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.1 <= v <= 10.0 for v in vals)

    def test_rejects_out_of_range(self):
        cfg = SwarmConfig(n_iter=10)
        with pytest.raises(ValueError):
            inertia_at(-1, cfg)
        with pytest.raises(ValueError):
            inertia_at(10, cfg)


class TestBounds:
    def test_positions_dilated_by_half_anchor_diagonal(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.2, 0.9]])
        lb, ub = search_bounds(pts, CAR_ANCHOR)
        dil = 0.5 * math.sqrt(5.3 ** 2 + 2.1 ** 2 + 1.9 ** 2)
        assert np.allclose(lb[:3], -dil, atol=1e-12)
        assert np.allclose(ub[:3], 1.0 + dil, atol=1e-12)
        assert np.array_equal(lb[3:6], CAR_ANCHOR.min)
        assert np.array_equal(ub[3:6], CAR_ANCHOR.max)
        assert (lb[6], ub[6]) == (0.0, math.pi)

    def test_clamp_thetas(self):
        lb = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0])
        ub = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, math.pi])
        raw = np.array([
            [-5.0, 0.5, 9.0, 0.0, 3.0, 1.5, 1.5 * math.pi],
            [0.2, 0.8, 0.1, 1.2, 1.8, 1.1, -0.25 * math.pi],
        ])
        out = clamp_thetas(raw, lb, ub)
        assert np.allclose(out[0], [0.0, 0.5, 1.0, 1.0, 2.0, 1.5, 0.5 * math.pi])
        assert np.allclose(out[1], [0.2, 0.8, 0.1, 1.2, 1.8, 1.1, 0.75 * math.pi])

    # Rows (x, y, z, l, w, h, ry) against the car anchor's dims and yaw
    # bounds [0, pi]: dims clip to the anchor, yaw wraps onto [0, pi).
    CAR_LB = np.array([-10.0, -10.0, -10.0, *CAR_ANCHOR.min, 0.0])
    CAR_UB = np.array([10.0, 10.0, 10.0, *CAR_ANCHOR.max, math.pi])

    @pytest.mark.parametrize("raw, expect", [
        pytest.param([0, 0, 0, 10.0, 0.5, 1.6, 0.2], [0, 0, 0, 5.3, 1.6, 1.6, 0.2], id="dims-clip"),
        pytest.param(
            [0, 0, 0, 4.0, 2.0, 1.5, 1.5 * math.pi], [0, 0, 0, 4.0, 2.0, 1.5, 0.5 * math.pi],
            id="yaw-wrap-above",
        ),
        pytest.param(
            [0, 0, 0, 4.0, 2.0, 1.5, -0.25 * math.pi], [0, 0, 0, 4.0, 2.0, 1.5, 0.75 * math.pi],
            id="yaw-wrap-below",
        ),
        pytest.param([1, 2, 3, 4.5, 1.8, 1.6, 1.0], [1, 2, 3, 4.5, 1.8, 1.6, 1.0], id="feasible"),
    ])
    def test_clamp_thetas_car_rows(self, raw, expect):
        out = clamp_thetas(np.array([raw], dtype=float), self.CAR_LB, self.CAR_UB)[0]
        assert out[:6].tolist() == expect[:6]
        assert out[6] == pytest.approx(expect[6])

    def test_yaw_wrap_idempotent(self):
        rng = np.random.default_rng(21)
        lb = np.array([-5.0, -5.0, -5.0, 1.0, 1.0, 1.0, 0.0])
        ub = np.array([5.0, 5.0, 5.0, 3.0, 3.0, 3.0, math.pi])
        for _ in range(50):
            raw = rng.uniform(-10, 10, size=(20, 7))
            once = clamp_thetas(raw, lb, ub)
            twice = clamp_thetas(once, lb, ub)
            assert np.allclose(once, twice, atol=1e-12)
            assert (once[:, 6] >= 0.0).all() and (once[:, 6] < math.pi + 1e-12).all()


class TestInit:
    def test_split_between_ray_hit_and_centroid(self):
        pair = build_pair(car_box(), seed=8)
        cfg = replace(TINY, n_swarm=50, c_noise=0.0)
        swarm = init_particles(pair.points, pair.nearest, CAR_ANCHOR, cfg, rng_of())
        from autobox3d.assoc import center_ray

        origin, direction = center_ray(pair.proposal.box, pair.calib)
        along = np.maximum((pair.points - origin) @ direction, 0.0)
        off_ray = np.linalg.norm(pair.points - (origin + along[:, None] * direction), axis=1)
        near = pair.points[int(np.argmin(off_ray))]
        centroid = pair.points.mean(axis=0)
        assert np.array_equal(pair.nearest, near)
        assert np.allclose(swarm[:25, :3], near)
        assert np.allclose(swarm[25:, :3], centroid)

    def test_dims_and_yaw_ranges(self):
        pair = build_pair(car_box(), seed=9)
        swarm = init_particles(pair.points, pair.nearest, CAR_ANCHOR,
                               replace(TINY, n_swarm=200), rng_of())
        assert swarm.shape == (200, 7)
        assert (swarm[:, 3:6] >= CAR_ANCHOR.min).all()
        assert (swarm[:, 3:6] <= CAR_ANCHOR.max).all()
        assert (swarm[:, 6] >= 0.0).all() and (swarm[:, 6] < math.pi).all()

    def test_noise_scale(self):
        pair = build_pair(car_box(), seed=10)
        cfg = replace(TINY, n_swarm=4000, c_noise=0.1)
        swarm = init_particles(pair.points, pair.nearest, CAR_ANCHOR, cfg, rng_of())
        scale = 0.1 * 0.5 * (CAR_ANCHOR.min + CAR_ANCHOR.max)
        got = swarm[:2000, :3].std(axis=0)
        assert np.allclose(got, scale, rtol=0.1)

    def test_deterministic_per_seed(self):
        pair = build_pair(car_box(), seed=11)
        a = init_particles(pair.points, pair.nearest, CAR_ANCHOR, TINY, rng_of(3))
        b = init_particles(pair.points, pair.nearest, CAR_ANCHOR, TINY, rng_of(3))
        c = init_particles(pair.points, pair.nearest, CAR_ANCHOR, TINY, rng_of(4))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_empty_points(self):
        pair = build_pair(car_box(), seed=12)
        with pytest.raises(ValueError):
            init_particles(np.empty((0, 3)), pair.nearest, CAR_ANCHOR, TINY, rng_of())


class TestSwarmSearch:
    def test_budget_and_trace_shape(self):
        pair = build_pair(car_box(), seed=13)
        cfg = SwarmConfig(n_swarm=12, n_iter=40)
        res = swarm_fit(kernel_eval(pair), pair, cfg, seed=1)
        assert res.evaluations == 12 * 40
        assert res.trace is not None and len(res.trace) == 40
        assert res.trace[-1] == res.best_cost.total

    def test_trace_non_increasing(self):
        pair = build_pair(car_box(), seed=14)
        cfg = SwarmConfig(n_swarm=10, n_iter=80)
        res = swarm_fit(kernel_eval(pair), pair, cfg, seed=2)
        assert (np.diff(res.trace) <= 0.0).all()

    def test_result_respects_constraints(self):
        pair = build_pair(car_box(), seed=16)
        lb, ub = search_bounds(pair.points, CAR_ANCHOR)
        res = swarm_fit(kernel_eval(pair), pair, TINY, TINY_SEED)
        box = res.best_box
        assert (box.dims >= CAR_ANCHOR.min - 1e-12).all()
        assert (box.dims <= CAR_ANCHOR.max + 1e-12).all()
        assert 0.0 <= box.ry <= math.pi
        assert (lb[:3] - 1e-12 <= box.center).all()
        assert (box.center <= ub[:3] + 1e-12).all()

    def test_bit_reproducible(self):
        pair = build_pair(car_box(), seed=17)
        a = swarm_fit(kernel_eval(pair), pair, TINY, TINY_SEED)
        b = swarm_fit(kernel_eval(pair), pair, TINY, TINY_SEED)
        assert np.array_equal(a.best_box.as_array(), b.best_box.as_array())
        assert a.best_cost == b.best_cost
        assert np.array_equal(a.trace, b.trace)

    def test_seed_changes_search(self):
        pair = build_pair(car_box(), seed=18)
        ev = kernel_eval(pair)
        a = swarm_fit(ev, pair, TINY, seed=1)
        b = swarm_fit(ev, pair, TINY, seed=2)
        assert not np.array_equal(a.best_box.as_array(), b.best_box.as_array())

    def test_converges_on_convex_surrogate(self):
        pair = build_pair(car_box(), seed=19)
        lb, ub = search_bounds(pair.points, CAR_ANCHOR)
        target = 0.5 * (lb + ub)
        target[6] = 1.0
        cfg = SwarmConfig(n_swarm=40, n_iter=2000)
        res = swarm_fit(totals_eval(sphere_cost(target)), pair, cfg, seed=5)
        assert res.best_cost.total <= 1e-6
        assert np.allclose(res.best_box.as_array(), target, atol=1e-3)

    def test_recovers_true_box(self):
        box = car_box(dist=11.0, azimuth=0.15, ry=0.8)
        pair = build_pair(box, seed=20)
        from autobox3d.costfn import adaptive_surface_clip
        from autobox3d.geom import iou_bev

        clip = adaptive_surface_clip(pair.scene.ego, pair.points.mean(axis=0), CAR_ANCHOR)
        res = swarm_fit(kernel_eval(pair, c_surface=clip), pair,
                        SwarmConfig(), seed=6)
        assert iou_bev(res.best_box, box) >= 0.7


class TestLockstep:
    """K swarms in one search give what each gives searched alone."""

    def test_matches_separate_searches(self):
        pairs = lockstep_pairs()
        cfg = SwarmConfig(n_swarm=50, n_iter=15)
        kernels = [
            BoxCostBatch(p.points, p.scene.ego, p.proposal.box, p.calib,
                         CostWeights(), 6.0 + k)
            for k, (p, _) in enumerate(pairs)
        ]
        starts = [SwarmStart(p.points, p.nearest, anchor, 40 + k)
                  for k, (p, anchor) in enumerate(pairs)]
        joined = BoxCostBatch.join(kernels)
        calls, cut = [], [0] * len(pairs)

        def evaluate(thetas):
            calls.append(len(thetas))
            for k, (p, _) in enumerate(pairs):
                block = thetas[k * cfg.n_swarm : (k + 1) * cfg.n_swarm]
                cut[k] += sum(is_cut(th, p.calib) for th in block)
            return joined.evaluate(thetas)

        together = pso_search(evaluate, starts, cfg)
        assert calls == [len(pairs) * cfg.n_swarm] * cfg.n_iter
        assert cut[0] > 0, "the near car's swarm must try boxes cut by the image plane"
        for start, kernel, res in zip(starts, kernels, together):
            [alone] = pso_search(kernel.evaluate, [start], cfg)
            assert np.array_equal(res.best_box.as_array(), alone.best_box.as_array())
            assert res.best_cost == alone.best_cost
            assert np.array_equal(res.trace, alone.trace)
            assert res.evaluations == alone.evaluations == cfg.n_swarm * cfg.n_iter
        assert together[0].best_cost != together[1].best_cost

    def test_no_starts_no_evaluation(self):
        def never(thetas):
            raise AssertionError("evaluate called for an empty search")

        assert pso_search(never, [], TINY) == []


class TestGridCounts:
    @pytest.mark.parametrize("budget,expect", [
        (1, (1, 1, 1, 1, 1, 1, 1)),
        (127, (3, 2, 2, 2, 2, 2, 1)),
        (128, (2, 2, 2, 2, 2, 2, 2)),
        (191, (2, 2, 2, 2, 2, 2, 2)),
        (192, (3, 2, 2, 2, 2, 2, 2)),
        (37500, (5, 5, 5, 4, 4, 4, 4)),
        (78125, (5, 5, 5, 5, 5, 5, 5)),
        (150000, (6, 6, 6, 5, 5, 5, 5)),
    ])
    def test_allocation(self, budget, expect):
        counts = grid_axis_counts(budget)
        assert counts == expect
        assert math.prod(counts) <= budget

    def test_product_never_exceeds_budget(self):
        rng = np.random.default_rng(22)
        for budget in rng.integers(1, 500000, size=200):
            counts = grid_axis_counts(int(budget))
            assert math.prod(counts) <= budget
            # Growing any single axis would blow the budget.
            for k in range(7):
                grown = list(counts)
                grown[k] += 1
                assert math.prod(grown) > budget

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            grid_axis_counts(0)


class TestGreedy:
    def test_single_candidate_is_midpoint(self):
        pair = build_pair(car_box(), seed=23)
        lb, ub = search_bounds(pair.points, CAR_ANCHOR)
        res = greedy_search(kernel_eval(pair), pair.points, CAR_ANCHOR, budget=1)
        assert res.evaluations == 1
        expect = np.concatenate([
            0.5 * (lb[:3] + ub[:3]),
            0.5 * (CAR_ANCHOR.min + CAR_ANCHOR.max),
            [math.pi / 2.0],
        ])
        assert np.allclose(res.best_box.as_array(), expect, atol=1e-12)

    def test_finds_grid_minimum(self):
        pair = build_pair(car_box(), seed=24)
        lb, ub = search_bounds(pair.points, CAR_ANCHOR)
        target = 0.5 * (lb + ub) + 0.1
        cost = sphere_cost(target)
        res = greedy_search(totals_eval(cost), pair.points, CAR_ANCHOR, budget=400)
        counts = grid_axis_counts(400)
        axes = _grid_axes(counts, lb, ub)
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = np.stack([m.ravel() for m in mesh], axis=1)
        totals = cost(thetas)
        assert res.evaluations == len(thetas) == math.prod(counts)
        k = int(np.argmin(totals))
        assert res.best_cost.total == pytest.approx(float(totals[k]), abs=1e-12)
        assert np.allclose(res.best_box.as_array(), thetas[k], atol=1e-12)

    def test_tie_keeps_earliest_candidate(self):
        pair = build_pair(car_box(), seed=25)

        def flat(thetas: np.ndarray) -> np.ndarray:
            return np.zeros(len(thetas))

        lb, ub = search_bounds(pair.points, CAR_ANCHOR)
        res = greedy_search(totals_eval(flat), pair.points, CAR_ANCHOR, budget=128)
        axes = _grid_axes(grid_axis_counts(128), lb, ub)
        mesh = np.meshgrid(*axes, indexing="ij")
        first = np.stack([m.ravel() for m in mesh], axis=1)[0]
        assert np.allclose(res.best_box.as_array(), first, atol=1e-12)

    def test_real_cost_deterministic(self):
        # Independence of the tiling is checked on the kernel itself, in
        # test_costfn.TestBatchAgainstScalar.test_result_independent_of_batch.
        pair = build_pair(car_box(), seed=26)
        ev = kernel_eval(pair)
        a = greedy_search(ev, pair.points, CAR_ANCHOR, budget=2000)
        b = greedy_search(ev, pair.points, CAR_ANCHOR, budget=2000)
        assert np.array_equal(a.best_box.as_array(), b.best_box.as_array())
        assert a.best_cost.total == b.best_cost.total


class TestPinnedResults:
    """Exact results of short searches, as ``float.hex``.

    Any change to a bit of the cost shows here, so these values move only
    in a change whose stated purpose is the cost arithmetic, and CHANGES.md
    lists each old and new value with the quality numbers before and after.
    The shared near-plane-clipped image hull last moved both totals, in the
    last bits. They follow numpy's float64 sin, cos and sqrt, so a numpy
    build with different libm rounding may need them re-recorded.
    """

    PAIR_BOX = dict(dist=14.0, azimuth=-0.3, ry=1.1)
    CLIP = 15.0

    def _pair(self):
        return build_pair(car_box(**self.PAIR_BOX), seed=21)

    def test_swarm(self):
        cfg = SwarmConfig(n_swarm=50, n_iter=40)
        pair = self._pair()
        ev = kernel_eval(pair, c_surface=self.CLIP)
        res = swarm_fit(ev, pair, cfg, seed=9)
        assert res.evaluations == 2000
        assert res.best_cost.total.hex() == "-0x1.3bc525375cce3p+4"
        assert [float(v).hex() for v in res.best_box.as_array()] == [
            "0x1.a3abcce63a093p+3", "-0x1.24a1088c6b907p+2", "-0x1.a445294aa7138p-1",
            "0x1.34dc6bb7a472bp+2", "0x1.eeaab0ac1a8e8p+0", "0x1.84b15b3f123aep+0",
            "0x1.1766a28315057p+0",
        ]

    def test_grid(self):
        pair = self._pair()
        ev = kernel_eval(pair, c_surface=self.CLIP)
        res = greedy_search(ev, pair.points, CAR_ANCHOR, budget=5000)
        assert res.evaluations == 4860
        assert res.best_cost.total.hex() == "-0x1.1a49de296d651p+4"
        assert [float(v).hex() for v in res.best_box.as_array()] == [
            "0x1.a7a09e568b36ep+3", "-0x1.60ffedcedbadep+2", "-0x1.97b7079773bc8p-1",
            "0x1.5333333333333p+2", "0x1.0cccccccccccdp+1", "0x1.6666666666666p+0",
            "0x1.921fb54442d18p+0",
        ]
