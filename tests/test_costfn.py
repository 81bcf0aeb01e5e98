"""Cost terms: density, edge distance, surface prior, image IoU, batching.

The oracle values read each term through ``BoxCostBatch``, the one
implementation in the package; the agreement tests compare it with the
clamped single-box reference in ``_costfn_reference``.
"""

import hashlib
import math

import numpy as np
import pytest

from autobox3d import costfn
from autobox3d.costfn import AnchorRange, BoxCostBatch, CostWeights, adaptive_surface_clip
from autobox3d.geom import BOUNDARY_TOL, Box2D, BoxParams, EgoPose, box_corners, project_box_to_2d

from _costfn_reference import _point_segment_distances, anchor_edges, points_in_box, reference_cost
from autobox3d.optimizer import search_bounds

from _util import (
    CAR_ANCHOR, build_pair, car_box, is_cut, lockstep_pairs, random_box, score_box, simple_calib,
)

CUBE = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)

# 7 of these 10 points sit inside (or on) the unit-ish cube above.
TEN_POINTS = np.array([
    [0.0, 0.0, 0.0],
    [0.5, 0.5, 0.5],
    [-0.5, -0.5, -0.5],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, -1.0],
    [0.9, -0.9, 0.9],
    [2.0, 0.0, 0.0],
    [0.0, 3.0, 0.0],
    [5.0, 5.0, 5.0],
])


def kept_rows(batch, thetas):
    """Which rows of ``thetas`` the skip test sends to ``batch``'s point pass."""
    return BoxCostBatch._may_enclose(thetas, np.cos(thetas[:, 6]), np.sin(thetas[:, 6]),
                                     batch._cols[costfn._BOUNDS])


class TestWeights:
    def test_defaults(self):
        w = CostWeights()
        assert (w.lambda1, w.lambda2, w.lambda3, w.gamma) == (5.0, 1.0, 1.0, 3.0)


class TestAnchorRange:
    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            AnchorRange((2.0, 1.0, 1.0), (1.0, 2.0, 2.0))


class TestDensity:
    def test_seven_of_ten(self):
        assert score_box(CUBE, TEN_POINTS).density == -0.7

    def test_all_inside(self):
        assert score_box(CUBE, TEN_POINTS[:3]).density == -1.0

    def test_none_inside(self):
        assert score_box(CUBE, TEN_POINTS[7:]).density == 0.0

    def test_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            box = random_box(rng)
            pts = rng.uniform(-6, 6, size=(30, 3))
            assert -1.0 <= score_box(box, pts).density <= 0.0


class TestAnchorEdges:
    def test_ego_facing_edges(self):
        ego = EgoPose(10.0, 3.0, 0.0)
        (la, lb), (wa, wb) = anchor_edges(CUBE, ego)
        # The edge running along the length sits on the ego side: y = +1.
        for p in (la, lb):
            assert p[1] == pytest.approx(1.0) and p[2] == pytest.approx(1.0)
        assert sorted([la[0], lb[0]]) == pytest.approx([-1.0, 1.0])
        # The edge running along the width sits on the ego side: x = +1.
        for p in (wa, wb):
            assert p[0] == pytest.approx(1.0) and p[2] == pytest.approx(1.0)
        assert sorted([wa[1], wb[1]]) == pytest.approx([-1.0, 1.0])

    def test_edges_flip_with_ego_side(self):
        ego = EgoPose(-10.0, -3.0, 0.0)
        (la, lb), (wa, wb) = anchor_edges(CUBE, ego)
        assert la[1] == pytest.approx(-1.0) and lb[1] == pytest.approx(-1.0)
        assert wa[0] == pytest.approx(-1.0) and wb[0] == pytest.approx(-1.0)

    def test_matches_midpoint_rank(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            box = random_box(rng)
            ego = EgoPose(*rng.uniform(-15, 15, size=2), 0.0)
            (la, lb), (wa, wb) = anchor_edges(box, ego)
            c = box_corners(box)
            e = np.array([ego.x, ego.y, ego.z])

            def pick(pairs):
                mids = [0.5 * (c[i] + c[j]) for i, j in pairs]
                dists = [np.linalg.norm(m - e) for m in mids]
                i, j = pairs[int(np.argmin(dists))]
                return c[i], c[j]

            ea, eb = pick(((6, 7), (4, 5)))
            assert np.allclose(sorted(map(tuple, (la, lb))), sorted(map(tuple, (ea, eb))))
            ea, eb = pick(((5, 6), (7, 4)))
            assert np.allclose(sorted(map(tuple, (wa, wb))), sorted(map(tuple, (ea, eb))))

    def test_kernel_picks_the_same_edges(self):
        # One enclosed point per box: the kernel's edge term must be the
        # distance to the nearer of the two reference edges.
        rng = np.random.default_rng(16)
        for _ in range(200):
            box = random_box(rng)
            ego = EgoPose(*rng.uniform(-15, 15, size=2), 0.0)
            lx, ly, lz = rng.uniform(-0.49, 0.49, size=3) * box.dims
            c, s = math.cos(box.ry), math.sin(box.ry)
            pt = np.array([[box.x + c * lx - s * ly, box.y + s * lx + c * ly, box.z + lz]])
            (la, lb), (wa, wb) = anchor_edges(box, ego)
            want = min(_point_segment_distances(pt, la, lb)[0],
                       _point_segment_distances(pt, wa, wb)[0])
            got = score_box(box, pt, ego)
            assert got.density == -1.0
            assert got.lshape == pytest.approx(want, abs=1e-9)


class TestReferenceSegments:
    def test_clamps_to_segment_ends(self):
        a, b = np.array([0.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0])
        pts = np.array([[1.0, 3.0, 4.0], [-3.0, 4.0, 0.0], [5.0, 0.0, 4.0], [2.0, 0.0, 0.0]])
        assert np.allclose(_point_segment_distances(pts, a, b), [5.0, 5.0, 5.0, 0.0],
                           atol=1e-12)

    def test_degenerate_segment(self):
        a = np.array([1.0, 1.0, 1.0])
        d = _point_segment_distances(np.array([[4.0, 5.0, 1.0]]), a, a)
        assert d[0] == pytest.approx(5.0, abs=1e-12)


class TestLShape:
    def test_single_point_oracle(self):
        # Enclosed point (1, 0.5, 0.7) touches the x=+1 edge run, 0.3 below it.
        ego = EgoPose(10.0, 3.0, 0.0)
        pts = np.array([[1.0, 0.5, 0.7]])
        assert score_box(CUBE, pts, ego).lshape == pytest.approx(0.3, abs=1e-9)

    def test_outside_points_ignored(self):
        ego = EgoPose(10.0, 3.0, 0.0)
        pts = np.array([[1.0, 0.5, 0.7], [5.0, 5.0, 5.0], [-9.0, 0.0, 0.0]])
        assert score_box(CUBE, pts, ego).lshape == pytest.approx(0.3, abs=1e-9)

    def test_empty_box_scores_zero(self):
        ego = EgoPose(10.0, 3.0, 0.0)
        far = BoxParams(100.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)
        assert score_box(far, TEN_POINTS, ego).lshape == 0.0

    def test_point_on_edge_scores_zero(self):
        ego = EgoPose(10.0, 3.0, 0.0)
        pts = np.array([[1.0, 0.0, 1.0]])
        assert score_box(CUBE, pts, ego).lshape == pytest.approx(0.0, abs=1e-12)

    def test_mean_over_enclosed(self):
        ego = EgoPose(10.0, 3.0, 0.0)
        pts = np.array([[1.0, 0.5, 0.7], [1.0, -0.5, 0.5]])
        # Distances to the x=+1 top edge: 0.3 and 0.5.
        assert score_box(CUBE, pts, ego).lshape == pytest.approx(0.4, abs=1e-9)


class TestSurface:
    BOX = BoxParams(3.0, 4.0, 0.0, 2.0, 2.0, 2.0, 0.0)

    def test_three_four_five(self):
        assert score_box(self.BOX, ego=EgoPose()).surface == -5.0

    def test_clipped(self):
        assert score_box(self.BOX, c_surface=4.0).surface == -4.0

    def test_relative_to_ego(self):
        assert score_box(self.BOX, ego=EgoPose(3.0, 0.0, 0.0)).surface == -4.0

    def test_ignores_height(self):
        lo = BoxParams(3.0, 4.0, -5.0, 2.0, 2.0, 2.0, 0.0)
        hi = BoxParams(3.0, 4.0, 9.0, 2.0, 2.0, 2.0, 0.0)
        assert score_box(lo).surface == score_box(hi).surface


class TestImageIou:
    CALIB = simple_calib()
    VISIBLE = BoxParams(0.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0)
    HULL = Box2D(25.0, 25.0, 75.0, 75.0)

    def iou_term(self, box, prop, weights=CostWeights()):
        return score_box(box, proposal=prop, calib=self.CALIB, weights=weights).iou2d

    def test_perfect_overlap(self):
        assert self.iou_term(self.VISIBLE, self.HULL) == pytest.approx(-3.0, abs=1e-9)

    def test_disjoint_proposal(self):
        prop = Box2D(0.0, 0.0, 10.0, 10.0)
        assert self.iou_term(self.VISIBLE, prop) == 0.0

    def test_half_area_proposal(self):
        prop = Box2D(25.0, 25.0, 75.0, 50.0)
        assert self.iou_term(self.VISIBLE, prop) == pytest.approx(-1.5, abs=1e-9)

    def test_third_overlap(self):
        prop = Box2D(50.0, 25.0, 100.0, 75.0)
        assert self.iou_term(self.VISIBLE, prop) == pytest.approx(-1.0, abs=1e-9)

    def test_behind_camera_scores_zero(self):
        behind = BoxParams(0.0, 0.0, -5.0, 2.0, 2.0, 2.0, 0.0)
        assert self.iou_term(behind, self.HULL) == 0.0

    def test_gamma_scales(self):
        w = CostWeights(gamma=7.0)
        assert self.iou_term(self.VISIBLE, self.HULL, w) == pytest.approx(-7.0, abs=1e-9)

    def test_box_cut_by_image_plane_fills_image(self):
        # Half of this box lies behind the camera; its hull is the whole image.
        cut = BoxParams(0.5, 0.0, 0.5, 2.0, 1.0, 2.0, 0.0)
        full = Box2D(0.0, 0.0, 100.0, 100.0)
        assert self.iou_term(cut, full) == -CostWeights().gamma


class TestTotal:
    def test_composition(self):
        calib = simple_calib()
        ego = EgoPose(-4.0, 3.0, 0.0)
        weights = CostWeights()
        box = BoxParams(0.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0)
        pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [9.0, 9.0, 9.0]])
        prop = Box2D(25.0, 25.0, 75.0, 75.0)
        bd = score_box(box, pts, ego, prop, calib, weights)
        assert bd.density == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert bd.surface == -5.0
        assert bd.iou2d == pytest.approx(-3.0, abs=1e-9)
        expect = (weights.lambda1 * bd.density + weights.lambda2 * bd.lshape
                  + weights.lambda3 * bd.surface + bd.iou2d)
        assert bd.total == pytest.approx(expect, abs=1e-9)

    def test_component_signs(self):
        rng = np.random.default_rng(13)
        calib = simple_calib()
        w = CostWeights()
        for _ in range(100):
            box = random_box(rng, span=3.0)
            pts = rng.uniform(-5, 5, size=(25, 3))
            prop = Box2D(10.0, 10.0, 90.0, 90.0)
            bd = score_box(box, pts, EgoPose(), prop, calib, w)
            assert -1.0 <= bd.density <= 0.0
            assert bd.lshape >= 0.0
            assert -10.0 <= bd.surface <= 0.0
            assert -w.gamma <= bd.iou2d <= 0.0


class TestAdaptiveClip:
    def test_margin_from_anchor_footprint(self):
        c = adaptive_surface_clip(EgoPose(), np.array([3.0, 4.0, -1.0]), CAR_ANCHOR)
        assert c == pytest.approx(5.0 + 0.1 * math.hypot(5.3, 2.1), abs=1e-9)
        assert c == pytest.approx(5.570087712549569, abs=1e-9)

    def test_margin_floor(self):
        tiny = AnchorRange((0.2, 0.2, 0.5), (0.4, 0.4, 1.2))
        c = adaptive_surface_clip(EgoPose(), np.array([3.0, 4.0, 0.0]), tiny)
        assert c == pytest.approx(5.5, abs=1e-12)

    def test_uses_ground_distance_only(self):
        lifted = adaptive_surface_clip(EgoPose(), np.array([3.0, 4.0, 50.0]), CAR_ANCHOR)
        flat = adaptive_surface_clip(EgoPose(), np.array([3.0, 4.0, 0.0]), CAR_ANCHOR)
        assert lifted == flat


class TestBatchAgainstScalar:
    def test_random_candidates_agree(self):
        rng = np.random.default_rng(14)
        pair = build_pair(car_box(), seed=2)
        weights = CostWeights()
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, weights, 9.0)
        thetas = np.column_stack([
            rng.uniform(5.0, 18.0, size=300),
            rng.uniform(-2.0, 6.0, size=300),
            rng.uniform(-2.0, 0.0, size=300),
            rng.uniform(3.9, 5.3, size=300),
            rng.uniform(1.6, 2.1, size=300),
            rng.uniform(1.4, 1.9, size=300),
            rng.uniform(0.0, math.pi, size=300),
        ])
        res = batch.evaluate(thetas)
        for i in range(0, 300, 7):
            bd = reference_cost(BoxParams.from_array(thetas[i]), pair.points,
                                pair.ego, pair.proposal.box, pair.calib, weights, 9.0)
            got = res.breakdown_at(i)
            assert got.density == pytest.approx(bd.density, abs=1e-9)
            assert got.lshape == pytest.approx(bd.lshape, abs=1e-9)
            assert got.surface == pytest.approx(bd.surface, abs=1e-9)
            assert got.iou2d == pytest.approx(bd.iou2d, abs=1e-9)
            assert got.total == pytest.approx(bd.total, abs=1e-9)
            assert res.totals[i] == got.total

    def test_empty_and_behind_candidates(self):
        pair = build_pair(car_box(), seed=3)
        weights = CostWeights()
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, weights, 10.0)
        empty = np.array([100.0, 100.0, 0.0, 4.0, 2.0, 1.5, 0.0])
        behind = np.array([-15.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0])
        res = batch.evaluate(np.stack([empty, behind]))
        for i, theta in enumerate((empty, behind)):
            bd = reference_cost(BoxParams.from_array(theta), pair.points,
                                pair.ego, pair.proposal.box, pair.calib, weights, 10.0)
            assert res.breakdown_at(i).total == pytest.approx(bd.total, abs=1e-9)
        assert res.density[0] == 0.0
        assert res.lshape[0] == 0.0

    def test_points_in_boundary_band(self):
        # Points up to BOUNDARY_TOL outside a side face still count as
        # enclosed. Only there does the scalar edge distance keep a clamped
        # running term (about 1e-18), which the batch path leaves out.
        box = car_box(dist=9.0, azimuth=0.1, ry=0.7)
        pair = build_pair(box, seed=6)
        rng = np.random.default_rng(8)
        n = 40
        local = np.column_stack([
            rng.uniform(-0.5, 0.5, n) * box.l,
            rng.uniform(-0.5, 0.5, n) * box.w,
            rng.uniform(-0.5, 0.5, n) * box.h,
        ])
        band = 0.5 * BOUNDARY_TOL
        local[: n // 2, 0] = np.where(local[: n // 2, 0] > 0, 1.0, -1.0) * (0.5 * box.l + band)
        local[n // 2 :, 1] = np.where(local[n // 2 :, 1] > 0, 1.0, -1.0) * (0.5 * box.w + band)
        c, s = math.cos(box.ry), math.sin(box.ry)
        pts = np.column_stack([
            box.x + c * local[:, 0] - s * local[:, 1],
            box.y + s * local[:, 0] + c * local[:, 1],
            box.z + local[:, 2],
        ])
        weights = CostWeights()
        batch = BoxCostBatch(pts, pair.ego, pair.proposal.box, pair.calib, weights, 12.0)
        thetas = np.stack([box.as_array(), box.as_array() + [0.05, -0.03, 0.0, 0.0, 0.0, 0.0, 0.01]])
        res = batch.evaluate(thetas)
        assert points_in_box(pts, box).all() and res.density[0] == -1.0
        for i, theta in enumerate(thetas):
            bd = reference_cost(BoxParams.from_array(theta), pts, pair.ego,
                                pair.proposal.box, pair.calib, weights, 12.0)
            got = res.breakdown_at(i)
            assert got.density == bd.density
            assert got.lshape == pytest.approx(bd.lshape, abs=1e-9)
            assert got.total == pytest.approx(bd.total, abs=1e-9)

    @staticmethod
    def _assert_rows_score_alone(batch, thetas):
        together = batch.evaluate(thetas)
        for i in range(len(thetas)):
            alone = batch.evaluate(thetas[i : i + 1])
            for name in ("totals", "density", "lshape", "surface", "iou2d"):
                assert getattr(alone, name)[0] == getattr(together, name)[i], (name, i)
        return together

    def test_result_independent_of_batch(self):
        # The batch spans three row tiles. One candidate behind the camera
        # and one cut by the image plane take the masked hull path while the
        # rest of their tile takes the direct one; every candidate must
        # still score, bit for bit, as it does alone.
        rng = np.random.default_rng(15)
        box = car_box()
        pair = build_pair(box, seed=7)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        tile = max(1, costfn._TILE_ELEMS // batch.n_points)
        assert tile > 10
        n = 3 * tile + tile // 2
        thetas = box.as_array() + rng.normal(0.0, 0.4, size=(n, 7))
        behind = n // 2
        thetas[behind] = [-15.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0]
        cut = behind + 1
        thetas[cut] = [1.0, 0.0, -1.0, 4.0, 2.0, 1.5, 0.0]
        ext = pair.calib.extrinsic
        depth = box_corners(BoxParams.from_array(thetas[cut])) @ ext[2, :3] + ext[2, 3]
        assert depth.min() < 0.0 < depth.max()
        together = self._assert_rows_score_alone(batch, thetas)
        assert together.iou2d[behind] == 0.0
        assert together.iou2d[cut] < 0.0
        front = batch.evaluate(np.delete(thetas, [behind, cut], axis=0))
        assert np.array_equal(front.totals, np.delete(together.totals, [behind, cut]))

    def test_one_row_tiles(self):
        # More points than a tile holds elements: every tile is one row.
        box = car_box()
        pair = build_pair(box, seed=8)
        rng = np.random.default_rng(17)
        extra = pair.points[rng.integers(0, len(pair.points), costfn._TILE_ELEMS)]
        pts = np.vstack([pair.points, extra + rng.normal(0.0, 0.05, extra.shape)])
        batch = BoxCostBatch(pts, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        assert batch.n_points > costfn._TILE_ELEMS
        thetas = box.as_array() + rng.normal(0.0, 0.3, size=(4, 7))
        thetas[2] = [-15.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0]
        together = self._assert_rows_score_alone(batch, thetas)
        assert together.density[0] < 0.0

    def test_threaded_block_product(self):
        # One tile of 2 * tile - 1 rows, whose (3 * rows, 4) @ (4, N) box-frame
        # product is above OpenBLAS's threading threshold (M * N * K >
        # 65,536 * 4), so an unpinned BLAS splits it between threads; each
        # row must still score as it does alone, in a product far below it.
        rng = np.random.default_rng(21)
        box = car_box()
        pair = build_pair(box, seed=10)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        n = 2 * batch._tile - 1
        assert costfn._tiles(n, batch._tile) == [(0, n)]
        assert (3 * n) * batch.n_points * 4 > 65536 * 4
        thetas = box.as_array() + rng.normal(0.0, 0.3, size=(n, 7))
        assert kept_rows(batch, thetas).all(), "the point pass must see the whole tile"
        together = self._assert_rows_score_alone(batch, thetas)
        assert (together.density < 0.0).sum() > n // 2

    def test_rows_across_chunks(self):
        # More than two chunks of rows against one cluster, with rows behind
        # the camera and cut by its image plane at and next to the chunk
        # boundaries: each scores as it does alone.
        rng = np.random.default_rng(19)
        box = car_box()
        pair = build_pair(box, seed=9)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        chunk = costfn._CHUNK_ROWS
        n = 2 * chunk + 37
        thetas = box.as_array() + rng.normal(0.0, 0.4, size=(n, 7))
        behind = [chunk - 1, 2 * chunk, n - 1]
        cut = [chunk, 2 * chunk - 1, 2 * chunk + 1]
        thetas[behind] = [-15.0, 0.0, 0.0, 4.0, 2.0, 1.5, 0.0]
        thetas[cut] = [1.0, 0.0, -1.0, 4.0, 2.0, 1.5, 0.0]
        assert is_cut(thetas[cut[0]], pair.calib)
        together = self._assert_rows_score_alone(batch, thetas)
        assert (together.iou2d[behind] == 0.0).all()
        assert (together.iou2d[cut] < 0.0).all()
        assert (together.density < 0.0).sum() > chunk


class TestJoin:
    """A joined kernel scores block k of its rows as kernel k alone does."""

    ROWS = 50

    def _kernels(self, rows=ROWS):
        pairs = lockstep_pairs()
        kernels = [
            BoxCostBatch(p.points, p.ego, p.proposal.box, p.calib,
                         CostWeights(lambda1=4.0 + k), 6.0 + k)
            for k, (p, _) in enumerate(pairs)
        ]
        rng = np.random.default_rng(33)
        blocks = []
        for p, anchor in pairs:
            lb, ub = search_bounds(p.points, anchor)
            blocks.append(rng.uniform(lb, ub, size=(rows, 7)))
        return pairs, kernels, blocks

    def _assert_blocks_score_as_their_kernels(self, rows):
        pairs, kernels, blocks = self._kernels(rows)
        assert any(is_cut(th, pairs[0][0].calib) for th in blocks[0])
        dense = kernels[1].n_points
        assert rows // (costfn._TILE_ELEMS // dense) >= 2, "the dense block must tile"
        joined = BoxCostBatch.join(kernels)
        assert joined.n_points == sum(k.n_points for k in kernels) / 3
        together = joined.evaluate(np.vstack(blocks))
        nested = BoxCostBatch.join([BoxCostBatch.join(kernels[:2]), kernels[2]])
        again = nested.evaluate(np.vstack(blocks))
        for k, (kernel, block) in enumerate(zip(kernels, blocks)):
            alone = kernel.evaluate(block)
            part = slice(k * rows, (k + 1) * rows)
            for name in ("totals", "density", "lshape", "surface", "iou2d"):
                assert np.array_equal(getattr(together, name)[part], getattr(alone, name)), (k, name)
                assert np.array_equal(getattr(again, name)[part], getattr(alone, name)), (k, name)

    def test_blocks_score_as_their_kernels(self):
        self._assert_blocks_score_as_their_kernels(self.ROWS)

    def test_blocks_straddling_chunks(self):
        # Blocks of 1,500 rows: the dense block spans rows 1,500-3,000 and the
        # pedestrian's 3,000-4,500, so each straddles a chunk boundary.
        chunk = costfn._CHUNK_ROWS
        rows = 1500
        assert rows < chunk < 2 * rows and 3 * rows > 2 * chunk > 2 * rows
        self._assert_blocks_score_as_their_kernels(rows)

    @staticmethod
    def _assert_scores_as_fresh_join(joined, kernels, thetas):
        got = joined.evaluate(thetas)
        fresh = BoxCostBatch.join(kernels).evaluate(thetas)
        for name in ("totals", "density", "lshape", "surface", "iou2d"):
            assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes(), name
        assert joined._layout[0] == len(thetas)

    def test_kept_layout_follows_row_count(self):
        # The joined kernel keeps its layout while the row count stays and
        # builds a new one when it changes, back and forth.
        _, kernels, _ = self._kernels()
        joined = BoxCostBatch.join(kernels)
        for rows in (self.ROWS, 20, self.ROWS):
            thetas = np.vstack(self._kernels(rows)[2])
            self._assert_scores_as_fresh_join(joined, kernels, thetas)
            layout = joined._layout
            self._assert_scores_as_fresh_join(joined, kernels, thetas[::-1].copy())
            assert joined._layout is layout

    def test_kept_layout_across_chunks(self):
        # 41 blocks of 50 rows span two chunks, and block 40 straddles their
        # boundary; 30 rows per block fit in one chunk.
        _, kernels, blocks = self._kernels()
        many = [kernels[k % 3] for k in range(41)]
        assert 40 * self.ROWS < costfn._CHUNK_ROWS < 41 * self.ROWS
        joined = BoxCostBatch.join(many)
        rng = np.random.default_rng(35)
        for rows in (self.ROWS, 30, self.ROWS):
            thetas = np.vstack([blocks[k % 3][rng.permutation(self.ROWS)[:rows]] for k in range(41)])
            self._assert_scores_as_fresh_join(joined, many, thetas)
            assert len(joined._layout[1]) == -(-len(thetas) // costfn._CHUNK_ROWS)

    def test_plain_kernel_keeps_no_layout(self):
        # A kernel scored alone, as the grid search scores its grid, holds no
        # per-row columns between calls.
        _, kernels, blocks = self._kernels()
        for kernel, block in zip(kernels, blocks):
            kernel.evaluate(np.vstack([block] * 50))
            assert kernel._layout is None


class TestSkip:
    """Rows that no axis separates from the cluster's bounding box skip the
    point pass, and score bit for bit as if they had run it."""

    def _assert_skip_is_exact(self, batch, thetas, monkeypatch):
        """Skipped rows enclose no point; every term equals a pass over all rows."""
        skipped = batch.evaluate(thetas)
        with monkeypatch.context() as m:
            m.setattr(BoxCostBatch, "_may_enclose",
                      staticmethod(lambda th, cos, sin, bounds: np.ones(len(th), dtype=bool)))
            full = batch.evaluate(thetas)
        for name in ("totals", "density", "lshape", "surface", "iou2d"):
            assert getattr(skipped, name).tobytes() == getattr(full, name).tobytes(), name
        return full

    @staticmethod
    def _touching(points, rng, gap):
        """Boxes beyond each extreme point of the cluster, along the box's x
        and y axes and world z, each with the face nearest the cluster
        ``gap`` outside that point; four yaws in each quadrant, one of them
        on the quadrant's axis."""
        rows = []
        for quadrant in range(-2, 2):
            for ry in quadrant * math.pi / 2 + np.array([0.0, *rng.uniform(0.0, math.pi / 2, 3)]):
                l, w, h = rng.uniform([0.5, 0.4, 0.5], [5.0, 2.5, 2.0])
                c, s = math.cos(ry), math.sin(ry)
                for axis, half in (((c, s, 0.0), l / 2), ((-s, c, 0.0), w / 2), ((0.0, 0.0, 1.0), h / 2)):
                    for u in (np.array(axis), -np.array(axis)):
                        p = points[np.argmax(points @ u)]
                        rows.append([*(p + (half + gap) * u), l, w, h, ry])
        return np.array(rows)

    def test_boxes_touching_extreme_points(self, monkeypatch):
        rng = np.random.default_rng(41)
        pair = build_pair(car_box(dist=11.0, azimuth=-0.3, ry=2.1), seed=12)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        for gap in (-0.5 * BOUNDARY_TOL, 0.5 * BOUNDARY_TOL, 0.9 * BOUNDARY_TOL):
            thetas = self._touching(pair.points, rng, gap)
            full = self._assert_skip_is_exact(batch, thetas, monkeypatch)
            # Each box encloses its extreme point, inside the face or in the
            # boundary band just outside it, so no row may be skipped.
            assert (full.density < 0.0).all(), gap
            assert kept_rows(batch, thetas).all(), gap
        for gap in (2.0 * BOUNDARY_TOL, 0.5e-6, 1e-3):
            thetas = self._touching(pair.points, rng, gap)
            full = self._assert_skip_is_exact(batch, thetas, monkeypatch)
            assert not (full.density < 0.0)[~kept_rows(batch, thetas)].any(), gap

    def test_random_boxes_around_cluster(self, monkeypatch):
        rng = np.random.default_rng(42)
        pair = build_pair(car_box(dist=14.0, azimuth=0.4, ry=-0.8), seed=13)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        n = 3000
        thetas = np.column_stack([
            pair.points.mean(axis=0) + rng.normal(0.0, 2.5, size=(n, 3)),
            rng.uniform(0.3, 6.0, size=(n, 3)),
            rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n),
        ])
        full = self._assert_skip_is_exact(batch, thetas, monkeypatch)
        near = kept_rows(batch, thetas)
        assert not (full.density < 0.0)[~near].any()
        assert (full.density < 0.0).sum() > n // 10 and (~near).sum() > n // 10

    def test_chunks_that_keep_no_rows_or_all(self, monkeypatch):
        # Chunk 0 lies far from the cluster, chunk 1 encloses all of it, and
        # the last, short chunk mixes both.
        rng = np.random.default_rng(43)
        pair = build_pair(car_box(), seed=14)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        chunk = costfn._CHUNK_ROWS
        center = pair.points.mean(axis=0)
        thetas = np.column_stack([
            center + rng.normal(0.0, 0.2, size=(2 * chunk + 9, 3)),
            rng.uniform(8.0, 10.0, size=(2 * chunk + 9, 3)),
            rng.uniform(0.0, 2.0 * math.pi, size=2 * chunk + 9),
        ])
        thetas[:chunk, :2] += 40.0
        thetas[2 * chunk :: 2, :2] += 40.0
        near = kept_rows(batch, thetas)
        assert not near[:chunk].any() and near[chunk : 2 * chunk].all()
        full = self._assert_skip_is_exact(batch, thetas, monkeypatch)
        assert (full.density[chunk : 2 * chunk] == -1.0).all()
        assert (full.density[:chunk] == 0.0).all() and (full.lshape[:chunk] == 0.0).all()

    def test_joined_blocks(self, monkeypatch):
        pairs = lockstep_pairs()
        rng = np.random.default_rng(44)
        kernels, blocks = [], []
        for k, (p, anchor) in enumerate(pairs):
            kernels.append(BoxCostBatch(p.points, p.ego, p.proposal.box, p.calib,
                                        CostWeights(), 6.0 + k))
            lb, ub = search_bounds(p.points, anchor)
            blocks.append(rng.uniform(lb, ub, size=(300, 7)))
        joined = BoxCostBatch.join(kernels)
        full = self._assert_skip_is_exact(joined, np.vstack(blocks), monkeypatch)
        for k, (kernel, block) in enumerate(zip(kernels, blocks)):
            near = kept_rows(kernel, block)
            assert 0 < near.sum() < len(block), k
            assert not (full.density[k * 300 : (k + 1) * 300] < 0.0)[~near].any(), k

    def test_nan_separates_nothing(self):
        # A NaN center coordinate leaves the other axes to decide; a NaN yaw
        # makes every bound NaN, so even a box far from the cluster is kept.
        pair = build_pair(car_box(), seed=15)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 10.0)
        thetas = np.stack([car_box().as_array(), car_box(dist=30.0).as_array()])
        thetas[0, 0] = thetas[1, 6] = np.nan
        assert kept_rows(batch, thetas).all()

    def test_empty_range_has_no_tiles(self):
        assert costfn._tiles(0, 10) == []


# sha256 of evaluate's five arrays (totals, density, lshape, surface, iou2d),
# as float64 bytes, in TestTiles.test_raw_sized_cluster_bytes.
PINNED_RAW_SIZED_SHA256 = "4e17616197214a47d9dae4566358fb30f4755843dbd0e199cdaa231844c69ec0"


class TestTiles:
    """The point pass's products keep their row counts: on clusters of a few
    hundred points, a row's product bits depend on its tile's row count
    (README Performance), and annotate's bytes on those bits."""

    def test_raw_sized_cluster_bytes(self):
        # 651 points, the size of annotate-raw's clusters (about 450 to 750),
        # so tiles of 50 rows. Most of the 2,148 rows are kept; they fill
        # about 40 tiles and span a chunk boundary. 651 is not a multiple of
        # 8, so some rows' bits differ in tiles of one or two rows.
        box = car_box()
        pair = build_pair(box, seed=3, spacing=0.118)
        batch = BoxCostBatch(pair.points, pair.ego, pair.proposal.box,
                             pair.calib, CostWeights(), 9.0)
        assert batch.n_points == 651 and batch._tile == 50
        rng = np.random.default_rng(51)
        n = costfn._CHUNK_ROWS + 100
        thetas = box.as_array() + rng.normal(0.0, 0.4, size=(n, 7))
        assert kept_rows(batch, thetas).sum() > 40 * batch._tile
        res = batch.evaluate(thetas)
        h = hashlib.sha256()
        for name in ("totals", "density", "lshape", "surface", "iou2d"):
            h.update(getattr(res, name).tobytes())
        assert h.hexdigest() == PINNED_RAW_SIZED_SHA256

    def test_tiles_per_block(self, monkeypatch):
        # Each block's kept rows go through _tiles(kept, part._tile), in
        # block order; the dense block's fill several tiles.
        pairs = lockstep_pairs()
        rng = np.random.default_rng(44)
        kernels, blocks = [], []
        for k, (p, anchor) in enumerate(pairs):
            kernels.append(BoxCostBatch(p.points, p.ego, p.proposal.box, p.calib,
                                        CostWeights(), 6.0 + k))
            lb, ub = search_bounds(p.points, anchor)
            blocks.append(rng.uniform(lb, ub, size=(300, 7)))
        kept = [int(kept_rows(kern, block).sum()) for kern, block in zip(kernels, blocks)]
        assert len(set(kept)) == 3
        assert len(costfn._tiles(kept[1], kernels[1]._tile)) >= 2
        rows = []
        real = BoxCostBatch._point_terms

        def counted(self, *args):
            density, lshape = real(self, *args)
            rows.append(len(density))
            return density, lshape

        monkeypatch.setattr(BoxCostBatch, "_point_terms", counted)
        BoxCostBatch.join(kernels).evaluate(np.vstack(blocks))
        assert rows == [
            b - a for kern, n in zip(kernels, kept) for a, b in costfn._tiles(n, kern._tile)
        ]


def test_full_surface_box_scores_near_perfect():
    # A box fit exactly on its own surface samples: density -1, tiny lshape,
    # image IoU reward at full strength.
    box = car_box(dist=10.0, azimuth=0.0, ry=0.4)
    pair = build_pair(box, seed=5)
    clip = adaptive_surface_clip(pair.ego, pair.points.mean(axis=0), CAR_ANCHOR)
    bd = score_box(box, pair.points, pair.ego, pair.proposal.box,
                   pair.calib, c_surface=clip)
    assert bd.density == -1.0
    assert bd.lshape < 0.9
    assert bd.iou2d == pytest.approx(-3.0, abs=1e-6)
    hull = project_box_to_2d(box, pair.calib)
    assert hull is not None
