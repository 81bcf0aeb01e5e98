"""Geometry primitives: corners, containment, projection, IoU."""

import math

import numpy as np
import pytest

from autobox3d.geom import (
    BOUNDARY_TOL,
    NEAR_DEPTH,
    Box2D,
    BoxParams,
    CameraCalib,
    bev_footprint,
    box_corners,
    camera_columns,
    convex_intersection_area,
    image_hulls,
    iou_bev,
    project_box_to_2d,
    rotation_z,
)
from autobox3d.synth import make_camera

from _costfn_reference import iou_2d, points_in_box, project_points, reference_hull
from _util import is_cut, random_box, score_box, simple_calib

SQ2 = math.sqrt(2.0)


class TestBoxParams:
    def test_roundtrip_array(self):
        box = BoxParams(1.0, -2.0, 0.5, 4.0, 2.0, 1.5, 0.3)
        arr = box.as_array()
        assert arr.shape == (7,)
        assert BoxParams.from_array(arr) == box

    def test_center_and_dims(self):
        box = BoxParams(1.0, 2.0, 3.0, 4.0, 2.0, 1.5, 0.0)
        assert np.array_equal(box.center, [1.0, 2.0, 3.0])
        assert np.array_equal(box.dims, [4.0, 2.0, 1.5])

    @pytest.mark.parametrize("bad", [
        dict(l=0.0), dict(w=-1.0), dict(h=0.0), dict(x=math.nan), dict(ry=math.inf),
    ])
    def test_rejects_bad_values(self, bad):
        kwargs = dict(x=0.0, y=0.0, z=0.0, l=1.0, w=1.0, h=1.0, ry=0.0)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            BoxParams(**kwargs)


class TestCorners:
    def test_axis_aligned_layout(self):
        box = BoxParams(1.0, 2.0, 3.0, 4.0, 2.0, 2.0, 0.0)
        c = box_corners(box)
        assert c.shape == (8, 3)
        # Bottom ring, counter-clockwise seen from above.
        assert np.allclose(c[0], [3.0, 3.0, 2.0])
        assert np.allclose(c[1], [-1.0, 3.0, 2.0])
        assert np.allclose(c[2], [-1.0, 1.0, 2.0])
        assert np.allclose(c[3], [3.0, 1.0, 2.0])
        # Top ring sits straight above the bottom ring.
        assert np.allclose(c[4:] - c[:4], [[0.0, 0.0, 2.0]] * 4)

    def test_quarter_turn_rotation(self):
        box = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, math.pi / 4.0)
        c = box_corners(box)
        assert np.allclose(c[0], [0.0, SQ2, -1.0], atol=1e-12)
        assert np.allclose(c[3], [SQ2, 0.0, -1.0], atol=1e-12)

    def test_centroid_is_center(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            box = random_box(rng)
            assert np.allclose(box_corners(box).mean(axis=0), box.center, atol=1e-12)

    def test_edge_lengths_match_dims(self):
        box = BoxParams(5.0, -3.0, 1.0, 4.2, 1.7, 1.5, 1.1)
        c = box_corners(box)
        assert np.linalg.norm(c[0] - c[1]) == pytest.approx(4.2, abs=1e-12)
        assert np.linalg.norm(c[1] - c[2]) == pytest.approx(1.7, abs=1e-12)
        assert np.linalg.norm(c[4] - c[0]) == pytest.approx(1.5, abs=1e-12)

    def test_corners_transform_covariantly(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            box = random_box(rng)
            ang = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-5, 5, size=3)
            rot = rotation_z(ang)
            moved = BoxParams(*(rot @ box.center + t), box.l, box.w, box.h,
                              box.ry + ang)
            expect = box_corners(box) @ rot.T + t
            assert np.allclose(box_corners(moved), expect, atol=1e-9)


class TestContainment:
    BOX = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 2.0, 0.0)

    @staticmethod
    def inside(point, box) -> bool:
        """Whether the cost kernel counts a one-point cluster as enclosed."""
        return score_box(box, [point]).density == -1.0

    def test_center_inside_far_outside(self):
        assert self.inside([0.0, 0.0, 0.0], self.BOX)
        assert not self.inside([5.0, 0.0, 0.0], self.BOX)

    def test_face_points_are_inside(self):
        for p in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]):
            assert self.inside(p, self.BOX)

    def test_boundary_tolerance_band(self):
        assert self.inside([1.0 + 1e-10, 0.0, 0.0], self.BOX)
        assert not self.inside([1.0 + 1e-8, 0.0, 0.0], self.BOX)

    def test_mask_matches_scalar(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-2, 2, size=(200, 3))
        mask = points_in_box(pts, self.BOX)
        assert mask.dtype == bool
        for p, m in zip(pts, mask):
            assert self.inside(p, self.BOX) == m

    def test_rotated_membership(self):
        box = BoxParams(0.0, 0.0, 0.0, 4.0, 1.0, 2.0, math.pi / 2.0)
        # The long axis now runs along y.
        assert self.inside([0.0, 1.9, 0.0], box)
        assert not self.inside([1.9, 0.0, 0.0], box)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            box = random_box(rng)
            pts = box.center + rng.uniform(-4, 4, size=(20, 3))
            ang = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-10, 10, size=3)
            rot = rotation_z(ang)
            moved_box = BoxParams(*(rot @ box.center + t), box.l, box.w,
                                  box.h, box.ry + ang)
            moved_pts = pts @ rot.T + t
            assert np.array_equal(
                points_in_box(pts, box, tol=1e-7),
                points_in_box(moved_pts, moved_box, tol=1e-7),
            )


class TestProjection:
    def test_pinhole_examples(self):
        calib = simple_calib()
        pts = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 5.0], [-1.0, 2.0, 4.0]])
        uvd, valid = project_points(pts, calib)
        assert valid.all()
        assert np.allclose(uvd[0], [50.0, 50.0, 5.0], atol=1e-9)
        assert np.allclose(uvd[1], [70.0, 50.0, 5.0], atol=1e-9)
        assert np.allclose(uvd[2], [25.0, 100.0, 4.0], atol=1e-9)

    def test_behind_camera_is_invalid(self):
        calib = simple_calib()
        uvd, valid = project_points(np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0]]), calib)
        assert not valid.any()
        assert np.isnan(uvd[:, :2]).all()
        assert uvd[0, 2] == -1.0

    def test_box_hull_exact(self):
        calib = simple_calib()
        box = BoxParams(0.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0)
        hull = project_box_to_2d(box, calib)
        assert hull is not None
        assert (hull.u_min, hull.v_min, hull.u_max, hull.v_max) == \
            pytest.approx((25.0, 25.0, 75.0, 75.0), abs=1e-9)

    def test_box_hull_clips_to_image(self):
        calib = simple_calib()
        hull = project_box_to_2d(BoxParams(3.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0), calib)
        assert hull is not None
        assert hull.u_max == 100.0
        assert hull.u_min == pytest.approx(50.0 + 100.0 * 2.0 / 6.0, abs=1e-9)

    def test_box_fully_outside_image_is_none(self):
        calib = simple_calib()
        assert project_box_to_2d(BoxParams(10.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0), calib) is None

    def test_box_behind_camera_is_none(self):
        calib = simple_calib()
        assert project_box_to_2d(BoxParams(0.0, 0.0, -5.0, 2.0, 2.0, 2.0, 0.0), calib) is None

    def test_box_cut_by_image_plane_fills_image(self):
        # Half of this box lies behind the camera. Its part in front reaches
        # past every image border, so the hull is the whole image; the front
        # corners alone give only [16.7, 100] x [16.7, 83.3].
        box = BoxParams(0.5, 0.0, 0.5, 2.0, 1.0, 2.0, 0.0)
        assert project_box_to_2d(box, simple_calib()) == Box2D(0.0, 0.0, 100.0, 100.0)


class TestImageHulls:
    """``image_hulls`` against sampled interiors and the scalar reference."""

    CAMERAS = (
        simple_calib(),
        make_camera("cam1", 0.7, 400.0, 640, 480, center=(0.3, -0.2, 0.5)),
    )

    @staticmethod
    def _boxes(rng, calib, n):
        # Box centers at camera depth -1 to 6 m, so many boxes are cut by
        # the image plane.
        rot = calib.extrinsic[:3, :3]
        t = calib.extrinsic[:3, 3]
        out = []
        for _ in range(n):
            cam = rng.uniform([-2.0, -2.0, -1.0], [2.0, 2.0, 6.0])
            center = rot.T @ (cam - t)
            dims = rng.uniform(0.3, 4.5, size=3)
            out.append(BoxParams(*center, *dims, rng.uniform(0.0, math.pi)))
        return out

    @pytest.mark.parametrize("cam", range(len(CAMERAS)))
    def test_interior_points_project_inside(self, cam):
        calib = self.CAMERAS[cam]
        size = np.array([calib.image_width, calib.image_height], dtype=float)
        rng = np.random.default_rng(40 + cam)
        cut = 0
        for box in self._boxes(rng, calib, 150):
            local = rng.uniform(-0.5, 0.5, size=(400, 3)) * box.dims
            c, s = math.cos(box.ry), math.sin(box.ry)
            pts = np.column_stack([
                box.x + c * local[:, 0] - s * local[:, 1],
                box.y + s * local[:, 0] + c * local[:, 1],
                box.z + local[:, 2],
            ])
            uvd, _ = project_points(pts, calib)
            front = uvd[:, 2] >= NEAR_DEPTH
            cut += bool(front.any() and not front.all())
            uv = np.clip(uvd[front, :2], 0.0, size)
            hull = project_box_to_2d(box, calib)
            if hull is None:
                inside = (uv > 1e-6).all(axis=1) & (uv < size - 1e-6).all(axis=1)
                assert not inside.any()
                continue
            assert (uv[:, 0] >= hull.u_min - 1e-6).all() and (uv[:, 0] <= hull.u_max + 1e-6).all()
            assert (uv[:, 1] >= hull.v_min - 1e-6).all() and (uv[:, 1] <= hull.v_max + 1e-6).all()
        assert cut > 30

    @pytest.mark.parametrize("cam", range(len(CAMERAS)))
    def test_matches_reference(self, cam):
        # Wholly in front or cut by the image plane, a hull matches the
        # scalar reference to 1e-9.
        calib = self.CAMERAS[cam]
        boxes = self._boxes(np.random.default_rng(50 + cam), calib, 300)
        rects, ok = image_hulls(np.array([b.as_array() for b in boxes]), calib)
        kinds = []
        for box, rect, row_ok in zip(boxes, rects, ok):
            ref = reference_hull(box, calib)
            assert (ref is not None) == row_ok
            if ref is None:
                assert (rect == 0.0).all()
                continue
            expect = (ref.u_min, ref.v_min, ref.u_max, ref.v_max)
            assert tuple(rect) == pytest.approx(expect, rel=1e-9, abs=1e-9)
            kinds.append((project_points(box_corners(box), calib)[0][:, 2] >= NEAR_DEPTH).all())
        assert sum(kinds) > 30 and len(kinds) - sum(kinds) > 30

    def test_cut_rows_leave_other_rows_alone(self):
        # Rows wholly in front take the direct extremes and only the cut
        # rows the masked ones; every row, in either camera's columns or in
        # per-row columns, must equal its hull computed alone.
        rows, cams = [], []
        for k, calib in enumerate(self.CAMERAS):
            boxes = self._boxes(np.random.default_rng(60 + k), calib, 40)
            rows += [b.as_array() for b in boxes]
            cams += [k] * len(boxes)
        thetas = np.array(rows)
        cut = np.array([is_cut(th, self.CAMERAS[k]) for th, k in zip(thetas, cams)])
        assert 5 < cut.sum() < len(cut) - 5
        per_row = camera_columns(list(self.CAMERAS))[:, cams]
        together = image_hulls(thetas, per_row)
        for i, (th, k) in enumerate(zip(thetas, cams)):
            alone = image_hulls(th[None], self.CAMERAS[k])
            assert np.array_equal(together[0][i], alone[0][0]), i
            assert together[1][i] == alone[1][0]
        for k, calib in enumerate(self.CAMERAS):
            mine = np.array(cams) == k
            rects, ok = image_hulls(thetas[mine], calib)
            assert np.array_equal(rects, together[0][mine]) and np.array_equal(ok, together[1][mine])


class TestBox2D:
    def test_accessors(self):
        b = Box2D(10.0, 20.0, 40.0, 50.0)
        assert b.width == 30.0 and b.height == 30.0
        assert b.center == (25.0, 35.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Box2D(10.0, 0.0, 10.0, 5.0)

    def test_iou_identical(self):
        b = Box2D(0.0, 0.0, 2.0, 2.0)
        assert iou_2d(b, b) == 1.0

    def test_iou_disjoint(self):
        assert iou_2d(Box2D(0.0, 0.0, 1.0, 1.0), Box2D(2.0, 2.0, 3.0, 3.0)) == 0.0

    def test_iou_third(self):
        a = Box2D(0.0, 0.0, 2.0, 2.0)
        b = Box2D(1.0, 0.0, 3.0, 2.0)
        assert iou_2d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert iou_2d(b, a) == iou_2d(a, b)


class TestBevIou:
    def test_footprint_is_bottom_ring(self):
        box = BoxParams(1.0, 2.0, 3.0, 4.0, 2.0, 2.0, 0.0)
        fp = bev_footprint(box)
        assert fp.shape == (4, 2)
        assert np.allclose(fp, box_corners(box)[:4, :2])

    def test_identical(self):
        box = BoxParams(3.0, -1.0, 0.0, 4.0, 2.0, 1.5, 0.7)
        assert iou_bev(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_half_turn_symmetry(self):
        box = BoxParams(3.0, -1.0, 0.0, 4.0, 2.0, 1.5, 0.7)
        flipped = BoxParams(box.x, box.y, box.z, box.l, box.w, box.h, box.ry + math.pi)
        assert iou_bev(box, flipped) == pytest.approx(1.0, abs=1e-9)

    def test_shifted_squares_third(self):
        a = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        b = BoxParams(1.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_rotated_square_octagon(self):
        a = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        b = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, math.pi / 4.0)
        assert iou_bev(a, b) == pytest.approx(SQ2 / 2.0, abs=1e-9)

    def test_contained_any_rotation(self):
        small = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.0)
        for ry in (0.0, 0.3, math.pi / 4.0, 1.2):
            big = BoxParams(0.0, 0.0, 0.0, 4.0, 4.0, 1.0, ry)
            assert iou_bev(small, big) == pytest.approx(0.25, abs=1e-9)

    def test_disjoint(self):
        a = BoxParams(0.0, 0.0, 0.0, 2.0, 2.0, 1.0, 0.3)
        b = BoxParams(10.0, 0.0, 0.0, 2.0, 2.0, 1.0, 1.0)
        assert iou_bev(a, b) == 0.0

    def test_intersection_area_commutes(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            pa = bev_footprint(random_box(rng, span=3.0))
            pb = bev_footprint(random_box(rng, span=3.0))
            ab = convex_intersection_area(pa, pb)
            ba = convex_intersection_area(pb, pa)
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_bounds_symmetry_translation(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            a = random_box(rng, span=4.0)
            b = random_box(rng, span=4.0)
            v = iou_bev(a, b)
            assert 0.0 <= v <= 1.0
            assert iou_bev(b, a) == pytest.approx(v, abs=1e-9)
            t = rng.uniform(-20, 20, size=2)
            a2 = BoxParams(a.x + t[0], a.y + t[1], a.z, a.l, a.w, a.h, a.ry)
            b2 = BoxParams(b.x + t[0], b.y + t[1], b.z, b.l, b.w, b.h, b.ry)
            assert iou_bev(a2, b2) == pytest.approx(v, abs=1e-9)


class TestCameraCalib:
    def test_rejects_bad_extrinsic_bottom_row(self):
        ext = np.eye(4)
        ext[3, 0] = 1.0
        with pytest.raises(ValueError):
            CameraCalib(ext, np.diag([100.0, 100.0, 1.0]), 100, 100, "c")

    def test_rejects_non_rotation(self):
        ext = np.eye(4)
        ext[0, 0] = 2.0
        with pytest.raises(ValueError):
            CameraCalib(ext, np.diag([100.0, 100.0, 1.0]), 100, 100, "c")

    def test_rejects_lower_triangular_intrinsic(self):
        k = np.array([[100.0, 0.0, 50.0], [3.0, 100.0, 50.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            CameraCalib(np.eye(4), k, 100, 100, "c")

    def test_rejects_negative_focal(self):
        k = np.array([[-100.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ValueError):
            CameraCalib(np.eye(4), k, 100, 100, "c")


def test_boundary_tol_value():
    assert BOUNDARY_TOL == 1e-9
