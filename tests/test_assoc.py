"""Center rays, ray geometry, and 2D-to-3D pairing."""

import json

import numpy as np
import pytest

from autobox3d.assoc import (
    Proposal2D,
    Ray,
    associate,
    camera_center,
    center_ray,
    load_proposals,
    points_to_ray_distances,
    ray_depth,
    unproject_pixel,
)
from autobox3d.errors import ValidationError
from autobox3d.geom import Box2D, CameraCalib, EgoPose
from autobox3d.sceneprep import Cluster, Scene

from _util import simple_calib


def _ray_z():
    return Ray(np.zeros(3), np.array([0.0, 0.0, 1.0]))


def _scene_with(points):
    cloud = np.asarray(points, dtype=float)
    return Scene("f0", cloud, EgoPose(), [simple_calib()])


def _proposal(box=(40.0, 40.0, 60.0, 60.0), **kw):
    defaults = dict(
        camera_id="cam0", class_id="car", score=0.9,
        mask_pixel_count=100, crop_w=20, crop_h=20,
    )
    defaults.update(kw)
    return Proposal2D(box=Box2D(*box), **defaults)


class TestRay:
    def test_requires_unit_direction(self):
        with pytest.raises(ValueError):
            Ray(np.zeros(3), np.array([0.0, 0.0, 2.0]))


class TestUnproject:
    def test_principal_point_gives_optical_axis(self):
        ray = unproject_pixel(50.0, 50.0, simple_calib())
        assert np.allclose(ray.origin, 0.0)
        assert np.allclose(ray.direction, [0, 0, 1])

    def test_off_center_pixel(self):
        # u = 70 with f = 100 and cx = 50 means x/z = 0.2.
        ray = unproject_pixel(70.0, 50.0, simple_calib())
        expect = np.array([0.2, 0.0, 1.0])
        assert np.allclose(ray.direction, expect / np.linalg.norm(expect))

    def test_projection_inverts_unprojection(self):
        from autobox3d.geom import project_points

        calib = simple_calib()
        for u, v in ((12.5, 80.0), (3.0, 3.0), (99.0, 41.0)):
            ray = unproject_pixel(u, v, calib)
            pt = ray.origin + 7.0 * ray.direction
            uvd, valid = project_points(pt.reshape(1, 3), calib)
            assert valid[0]
            assert np.allclose(uvd[0, :2], [u, v])

    def test_translated_camera_origin(self):
        ext = np.eye(4)
        ext[:3, 3] = [1.0, 2.0, 3.0]
        calib = CameraCalib(ext, simple_calib().intrinsic, 100, 100, "cam0")
        assert np.allclose(camera_center(calib), [-1, -2, -3])
        ray = unproject_pixel(50.0, 50.0, calib)
        assert np.allclose(ray.origin, [-1, -2, -3])

    def test_singular_intrinsic_rejected(self):
        intrinsic = np.array([[100.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1e-18]])
        calib = CameraCalib(np.eye(4), intrinsic, 100, 100, "cam0")
        with pytest.raises(ValidationError, match="singular"):
            unproject_pixel(10.0, 10.0, calib)


class TestFrustum:
    def test_center_ray_through_box_center(self):
        ray = center_ray(Box2D(40, 40, 60, 60), simple_calib())
        assert np.allclose(ray.direction, [0, 0, 1])
        ray = center_ray(Box2D(50, 50, 70, 70), simple_calib())
        expect = np.array([0.1, 0.1, 1.0])
        assert np.allclose(ray.direction, expect / np.linalg.norm(expect))


class TestRayDistances:
    def test_perpendicular_offset(self):
        d = points_to_ray_distances(np.array([[3.0, 4.0, 10.0]]), _ray_z())
        assert d[0] == pytest.approx(5.0)

    def test_point_behind_measures_to_origin(self):
        d = points_to_ray_distances(np.array([[0.0, 0.0, -5.0], [3.0, 0.0, -4.0]]), _ray_z())
        assert d == pytest.approx([5.0, 5.0])

    def test_point_on_ray(self):
        assert points_to_ray_distances(np.array([[0.0, 0.0, 42.0]]), _ray_z())[0] == 0.0

    def test_depth_is_signed_projection(self):
        assert ray_depth([3.0, 4.0, 7.0], _ray_z()) == pytest.approx(7.0)
        assert ray_depth([0.0, 0.0, -2.0], _ray_z()) == pytest.approx(-2.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            origin = rng.normal(size=3)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            ray = Ray(origin, direction)
            pts = rng.normal(scale=5.0, size=(20, 3))
            got = points_to_ray_distances(pts, ray)
            ts = np.linspace(0.0, 50.0, 20001)
            line = origin[None, :] + ts[:, None] * direction[None, :]
            for p, g in zip(pts, got):
                brute = np.min(np.linalg.norm(line - p, axis=1))
                assert g <= brute + 1e-9
                assert abs(g - brute) < 5e-3


class TestAssociate:
    def test_cluster_on_axis_pairs(self):
        scene = _scene_with([[0.0, 0.0, 10.0]])
        cluster = Cluster.from_indices(scene.cloud, np.array([0]))
        pairs = associate(scene, [_proposal()], [cluster])
        assert len(pairs) == 1
        assert pairs[0].distance_to_ray == pytest.approx(0.0)
        assert np.array_equal(pairs[0].points, scene.cloud)
        assert pairs[0].calib.camera_id == "cam0"

    def test_match_distance_boundary(self):
        scene = _scene_with([[2.0, 0.0, 10.0], [2.0001, 0.0, 10.0]])
        on = Cluster.from_indices(scene.cloud, np.array([0]))
        off = Cluster.from_indices(scene.cloud, np.array([1]))
        pairs = associate(scene, [_proposal()], [on, off])
        assert len(pairs) == 1
        assert pairs[0].cluster is on
        assert pairs[0].distance_to_ray == pytest.approx(2.0)

    def test_depth_band(self):
        scene = _scene_with([
            [0.0, 0.0, 0.3],   # nearer than d_min
            [0.0, 0.0, 0.5],   # at d_min, inclusive
            [0.0, 0.0, 60.0],  # at d_max, inclusive
            [0.0, 0.0, 70.0],  # beyond d_max
        ])
        clusters = [Cluster.from_indices(scene.cloud, np.array([k])) for k in range(4)]
        pairs = associate(scene, [_proposal()], clusters)
        matched = {int(p.cluster.point_indices[0]) for p in pairs}
        assert matched == {1, 2}

    def test_criterion_changes_reference(self):
        scene = _scene_with([[0.0, 0.0, 10.0], [5.0, 0.0, 10.0]])
        cluster = Cluster.from_indices(scene.cloud, np.array([0, 1]))
        by_point = associate(scene, [_proposal()], [cluster])
        assert len(by_point) == 1
        assert by_point[0].distance_to_ray == pytest.approx(0.0)
        by_centroid = associate(scene, [_proposal()], [cluster], criterion="centroid")
        assert by_centroid == []

    def test_one_proposal_many_clusters(self):
        scene = _scene_with([[0.0, 0.0, 8.0], [0.5, 0.0, 20.0]])
        clusters = [Cluster.from_indices(scene.cloud, np.array([k])) for k in range(2)]
        pairs = associate(scene, [_proposal()], clusters)
        assert len(pairs) == 2
        assert pairs[0].cluster is clusters[0]
        assert pairs[1].cluster is clusters[1]

    def test_pairs_grouped_per_proposal(self):
        scene = _scene_with([[0.0, 0.0, 8.0], [0.5, 0.0, 20.0]])
        clusters = [Cluster.from_indices(scene.cloud, np.array([k])) for k in range(2)]
        props = [_proposal(score=0.9), _proposal(score=0.8)]
        pairs = associate(scene, props, clusters)
        assert [p.proposal is props[0] for p in pairs] == [True, True, False, False]

    def test_cluster_order_invariant(self):
        rng = np.random.default_rng(13)
        cloud = np.column_stack([
            rng.uniform(-3, 3, 40), rng.uniform(-3, 3, 40), rng.uniform(1, 50, 40),
        ])
        scene = _scene_with(cloud)
        clusters = [Cluster.from_indices(cloud, np.array([k])) for k in range(40)]
        fwd = associate(scene, [_proposal()], clusters)
        rev = associate(scene, [_proposal()], clusters[::-1])
        key = lambda pair: int(pair.cluster.point_indices[0])
        assert sorted(map(key, fwd)) == sorted(map(key, rev))

    def test_parameter_validation(self):
        scene = _scene_with([[0.0, 0.0, 10.0]])
        with pytest.raises(ValidationError):
            associate(scene, [], [], criterion="midpoint")
        with pytest.raises(ValidationError):
            associate(scene, [], [], d_min=0.0)
        with pytest.raises(ValidationError):
            associate(scene, [], [], d_min=6.0, d_max=5.0)
        with pytest.raises(ValidationError):
            associate(scene, [], [], tau_match=0.0)


class TestProposal2D:
    def test_score_range(self):
        with pytest.raises(ValueError):
            _proposal(score=1.5)
        with pytest.raises(ValueError):
            _proposal(score=-0.1)

    def test_crop_and_mask_consistency(self):
        with pytest.raises(ValueError):
            _proposal(crop_w=0)
        with pytest.raises(ValueError):
            _proposal(mask_pixel_count=401, crop_w=20, crop_h=20)
        _proposal(mask_pixel_count=400, crop_w=20, crop_h=20)

    def test_embedding_must_be_1d(self):
        with pytest.raises(ValueError):
            _proposal(embedding=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            _proposal(embedding=np.zeros(0))
        p = _proposal(embedding=[1.0, 2.0])
        assert p.embedding.dtype == float


class TestLoadProposals:
    @staticmethod
    def _entry(**kw):
        base = {
            "camera_id": "cam0", "box": [10.0, 10.0, 30.0, 30.0], "class": "car",
            "score": 0.8, "mask_pixel_count": 50, "crop_w": 10, "crop_h": 10,
        }
        base.update(kw)
        return base

    def test_reads_entries_with_indices(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([
            self._entry(),
            self._entry(**{"class": "pedestrian", "embedding": [0.1, 0.2, 0.3]}),
        ]))
        props = load_proposals(path)
        assert [p.index for p in props] == [0, 1]
        assert props[0].class_id == "car"
        assert props[0].embedding is None
        assert props[1].class_id == "pedestrian"
        assert np.allclose(props[1].embedding, [0.1, 0.2, 0.3])
        assert props[0].box.u_max == 30.0

    def test_rejects_non_array(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"box": []}))
        with pytest.raises(ValidationError, match="JSON array"):
            load_proposals(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("[{]")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_proposals(path)

    def test_missing_key_names_entry(self, tmp_path):
        entry = self._entry()
        del entry["score"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValidationError, match="proposal 0"):
            load_proposals(path)

    def test_bad_box_shape(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([self._entry(box=[1.0, 2.0, 3.0])]))
        with pytest.raises(ValidationError, match="4 numbers"):
            load_proposals(path)

    def test_embedding_dimension_must_agree(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([
            self._entry(embedding=[1.0, 2.0]),
            self._entry(embedding=[1.0, 2.0, 3.0]),
        ]))
        with pytest.raises(ValidationError, match="proposal 1.*dimension 3"):
            load_proposals(path)

    def test_out_of_range_score_names_entry(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([self._entry(), self._entry(score=1.5)]))
        with pytest.raises(ValidationError, match="proposal 1"):
            load_proposals(path)
