"""Center rays, ray geometry, and 2D-to-3D pairing."""

import json
import math

import numpy as np
import pytest

from autobox3d.assoc import (
    AssocConfig,
    Proposal2D,
    associate,
    center_ray,
    load_proposals,
    ray_pairs,
)
from autobox3d.errors import ValidationError
from autobox3d.geom import Box2D, CameraCalib, EgoPose
from autobox3d.sceneprep import Scene
from autobox3d.synth import make_camera

from _costfn_reference import project_points
from _util import simple_calib


def _scene_with(points, camera=None):
    cloud = np.asarray(points, dtype=float)
    return Scene("f0", cloud, EgoPose(), [simple_calib() if camera is None else camera])


def _proposal(box=(40.0, 40.0, 60.0, 60.0), **kw):
    defaults = dict(
        camera_id="cam0", class_id="car", score=0.9,
        mask_pixel_count=100, crop_w=20, crop_h=20,
    )
    defaults.update(kw)
    return Proposal2D(box=Box2D(*box), **defaults)


def _around(u, v):
    """A small rectangle centered on pixel (u, v), as (u_min, v_min, u_max, v_max)."""
    return (u - 1.0, v - 1.0, u + 1.0, v + 1.0)


def _measure(points, camera=None, box=(40.0, 40.0, 60.0, 60.0)):
    """(distance, depth) of each point, as a one-point cluster, from the center
    ray of a proposal ``box``; by default the optical axis of ``simple_calib()``."""
    scene = _scene_with(points, camera)
    clusters = [np.array([k]) for k in range(len(scene.cloud))]
    return [(pair.distance_to_ray, depth)
            for pair, depth in ray_pairs([_proposal(box)], clusters, scene)]


class TestUnproject:
    def test_principal_point_gives_optical_axis(self):
        origin, direction = center_ray(Box2D(*_around(50.0, 50.0)), simple_calib())
        assert np.allclose(origin, 0.0)
        assert np.allclose(direction, [0, 0, 1])

    def test_off_center_pixel(self):
        # u = 70 with f = 100 and cx = 50 means x/z = 0.2.
        _, direction = center_ray(Box2D(*_around(70.0, 50.0)), simple_calib())
        expect = np.array([0.2, 0.0, 1.0])
        assert np.allclose(direction, expect / np.linalg.norm(expect))

    def test_projection_inverts_unprojection(self):
        calib = simple_calib()
        for u, v in ((12.5, 80.0), (3.0, 3.0), (99.0, 41.0)):
            origin, direction = center_ray(Box2D(*_around(u, v)), calib)
            assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)
            uvd, valid = project_points((origin + 7.0 * direction).reshape(1, 3), calib)
            assert valid[0]
            assert np.allclose(uvd[0, :2], [u, v])

    def test_translated_camera_origin(self):
        ext = np.eye(4)
        ext[:3, 3] = [1.0, 2.0, 3.0]
        calib = CameraCalib(ext, simple_calib().intrinsic, 100, 100, "cam0")
        origin, direction = center_ray(Box2D(*_around(50.0, 50.0)), calib)
        assert np.allclose(origin, [-1, -2, -3])
        assert np.allclose(direction, [0, 0, 1])

    def test_singular_intrinsic_rejected(self):
        # The camera itself refuses it, so a calib file fails when it is read.
        intrinsic = np.array([[100.0, 0.0, 50.0], [0.0, 100.0, 50.0], [0.0, 0.0, 1e-18]])
        with pytest.raises(ValueError, match="singular"):
            CameraCalib(np.eye(4), intrinsic, 100, 100, "cam0")


class TestFrustum:
    def test_center_ray_through_box_center(self):
        _, direction = center_ray(Box2D(40, 40, 60, 60), simple_calib())
        assert np.allclose(direction, [0, 0, 1])
        _, direction = center_ray(Box2D(50, 50, 70, 70), simple_calib())
        expect = np.array([0.1, 0.1, 1.0])
        assert np.allclose(direction, expect / np.linalg.norm(expect))


class TestRayDistances:
    def test_perpendicular_offset(self):
        [(dist, _)] = _measure([[3.0, 4.0, 10.0]])
        assert dist == pytest.approx(5.0)

    def test_point_behind_measures_to_origin(self):
        got = _measure([[0.0, 0.0, -5.0], [3.0, 0.0, -4.0]])
        assert [dist for dist, _ in got] == pytest.approx([5.0, 5.0])

    def test_point_on_ray(self):
        assert _measure([[0.0, 0.0, 42.0]]) == [(0.0, 42.0)]

    def test_depth_is_signed_projection(self):
        got = _measure([[3.0, 4.0, 7.0], [0.0, 0.0, -2.0]])
        assert [depth for _, depth in got] == pytest.approx([7.0, -2.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            camera = make_camera("cam0", rng.uniform(-math.pi, math.pi), 100.0, 100, 100,
                                 center=tuple(rng.normal(size=3)))
            u, v = rng.uniform(0.0, 100.0, size=2)
            origin, direction = center_ray(Box2D(*_around(u, v)), camera)
            pts = rng.normal(scale=5.0, size=(20, 3))
            got = _measure(pts, camera, _around(u, v))
            ts = np.linspace(0.0, 50.0, 20001)
            line = origin[None, :] + ts[:, None] * direction[None, :]
            for p, (dist, depth) in zip(pts, got):
                brute = np.min(np.linalg.norm(line - p, axis=1))
                assert dist <= brute + 1e-9
                assert abs(dist - brute) < 5e-3
                assert depth == pytest.approx((p - origin) @ direction, abs=1e-12)


def _nearest_by_loop(scene, prop, cluster):
    """Index into ``cluster`` of its point nearest ``prop``'s center ray, its
    distance and its depth: ``np.argmin`` of half-line distances measured one
    point at a time, one cluster at a time."""
    origin, direction = center_ray(prop.box, scene.camera(prop.camera_id))
    dists, depths = [], []
    for p in scene.cloud[cluster]:
        depth = float((p - origin) @ direction)
        foot = origin + depth * direction if depth > 0.0 else origin
        dists.append(float(np.linalg.norm(p - foot)))
        depths.append(depth)
    k = int(np.argmin(dists))
    return k, dists[k], depths[k]


class TestOnePass:
    """``ray_pairs`` measures every cluster in one pass; it must pick what a
    per-cluster loop picks."""

    @staticmethod
    def _random_frame(rng):
        # Points on both sides of the camera, some of them duplicated, in
        # clusters of one point upward.
        n = int(rng.integers(30, 120))
        cloud = np.column_stack([
            rng.uniform(-6, 6, n), rng.uniform(-6, 6, n), rng.uniform(-10, 40, n),
        ])
        cloud = np.vstack([cloud, cloud[rng.choice(n, size=n // 5, replace=False)]])
        order = rng.permutation(len(cloud))
        cuts = np.sort(rng.choice(np.arange(1, len(cloud)), size=int(rng.integers(1, 20)),
                                  replace=False))
        clusters = [np.sort(c) for c in np.split(order, cuts)]
        clusters.append(np.array([int(rng.integers(len(cloud)))]))
        props = [_proposal(_around(*rng.uniform(5.0, 95.0, size=2)), index=k)
                 for k in range(int(rng.integers(1, 5)))]
        return _scene_with(cloud), props, clusters

    def test_nearest_point_matches_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            scene, props, clusters = self._random_frame(rng)
            got = ray_pairs(props, clusters, scene)
            assert len(got) == len(props) * len(clusters)
            for (pair, depth), (prop, cluster) in zip(
                got, [(p, c) for p in props for c in clusters]
            ):
                k, dist, along = _nearest_by_loop(scene, prop, cluster)
                assert pair.proposal is prop and pair.cluster is cluster
                assert np.array_equal(pair.points, scene.cloud[cluster])
                assert np.array_equal(pair.nearest, pair.points[k])
                assert pair.distance_to_ray == pytest.approx(dist, rel=1e-12, abs=1e-12)
                assert depth == pytest.approx(along, rel=1e-12, abs=1e-12)

    def test_duplicate_points_lowest_index_wins(self):
        # On the optical axis every distance is exact, so copies of a point
        # tie exactly, wherever they sit in the gathered clusters.
        rng = np.random.default_rng(31)
        grid = rng.integers(-4, 5, size=(60, 3)).astype(float)
        grid[:, 2] += 20.0
        cloud = np.vstack([grid, grid])
        clusters = [np.array(c) for c in np.array_split(rng.permutation(len(cloud)), 17)]
        got = ray_pairs([_proposal()], clusters, _scene_with(cloud))
        for (pair, _), cluster in zip(got, clusters):
            dists = np.hypot(cloud[cluster, 0], cloud[cluster, 1])
            k = int(np.argmin(dists))
            assert np.shares_memory(pair.nearest, pair.points[k])
            assert pair.distance_to_ray == dists[k]

    def test_associate_matches_loop(self):
        rng = np.random.default_rng(29)
        config = AssocConfig(tau_match=1.5, d_min=2.0, d_max=30.0)
        for _ in range(40):
            scene, props, clusters = self._random_frame(rng)
            expect = []
            for prop in props:
                for cluster in clusters:
                    _, dist, along = _nearest_by_loop(scene, prop, cluster)
                    if dist <= config.tau_match and config.d_min <= along <= config.d_max:
                        expect.append((prop.index, tuple(cluster)))
            got = associate(scene, props, clusters, config)
            assert [(p.proposal.index, tuple(p.cluster)) for p in got] == expect
            shuffled = [clusters[k] for k in rng.permutation(len(clusters))]
            again = associate(scene, props, shuffled, config)
            assert {(p.proposal.index, tuple(p.cluster)) for p in again} == set(expect)


class TestAssociate:
    def test_cluster_on_axis_pairs(self):
        scene = _scene_with([[0.0, 0.0, 10.0]])
        cluster = np.array([0])
        pairs = associate(scene, [_proposal()], [cluster], AssocConfig())
        assert len(pairs) == 1
        assert pairs[0].distance_to_ray == pytest.approx(0.0)
        assert np.array_equal(pairs[0].points, scene.cloud)
        assert pairs[0].calib.camera_id == "cam0"

    def test_match_distance_boundary(self):
        scene = _scene_with([[2.0, 0.0, 10.0], [2.0001, 0.0, 10.0]])
        on = np.array([0])
        off = np.array([1])
        pairs = associate(scene, [_proposal()], [on, off], AssocConfig())
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
        clusters = [np.array([k]) for k in range(4)]
        pairs = associate(scene, [_proposal()], clusters, AssocConfig())
        matched = {int(p.cluster[0]) for p in pairs}
        assert matched == {1, 2}

    def test_reference_is_point_nearest_ray(self):
        # The centroid lies 2.5 m off the ray, beyond tau_match; the nearest point lies on it.
        scene = _scene_with([[0.0, 0.0, 10.0], [5.0, 0.0, 10.0]])
        cluster = np.array([0, 1])
        pairs = associate(scene, [_proposal()], [cluster], AssocConfig())
        assert len(pairs) == 1
        assert pairs[0].distance_to_ray == pytest.approx(0.0)
        assert np.array_equal(pairs[0].nearest, [0.0, 0.0, 10.0])
        assert np.array_equal(pairs[0].points, scene.cloud)

    def test_one_proposal_many_clusters(self):
        scene = _scene_with([[0.0, 0.0, 8.0], [0.5, 0.0, 20.0]])
        clusters = [np.array([k]) for k in range(2)]
        pairs = associate(scene, [_proposal()], clusters, AssocConfig())
        assert len(pairs) == 2
        assert pairs[0].cluster is clusters[0]
        assert pairs[1].cluster is clusters[1]

    def test_frame_without_clusters(self):
        scene = _scene_with([[0.0, 0.0, 10.0]])
        assert ray_pairs([_proposal()], [], scene) == []
        assert associate(scene, [_proposal()], [], AssocConfig()) == []

    def test_pairs_grouped_per_proposal(self):
        scene = _scene_with([[0.0, 0.0, 8.0], [0.5, 0.0, 20.0]])
        clusters = [np.array([k]) for k in range(2)]
        props = [_proposal(score=0.9), _proposal(score=0.8)]
        pairs = associate(scene, props, clusters, AssocConfig())
        assert [p.proposal is props[0] for p in pairs] == [True, True, False, False]

    def test_cluster_order_invariant(self):
        rng = np.random.default_rng(13)
        cloud = np.column_stack([
            rng.uniform(-3, 3, 40), rng.uniform(-3, 3, 40), rng.uniform(1, 50, 40),
        ])
        scene = _scene_with(cloud)
        clusters = [np.array([k]) for k in range(40)]
        fwd = associate(scene, [_proposal()], clusters, AssocConfig())
        rev = associate(scene, [_proposal()], clusters[::-1], AssocConfig())
        key = lambda pair: int(pair.cluster[0])
        assert sorted(map(key, fwd)) == sorted(map(key, rev))


class TestProposal2D:
    def test_score_range(self):
        with pytest.raises(ValueError):
            _proposal(score=1.5)
        with pytest.raises(ValueError):
            _proposal(score=-0.1)

    def test_crop_and_mask_consistency(self):
        # The one check of these fields; the alignment filters trust them.
        with pytest.raises(ValueError):
            _proposal(crop_w=0)
        with pytest.raises(ValueError):
            _proposal(crop_h=0)
        with pytest.raises(ValueError):
            _proposal(mask_pixel_count=401, crop_w=20, crop_h=20)
        with pytest.raises(ValueError):
            _proposal(mask_pixel_count=-1)
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

    @pytest.mark.parametrize("key, value, kind", [
        ("mask_pixel_count", 100.9, "an integer"),
        ("crop_w", 40.7, "an integer"),
        ("crop_h", True, "an integer"),
        ("score", True, "a number"),
        ("box", [10.0, 10.0, True, 30.0], "a number"),
    ])
    def test_fractional_or_boolean_value_names_key(self, tmp_path, key, value, kind):
        # Truncating would load a 40.7 x true crop as 40 x 1 and then fail
        # on the mask count, far from the cause.
        path = tmp_path / "p.json"
        path.write_text(json.dumps([self._entry(), self._entry(**{key: value})]))
        with pytest.raises(ValidationError, match=f"proposal 1: {key} must be {kind}"):
            load_proposals(path)

    def test_integral_float_counts_load_as_int(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps([self._entry(mask_pixel_count=50.0, crop_w=10.0)]))
        prop = load_proposals(path)[0]
        assert (prop.mask_pixel_count, prop.crop_w) == (50, 10)
        assert isinstance(prop.crop_w, int)
