"""Cloud IO, ground removal, clustering, and scene loading."""

import json
import warnings

import numpy as np
import pytest

from autobox3d.errors import CloudFormatError, ValidationError
from autobox3d.sceneprep import (
    ClusterConfig,
    GroundConfig,
    cluster_objects,
    clusters_from_labels,
    load_cloud,
    load_ground_mask,
    load_calib,
    load_point_labels,
    load_scene,
    remove_ground,
    save_cloud,
)

from _util import simple_calib


class TestCloudIO:
    def test_bin4_roundtrip(self, tmp_path):
        pts = np.array([[1.5, -2.25, 0.125], [100.0, 0.5, -3.75]])
        path = tmp_path / "a.bin"
        save_cloud(path, pts)
        assert path.stat().st_size == 2 * 16
        assert np.array_equal(load_cloud(path), pts)

    def test_bin3_roundtrip(self, tmp_path):
        pts = np.array([[1.5, -2.25, 0.125], [100.0, 0.5, -3.75], [0.0, 7.5, 2.0]])
        path = tmp_path / "a.bin"
        path.write_bytes(pts.astype("<f4").tobytes())
        assert path.stat().st_size == 3 * 12
        assert np.array_equal(load_cloud(path), pts)

    def test_csv_roundtrip(self, tmp_path):
        pts = np.array([[1.23456789, -2.0, 0.1], [4.0, 5.0, 6.0]])
        path = tmp_path / "a.csv"
        path.write_text("x,y,z\n" + "".join(f"{x!r},{y!r},{z!r}\n" for x, y, z in pts.tolist()))
        assert np.array_equal(load_cloud(path), pts)

    def test_csv_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("intensity,x,y,z,ring\n0.5,1.0,2.0,3.0,7\n0.1,4.0,5.0,6.0,8\n")
        assert np.array_equal(load_cloud(path), [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_ambiguous_size_prefers_16_byte_records(self, tmp_path):
        floats = np.arange(1.0, 13.0, dtype="<f4")  # 48 bytes: 3x16 or 4x12
        path = tmp_path / "a.bin"
        path.write_bytes(floats.tobytes())
        auto = load_cloud(path)
        assert auto.shape == (3, 3)
        assert np.array_equal(auto, [[1, 2, 3], [5, 6, 7], [9, 10, 11]])

    def test_12_byte_fallback(self, tmp_path):
        floats = np.arange(1.0, 7.0, dtype="<f4")  # 24 bytes: only 12 divides
        path = tmp_path / "a.bin"
        path.write_bytes(floats.tobytes())
        assert load_cloud(path).shape == (2, 3)

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"\x00" * 44)  # divisible by neither 16 nor 12
        with pytest.raises(CloudFormatError, match="byte offset 32"):
            load_cloud(path)

    def test_truncated_fixed_format_reports_offset(self, tmp_path):
        # One whole 16-byte record and a 4-byte fragment: the offset names
        # where the fragment starts, not where a 12-byte reading would stop.
        path = tmp_path / "a.bin"
        path.write_bytes(b"\x00" * 20)
        with pytest.raises(CloudFormatError, match="byte offset 16"):
            load_cloud(path)

    def test_non_finite_record_reports_position(self, tmp_path):
        rows = np.zeros((5, 3), dtype="<f4")  # 60 bytes: only 12-byte records fit
        rows[2, 0] = np.inf
        path = tmp_path / "a.bin"
        path.write_bytes(rows.tobytes())
        with pytest.raises(CloudFormatError, match=r"record 2 at byte offset 24"):
            load_cloud(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.bin"
        path.write_bytes(b"")
        assert load_cloud(path).shape == (0, 3)

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x,y\n1.0,2.0\n")
        with pytest.raises(CloudFormatError, match="line 1"):
            load_cloud(path)

    def test_csv_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("x,y,z\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(CloudFormatError, match="line 3"):
            load_cloud(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_csv_non_finite_reports_line(self, tmp_path, bad):
        path = tmp_path / "a.csv"
        path.write_text(f"x,y,z\n1.0,2.0,3.0\n1.0,2.0,3.0\n4.0,{bad},3.0\n")
        with pytest.raises(CloudFormatError, match="line 4"):
            load_cloud(path)


def assert_index_arrays(clusters):
    """Each cluster is a non-empty, ascending, duplicate-free int64 index array,
    and no index is in two clusters."""
    for c in clusters:
        assert isinstance(c, np.ndarray) and c.dtype == np.int64 and c.ndim == 1
        assert len(c) > 0 and np.all(np.diff(c) > 0)
    members = np.concatenate(clusters) if clusters else np.empty(0, np.int64)
    assert len(np.unique(members)) == len(members)


class TestClusterInvariant:
    def test_from_labels_in_label_order(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(-1, 7, size=300)
        labels[labels == 4] = -1  # a label value with no points
        clusters = clusters_from_labels(labels)
        assert_index_arrays(clusters)
        assert [int(labels[c[0]]) for c in clusters] == [0, 1, 2, 3, 5, 6]
        for c in clusters:
            assert np.array_equal(c, np.flatnonzero(labels == labels[c[0]]))
        assert clusters_from_labels(np.full(4, -1)) == []

    def test_from_dbscan_in_first_index_order(self):
        rng = np.random.default_rng(4)
        blobs = [rng.normal(c, 0.15, size=(40, 3)) for c in ([0, 0, 0], [5, 0, 0], [0, 6, 0])]
        cloud = np.vstack([*blobs, rng.uniform(20.0, 90.0, size=(10, 3))])[rng.permutation(130)]
        chosen = rng.permutation(130)[:110]
        clusters = cluster_objects(cloud, chosen, ClusterConfig())
        assert len(clusters) == 3
        assert_index_arrays(clusters)
        assert np.isin(np.concatenate(clusters), chosen).all()
        firsts = [int(c[0]) for c in clusters]
        assert firsts == sorted(firsts)


class TestGroundRemoval:
    @staticmethod
    def _flat_scene(n_side=30, spacing=1.0, z=-1.8, jitter=0.0, seed=0):
        rng = np.random.default_rng(seed)
        ticks = np.arange(n_side, dtype=float) * spacing
        gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
        gz = np.full(gx.shape, z) + (rng.normal(0, jitter, gx.shape) if jitter else 0.0)
        return np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    def test_flat_plane_with_object(self):
        ground = self._flat_scene(n_side=60, spacing=0.5, jitter=0.01, seed=1)
        rng = np.random.default_rng(2)
        obj = np.array([15.0, 15.0, -0.75]) + \
            rng.uniform(-1, 1, size=(120, 3)) * [1.5, 1.0, 0.35]
        cloud = np.vstack([ground, obj])
        g_idx, o_idx = remove_ground(cloud, GroundConfig())
        obj_ids = np.arange(len(ground), len(cloud))
        assert np.isin(obj_ids, o_idx).all()
        recall = np.isin(np.arange(len(ground)), g_idx).mean()
        assert recall > 0.99

    def test_sloped_plane(self):
        base = self._flat_scene(n_side=60, spacing=0.5, z=0.0)
        sloped = base.copy()
        sloped[:, 2] = 0.1 * base[:, 0] - 1.8
        obj = np.array([10.0, 10.0, -0.1]) + \
            np.random.default_rng(3).uniform(-0.3, 0.3, size=(50, 3))
        cloud = np.vstack([sloped, obj])
        g_idx, o_idx = remove_ground(cloud, GroundConfig())
        obj_ids = np.arange(len(sloped), len(cloud))
        assert np.isin(obj_ids, o_idx).all()
        assert np.isin(np.arange(len(sloped)), g_idx).mean() > 0.98

    def test_height_threshold_boundary(self):
        ground = self._flat_scene(z=-1.8)
        probes = np.array([[5.0, 5.0, -1.8 + 0.24], [5.0, 5.0, -1.8 + 0.26]])
        cloud = np.vstack([ground, probes])
        g_idx, o_idx = remove_ground(cloud, GroundConfig())
        assert len(ground) in g_idx
        assert len(ground) + 1 in o_idx

    def test_indices_partition_cloud(self):
        rng = np.random.default_rng(4)
        cloud = rng.uniform(-20, 20, size=(500, 3))
        g_idx, o_idx = remove_ground(cloud, GroundConfig())
        merged = np.concatenate([g_idx, o_idx])
        assert np.array_equal(np.sort(merged), np.arange(500))
        assert np.array_equal(g_idx, np.sort(g_idx))
        assert np.array_equal(o_idx, np.sort(o_idx))

    def test_tiny_cloud_fallback(self):
        cloud = np.array([[0.0, 0.0, -1.8], [0.1, 0.0, -1.1]])
        g_idx, o_idx = remove_ground(cloud, GroundConfig())
        assert list(g_idx) == [0]
        assert list(o_idx) == [1]

    def test_empty_cloud_raises(self):
        with pytest.raises(ValidationError, match="empty cloud"):
            remove_ground(np.empty((0, 3)), GroundConfig())


class TestClustering:
    def test_two_blobs(self):
        rng = np.random.default_rng(5)
        a = rng.normal([0, 0, 0], 0.1, size=(12, 3))
        b = rng.normal([5, 0, 0], 0.1, size=(15, 3))
        cloud = np.vstack([a, b])
        clusters = cluster_objects(cloud, np.arange(len(cloud)), ClusterConfig())
        assert len(clusters) == 2
        assert set(clusters[0]) == set(range(12))
        assert set(clusters[1]) == set(range(12, 27))

    def test_noise_dropped(self):
        rng = np.random.default_rng(6)
        blob = rng.normal([0, 0, 0], 0.1, size=(10, 3))
        cloud = np.vstack([blob, [[30.0, 30.0, 30.0]]])
        clusters = cluster_objects(cloud, np.arange(len(cloud)), ClusterConfig())
        assert len(clusters) == 1
        assert 10 not in clusters[0]

    def test_border_points_join_cluster(self):
        # A chain with spacing 0.4 under eps 0.5: the interior points are
        # cores, the two endpoints are border points that still join.
        cloud = np.column_stack([
            np.arange(5) * 0.4, np.zeros(5), np.zeros(5),
        ])
        clusters = cluster_objects(cloud, np.arange(5), ClusterConfig(eps=0.5, min_pts=3))
        assert len(clusters) == 1
        assert set(clusters[0]) == set(range(5))

    def test_chain_of_cores_merges(self):
        cloud = np.column_stack([
            np.arange(30) * 0.2, np.zeros(30), np.zeros(30),
        ])
        clusters = cluster_objects(cloud, np.arange(30), ClusterConfig(eps=0.5, min_pts=4))
        assert len(clusters) == 1

    def test_subset_indices_only(self):
        rng = np.random.default_rng(7)
        blob = rng.normal([0, 0, 0], 0.1, size=(20, 3))
        cloud = np.vstack([blob, blob + [5, 0, 0]])
        chosen = np.arange(20)
        clusters = cluster_objects(cloud, chosen, ClusterConfig())
        assert len(clusters) == 1
        assert np.isin(clusters[0], chosen).all()

    def test_ordered_by_smallest_index(self):
        rng = np.random.default_rng(8)
        far = rng.normal([8, 0, 0], 0.1, size=(10, 3))
        near = rng.normal([0, 0, 0], 0.1, size=(10, 3))
        cloud = np.vstack([far, near])
        clusters = cluster_objects(cloud, np.arange(20), ClusterConfig())
        assert int(clusters[0][0]) == 0

    def test_permutation_stable(self):
        rng = np.random.default_rng(9)
        a = rng.normal([0, 0, 0], 0.15, size=(150, 3))
        b = rng.normal([4, 0, 0], 0.15, size=(150, 3))
        cloud = np.vstack([a, b])
        base = cluster_objects(cloud, np.arange(300), ClusterConfig())
        perm = rng.permutation(300)
        permuted = cluster_objects(cloud[perm], np.arange(300), ClusterConfig())
        def as_sets(clusters, mapping=None):
            out = set()
            for c in clusters:
                ids = c if mapping is None else mapping[c]
                out.add(frozenset(int(v) for v in ids))
            return out
        assert as_sets(base) == as_sets(permuted, perm)

    def test_empty_indices(self):
        assert cluster_objects(np.zeros((5, 3)), np.array([], dtype=np.int64), ClusterConfig()) == []


class TestSidecars:
    def test_ground_mask_roundtrip(self, tmp_path):
        path = tmp_path / "f.ground.txt"
        path.write_text("1\n0\n1\n0\n")
        mask = load_ground_mask(path, 4)
        assert np.array_equal(mask, [True, False, True, False])

    def test_ground_mask_bad_token(self, tmp_path):
        path = tmp_path / "f.ground.txt"
        path.write_text("1\n2\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_ground_mask(path, 2)

    def test_ground_mask_length_mismatch(self, tmp_path):
        path = tmp_path / "f.ground.txt"
        path.write_text("1\n0\n")
        with pytest.raises(ValidationError, match="2 mask entries"):
            load_ground_mask(path, 3)

    def test_point_labels_roundtrip(self, tmp_path):
        path = tmp_path / "f.ptlabels.txt"
        path.write_text("-1\n0\n0\n1\n-1\n")
        labels = load_point_labels(path, 5)
        assert np.array_equal(labels, [-1, 0, 0, 1, -1])

    def test_point_labels_reject_below_minus_one(self, tmp_path):
        path = tmp_path / "f.ptlabels.txt"
        path.write_text("-2\n")
        with pytest.raises(ValidationError, match="line 1"):
            load_point_labels(path, 1)

    def test_point_labels_reject_garbage(self, tmp_path):
        path = tmp_path / "f.ptlabels.txt"
        path.write_text("0\nx\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_point_labels(path, 2)

    # Files that np.loadtxt reads, or rejects, otherwise than the line reader:
    # each must raise the line reader's message, and no warning.
    @pytest.mark.parametrize("text, n_points, match", [
        pytest.param("1 2\n", 2, "line 1: not an integer", id="one-line-two-tokens"),
        pytest.param("1 2\n3 4\n", 2, "line 1: not an integer", id="every-line-two-tokens"),
        pytest.param("0\n#1\n", 2, "line 2: not an integer", id="hash-line"),
        pytest.param("\n  \n\n", 2, "0 labels for a cloud of 2 points", id="blank-lines-only"),
    ])
    def test_point_labels_reject_like_line_reader(self, tmp_path, text, n_points, match):
        path = tmp_path / "f.ptlabels.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                load_point_labels(path, n_points)

    def test_point_labels_read_int_tokens(self, tmp_path):
        path = tmp_path / "f.ptlabels.txt"
        path.write_text("+1\n1_0\n")
        labels = load_point_labels(path, 2)
        assert labels.dtype == np.int64
        assert labels.tolist() == [1, 10]

    def test_clusters_from_labels(self):
        labels = np.array([-1, 1, 0, 1, -1])
        clusters = clusters_from_labels(labels)
        assert len(clusters) == 2
        assert list(clusters[0]) == [2]
        assert list(clusters[1]) == [1, 3]


def _calib_doc(ego=(0.0, 0.0, 0.0)):
    calib = simple_calib()
    return {
        "ego": list(ego),
        "cameras": [{
            "camera_id": calib.camera_id,
            "extrinsic": calib.extrinsic.tolist(),
            "intrinsic": calib.intrinsic.tolist(),
            "image_width": calib.image_width,
            "image_height": calib.image_height,
        }],
    }


class TestSceneLoading:
    @staticmethod
    def _write_frame(tmp_path, frame_id, cloud=None):
        if cloud is None:
            cloud = np.array([[0.0, 0.0, 5.0], [1.0, 1.0, 6.0]])
        save_cloud(tmp_path / f"{frame_id}.bin", cloud)
        (tmp_path / f"{frame_id}.calib.json").write_text(json.dumps(_calib_doc()))
        return cloud

    def test_loads_cloud_ego_cameras(self, tmp_path):
        cloud = self._write_frame(tmp_path, "f0")
        scene = load_scene(tmp_path, "f0", *load_calib(tmp_path, "f0"))
        assert scene.frame_id == "f0"
        assert np.array_equal(scene.cloud, cloud)
        assert (scene.ego.x, scene.ego.y, scene.ego.z) == (0.0, 0.0, 0.0)
        assert scene.cameras["cam0"].image_width == 100

    def test_csv_cloud_also_accepted(self, tmp_path):
        cloud = np.array([[1.0, 2.0, 3.0]])
        (tmp_path / "f1.csv").write_text("x,y,z\n1.0,2.0,3.0\n")
        (tmp_path / "f1.calib.json").write_text(json.dumps(_calib_doc()))
        scene = load_scene(tmp_path, "f1", *load_calib(tmp_path, "f1"))
        assert np.array_equal(scene.cloud, cloud)

    def test_missing_calib_raises(self, tmp_path):
        save_cloud(tmp_path / "f2.bin", np.zeros((1, 3)))
        with pytest.raises(ValidationError, match="calib"):
            load_calib(tmp_path, "f2")

    def test_missing_cloud_raises(self, tmp_path):
        self._write_frame(tmp_path, "f3")
        (tmp_path / "f3.bin").unlink()
        with pytest.raises(ValidationError, match="no cloud file"):
            load_scene(tmp_path, "f3", *load_calib(tmp_path, "f3"))

    def test_broken_calib_json_raises(self, tmp_path):
        save_cloud(tmp_path / "f5.bin", np.zeros((1, 3)))
        (tmp_path / "f5.calib.json").write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_calib(tmp_path, "f5")

    def test_duplicate_camera_ids_rejected(self, tmp_path):
        doc = _calib_doc()
        doc["cameras"] *= 2
        (tmp_path / "f6.calib.json").write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as err:
            load_calib(tmp_path, "f6")
        assert str(err.value) == f"{tmp_path / 'f6.calib.json'}: camera 1: duplicate camera id 'cam0'"
