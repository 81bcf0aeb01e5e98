"""Vectorised ground removal and DBSCAN against their loop references.

``remove_ground`` and ``cluster_objects`` must return the same arrays bit
for bit as the per-cell and per-point loops in ``_sceneprep_reference``:
ground and object indices, and each cluster's sorted point indices.
"""

import hashlib

import numpy as np
import pytest

from autobox3d.errors import ValidationError
from autobox3d.sceneprep import (
    ClusterConfig, GroundConfig, _seed_thresholds, cluster_objects, load_cloud, remove_ground,
)
from autobox3d.synth import SynthClassSpec, SynthSpec, generate

from _sceneprep_reference import cluster_objects_loop, remove_ground_loop


FRAME_SPEC = SynthSpec(
    seed=31,
    n_frames=1,
    classes=[SynthClassSpec(count=4, distance_min=6.0, distance_max=18.0)],
    ground_extent=22.0,
    ground_spacing=0.25,
    ground_jitter=0.03,
    n_cameras=3,
    point_spacing=0.15,
)

# sha256 of the frame's ground indices, then each cluster's point indices
# and centroid, recorded with the loop implementations (the vectorised
# versions replaced them without changing it).
FRAME_DIGEST = "1d359ecd7569500342e7dc02a222127d3e1546170dc282a0ae230e02f1b1f4fd"


@pytest.fixture(scope="module")
def frame_cloud(tmp_path_factory):
    out = tmp_path_factory.mktemp("frame")
    generate(FRAME_SPEC, out)
    return load_cloud(out / "0000.bin")


def assert_same_ground(cloud, **kwargs):
    config = GroundConfig(**kwargs)
    ground, objects = remove_ground(cloud, config)
    ref_ground, ref_objects = remove_ground_loop(cloud, config)
    assert np.array_equal(ground, ref_ground)
    assert np.array_equal(objects, ref_objects)
    return objects


def assert_same_clusters(cloud, indices, **kwargs):
    config = ClusterConfig(**kwargs)
    clusters = cluster_objects(cloud, indices, config)
    ref = cluster_objects_loop(cloud, indices, config)
    assert len(clusters) == len(ref)
    for got, want in zip(clusters, ref):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    return clusters


def digest(cloud, ground, clusters) -> str:
    h = hashlib.sha256(np.asarray(ground, dtype="<i8").tobytes())
    for c in clusters:
        h.update(b"|")
        h.update(c.astype("<i8").tobytes())
        h.update(cloud[c].mean(axis=0).astype("<f8").tobytes())
    return h.hexdigest()


class TestSynthFrame:
    def test_matches_loop_reference(self, frame_cloud):
        objects = assert_same_ground(frame_cloud)
        clusters = assert_same_clusters(frame_cloud, objects)
        assert len(clusters) >= 4

    @pytest.mark.parametrize("cell, seed_quantile", [(2.0, 0.1), (7.5, 0.5), (4.0, 1.0)])
    def test_matches_loop_reference_other_settings(self, frame_cloud, cell, seed_quantile):
        assert_same_ground(frame_cloud, cell=cell, seed_quantile=seed_quantile)

    def test_permuted_input(self, frame_cloud):
        perm = np.random.default_rng(3).permutation(len(frame_cloud))
        cloud = frame_cloud[perm]
        objects = assert_same_ground(cloud)
        assert_same_clusters(cloud, objects)
        assert_same_clusters(cloud, objects[::-1])

    def test_pinned_digest(self, frame_cloud):
        ground, objects = remove_ground(frame_cloud, GroundConfig())
        clusters = cluster_objects(frame_cloud, objects, ClusterConfig())
        assert digest(frame_cloud, ground, clusters) == FRAME_DIGEST


class TestSeedThresholds:
    def test_bitwise_equal_to_np_quantile(self):
        rng = np.random.default_rng(21)
        counts = np.concatenate([np.arange(1, 40), rng.integers(40, 400, 20)])
        runs = [np.sort(rng.normal(-1.8, 0.5, n)) for n in counts]
        starts = np.cumsum(counts) - counts
        for q in (0.05, 0.3, 0.5, 0.7, 0.999, 1.0):
            got = _seed_thresholds(np.concatenate(runs), starts, counts, q)
            want = np.array([np.quantile(run, q) for run in runs])
            assert got.tobytes() == want.tobytes()


class TestRandomClouds:
    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_cloud(self, seed):
        rng = np.random.default_rng(100 + seed)
        cloud = rng.uniform([-12, -12, -2], [12, 12, 1], size=(3000, 3))
        objects = assert_same_ground(cloud, cell=3.0)
        for min_pts in (1, 3, 5):
            assert_same_clusters(cloud, objects, eps=0.7, min_pts=min_pts)

    def test_duplicate_points(self):
        rng = np.random.default_rng(7)
        base = rng.uniform(-3, 3, size=(200, 3))
        cloud = np.vstack([base, base[:50], base[:10]])
        assert_same_ground(cloud, cell=1.5)
        assert_same_clusters(cloud, np.arange(len(cloud)), eps=0.6, min_pts=4)


class TestGroundFallbacks:
    def test_sparse_cells_take_nearest_fitted_plane(self):
        rng = np.random.default_rng(11)
        dense = np.column_stack([
            rng.uniform(0, 4, 300), rng.uniform(0, 4, 300), rng.normal(-1.8, 0.02, 300),
        ])
        # Two points per cell: one seed point each, too few for a plane.
        sparse = np.array([
            [9.0, 1.0, -1.7], [9.5, 1.5, -1.2],
            [-3.0, 6.0, -1.9], [-3.5, 6.5, -0.4],
            [1.0, 13.0, -1.6], [1.2, 13.2, -1.75],
        ])
        cloud = np.vstack([sparse[:2], dense, sparse[2:]])
        assert_same_ground(cloud)

    def test_no_cell_fits_uses_global_plane(self):
        rng = np.random.default_rng(12)
        # One point per 1 m cell, on a tilted plane with a few raised points.
        xy = np.array([(i, j) for i in range(8) for j in range(8)], dtype=float) + 0.5
        z = 0.05 * xy[:, 0] - 1.8 + rng.normal(0, 0.01, len(xy))
        z[::9] += 1.0
        assert_same_ground(np.column_stack([xy, z]), cell=1.0)

    def test_tiny_cloud(self):
        assert_same_ground(np.array([[0.0, 0.0, -1.8], [0.1, 0.0, -1.1]]))
        assert_same_ground(np.array([[5.0, 5.0, 1.0]]))

    def test_non_finite_cloud_raises(self):
        cloud = np.zeros((10, 3))
        cloud[4, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            remove_ground(cloud, GroundConfig())

    def test_grid_too_large_for_int64_keys_raises(self):
        cloud = np.array([[0.0, 0.0, 0.0], [5e9, 5e9, 0.0]])
        with pytest.raises(ValidationError, match="too large"):
            remove_ground(cloud, GroundConfig(cell=1.0))


class TestLattice:
    @pytest.mark.parametrize("spacing, eps, min_pts", [
        (0.5, 0.5, 3),
        (0.5, 0.5, 7),
        (0.25, 0.5, 12),
        (0.1, 0.1, 5),
        (0.1, 0.2, 9),
    ])
    def test_exact_eps_spacing(self, spacing, eps, min_pts):
        ticks = np.arange(6) * spacing
        cloud = np.stack(np.meshgrid(ticks, ticks, ticks[:3], indexing="ij"), axis=-1).reshape(-1, 3)
        clusters = assert_same_clusters(cloud, np.arange(len(cloud)), eps=eps, min_pts=min_pts)
        assert clusters

    def test_border_tie_goes_to_lowest_index(self):
        # Border point 0 sits exactly eps from a core of each of two chains.
        right = np.column_stack([0.5 + 0.25 * np.arange(6), np.zeros(6), np.zeros(6)])
        left = -right
        cloud = np.vstack([[[0.0, 0.0, 0.0]], left, right])
        clusters = assert_same_clusters(cloud, np.arange(len(cloud)), eps=0.5, min_pts=4)
        assert len(clusters) == 2
        assert 0 in clusters[0]
        assert 0 not in clusters[1]

    def test_border_choice_follows_sum_rounding(self):
        # Border point 0 has two core neighbours whose offsets are the same
        # three squares in another order, so only rounding separates their
        # squared distances, and summing as (dx² + dy²) + dz² favours the
        # second one; summing dx² + (dy² + dz²) would favour the first.
        x, y, z = 0.25778688152443735, 0.2385505657949063, 0.33620346319623096
        first, second = np.array([x, y, z]), -np.array([z, y, x])
        assert (x * x + y * y) + z * z > (z * z + y * y) + x * x
        assert x * x + (y * y + z * z) < z * z + (y * y + x * x)
        steps = np.array([1.0, 1.5, 2.0, 2.5])[:, None]
        cloud = np.vstack([np.zeros((1, 3)), first * steps, second * steps])
        clusters = assert_same_clusters(cloud, np.arange(len(cloud)), eps=0.5, min_pts=4)
        assert len(clusters) == 2
        assert list(clusters[0]) == [0, 5, 6, 7, 8]
