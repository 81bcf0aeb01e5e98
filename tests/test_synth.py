"""Synthetic scene generation: cameras, surface sampling, and full frames."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from autobox3d.cli import main
from autobox3d.errors import ValidationError
from autobox3d.geom import (
    Box2D,
    BoxParams,
    EgoPose,
    project_box_to_2d,
)
from autobox3d.sceneprep import clusters_from_labels, load_calib, load_point_labels, load_scene
from autobox3d.synth import (
    SynthClassSpec,
    SynthSpec,
    camera_ring,
    generate,
    load_synth_spec,
    make_camera,
    poisson_disk,
    sample_box_surface,
)

from _costfn_reference import points_in_box, project_points


SMALL_SPEC = SynthSpec(
    seed=3,
    n_frames=2,
    classes=[SynthClassSpec(name="car", count=2, distance_min=8.0, distance_max=25.0)],
    ground_extent=20.0,
    n_cameras=2,
)

# Several classes, a pedestrian distance band and four cameras, small enough
# to generate in well under a second.
PINNED_SPEC = dict(
    seed=11,
    n_frames=2,
    classes=[
        SynthClassSpec(name="car", count=2, distance_min=6.0, distance_max=30.0),
        SynthClassSpec(name="pedestrian", count=2, distance_min=5.0, distance_max=15.0,
                       mask_ratio_min=0.3, mask_ratio_max=0.6),
        SynthClassSpec(name="truck", count=1, distance_min=12.0, distance_max=35.0),
    ],
    ground_extent=25.0,
    n_cameras=4,
)

# sha256 over (name, bytes) of every file ``generate`` writes for
# PINNED_SPEC, in sorted name order, keyed by ``embedding_dim``.
CORPUS_DIGESTS = {
    16: "be4e1ff6d1d5e7e684e04e688aef7cca636e231483351b7222016e533c4f629e",
    0: "23c82e099f51ebe0ef8b2714b59fe4dd12ffb93cd35d3c1242655fcb7711073e",
}


class TestSpecValidation:
    def test_class_spec(self):
        with pytest.raises(ValidationError):
            SynthClassSpec(count=-1)
        with pytest.raises(ValidationError):
            SynthClassSpec(distance_min=10.0, distance_max=5.0)
        with pytest.raises(ValidationError):
            SynthClassSpec(mask_ratio_min=0.9, mask_ratio_max=0.5)

    def test_scene_spec(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_frames=0)
        with pytest.raises(ValidationError):
            SynthSpec(n_cameras=0)
        with pytest.raises(ValidationError):
            SynthSpec(point_spacing=0.0)
        with pytest.raises(ValidationError):
            SynthSpec(score_min=0.9, score_max=0.5)


class TestLoadSpec:
    def test_overrides_and_classes(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("""
seed: 9
n_frames: 3
n_cameras: 4
classes:
  - name: car
    count: 2
  - name: pedestrian
    count: 1
    distance_max: 20.0
""")
        spec = load_synth_spec(path)
        assert spec.seed == 9
        assert spec.n_frames == 3
        assert spec.n_cameras == 4
        assert [c.name for c in spec.classes] == ["car", "pedestrian"]
        assert spec.classes[0].count == 2
        assert spec.classes[1].distance_max == 20.0
        assert spec.classes[1].distance_min == 5.0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("")
        spec = load_synth_spec(path)
        assert spec.n_frames == 1
        assert [c.name for c in spec.classes] == ["car"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("n_frame: 3\n")
        with pytest.raises(ValidationError, match="n_frame"):
            load_synth_spec(path)

    def test_unknown_class_key_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("classes:\n  - name: car\n    ccount: 2\n")
        with pytest.raises(ValidationError, match="ccount"):
            load_synth_spec(path)

    def test_every_dataclass_field_is_a_key(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("surface_inset: 0.01\nclasses:\n  - name: car\n    mask_ratio_min: 0.6\n")
        spec = load_synth_spec(path)
        assert spec.surface_inset == 0.01
        assert spec.classes[0].mask_ratio_min == 0.6

    def test_bad_class_value_type_names_entry(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text('classes:\n  - name: car\n    count: "2"\n')
        with pytest.raises(ValidationError, match=r"classes\[0\]"):
            load_synth_spec(path)

    @pytest.mark.parametrize("text, where", [
        ("n_frames: 1.5\n", "n_frames"),
        ("n_cameras: true\n", "n_cameras"),
        ("classes:\n  - name: car\n    count: 1.5\n", r"classes\[0\]\.count"),
        ("classes:\n  - name: car\n    count: false\n", r"classes\[0\]\.count"),
    ], ids=["n_frames-fraction", "n_cameras-bool", "count-fraction", "count-bool"])
    def test_fractional_or_boolean_integer_rejected(self, tmp_path, text, where):
        path = tmp_path / "spec.yaml"
        path.write_text(text)
        with pytest.raises(ValidationError, match=where):
            load_synth_spec(path)

    def test_integral_float_loads_as_int(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("n_frames: 2.0\nclasses:\n  - name: car\n    count: 3.0\n")
        spec = load_synth_spec(path)
        assert spec.n_frames == 2 and type(spec.n_frames) is int
        assert spec.classes[0].count == 3 and type(spec.classes[0].count) is int

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_synth_spec(tmp_path / "nope.yaml")

    def test_exponent_floats_read_as_numbers(self, tmp_path):
        # YAML 1.1 leaves 4.5e1 and 2e-1 strings; the spec reads YAML 1.2 floats.
        path = tmp_path / "spec.yaml"
        path.write_text("ground_extent: 4.5e1\nclasses:\n  - name: car\n    distance_min: 2e-1\n")
        spec = load_synth_spec(path)
        assert spec.ground_extent == 45.0
        assert spec.classes[0].distance_min == 0.2

    def test_quoted_number_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text('ground_extent: "45"\n')
        with pytest.raises(ValidationError, match="ground_extent must be a number"):
            load_synth_spec(path)


class TestMakeCamera:
    def test_forward_point_hits_principal_point(self):
        cam = make_camera("c", 0.0, 100.0, 100, 100)
        uvd, valid = project_points(np.array([[10.0, 0.0, 0.0]]), cam)
        assert valid[0]
        assert np.allclose(uvd[0], [50.0, 50.0, 10.0])

    def test_image_axes_orientation(self):
        cam = make_camera("c", 0.0, 100.0, 100, 100)
        # Left of the camera (+y in ego for yaw 0) lands at smaller u,
        # above the ground (+z) lands at smaller v.
        left, _ = project_points(np.array([[10.0, 1.0, 0.0]]), cam)
        up, _ = project_points(np.array([[10.0, 0.0, 1.0]]), cam)
        assert left[0, 0] == pytest.approx(40.0)
        assert left[0, 1] == pytest.approx(50.0)
        assert up[0, 0] == pytest.approx(50.0)
        assert up[0, 1] == pytest.approx(40.0)

    def test_yawed_camera(self):
        cam = make_camera("c", math.pi / 2.0, 100.0, 100, 100)
        uvd, valid = project_points(np.array([[0.0, 10.0, 0.0]]), cam)
        assert valid[0]
        assert np.allclose(uvd[0], [50.0, 50.0, 10.0])

    def test_offset_center(self):
        from autobox3d.assoc import center_ray

        cam = make_camera("c", 0.0, 100.0, 100, 100, center=(1.0, 2.0, 3.0))
        origin, direction = center_ray(Box2D(40.0, 40.0, 60.0, 60.0), cam)
        assert np.allclose(origin, [1.0, 2.0, 3.0])
        assert np.allclose(direction, [1.0, 0.0, 0.0])

    def test_ring_layout(self):
        cams = camera_ring(SMALL_SPEC)
        assert [c.camera_id for c in cams] == ["cam0", "cam1"]
        behind, valid = project_points(np.array([[-10.0, 0.0, 0.0]]), cams[1])
        assert valid[0]
        assert behind[0, 0] == pytest.approx(SMALL_SPEC.image_width / 2.0)


class TestPoissonDisk:
    def test_spacing_respected(self):
        rng = np.random.default_rng(0)
        pts = poisson_disk(rng, 10.0, 10.0, 1.0)
        assert len(pts) >= 20
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        assert d2.min() >= 1.0

    def test_bounds(self):
        rng = np.random.default_rng(1)
        pts = poisson_disk(rng, 4.0, 2.0, 0.5)
        assert np.all(pts[:, 0] >= 0) and np.all(pts[:, 0] <= 4.0)
        assert np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= 2.0)

    def test_deterministic(self):
        a = poisson_disk(np.random.default_rng(7), 5.0, 5.0, 0.8)
        b = poisson_disk(np.random.default_rng(7), 5.0, 5.0, 0.8)
        assert np.array_equal(a, b)

    def test_degenerate_rectangle(self):
        rng = np.random.default_rng(2)
        assert poisson_disk(rng, 0.0, 5.0, 1.0).shape == (0, 2)

    @pytest.mark.parametrize("seed, width, height, spacing", [
        (3, 5.0, 5.0, 0.8), (4, 4.57, 1.31, 0.12), (5, 0.3, 7.0, 0.25), (6, 2.0, 2.0, 3.0),
    ])
    def test_matches_full_scan(self, seed, width, height, spacing):
        # The grid lookup must reject exactly the darts that a scan of every
        # accepted sample rejects, and leave the generator in the same state.
        def full_scan(rng):
            accepted, misses = [], 0
            while misses < 60:
                cand = rng.random(2) * (width, height)
                if accepted and np.min(np.sum((np.asarray(accepted) - cand) ** 2, axis=1)) < spacing * spacing:
                    misses += 1
                    continue
                accepted.append(cand)
                misses = 0
            return np.asarray(accepted)

        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = poisson_disk(rng, width, height, spacing)
        assert np.array_equal(got, full_scan(ref_rng)) and got.shape[1] == 2
        assert rng.random() == ref_rng.random()


class TestSampleBoxSurface:
    BOX = BoxParams(10.0, 5.0, -1.8 + 0.85, 4.6, 1.9, 1.7, 0.4)
    EGO = EgoPose()

    def _sample(self, seed=5):
        rng = np.random.default_rng(seed)
        return sample_box_surface(
            rng, self.BOX, self.EGO, 0.2, ground_clearance=0.3, ground_z=-1.8,
        )

    def test_points_inside_own_box(self):
        pts = self._sample()
        assert len(pts) > 50
        assert points_in_box(pts, self.BOX).all()

    def test_survives_float32_roundtrip(self):
        pts = self._sample().astype(np.float32).astype(np.float64)
        assert points_in_box(pts, self.BOX).all()

    def test_respects_ground_clearance(self):
        pts = self._sample()
        assert pts[:, 2].min() >= -1.8 + 0.3 - 1e-9

    def test_only_ego_facing_faces_and_roof(self):
        pts = self._sample()

        c, s = math.cos(self.BOX.ry), math.sin(self.BOX.ry)
        rel = pts - np.array(self.BOX.center)
        xl = c * rel[:, 0] + s * rel[:, 1]
        yl = c * rel[:, 1] - s * rel[:, 0]
        zl = rel[:, 2]
        inset = 0.002
        on_roof = np.abs(zl - (0.5 * self.BOX.h - inset)) < 1e-9
        # Ego at the origin sees the -x and -y sides of this box.
        on_near_l = np.abs(xl + (0.5 * self.BOX.l - inset)) < 1e-9
        on_near_w = np.abs(yl + (0.5 * self.BOX.w - inset)) < 1e-9
        assert np.all(on_roof | on_near_l | on_near_w)
        assert on_roof.any() and on_near_l.any() and on_near_w.any()

    def test_deterministic(self):
        assert np.array_equal(self._sample(9), self._sample(9))


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    summary = generate(SMALL_SPEC, out)
    assert summary["frames"] == 2
    assert summary["instances"] == 4
    return out


class TestGenerate:
    def test_files_per_frame(self, out_dir):
        for fid in ("0000", "0001"):
            for suffix in (".bin", ".calib.json", ".proposals.json", ".gt.json", ".ptlabels.txt"):
                assert (out_dir / f"{fid}{suffix}").exists()

    def test_gt_matches_proposals(self, out_dir):
        gt = json.loads((out_dir / "0000.gt.json").read_text())
        proposals = json.loads((out_dir / "0000.proposals.json").read_text())
        assert gt["frame"] == "0000"
        assert len(gt["instances"]) == len(proposals) == 2
        for k, (inst, prop) in enumerate(zip(gt["instances"], proposals)):
            assert inst["id"] == f"0000:{k}"
            assert inst["proposal_index"] == k
            assert inst["class"] == prop["class"] == "car"
            assert inst["camera_id"] == prop["camera_id"]
            assert prop["crop_w"] >= 1 and prop["crop_h"] >= 1
            assert 0 <= prop["mask_pixel_count"] <= prop["crop_w"] * prop["crop_h"]
            assert len(prop["embedding"]) == 16
            assert np.linalg.norm(prop["embedding"]) == pytest.approx(1.0)

    def test_proposal_box_is_true_projection(self, out_dir):
        scene = load_scene(out_dir, "0000", *load_calib(out_dir, "0000"))
        gt = json.loads((out_dir / "0000.gt.json").read_text())
        proposals = json.loads((out_dir / "0000.proposals.json").read_text())
        for inst, prop in zip(gt["instances"], proposals):
            box = BoxParams(**inst["box"])
            hull = project_box_to_2d(box, scene.camera(inst["camera_id"]))
            assert np.allclose(
                prop["box"], [hull.u_min, hull.v_min, hull.u_max, hull.v_max]
            )

    def test_point_labels_partition_cloud(self, out_dir):
        scene = load_scene(out_dir, "0000", *load_calib(out_dir, "0000"))
        labels = load_point_labels(out_dir / "0000.ptlabels.txt", len(scene.cloud))
        gt = json.loads((out_dir / "0000.gt.json").read_text())
        assert set(np.unique(labels)) == {-1, 0, 1}
        for k, inst in enumerate(gt["instances"]):
            member = scene.cloud[labels == k]
            assert len(member) == inst["n_points"]
            box = BoxParams(**inst["box"])
            assert points_in_box(member, box).all()

    def test_clusters_from_labels_recover_instances(self, out_dir):
        scene = load_scene(out_dir, "0000", *load_calib(out_dir, "0000"))
        labels = load_point_labels(out_dir / "0000.ptlabels.txt", len(scene.cloud))
        clusters = clusters_from_labels(labels)
        assert len(clusters) == 2

    def test_frames_differ(self, out_dir):
        a = (out_dir / "0000.bin").read_bytes()
        b = (out_dir / "0001.bin").read_bytes()
        assert a != b

    def test_regeneration_is_identical(self, out_dir, tmp_path):
        generate(SMALL_SPEC, tmp_path)
        for name in ("0000.bin", "0000.proposals.json", "0001.gt.json"):
            assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()

    def test_stale_frames_of_another_corpus_fail(self, tmp_path, capsys):
        # Generating 1 frame over a 3-frame corpus used to leave 0001 and 0002
        # behind, and discover_frames then read the two corpora as one.
        scenes = tmp_path / "scenes"
        spec = SynthSpec(seed=1, n_frames=3, ground_extent=15.0,
                         classes=[SynthClassSpec(count=1, distance_max=20.0)])
        generate(spec, scenes)
        generate(spec, scenes)  # the same frame ids may be written again
        before = {p.name: p.read_bytes() for p in scenes.iterdir()}
        with pytest.raises(ValidationError, match=r"scenes holds frames \['0001', '0002'\]"):
            generate(replace(spec, seed=2, n_frames=1), scenes)
        assert {p.name: p.read_bytes() for p in scenes.iterdir()} == before
        (tmp_path / "spec.yaml").write_text("n_frames: 1\n")
        assert main(["synth", "--spec", str(tmp_path / "spec.yaml"), "--out", str(scenes)]) == 2
        assert "['0001', '0002'] of another corpus" in capsys.readouterr().err

    def test_no_embedding_when_disabled(self, tmp_path):
        spec = SynthSpec(
            seed=1, n_frames=1, ground_extent=15.0, embedding_dim=0,
            classes=[SynthClassSpec(count=1, distance_max=20.0)],
        )
        generate(spec, tmp_path)
        proposals = json.loads((tmp_path / "0000.proposals.json").read_text())
        assert "embedding" not in proposals[0]

    def test_repeated_class_name_keeps_each_entrys_mask_range(self, tmp_path):
        entries = [
            SynthClassSpec(name="car", count=1, mask_ratio_min=0.90, mask_ratio_max=0.95),
            SynthClassSpec(name="car", count=1, mask_ratio_min=0.10, mask_ratio_max=0.15),
        ]
        spec = SynthSpec(seed=4, n_frames=2, n_cameras=3, ground_extent=20.0, classes=entries)
        generate(spec, tmp_path)
        for fid in ("0000", "0001"):
            gt = json.loads((tmp_path / f"{fid}.gt.json").read_text())
            # Instances come in the order of the spec's class entries.
            for entry, inst in zip(entries, gt["instances"], strict=True):
                assert entry.mask_ratio_min <= inst["mask_ratio"] <= entry.mask_ratio_max

    def test_unknown_class_fails(self, tmp_path):
        spec = SynthSpec(classes=[SynthClassSpec(name="zeppelin", count=1)])
        with pytest.raises(ValidationError, match="zeppelin"):
            generate(spec, tmp_path)


@pytest.mark.parametrize("embedding_dim", sorted(CORPUS_DIGESTS))
def test_pinned_corpus_bytes(tmp_path, embedding_dim):
    generate(SynthSpec(**PINNED_SPEC, embedding_dim=embedding_dim), tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert digest.hexdigest() == CORPUS_DIGESTS[embedding_dim]
