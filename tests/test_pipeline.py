"""End-to-end pipeline: seeding, NMS, conflict resolution, full runs."""

import hashlib
import json
import shutil
from dataclasses import replace

import numpy as np
import pytest

from autobox3d.bank import NovelObjectTarget, Provenance, read_bank
from autobox3d.config import PipelineConfig
from autobox3d.costfn import BoxCostBatch, CostBreakdown, CostWeights, adaptive_surface_clip
from autobox3d.errors import UnknownClassError, ValidationError
from autobox3d.filters import REJECT_REASONS
from autobox3d.geom import BoxParams, EgoPose, iou_bev
from autobox3d.optimizer import SearchResult, SwarmConfig
from autobox3d.pipeline import (
    associate_frame,
    decide_frame,
    derive_pair_seed,
    discover_frames,
    fit_pair,
    format_bank_summary,
    format_report,
    load_clusters,
    nms,
    prepare_targets,
    process_frame,
    read_frame,
    run_annotate,
    summarize_bank,
)
from autobox3d.sceneprep import Scene, load_calib, load_point_labels, load_scene
from autobox3d.synth import SynthClassSpec, SynthSpec, generate, make_camera

from _util import NMS_FRAME_SPEC, NMS_FRAME_SWARM, build_pair, car_box, swarm_fit


TINY_SWARM = SwarmConfig(n_swarm=12, n_iter=60)

def fit_alone(pair, config, seed):
    """One pair's swarm fit searched on its own, under the run config."""
    start, batch = fit_pair(pair, config, seed)
    return swarm_fit(batch.evaluate, pair, config.swarm, seed, start.anchor)


CORPUS_SPEC = SynthSpec(
    seed=11,
    n_frames=2,
    classes=[SynthClassSpec(name="car", count=2, distance_min=8.0, distance_max=22.0)],
    ground_extent=18.0,
    n_cameras=2,
)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    generate(CORPUS_SPEC, out)
    return out


def corpus_config(corpus, out_dir, **kw):
    defaults = dict(scenes_dir=corpus, output_dir=out_dir, swarm=TINY_SWARM)
    defaults.update(kw)
    return PipelineConfig(**defaults)


class TestDerivePairSeed:
    def test_deterministic(self):
        assert derive_pair_seed(3, "0007", 2) == derive_pair_seed(3, "0007", 2)

    def test_sensitive_to_each_input(self):
        base = derive_pair_seed(3, "0007", 2)
        assert derive_pair_seed(4, "0007", 2) != base
        assert derive_pair_seed(3, "0008", 2) != base
        assert derive_pair_seed(3, "0007", 3) != base

    def test_uint32_range(self):
        for k in range(20):
            v = derive_pair_seed(1, "frame", k)
            assert 0 <= v < 2 ** 32


def target_at(x, total, y=0.0, side=1.0):
    return NovelObjectTarget(
        box=BoxParams(x, y, 0.0, side, side, 1.0, 0.0),
        class_id="car",
        cost=CostBreakdown(0.0, 0.0, 0.0, 0.0, total),
        fit_for_alignment=False,
        provenance=Provenance("0000", "cam0", 0),
    )


class TestNms:
    def test_empty(self):
        assert nms([], 0.5) == []

    def test_disjoint_all_kept_in_input_order(self):
        ts = [target_at(0.0, -1.0), target_at(5.0, -9.0), target_at(10.0, -4.0)]
        assert nms(ts, 0.5) == [None, None, None]

    def test_worse_overlapping_box_suppressed(self):
        good = target_at(0.0, -10.0)
        bad = target_at(0.1, -2.0)
        assert nms([bad, good], 0.5) == [1, None]

    def test_exact_threshold_survives(self):
        a = target_at(0.0, -10.0)
        b = target_at(0.4, -2.0)
        overlap = iou_bev(a.box, b.box)
        assert 0.0 < overlap < 1.0
        assert nms([a, b], overlap) == [None, None]
        assert nms([a, b], overlap - 1e-9) == [None, 0]

    def test_suppression_is_not_transitive(self):
        # A removes B, but C only overlaps B, so C survives.
        a = target_at(0.0, -10.0)
        b = target_at(0.5, -1.0)
        c = target_at(1.0, -5.0)
        assert iou_bev(a.box, c.box) == 0.0
        assert nms([a, b, c], 0.3) == [None, 0, None]
        # B overlaps C as much as A; the lower-cost A is its suppressor.
        assert iou_bev(b.box, c.box) > 0.3
        assert nms([c, b, a], 0.3) == [None, 2, None]

    def test_cost_tie_keeps_earlier_index(self):
        first = target_at(0.0, -5.0)
        second = target_at(0.05, -5.0)
        assert nms([first, second], 0.5) == [None, 0]

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        ts = [
            target_at(float(rng.uniform(0, 6)), float(rng.uniform(-9, -1)),
                      y=float(rng.uniform(0, 2)))
            for _ in range(25)
        ]
        suppressed_by = nms(ts, 0.4)
        assert any(by is not None for by in suppressed_by)
        # Every suppressor is itself kept.
        assert all(by is None or suppressed_by[by] is None for by in suppressed_by)
        once = [t for t, by in zip(ts, suppressed_by) if by is None]
        assert nms(once, 0.4) == [None] * len(once)


class TestDiscoverFrames:
    def test_sorted_ids_from_calib_files(self, tmp_path):
        for name in ("0002.calib.json", "0000.calib.json", "notes.txt", "x.bin"):
            (tmp_path / name).write_text("{}")
        assert discover_frames(tmp_path) == ["0000", "0002"]

    def test_missing_dir(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            discover_frames(tmp_path / "absent")


class TestLoadClusters:
    def test_prefers_label_sidecar(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path)
        scene = load_scene(corpus, "0000", *load_calib(corpus, "0000"))
        clusters = load_clusters(scene, config)
        labels = load_point_labels(corpus / "0000.ptlabels.txt", len(scene.cloud))
        assert len(clusters) == labels.max() + 1
        for k, cluster in enumerate(clusters):
            assert np.array_equal(cluster, np.where(labels == k)[0])

    def test_ground_mask_sidecar(self, corpus, tmp_path):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in corpus.glob("0000.*"):
            shutil.copy(src, scenes / src.name)
        scene = load_scene(scenes, "0000", *load_calib(scenes, "0000"))
        labels = load_point_labels(scenes / "0000.ptlabels.txt", len(scene.cloud))
        (scenes / "0000.ptlabels.txt").unlink()
        mask_lines = "\n".join("1" if v == -1 else "0" for v in labels)
        (scenes / "0000.ground.txt").write_text(mask_lines + "\n")
        config = corpus_config(scenes, tmp_path / "out")
        clusters = load_clusters(scene, config)
        assert len(clusters) == labels.max() + 1

    def test_computed_fallback(self, corpus, tmp_path):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in corpus.glob("0000.*"):
            if not src.name.endswith(".ptlabels.txt"):
                shutil.copy(src, scenes / src.name)
        scene = load_scene(scenes, "0000", *load_calib(scenes, "0000"))
        config = corpus_config(scenes, tmp_path / "out")
        clusters = load_clusters(scene, config)
        assert len(clusters) == 2


class TestFitPair:
    @staticmethod
    def first_pair(corpus, config):
        from autobox3d.assoc import associate, load_proposals

        scene = load_scene(corpus, "0000", *load_calib(corpus, "0000"))
        proposals = load_proposals(corpus / "0000.proposals.json")
        pairs = associate(scene, proposals, load_clusters(scene, config), config.association)
        return scene, pairs[0]

    def test_unknown_class_raises(self, corpus, tmp_path):
        # read_frame stops an unknown class before any fit; past it, a class
        # without an anchor range is a KeyError.
        config = corpus_config(corpus, tmp_path)
        _, pair = self.first_pair(corpus, config)
        pair.proposal.class_id = "yeti"
        with pytest.raises(KeyError, match="yeti"):
            fit_pair(pair, config, 0)

    def test_setup_swarm_start(self, corpus, tmp_path):
        # The swarm starts from what association computed: the cluster's
        # points and its point nearest the center ray.
        config = corpus_config(corpus, tmp_path)
        scene, pair = self.first_pair(corpus, config)
        start, _ = fit_pair(pair, config, 7)
        assert start.points is pair.points and start.nearest is pair.nearest
        assert start.anchor is config.anchors[pair.proposal.class_id]
        assert start.seed == 7
        assert np.array_equal(pair.points, scene.cloud[pair.cluster])
        assert pair.ego is scene.ego

    def test_setup_surface_clip(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path, weights=CostWeights(lambda1=4.0))
        scene, pair = self.first_pair(corpus, config)
        start, batch = fit_pair(pair, config, 0)
        centroid = scene.cloud[pair.cluster].mean(axis=0)
        clip = adaptive_surface_clip(scene.ego, centroid, start.anchor)
        expected, fixed_clip = (
            BoxCostBatch(pair.points, scene.ego, pair.proposal.box, pair.calib,
                         config.weights, c)
            for c in (clip, 10.0)
        )
        # Centers from 1 m to 40 m out along the cluster's bearing, so the
        # surface term saturates at the clip.
        bearing = centroid[:2] / np.linalg.norm(centroid[:2])
        thetas = np.array([
            [*(r * bearing), centroid[2], 4.5, 1.8, 1.6, 0.4]
            for r in np.linspace(1.0, 40.0, 40)
        ])
        got, want = batch.evaluate(thetas), expected.evaluate(thetas)
        for term in ("totals", "density", "lshape", "surface", "iou2d"):
            assert np.array_equal(getattr(got, term), getattr(want, term)), term
        assert not np.array_equal(got.surface, fixed_clip.evaluate(thetas).surface)


def _write_mini_frame(scenes, frame_id, embed_dim, n_points=8):
    """One frame: a tight blob at (10, 0, 0), one proposal looking at it."""
    rng = np.random.default_rng(sum(frame_id.encode()))
    pts = np.array([10.0, 0.0, 0.0]) + rng.uniform(-0.2, 0.2, size=(n_points, 3))
    from autobox3d.sceneprep import save_cloud

    save_cloud(scenes / f"{frame_id}.bin", pts)
    (scenes / f"{frame_id}.ptlabels.txt").write_text("0\n" * n_points)
    cam = make_camera("cam0", 0.0, 100.0, 100, 100)
    calib = {
        "ego": [0.0, 0.0, 0.0],
        "cameras": [{
            "camera_id": "cam0",
            "extrinsic": cam.extrinsic.tolist(),
            "intrinsic": cam.intrinsic.tolist(),
            "image_width": 100,
            "image_height": 100,
        }],
    }
    (scenes / f"{frame_id}.calib.json").write_text(json.dumps(calib))
    proposal = {
        "camera_id": "cam0", "box": [40.0, 40.0, 60.0, 60.0], "class": "car",
        "score": 0.9, "mask_pixel_count": 300, "crop_w": 20, "crop_h": 20,
    }
    if embed_dim:
        proposal["embedding"] = [0.1] * embed_dim
    (scenes / f"{frame_id}.proposals.json").write_text(json.dumps([proposal]))


class TestReadFrame:
    def test_unknown_camera_lists_known(self, tmp_path):
        _write_mini_frame(tmp_path, "f4", embed_dim=0)
        props_path = tmp_path / "f4.proposals.json"
        props_path.write_text(props_path.read_text().replace('"cam0"', '"nope"'))
        with pytest.raises(ValidationError) as err:
            read_frame(PipelineConfig(scenes_dir=tmp_path), "f4")
        assert str(err.value) == "frame f4: unknown camera 'nope', have ['cam0']"


class TestProcessFrame:
    def test_counts_and_targets(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path)
        frame = read_frame(config, "0000")
        assert len(frame[0]) == 2
        targets, stats = process_frame(config, "0000", frame)
        assert set(stats) == {"clusters", "pairs"}
        assert stats["clusters"] == 2
        assert stats["pairs"] >= 2
        assert 1 <= len(targets) <= 2
        for t in targets:
            assert t.provenance.frame == "0000"
            assert t.class_id == "car"
            anchor = config.anchors["car"]
            assert np.all(t.box.dims >= np.asarray(anchor.min) - 1e-9)
            assert np.all(t.box.dims <= np.asarray(anchor.max) + 1e-9)
            assert 0.0 <= t.box.ry < np.pi
            assert np.isfinite(t.cost.total)
            assert t.verdict is not None

    def test_unknown_class_fails_before_any_fit(self, corpus, tmp_path, monkeypatch):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in corpus.glob("0000.*"):
            shutil.copy(src, scenes / src.name)
        path = scenes / "0000.proposals.json"
        proposals = json.loads(path.read_text())
        proposals[-1]["class"] = "trailer"
        path.write_text(json.dumps(proposals))
        config = corpus_config(scenes, tmp_path / "out")
        del config.anchors["trailer"]

        def no_search(*args, **kwargs):
            raise AssertionError("a pair was fitted before the class check")

        monkeypatch.setattr("autobox3d.pipeline.pso_search", no_search)
        with pytest.raises(UnknownClassError, match=f"^frame 0000: proposal {len(proposals) - 1}: "
                                                    "no anchor range for class 'trailer'"):
            run_annotate(config)

    def test_default_tables_cover_the_same_classes(self):
        config = PipelineConfig()
        assert set(config.anchors) == set(config.thresholds.tau_occ)

    def test_conflict_keeps_lowest_cost_fit(self, tmp_path):
        # Two clusters within reach of one proposal ray; the kept target must
        # be exactly the better of the two independent fits.
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        rng = np.random.default_rng(5)
        near = np.array([10.0, 0.0, 0.0]) + rng.uniform(-0.2, 0.2, size=(6, 3))
        far = np.array([14.0, 0.6, 0.0]) + rng.uniform(-0.2, 0.2, size=(6, 3))
        pts = np.vstack([near, far])
        from autobox3d.sceneprep import save_cloud

        save_cloud(scenes / "c0.bin", pts)
        (scenes / "c0.ptlabels.txt").write_text("0\n" * 6 + "1\n" * 6)
        cam = make_camera("cam0", 0.0, 100.0, 100, 100)
        calib = {
            "ego": [0.0, 0.0, 0.0],
            "cameras": [{
                "camera_id": "cam0",
                "extrinsic": cam.extrinsic.tolist(),
                "intrinsic": cam.intrinsic.tolist(),
                "image_width": 100,
                "image_height": 100,
            }],
        }
        (scenes / "c0.calib.json").write_text(json.dumps(calib))
        (scenes / "c0.proposals.json").write_text(json.dumps([{
            "camera_id": "cam0", "box": [40.0, 40.0, 60.0, 60.0], "class": "car",
            "score": 0.9, "mask_pixel_count": 300, "crop_w": 20, "crop_h": 20,
        }]))

        config = corpus_config(scenes, tmp_path / "out")
        from autobox3d.assoc import associate, load_proposals

        scene = load_scene(scenes, "c0", *load_calib(scenes, "c0"))
        proposals = load_proposals(scenes / "c0.proposals.json")
        clusters = load_clusters(scene, config)
        pairs = associate(scene, proposals, clusters, config.association)
        assert len(pairs) == 2

        fits = [
            fit_alone(pair, config, derive_pair_seed(config.seed, "c0", k))
            for k, pair in enumerate(pairs)
        ]
        expected = min(fits, key=lambda r: r.best_cost.total)

        targets = prepare_targets(scene, pairs, config)
        assert len(targets) == 1
        assert np.array_equal(targets[0].box.as_array(), expected.best_box.as_array())
        assert targets[0].cost == expected.best_cost


class TestDecideFrame:
    def test_seeds_follow_position_among_frame_pairs(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path)
        frame = read_frame(config, "0000")
        scene, pairs, stats = associate_frame(config, "0000", frame)
        assert stats["pairs"] == len(pairs)
        assert pairs[0].proposal.index != pairs[-1].proposal.index, (
            "a later proposal's pairs must not start the frame"
        )
        records = decide_frame(scene, pairs, config)
        assert [r.target.provenance.proposal for r in records] == [0, 1]
        fits = [fit for r in records for fit in r.fits]
        assert sorted(id(pair) for _, pair in fits) == sorted(map(id, pairs))
        for result, pair in fits:
            k = pairs.index(pair)  # pairs compare by identity
            expected = fit_alone(pair, config, derive_pair_seed(config.seed, "0000", k))
            assert result.best_cost == expected.best_cost
            assert np.array_equal(result.trace, expected.trace)
        for r in records:
            totals = [result.best_cost.total for result, _ in r.fits]
            assert totals == sorted(totals)
            assert r.target.cost == r.fits[0][0].best_cost

    @staticmethod
    def decide_with(monkeypatch, pairs, boxes, totals):
        """``decide_frame`` over ``pairs``, its search made to return these
        boxes and total costs."""
        from autobox3d import pipeline

        def search(evaluate, starts, cfg):
            return [SearchResult(box, CostBreakdown(0.0, 0.0, 0.0, 0.0, total), 1)
                    for box, total in zip(boxes, totals)]

        monkeypatch.setattr(pipeline, "pso_search", search)
        scene = Scene("f0", np.zeros((0, 3)), EgoPose(), {})
        return decide_frame(scene, pairs, PipelineConfig(swarm=TINY_SWARM))

    @pytest.mark.parametrize("totals, ranks", [
        ((-1.0, -2.0, -2.0), [1, 2, 0]),
        ((-3.0, -3.0, -3.0), [0, 1, 2]),
    ])
    def test_ranking_keeps_pair_order_on_tie(self, monkeypatch, totals, ranks):
        # Three pairs of proposal 0 and one of proposal 1.
        boxes = [car_box(dist=d) for d in (10.0, 12.0, 14.0, 30.0)]
        pairs = [build_pair(box, seed=k) for k, box in enumerate(boxes)]
        pairs[3].proposal.index = 1
        records = self.decide_with(monkeypatch, pairs, boxes, (*totals, -1.0))
        assert [[pairs.index(pair) for _, pair in r.fits] for r in records] == [ranks, [3]]
        assert records[0].target.box == boxes[ranks[0]]
        assert [r.suppressed_by for r in records] == [None, None]

    def test_suppressed_by_is_a_proposal_index(self, monkeypatch):
        # Proposals 0 and 2 matched no cluster, so a record's position is
        # not its proposal index. Both fits land on the same box.
        box = car_box()
        pairs = [build_pair(box, seed=k) for k in range(2)]
        pairs[0].proposal.index, pairs[1].proposal.index = 1, 3
        records = self.decide_with(monkeypatch, pairs, [box, box], (-2.0, -1.0))
        assert [(r.target.provenance.proposal, r.suppressed_by) for r in records] == [
            (1, None), (3, 1)
        ]

    def test_suppressed_by_exactly_when_not_banked(self, tmp_path):
        scenes = tmp_path / "scenes"
        generate(NMS_FRAME_SPEC, scenes)
        config = corpus_config(scenes, tmp_path / "out", swarm=NMS_FRAME_SWARM)
        run_annotate(config)
        banked = {t.provenance for t in read_bank(tmp_path / "out" / "bank.jsonl")}
        scene, pairs, _ = associate_frame(config, "0000", read_frame(config, "0000"))
        records = decide_frame(scene, pairs, config)
        assert len(records) == 5
        for r in records:
            assert (r.suppressed_by is None) == (r.target.provenance in banked)
        assert [r.suppressed_by for r in records] == [None, None, None, 0, None]
        assert iou_bev(records[3].target.box, records[0].target.box) > config.nms_iou


# Three frames of two classes, with embeddings; the last frame's proposal
# file is removed.
PINNED_SPEC = SynthSpec(
    seed=23,
    n_frames=3,
    classes=[
        SynthClassSpec(name="car", count=2, distance_min=8.0, distance_max=22.0),
        SynthClassSpec(name="pedestrian", count=1, distance_min=5.0, distance_max=12.0),
    ],
    ground_extent=18.0,
    n_cameras=2,
)
# sha256 of bank.jsonl, and of report.json without its "elapsed_s" and
# "fingerprint" (which holds the corpus paths), for PINNED_SPEC under
# PINNED_SWARM. Any change to these bytes is a change to the bank. The
# report's "clusters" is 6: frame 0002 has no proposal file, so it is not
# clustered.
PINNED_BANK_SHA256 = "87723893a79714084824af913831b5598ed6f7d68f90bcb1195781e4ff864b53"
PINNED_REPORT_SHA256 = "a230630a610d968a764e9aa9ae8e069d1ed4984aefeb5c422ffc3574f30a85e5"
PINNED_SWARM = SwarmConfig(n_swarm=12, n_iter=20)


class TestRunAnnotate:
    def test_reads_each_calib_once(self, corpus, tmp_path, monkeypatch):
        # The calib read for the camera check is the one the frame loads with.
        from autobox3d import pipeline, sceneprep

        calls = []

        def counted(real):
            def call(scenes_dir, frame_id, *args):
                calls.append((real.__name__, frame_id))
                return real(scenes_dir, frame_id, *args)
            return call

        read_calib = counted(sceneprep.load_calib)
        monkeypatch.setattr(sceneprep, "load_calib", read_calib)
        monkeypatch.setattr(pipeline, "load_calib", read_calib)
        monkeypatch.setattr(pipeline, "load_scene", counted(pipeline.load_scene))
        run_annotate(corpus_config(corpus, tmp_path / "out", swarm=SwarmConfig(1, 1)))
        frames = discover_frames(corpus)
        assert sorted(calls) == sorted((n, f) for n in ("load_calib", "load_scene") for f in frames)

    def test_pinned_bank_and_report_bytes(self, tmp_path):
        scenes = tmp_path / "scenes"
        generate(PINNED_SPEC, scenes)
        (scenes / "0002.proposals.json").unlink()
        run_annotate(corpus_config(scenes, tmp_path / "out", swarm=PINNED_SWARM))
        bank = (tmp_path / "out" / "bank.jsonl").read_bytes()
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["frames_missing_proposals"] == ["0002"]
        del report["elapsed_s"], report["fingerprint"]
        report_bytes = (json.dumps(report, indent=2) + "\n").encode()
        assert hashlib.sha256(bank).hexdigest() == PINNED_BANK_SHA256
        assert hashlib.sha256(report_bytes).hexdigest() == PINNED_REPORT_SHA256

    def test_outputs_and_report(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path / "out")
        report = run_annotate(config)
        assert (tmp_path / "out" / "bank.jsonl").exists()
        assert (tmp_path / "out" / "report.json").exists()
        assert set(report) == {
            "fingerprint", "frames", "frames_missing_proposals", "proposals",
            "clusters", "pairs", "targets", "reasons", "fractions", "per_class",
            "elapsed_s",
        }
        assert report["frames"] == 2
        assert report["proposals"] == 4
        assert report["frames_missing_proposals"] == []
        bank = read_bank(tmp_path / "out" / "bank.jsonl")
        assert len(bank) == report["targets"]
        assert [t.provenance.frame for t in bank] == sorted(t.provenance.frame for t in bank)
        assert sum(report["reasons"].values()) == report["targets"]
        assert report["per_class"]["car"]["targets"] == report["targets"]
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert on_disk["fingerprint"] == report["fingerprint"]

        text = format_report(report)
        assert "targets banked" in text
        assert all(f"held out, {r}: " in text for r in REJECT_REASONS)

    def test_no_target_without_an_embedding_is_fit(self, tmp_path):
        # Proposals without embeddings: the verdict holds every target out.
        generate(replace(CORPUS_SPEC, embedding_dim=0), tmp_path / "scenes")
        report = run_annotate(corpus_config(tmp_path / "scenes", tmp_path / "out"))
        bank_text = (tmp_path / "out" / "bank.jsonl").read_text()
        lines = [json.loads(line) for line in bank_text.splitlines()]
        assert len(lines) == report["targets"] > 0
        assert all(not obj["fit_for_alignment"] and "embedding" not in obj for obj in lines)
        on_disk = json.loads((tmp_path / "out" / "report.json").read_text())
        assert on_disk["reasons"]["fit"] == 0
        assert on_disk["reasons"]["no_embedding"] > 0
        assert sum(on_disk["reasons"].values()) == report["targets"]

    def test_reruns_are_byte_identical(self, corpus, tmp_path):
        config_a = corpus_config(corpus, tmp_path / "a")
        config_b = corpus_config(corpus, tmp_path / "b")
        run_annotate(config_a)
        run_annotate(config_b)
        assert (tmp_path / "a" / "bank.jsonl").read_bytes() == \
            (tmp_path / "b" / "bank.jsonl").read_bytes()

    def test_workers_do_not_change_output(self, corpus, tmp_path):
        serial = corpus_config(corpus, tmp_path / "serial", workers=1)
        parallel = corpus_config(corpus, tmp_path / "parallel", workers=2)
        run_annotate(serial)
        run_annotate(parallel)
        assert (tmp_path / "serial" / "bank.jsonl").read_bytes() == \
            (tmp_path / "parallel" / "bank.jsonl").read_bytes()

    def test_missing_proposal_file_is_reported(self, corpus, tmp_path):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in corpus.iterdir():
            if src.name != "0001.proposals.json":
                shutil.copy(src, scenes / src.name)
        assert read_frame(corpus_config(scenes, tmp_path), "0001")[0] is None
        config = corpus_config(scenes, tmp_path / "out")
        report = run_annotate(config)
        assert report["frames"] == 2
        assert report["frames_missing_proposals"] == ["0001"]
        assert report["proposals"] == len(read_frame(config, "0000")[0])
        text = format_report(report)
        assert "0001" in text

    @pytest.mark.parametrize("proposals", [None, "[]"], ids=["missing", "empty"])
    def test_frame_without_proposals_is_never_loaded(self, corpus, tmp_path, monkeypatch,
                                                     proposals):
        # It can bank nothing; its cloud used to be read, ground-stripped and
        # clustered only for report.json's cluster count.
        from autobox3d import pipeline

        scenes = tmp_path / "scenes"
        shutil.copytree(corpus, scenes)
        path = scenes / "0001.proposals.json"
        if proposals is None:
            path.unlink()
        else:
            path.write_text(proposals)
        real_load_scene, real_load_clusters = pipeline.load_scene, pipeline.load_clusters
        loaded, clusters = [], {}

        def load_scene(scenes_dir, frame_id, *args):
            loaded.append(frame_id)
            return real_load_scene(scenes_dir, frame_id, *args)

        def load_clusters(scene, config):
            clusters[scene.frame_id] = real_load_clusters(scene, config)
            return clusters[scene.frame_id]

        monkeypatch.setattr(pipeline, "load_scene", load_scene)
        monkeypatch.setattr(pipeline, "load_clusters", load_clusters)
        report = run_annotate(corpus_config(scenes, tmp_path / "out", swarm=SwarmConfig(1, 1)))
        assert loaded == ["0000"] and list(clusters) == ["0000"]
        assert report["frames"] == 2
        assert report["frames_missing_proposals"] == (["0001"] if proposals is None else [])
        assert report["clusters"] == len(clusters["0000"]) == 2

    @pytest.mark.parametrize("layout, where", [
        ("two frames", "frame b: proposal 0"),
        ("one frame", "frame a: proposal 1"),
    ], ids=["two frames", "one frame"])
    def test_mixed_embedding_dims_rejected(self, tmp_path, monkeypatch, layout, where):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        _write_mini_frame(scenes, "a", embed_dim=4)
        _write_mini_frame(scenes, "b", embed_dim=8)
        if layout == "one frame":
            path = scenes / "a.proposals.json"
            wider = json.loads((scenes / "b.proposals.json").read_text())
            path.write_text(json.dumps(json.loads(path.read_text()) + wider))
            (scenes / "b.proposals.json").unlink()
        config = corpus_config(
            scenes, tmp_path / "out", swarm=SwarmConfig(n_swarm=8, n_iter=20)
        )

        def no_search(*args, **kwargs):
            raise AssertionError("a pair was fitted before the embedding check")

        monkeypatch.setattr("autobox3d.pipeline.pso_search", no_search)
        with pytest.raises(ValidationError) as err:
            run_annotate(config)
        assert str(err.value) == (
            f"{where}: embedding dimension 8 differs from 4 (frame a: proposal 0)"
        )

    def test_unknown_class_in_last_frame_fails_before_any_fit(self, corpus, tmp_path,
                                                              monkeypatch):
        scenes = tmp_path / "scenes"
        shutil.copytree(corpus, scenes)
        path = scenes / "0001.proposals.json"
        proposals = json.loads(path.read_text())
        proposals[-1]["class"] = "yeti"
        path.write_text(json.dumps(proposals))

        def no_search(*args, **kwargs):
            raise AssertionError("a frame was fitted before the last frame's class check")

        monkeypatch.setattr("autobox3d.pipeline.pso_search", no_search)
        with pytest.raises(UnknownClassError,
                           match=f"^frame 0001: proposal {len(proposals) - 1}: .*'yeti'"):
            run_annotate(corpus_config(scenes, tmp_path / "out"))

    def test_singular_intrinsic_in_last_frame_fails_before_any_fit(self, corpus, tmp_path,
                                                                  monkeypatch):
        # Association used to find it, after the earlier frames were fitted.
        scenes = tmp_path / "scenes"
        shutil.copytree(corpus, scenes)
        path = scenes / "0001.calib.json"
        calib = json.loads(path.read_text())
        calib["cameras"][0]["intrinsic"][2][2] = 1e-18
        path.write_text(json.dumps(calib))

        def no_search(*args, **kwargs):
            raise AssertionError("a frame was fitted before the last frame's cameras were read")

        monkeypatch.setattr("autobox3d.pipeline.pso_search", no_search)
        with pytest.raises(ValidationError,
                           match="0001.calib.json: camera 0: intrinsic matrix is singular"):
            run_annotate(corpus_config(scenes, tmp_path / "out"))

    def test_summarize_bank_matches_report(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path / "out")
        report = run_annotate(config)
        summary = summarize_bank(tmp_path / "out" / "bank.jsonl")
        assert summary["targets"] == report["targets"]
        assert summary["fit_for_alignment"] == report["reasons"]["fit"]
        assert summary["per_class"] == report["per_class"]
        assert summary["frames_with_targets"] == report["frames"]
        text = format_bank_summary(summary)
        assert f"targets: {summary['targets']}" in text

        # A frame without a proposal file banks nothing, so the bank cannot
        # count it: the summary names the frames it can count.
        scenes = tmp_path / "scenes"
        shutil.copytree(corpus, scenes)
        (scenes / "0001.proposals.json").unlink()
        report = run_annotate(corpus_config(scenes, tmp_path / "out2"))
        summary = summarize_bank(tmp_path / "out2" / "bank.jsonl")
        assert report["frames"] == 2 and report["frames_missing_proposals"] == ["0001"]
        assert summary["frames_with_targets"] == 1
        assert summary["targets"] == report["targets"] > 0
        text = format_bank_summary(summary)
        assert "frames with targets: 1" in text
