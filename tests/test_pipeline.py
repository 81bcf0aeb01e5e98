"""End-to-end pipeline: seeding, NMS, conflict resolution, full runs."""

import hashlib
import json
import shutil

import numpy as np
import pytest

from autobox3d.bank import NovelObjectTarget, Provenance, read_bank
from autobox3d.config import PipelineConfig
from autobox3d.costfn import BoxCostBatch, CostBreakdown, CostWeights, adaptive_surface_clip
from autobox3d.errors import UnknownClassError, ValidationError
from autobox3d.filters import AlignmentVerdict
from autobox3d.geom import BoxParams, iou_bev
from autobox3d.optimizer import SearchResult, SwarmConfig
from autobox3d.pipeline import (
    REJECT_REASONS,
    associate_frame,
    best_fit,
    derive_pair_seed,
    discover_frames,
    fit_pair,
    fit_proposal,
    format_bank_summary,
    format_report,
    frame_calib,
    frame_proposals,
    load_clusters,
    nms,
    prepare_targets,
    process_frame,
    reject_reason,
    run_annotate,
    summarize_bank,
)
from autobox3d.sceneprep import load_calib, load_point_labels, load_scene
from autobox3d.synth import SynthClassSpec, SynthSpec, generate, make_camera

from _util import swarm_fit


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
        assert nms(ts, 0.5) == ts

    def test_worse_overlapping_box_suppressed(self):
        good = target_at(0.0, -10.0)
        bad = target_at(0.1, -2.0)
        assert nms([bad, good], 0.5) == [good]

    def test_exact_threshold_survives(self):
        a = target_at(0.0, -10.0)
        b = target_at(0.4, -2.0)
        overlap = iou_bev(a.box, b.box)
        assert 0.0 < overlap < 1.0
        kept = nms([a, b], overlap)
        assert kept == [a, b]
        assert nms([a, b], overlap - 1e-9) == [a]

    def test_suppression_is_not_transitive(self):
        # A removes B, but C only overlaps B, so C survives.
        a = target_at(0.0, -10.0)
        b = target_at(0.5, -1.0)
        c = target_at(1.0, -5.0)
        assert iou_bev(a.box, c.box) == 0.0
        assert nms([a, b, c], 0.3) == [a, c]

    def test_cost_tie_keeps_earlier_index(self):
        first = target_at(0.0, -5.0)
        second = target_at(0.05, -5.0)
        assert nms([first, second], 0.5) == [first]

    def test_idempotent(self):
        rng = np.random.default_rng(21)
        ts = [
            target_at(float(rng.uniform(0, 6)), float(rng.uniform(-9, -1)),
                      y=float(rng.uniform(0, 2)))
            for _ in range(25)
        ]
        once = nms(ts, 0.4)
        assert nms(once, 0.4) == once


class TestRejectReason:
    @staticmethod
    def _target(vd, fit):
        t = target_at(0.0, -5.0)
        t.verdict = vd
        t.fit_for_alignment = fit
        return t

    def test_fit_target_has_no_reason(self):
        t = self._target(AlignmentVerdict(True, True, True), True)
        assert reject_reason(t) is None

    def test_precedence_order(self):
        assert reject_reason(
            self._target(AlignmentVerdict(False, False, False), False)
        ) == "occlusion"
        assert reject_reason(
            self._target(AlignmentVerdict(True, False, False), False)
        ) == "resolution"
        assert reject_reason(
            self._target(AlignmentVerdict(True, True, False), False)
        ) == "multi_view"

    def test_missing_embedding_is_last_resort(self):
        assert reject_reason(
            self._target(AlignmentVerdict(True, True, True), False)
        ) == "no_embedding"
        assert reject_reason(self._target(None, False)) == "no_embedding"

    def test_reason_vocabulary(self):
        assert REJECT_REASONS == ("occlusion", "resolution", "multi_view", "no_embedding")


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
        return associate(scene, proposals, load_clusters(scene, config), config.association)[0]

    def test_unknown_class_raises(self, corpus, tmp_path):
        # The entry points' check_classes stops an unknown class before any
        # fit; past it, a class without an anchor range is a KeyError.
        config = corpus_config(corpus, tmp_path)
        pair = self.first_pair(corpus, config)
        pair.proposal.class_id = "yeti"
        with pytest.raises(KeyError, match="yeti"):
            fit_pair(pair, config, 0)

    def test_setup_swarm_start(self, corpus, tmp_path):
        # The swarm starts from what association computed: the cluster's
        # points and its point nearest the center ray.
        config = corpus_config(corpus, tmp_path)
        pair = self.first_pair(corpus, config)
        start, _ = fit_pair(pair, config, 7)
        assert start.points is pair.points and start.nearest is pair.nearest
        assert start.anchor is config.anchors[pair.proposal.class_id]
        assert start.seed == 7
        assert np.array_equal(pair.points, pair.scene.cloud[pair.cluster])

    def test_setup_surface_clip(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path, weights=CostWeights(lambda1=4.0))
        pair = self.first_pair(corpus, config)
        start, batch = fit_pair(pair, config, 0)
        centroid = pair.scene.cloud[pair.cluster].mean(axis=0)
        clip = adaptive_surface_clip(pair.scene.ego, centroid, start.anchor)
        expected, fixed_clip = (
            BoxCostBatch(pair.points, pair.scene.ego, pair.proposal.box, pair.calib,
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


class TestProcessFrame:
    def test_counts_and_targets(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path)
        proposals = frame_proposals(config, "0000")
        assert len(proposals) == 2
        calib = frame_calib(config, "0000", proposals)
        targets, stats = process_frame(config, "0000", proposals, calib)
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

    @pytest.mark.parametrize("table", ["anchors", "tau_occ"])
    def test_unknown_class_fails_before_any_fit(self, corpus, tmp_path, monkeypatch, table):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        for src in corpus.glob("0000.*"):
            shutil.copy(src, scenes / src.name)
        path = scenes / "0000.proposals.json"
        proposals = json.loads(path.read_text())
        proposals[-1]["class"] = "trailer"
        path.write_text(json.dumps(proposals))
        config = corpus_config(scenes, tmp_path / "out")
        if table == "anchors":
            del config.anchors["trailer"]
        else:
            del config.thresholds.tau_occ["trailer"]

        def no_search(*args, **kwargs):
            raise AssertionError("a pair was fitted before the class check")

        monkeypatch.setattr("autobox3d.pipeline.pso_search", no_search)
        what = "anchor range" if table == "anchors" else "tau_occ threshold"
        with pytest.raises(UnknownClassError, match=f"^frame 0000: proposal {len(proposals) - 1}: "
                                                    f"no {what} for class 'trailer'"):
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


class TestFitProposal:
    def test_seeds_follow_position_among_frame_pairs(self, corpus, tmp_path):
        config = corpus_config(corpus, tmp_path)
        proposals = frame_proposals(config, "0000")
        scene, pairs, stats = associate_frame(
            config, "0000", proposals, frame_calib(config, "0000", proposals)
        )
        assert stats["pairs"] == len(pairs)
        index = pairs[-1].proposal.index
        mine = [(k, p) for k, p in enumerate(pairs) if p.proposal.index == index]
        assert mine[0][0] > 0, "the later proposal's pairs must not start the frame"
        fits = fit_proposal(scene, pairs, config, index)
        assert [pair for _, pair in fits] == [pair for _, pair in mine]
        for (result, _), (k, pair) in zip(fits, mine):
            expected = fit_alone(pair, config, derive_pair_seed(config.seed, "0000", k))
            assert result.best_cost == expected.best_cost
            assert np.array_equal(result.trace, expected.trace)
        assert fit_proposal(scene, pairs, config, len(proposals)) == []

    def test_best_fit_lowest_total_earliest_on_tie(self):
        def fit(total, tag):
            cost = CostBreakdown(0.0, 0.0, 0.0, 0.0, total)
            return SearchResult(BoxParams(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0), cost, 1), tag

        assert best_fit([fit(-1.0, "a"), fit(-2.0, "b"), fit(-2.0, "c")])[1] == "b"
        assert best_fit([fit(-3.0, "a"), fit(-3.0, "b")])[1] == "a"


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
# PINNED_SWARM. Any change to these bytes is a change to the bank.
PINNED_BANK_SHA256 = "87723893a79714084824af913831b5598ed6f7d68f90bcb1195781e4ff864b53"
PINNED_REPORT_SHA256 = "c132c9f83de2a25f47d089585e26c2f685910e5eefebdafb908ce24e7cf78178"
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
        assert "held out, occlusion" in text

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
        assert frame_proposals(corpus_config(scenes, tmp_path), "0001") is None
        config = corpus_config(scenes, tmp_path / "out")
        report = run_annotate(config)
        assert report["frames"] == 2
        assert report["frames_missing_proposals"] == ["0001"]
        assert report["proposals"] == len(frame_proposals(config, "0000"))
        text = format_report(report)
        assert "0001" in text

    def test_mixed_embedding_dims_rejected(self, tmp_path, monkeypatch):
        scenes = tmp_path / "scenes"
        scenes.mkdir()
        _write_mini_frame(scenes, "a", embed_dim=4)
        _write_mini_frame(scenes, "b", embed_dim=8)
        config = corpus_config(
            scenes, tmp_path / "out", swarm=SwarmConfig(n_swarm=8, n_iter=20)
        )

        def no_search(*args, **kwargs):
            raise AssertionError("a pair was fitted before the embedding check")

        monkeypatch.setattr("autobox3d.pipeline.pso_search", no_search)
        with pytest.raises(ValidationError, match="embedding dimension"):
            run_annotate(config)

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
