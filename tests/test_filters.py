"""Occlusion, resolution, and multi-view alignment filters."""

import numpy as np
import pytest

from autobox3d.filters import (
    DEFAULT_TAU_OCC,
    REJECT_REASONS,
    AlignmentVerdict,
    FilterThresholds,
    multiview_filter,
    occlusion_filter,
    resolution_filter,
    verdict,
)
from autobox3d.geom import Box2D, BoxParams, project_box_to_2d

from _util import simple_calib
from test_assoc import _proposal


TH = FilterThresholds()


class TestThresholds:
    def test_defaults(self):
        assert TH.tau_occ["car"] == 0.5
        assert TH.tau_occ["pedestrian"] == 0.25
        assert TH.tau_res == 4000.0
        assert TH.tau_mv == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterThresholds(tau_occ={"car": 0.0})
        with pytest.raises(ValueError):
            FilterThresholds(tau_occ={"car": 1.0})
        with pytest.raises(ValueError):
            FilterThresholds(tau_res=0.0)
        with pytest.raises(ValueError):
            FilterThresholds(tau_mv=1.5)
        FilterThresholds(tau_mv=1.0)  # closed at the top


def _crop(mask_pixel_count, crop_w, crop_h, class_id="car"):
    return _proposal(mask_pixel_count=mask_pixel_count, crop_w=crop_w, crop_h=crop_h,
                     class_id=class_id)


class TestOcclusion:
    def test_strictly_above_threshold(self):
        # Crop 100x80 = 8000 pixels; the car bar of 0.5 sits at 4000.
        assert not occlusion_filter(_crop(4000, 100, 80), TH)
        assert occlusion_filter(_crop(4001, 100, 80), TH)

    def test_class_specific_bar(self):
        # Pedestrian bar 0.25 of 8000 = 2000.
        assert not occlusion_filter(_crop(2000, 100, 80, "pedestrian"), TH)
        assert occlusion_filter(_crop(2001, 100, 80, "pedestrian"), TH)

    def test_unknown_class_raises(self):
        # check_classes stops an unknown class before any fit; past it, a class
        # missing from tau_occ is a KeyError, never a silent pass or fail.
        with pytest.raises(KeyError, match="'unicycle'"):
            occlusion_filter(_crop(10, 10, 10, "unicycle"), TH)

    def test_all_default_classes_covered(self):
        for cls in DEFAULT_TAU_OCC:
            occlusion_filter(_crop(0, 10, 10, cls), TH)


class TestResolution:
    def test_strictly_above_threshold(self):
        assert not resolution_filter(_crop(0, 63, 63), TH)   # 3969
        assert not resolution_filter(_crop(0, 100, 40), TH)  # exactly 4000
        assert resolution_filter(_crop(0, 63, 64), TH)       # 4032

    def test_custom_bar(self):
        th = FilterThresholds(tau_res=100.0)
        assert resolution_filter(_crop(0, 11, 10), th)
        assert not resolution_filter(_crop(0, 10, 10), th)


class TestMultiView:
    CALIB = simple_calib()
    # A cube straight ahead projects to the square hull (25, 25, 75, 75).
    BOX = BoxParams(0.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0)

    def test_projected_hull_oracle(self):
        hull = project_box_to_2d(self.BOX, self.CALIB)
        assert np.allclose(
            (hull.u_min, hull.v_min, hull.u_max, hull.v_max), (25, 25, 75, 75)
        )

    def test_perfect_overlap_passes(self):
        assert multiview_filter(self.BOX, Box2D(25, 25, 75, 75), self.CALIB, TH)

    def test_exact_threshold_passes(self):
        # Proposal covering the left half of the hull: IoU = 0.5 exactly,
        # and the bar is inclusive.
        assert multiview_filter(self.BOX, Box2D(25, 25, 50, 75), self.CALIB, TH)

    def test_below_threshold_fails(self):
        assert not multiview_filter(self.BOX, Box2D(25, 25, 49, 75), self.CALIB, TH)

    def test_disjoint_fails(self):
        assert not multiview_filter(self.BOX, Box2D(80, 80, 99, 99), self.CALIB, TH)

    def test_unprojectable_box_fails(self):
        behind = BoxParams(0.0, 0.0, -5.0, 2.0, 2.0, 2.0, 0.0)
        assert project_box_to_2d(behind, self.CALIB) is None
        assert not multiview_filter(behind, Box2D(25, 25, 75, 75), self.CALIB, TH)


class TestVerdict:
    CALIB = simple_calib()
    BOX = BoxParams(0.0, 0.0, 5.0, 2.0, 2.0, 2.0, 0.0)

    def _prop(self, **kw):
        defaults = dict(
            box=(25.0, 25.0, 75.0, 75.0), mask_pixel_count=5000,
            crop_w=100, crop_h=80, embedding=[1.0, 0.0],
        )
        defaults.update(kw)
        return _proposal(**defaults)

    def test_all_pass(self):
        v = verdict(self._prop(), self.BOX, self.CALIB, TH)
        assert v == AlignmentVerdict(True, True, True, True)
        assert v.fit_for_alignment
        assert v.reason is None

    def test_each_filter_can_veto(self):
        occluded = verdict(self._prop(mask_pixel_count=100), self.BOX, self.CALIB, TH)
        assert not occluded.not_occluded and occluded.high_res and occluded.mv_aligned
        assert not occluded.fit_for_alignment

        small = verdict(
            self._prop(crop_w=60, crop_h=60, mask_pixel_count=3000),
            self.BOX, self.CALIB, TH,
        )
        assert small.not_occluded and not small.high_res and small.mv_aligned
        assert not small.fit_for_alignment

        shifted = verdict(
            self._prop(box=(75.0, 30.0, 99.0, 70.0)), self.BOX, self.CALIB, TH,
        )
        assert shifted.not_occluded and shifted.high_res and not shifted.mv_aligned
        assert not shifted.fit_for_alignment

        bare = verdict(self._prop(embedding=None), self.BOX, self.CALIB, TH)
        assert bare.not_occluded and bare.high_res and bare.mv_aligned
        assert not bare.has_embedding and not bare.fit_for_alignment
        assert bare.reason == "no_embedding"

    # The four checks in REJECT_REASONS order, P for pass and F for fail: the
    # first failure names the reason, and a target is fit only when none fails.
    REASONS = {
        "PPPP": None, "PPPF": "no_embedding", "PPFP": "multi_view", "PPFF": "multi_view",
        "PFPP": "resolution", "PFPF": "resolution", "PFFP": "resolution", "PFFF": "resolution",
        "FPPP": "occlusion", "FPPF": "occlusion", "FPFP": "occlusion", "FPFF": "occlusion",
        "FFPP": "occlusion", "FFPF": "occlusion", "FFFP": "occlusion", "FFFF": "occlusion",
    }

    @pytest.mark.parametrize("checks", list(REASONS))
    def test_reason_is_first_failing_check(self, checks):
        v = AlignmentVerdict(*(c == "P" for c in checks))
        assert v.reason == self.REASONS[checks]
        assert v.fit_for_alignment == (self.REASONS[checks] is None)

    def test_reason_vocabulary(self):
        assert REJECT_REASONS == ("occlusion", "resolution", "multi_view", "no_embedding")

    def test_unknown_class_propagates(self):
        with pytest.raises(KeyError):
            verdict(self._prop(class_id="hovercraft"), self.BOX, self.CALIB, TH)
