"""Selective alignment filters.

A fitted box is always banked; these filters only decide whether its crop
is trustworthy enough to align feature embeddings against. Four checks
must all pass: the instance mask has to dominate its crop (little
occlusion), the crop has to be big enough to carry detail, the fitted box
re-projected into the image has to land on the 2D detection, and the
proposal has to carry an embedding to align.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .assoc import Proposal2D
from .geom import Box2D, BoxParams, CameraCalib, image_hulls, rect_ious

# Per-class occlusion thresholds: minimum mask-to-crop area ratio that still
# counts as unoccluded. Small or thin classes tolerate sparser masks.
DEFAULT_TAU_OCC: dict[str, float] = {
    "car": 0.5,
    "truck": 0.5,
    "pedestrian": 0.25,
    "bicycle": 0.4,
    "motorcycle": 0.4,
    "bus": 0.5,
    "traffic_cone": 0.25,
    "barrier": 0.35,
    "construction_vehicle": 0.5,
    "trailer": 0.5,
}

# Each check's reason for holding a target out; a target's reason is its first failure.
REJECT_REASONS = ("occlusion", "resolution", "multi_view", "no_embedding")


@dataclass(eq=False, frozen=True)
class FilterThresholds:
    """Thresholds for the three alignment filters, the ``thresholds`` config section.

    ``tau_occ`` maps class id to the minimum mask coverage ratio,
    ``tau_res`` is the minimum crop area in pixels, and ``tau_mv`` the
    minimum image IoU between the re-projected box and its 2D proposal.
    """

    tau_occ: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TAU_OCC))
    tau_res: float = 4000.0
    tau_mv: float = 0.5

    def __post_init__(self) -> None:
        for cls, v in self.tau_occ.items():
            if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 < v < 1.0):
                raise ValueError(f"tau_occ[{cls!r}] must be in (0, 1), got {v}")
        if not (math.isfinite(self.tau_res) and self.tau_res > 0):
            raise ValueError(f"tau_res must be positive, got {self.tau_res}")
        if not (math.isfinite(self.tau_mv) and 0.0 < self.tau_mv <= 1.0):
            raise ValueError(f"tau_mv must be in (0, 1], got {self.tau_mv}")


@dataclass(frozen=True)
class AlignmentVerdict:
    """Result of the four checks for one fitted target, in ``REJECT_REASONS`` order."""

    not_occluded: bool
    high_res: bool
    mv_aligned: bool
    has_embedding: bool

    @property
    def reason(self) -> str | None:
        """The first check that fails, named as in ``REJECT_REASONS``, or None."""
        checks = (self.not_occluded, self.high_res, self.mv_aligned, self.has_embedding)
        return next((r for r, ok in zip(REJECT_REASONS, checks) if not ok), None)

    @property
    def fit_for_alignment(self) -> bool:
        return self.reason is None


def occlusion_filter(proposal: Proposal2D, thresholds: FilterThresholds) -> bool:
    """True when the mask fills strictly more of the crop than the class bar."""
    crop = proposal.crop_w * proposal.crop_h
    return proposal.mask_pixel_count / crop > thresholds.tau_occ[proposal.class_id]


def resolution_filter(proposal: Proposal2D, thresholds: FilterThresholds) -> bool:
    """True when the crop area is strictly above the resolution bar."""
    return proposal.crop_w * proposal.crop_h > thresholds.tau_res


def multiview_filter(
    box: BoxParams,
    proposal_box: Box2D,
    calib: CameraCalib,
    thresholds: FilterThresholds,
) -> bool:
    """True when the fitted box re-projects onto the proposal with enough IoU.

    The hull and the IoU are the cost kernel's: the near-plane-clipped
    ``image_hulls`` and ``rect_ious``. A box without a usable hull scores
    IoU 0 and fails.
    """
    rects, _ = image_hulls(box.as_array()[None], calib)
    return bool(rect_ious(rects, proposal_box)[0] >= thresholds.tau_mv)


def verdict(
    proposal: Proposal2D,
    box: BoxParams,
    calib: CameraCalib,
    thresholds: FilterThresholds,
) -> AlignmentVerdict:
    """The hold-out rule: run all four checks for one fitted target."""
    return AlignmentVerdict(
        not_occluded=occlusion_filter(proposal, thresholds),
        high_res=resolution_filter(proposal, thresholds),
        mv_aligned=multiview_filter(box, proposal.box, calib, thresholds),
        has_embedding=proposal.embedding is not None,
    )
