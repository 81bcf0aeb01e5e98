"""Pairing 2D detections with 3D point clusters through camera frustums.

A 2D proposal rectangle back-projects to a frustum in the ego frame. Its
center ray is the matching reference: a cluster pairs with the proposal
when the cluster reaches within ``tau_match`` meters of that ray inside
the usable depth band. One proposal may pair with several clusters; the
downstream pipeline resolves those conflicts by fit cost.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError, as_float, as_floats, as_int, as_str, reading
from .geom import Box2D, CameraCalib
from .sceneprep import Scene


@dataclass(frozen=True)
class AssocConfig:
    """The ``association`` config section: a cluster pairs with a proposal
    when it comes within ``tau_match`` meters of the proposal's center ray,
    at a depth along the ray in [``d_min``, ``d_max``]."""

    tau_match: float = 2.0
    d_min: float = 0.5
    d_max: float = 60.0

    def __post_init__(self) -> None:
        if self.tau_match <= 0:
            raise ValidationError(f"tau_match must be positive, got {self.tau_match}")
        if not (0.0 < self.d_min < self.d_max):
            raise ValidationError(f"need 0 < d_min < d_max, got {self.d_min}, {self.d_max}")


@dataclass(eq=False)
class Proposal2D:
    """One 2D detection: rectangle, class, score, and crop statistics.

    ``mask_pixel_count`` counts foreground pixels of the instance mask inside
    the ``crop_w`` x ``crop_h`` detection crop. ``embedding`` is an optional
    feature vector carried through to the output bank untouched. ``index``
    records the position in the proposal file the entry came from.
    """

    box: Box2D
    camera_id: str
    class_id: str
    score: float
    mask_pixel_count: int
    crop_w: int
    crop_h: int
    embedding: np.ndarray | None = None
    index: int = -1

    def __post_init__(self) -> None:
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.crop_w < 1 or self.crop_h < 1:
            raise ValueError(f"crop size must be at least 1x1, got {self.crop_w}x{self.crop_h}")
        if self.mask_pixel_count < 0 or self.mask_pixel_count > self.crop_w * self.crop_h:
            raise ValueError(
                f"mask_pixel_count {self.mask_pixel_count} outside crop of "
                f"{self.crop_w * self.crop_h} pixels"
            )
        if self.embedding is not None:
            self.embedding = np.asarray(self.embedding, dtype=float)
            if self.embedding.ndim != 1 or len(self.embedding) == 0:
                raise ValueError("embedding must be a non-empty 1D vector")


@dataclass(eq=False)
class CrossModalProposal:
    """A matched (2D proposal, 3D cluster) pair ready for box fitting: the
    cluster's cloud indices, its points, and its point ``nearest`` the
    proposal's center ray, ``distance_to_ray`` from it."""

    proposal: Proposal2D
    cluster: np.ndarray
    scene: Scene
    points: np.ndarray
    nearest: np.ndarray
    distance_to_ray: float

    @property
    def calib(self) -> CameraCalib:
        return self.scene.camera(self.proposal.camera_id)


def center_ray(box: Box2D, calib: CameraCalib) -> tuple[np.ndarray, np.ndarray]:
    """Camera center in the ego frame and the unit direction from it
    through the center of an image rectangle."""
    rot = calib.extrinsic[:3, :3]
    t = calib.extrinsic[:3, 3]
    cu, cv = box.center
    dir_ego = rot.T @ np.linalg.solve(calib.intrinsic, np.array([cu, cv, 1.0]))
    return -rot.T @ t, dir_ego / float(np.linalg.norm(dir_ego))


def ray_pairs(
    props: list[Proposal2D], clusters: list[np.ndarray], scene: Scene
) -> list[tuple[CrossModalProposal, float]]:
    """Every proposal paired with every (non-empty) cluster through its center
    ray, with the depth along the ray of the cluster point nearest it;
    proposal-major.

    A point behind the camera measures to the camera center, not to the
    backward extension of the ray. A cluster's nearest point is its first
    one at its least distance.
    """
    if not clusters:
        return []
    sizes = np.array([len(c) for c in clusters])
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    owner = np.repeat(np.arange(len(clusters)), sizes)
    pts = scene.cloud[np.concatenate(clusters)]
    views = np.split(pts, starts[1:])
    out: list[tuple[CrossModalProposal, float]] = []
    for prop in props:
        origin, direction = center_ray(prop.box, scene.camera(prop.camera_id))
        depth = (pts - origin) @ direction
        closest = origin + np.maximum(depth, 0.0)[:, None] * direction
        dist = np.linalg.norm(pts - closest, axis=1)
        hits = np.flatnonzero(dist == np.minimum.reduceat(dist, starts)[owner])
        first = hits[np.searchsorted(owner[hits], np.arange(len(clusters)))]
        out += [
            (CrossModalProposal(prop, c, scene, v, pts[k], float(dist[k])), float(depth[k]))
            for c, v, k in zip(clusters, views, first)
        ]
    return out


def associate(
    scene: Scene,
    proposals: list[Proposal2D],
    clusters: list[np.ndarray],
    config: AssocConfig,
) -> list[CrossModalProposal]:
    """Pair proposals with clusters by proximity to the frustum center ray.

    A pair forms when the cluster point nearest the ray lies within
    ``config.tau_match`` of it and its depth along the ray falls inside
    [``config.d_min``, ``config.d_max``]. Pairs come back grouped per
    proposal; the pair set does not depend on cluster order.
    """
    return [
        pair for pair, depth in ray_pairs(proposals, clusters, scene)
        if pair.distance_to_ray <= config.tau_match and config.d_min <= depth <= config.d_max
    ]


def load_proposals(path: str | Path) -> list[Proposal2D]:
    """Read a JSON array of 2D proposals.

    Each entry carries ``camera_id``, ``box`` as [u_min, v_min, u_max, v_max],
    ``class``, ``score``, ``mask_pixel_count``, ``crop_w``, ``crop_h``, and an
    optional ``embedding`` list. Malformed entries fail loudly with their
    array index and key, under the field rule of ``errors``. Embeddings must
    share one dimension across the file.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: expected a JSON array of proposals")
    out: list[Proposal2D] = []
    embed_dim: int | None = None
    for i, entry in enumerate(raw):
        with reading(f"{path}: proposal {i}"):
            if not isinstance(entry, dict):
                raise ValueError("entry is not an object")
            embedding = entry.get("embedding")
            prop = Proposal2D(
                box=Box2D(*as_floats(entry["box"], "box", (4,)).tolist()),
                camera_id=as_str(entry["camera_id"], "camera_id"),
                class_id=as_str(entry["class"], "class"),
                score=as_float(entry["score"], "score"),
                mask_pixel_count=as_int(entry["mask_pixel_count"], "mask_pixel_count"),
                crop_w=as_int(entry["crop_w"], "crop_w"),
                crop_h=as_int(entry["crop_h"], "crop_h"),
                embedding=None if embedding is None else as_floats(embedding, "embedding", (None,)),
                index=i,
            )
            if prop.embedding is not None:
                embed_dim = embed_dim or len(prop.embedding)
                if len(prop.embedding) != embed_dim:
                    raise ValueError(
                        f"embedding dimension {len(prop.embedding)} differs from earlier {embed_dim}"
                    )
        out.append(prop)
    return out
