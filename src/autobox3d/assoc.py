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
from .sceneprep import Cluster, Scene


@dataclass(eq=False)
class Ray:
    """Half-line from ``origin`` along unit vector ``direction``."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float)
        self.direction = np.asarray(self.direction, dtype=float)
        if self.origin.shape != (3,) or self.direction.shape != (3,):
            raise ValueError("ray origin and direction must have shape (3,)")
        norm = float(np.linalg.norm(self.direction))
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"ray direction must be unit length, got norm {norm}")


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
    """A matched (2D proposal, 3D cluster) pair ready for box fitting."""

    proposal: Proposal2D
    cluster: Cluster
    scene: Scene
    distance_to_ray: float
    ray: Ray

    @property
    def points(self) -> np.ndarray:
        return self.scene.cloud[self.cluster.point_indices]

    @property
    def calib(self) -> CameraCalib:
        return self.scene.camera(self.proposal.camera_id)


def camera_center(calib: CameraCalib) -> np.ndarray:
    """Camera optical center in the ego frame."""
    rot = calib.extrinsic[:3, :3]
    t = calib.extrinsic[:3, 3]
    return -rot.T @ t


def unproject_pixel(u: float, v: float, calib: CameraCalib) -> Ray:
    """Ray in the ego frame through pixel (u, v)."""
    k = calib.intrinsic
    det = np.linalg.det(k)
    if abs(det) < 1e-12:
        raise ValidationError(f"camera {calib.camera_id}: intrinsic matrix is singular")
    dir_cam = np.linalg.solve(k, np.array([u, v, 1.0]))
    rot = calib.extrinsic[:3, :3]
    dir_ego = rot.T @ dir_cam
    norm = float(np.linalg.norm(dir_ego))
    return Ray(camera_center(calib), dir_ego / norm)


def center_ray(box: Box2D, calib: CameraCalib) -> Ray:
    """Ray in the ego frame through the center of an image rectangle."""
    cu, cv = box.center
    return unproject_pixel(cu, cv, calib)


def points_to_ray_distances(points: np.ndarray, ray: Ray) -> np.ndarray:
    """Distance from each point (N, 3) to the half-line of ``ray``.

    Points behind the origin measure to the origin itself, not to the
    backward extension of the line.
    """
    pts = np.asarray(points, dtype=float)
    rel = pts - ray.origin
    t = np.maximum(rel @ ray.direction, 0.0)
    closest = ray.origin + t[:, None] * ray.direction
    return np.linalg.norm(pts - closest, axis=1)


def ray_depth(point: np.ndarray, ray: Ray) -> float:
    """Signed distance of a point along the ray direction from its origin."""
    return float((np.asarray(point, dtype=float) - ray.origin) @ ray.direction)


def ray_pair(prop: Proposal2D, cluster: Cluster, scene: Scene, ray: Ray | None = None,
             criterion: str = "closest_point") -> tuple[CrossModalProposal, float]:
    """``prop`` paired with ``cluster`` through ``ray``, the proposal's center ray
    by default, and the depth along it of the cluster's reference point: the
    point nearest the ray (``closest_point``) or the centroid. The pair's
    ``distance_to_ray`` is the reference's distance to the ray."""
    if ray is None:
        ray = center_ray(prop.box, scene.camera(prop.camera_id))
    pts = cluster.centroid[None] if criterion == "centroid" else scene.cloud[cluster.point_indices]
    dists = points_to_ray_distances(pts, ray)
    k = int(np.argmin(dists))
    return CrossModalProposal(prop, cluster, scene, float(dists[k]), ray), ray_depth(pts[k], ray)


def associate(
    scene: Scene,
    proposals: list[Proposal2D],
    clusters: list[Cluster],
    tau_match: float = 2.0,
    d_min: float = 0.5,
    d_max: float = 60.0,
    criterion: str = "closest_point",
) -> list[CrossModalProposal]:
    """Pair proposals with clusters by proximity to the frustum center ray.

    ``criterion`` selects the cluster reference: ``closest_point`` uses the
    cluster point nearest the ray (default), ``centroid`` the cluster mean.
    A pair forms when the reference lies within ``tau_match`` of the ray and
    its depth along the ray falls inside [d_min, d_max]. Pairs come back
    grouped per proposal; the pair set does not depend on cluster order.
    """
    if criterion not in ("closest_point", "centroid"):
        raise ValidationError(f"unknown association criterion {criterion!r}")
    if not (0.0 < d_min < d_max):
        raise ValidationError(f"need 0 < d_min < d_max, got {d_min}, {d_max}")
    if tau_match <= 0.0:
        raise ValidationError(f"tau_match must be positive, got {tau_match}")
    pairs: list[CrossModalProposal] = []
    for prop in proposals:
        ray = center_ray(prop.box, scene.camera(prop.camera_id))
        for cluster in clusters:
            pair, depth = ray_pair(prop, cluster, scene, ray, criterion)
            if pair.distance_to_ray <= tau_match and d_min <= depth <= d_max:
                pairs.append(pair)
    return pairs


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
