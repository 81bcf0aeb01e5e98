"""Synthetic scene generator with exact ground truth.

Scenes are simple but honest: a jittered ground plane, box-shaped objects
standing on it with LiDAR-like surface sampling (the two ego-facing side
faces plus the roof), a ring of pinhole cameras, and 2D proposals derived
from the true boxes. Every frame ships with its ground-truth boxes and
per-point labels, which is what the benchmark and the acceptance suite
feed on.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .config import default_anchors
from .costfn import AnchorRange
from .errors import ValidationError, from_mapping
from .geom import BoxParams, CameraCalib, EgoPose, project_box_to_2d, rotation_z
from .sceneprep import save_cloud


@dataclass(eq=False)
class SynthClassSpec:
    """How many instances of one class to drop per frame, and where."""

    name: str = "car"
    count: int = 1
    distance_min: float = 5.0
    distance_max: float = 40.0
    mask_ratio_min: float = 0.55
    mask_ratio_max: float = 0.95

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValidationError(f"class {self.name}: count must be non-negative")
        if not (0.0 < self.distance_min < self.distance_max):
            raise ValidationError(
                f"class {self.name}: need 0 < distance_min < distance_max"
            )
        if not (0.0 <= self.mask_ratio_min <= self.mask_ratio_max <= 1.0):
            raise ValidationError(f"class {self.name}: mask ratio range must be in [0, 1]")


@dataclass(eq=False)
class SynthSpec:
    """Full recipe for a synthetic scene set."""

    seed: int = 0
    n_frames: int = 1
    classes: list[SynthClassSpec] = field(default_factory=lambda: [SynthClassSpec()])
    ground_extent: float = 55.0
    ground_spacing: float = 0.8
    ground_z: float = -1.8
    ground_jitter: float = 0.02
    n_cameras: int = 2
    image_width: int = 1600
    image_height: int = 900
    focal: float = 800.0
    point_spacing: float = 0.25
    # Lowest height above the ground that still gets surface samples; keeps
    # object points clear of the ground-removal band.
    ground_clearance: float = 0.3
    # Faces are sampled this far inside the box skin so that float32 storage
    # cannot round a point out of its own box.
    surface_inset: float = 0.002
    embedding_dim: int = 16
    score_min: float = 0.5
    score_max: float = 1.0

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValidationError("n_frames must be at least 1")
        if self.n_cameras < 1:
            raise ValidationError("n_cameras must be at least 1")
        if self.ground_extent <= 0 or self.ground_spacing <= 0:
            raise ValidationError("ground extent and spacing must be positive")
        if self.point_spacing <= 0:
            raise ValidationError("point_spacing must be positive")
        if self.ground_clearance < 0:
            raise ValidationError("ground_clearance must be non-negative")
        if self.surface_inset < 0:
            raise ValidationError("surface_inset must be non-negative")
        if self.embedding_dim < 0:
            raise ValidationError("embedding_dim must be non-negative")
        if not (0.0 <= self.score_min <= self.score_max <= 1.0):
            raise ValidationError("score range must be ordered within [0, 1]")


def load_synth_spec(path: str | Path) -> SynthSpec:
    """Read a YAML scene recipe; unknown keys and values of the wrong type fail."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except FileNotFoundError:
        raise ValidationError(f"spec file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: not valid YAML: {exc}") from exc
    kwargs = {} if raw is None else raw
    if isinstance(kwargs, dict) and "classes" in kwargs:
        if not isinstance(kwargs["classes"], list):
            raise ValidationError(f"{path}: classes must be a list")
        kwargs = {**kwargs, "classes": [
            from_mapping(SynthClassSpec, entry, f"{path}: classes[{i}]:")
            for i, entry in enumerate(kwargs["classes"])
        ]}
    return from_mapping(SynthSpec, kwargs, f"{path}:")


def make_camera(
    camera_id: str,
    yaw: float,
    focal: float,
    width: int,
    height: int,
    center: tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> CameraCalib:
    """Pinhole camera at ``center`` looking along the ego yaw direction."""
    c, s = math.cos(yaw), math.sin(yaw)
    forward = np.array([c, s, 0.0])
    right = np.array([s, -c, 0.0])
    down = np.array([0.0, 0.0, -1.0])
    rot = np.stack([right, down, forward])
    t = -rot @ np.asarray(center, dtype=float)
    extrinsic = np.eye(4)
    extrinsic[:3, :3] = rot
    extrinsic[:3, 3] = t
    intrinsic = np.array(
        [[focal, 0.0, width / 2.0], [0.0, focal, height / 2.0], [0.0, 0.0, 1.0]]
    )
    return CameraCalib(extrinsic, intrinsic, width, height, camera_id)


def camera_ring(spec: SynthSpec) -> list[CameraCalib]:
    """Evenly spaced ring of cameras around the ego, cam0 facing +x."""
    return [
        make_camera(
            f"cam{k}",
            2.0 * math.pi * k / spec.n_cameras,
            spec.focal,
            spec.image_width,
            spec.image_height,
        )
        for k in range(spec.n_cameras)
    ]


def poisson_disk(
    rng: np.random.Generator, width: float, height: float, spacing: float
) -> np.ndarray:
    """Blue-noise samples of a rectangle by dart throwing, shape (M, 2).

    Darts land until 60 rejections happen in a row, which fills the
    rectangle close to saturation for the given minimum spacing.
    """
    if width <= 0 or height <= 0:
        return np.empty((0, 2))
    accepted: list[np.ndarray] = []
    pts = np.empty((0, 2))
    misses = 0
    sq = spacing * spacing
    while misses < 60:
        cand = rng.random(2) * (width, height)
        if len(accepted) and np.min(np.sum((pts - cand) ** 2, axis=1)) < sq:
            misses += 1
            continue
        accepted.append(cand)
        pts = np.asarray(accepted)
        misses = 0
    return pts


def sample_box_surface(
    rng: np.random.Generator,
    box: BoxParams,
    ego: EgoPose,
    spacing: float,
    ground_clearance: float = 0.3,
    ground_z: float | None = None,
    inset: float = 0.002,
) -> np.ndarray:
    """LiDAR-like points on the two ego-facing side faces and the roof.

    Side faces start ``ground_clearance`` above the ground (or above the box
    bottom when no ground level is given), mimicking how returns near the
    road surface get eaten by ground removal. All samples sit ``inset``
    inside the box skin, so the true box contains every one of its points
    even after the cloud round-trips through float32 storage.
    """
    # Ego side of the box decides which faces are visible.
    c, s = math.cos(box.ry), math.sin(box.ry)
    edx, edy = ego.x - box.x, ego.y - box.y
    e_lx = c * edx + s * edy
    e_ly = c * edy - s * edx
    sx = 1.0 if e_lx > 0 else -1.0
    sy = 1.0 if e_ly > 0 else -1.0

    half_l = 0.5 * box.l - inset
    half_w = 0.5 * box.w - inset
    z_top = 0.5 * box.h - inset
    z_floor = -0.5 * box.h
    if ground_z is not None:
        z_floor = max(z_floor, ground_z + ground_clearance - box.z)
    else:
        z_floor += ground_clearance
    face_h = z_top - z_floor

    local: list[np.ndarray] = []
    uv = poisson_disk(rng, 2.0 * half_w, face_h, spacing)
    if len(uv):
        face = np.column_stack(
            [np.full(len(uv), sx * half_l), uv[:, 0] - half_w, z_floor + uv[:, 1]]
        )
        local.append(face)
    uv = poisson_disk(rng, 2.0 * half_l, face_h, spacing)
    if len(uv):
        face = np.column_stack(
            [uv[:, 0] - half_l, np.full(len(uv), sy * half_w), z_floor + uv[:, 1]]
        )
        local.append(face)
    uv = poisson_disk(rng, 2.0 * half_l, 2.0 * half_w, spacing)
    if len(uv):
        roof = np.column_stack(
            [uv[:, 0] - half_l, uv[:, 1] - half_w, np.full(len(uv), z_top)]
        )
        local.append(roof)
    if not local:
        return np.empty((0, 3))
    pts = np.vstack(local)
    return pts @ rotation_z(box.ry).T + box.center


def _place_instances(
    rng: np.random.Generator,
    spec: SynthSpec,
    cameras: list[CameraCalib],
    anchors: dict[str, AnchorRange],
    frame_id: str,
) -> list[dict]:
    """Drop instances without footprint overlap, each visible in its camera."""
    placed: list[dict] = []
    half_hfov = math.atan(spec.image_width / (2.0 * spec.focal))
    for cls in spec.classes:
        if cls.name not in anchors:
            raise ValidationError(f"no anchor range for synth class {cls.name!r}")
        anchor = anchors[cls.name]
        for j in range(cls.count):
            for _ in range(200):
                dims = rng.uniform(anchor.dims_min, anchor.dims_max)
                cam_k = int(rng.integers(0, spec.n_cameras))
                cam_yaw = 2.0 * math.pi * cam_k / spec.n_cameras
                azimuth = cam_yaw + rng.uniform(-0.75, 0.75) * half_hfov
                dist = rng.uniform(cls.distance_min, cls.distance_max)
                x = dist * math.cos(azimuth)
                y = dist * math.sin(azimuth)
                z = spec.ground_z + 0.5 * dims[2]
                ry = rng.uniform(0.0, math.pi)
                box = BoxParams(x, y, z, *(float(d) for d in dims), ry)
                radius = 0.5 * math.hypot(box.l, box.w)
                clear = True
                for other in placed:
                    ob = other["box"]
                    gap = radius + 0.5 * math.hypot(ob.l, ob.w) + 0.8
                    if math.hypot(x - ob.x, y - ob.y) < gap:
                        clear = False
                        break
                if not clear:
                    continue
                hull = project_box_to_2d(box, cameras[cam_k])
                if hull is None or hull.width < 2.0 or hull.height < 2.0:
                    continue
                placed.append(
                    {"class": cls.name, "box": box, "camera_id": cameras[cam_k].camera_id}
                )
                break
            else:
                raise ValidationError(
                    f"frame {frame_id}: could not place instance {j} of class "
                    f"{cls.name!r} after 200 attempts; relax counts or distances"
                )
    return placed


def generate(
    spec: SynthSpec,
    out_dir: str | Path,
    anchors: dict[str, AnchorRange] | None = None,
) -> dict:
    """Write a synthetic scene set and return a small summary.

    Per frame: ``<id>.bin`` cloud, ``<id>.calib.json``,
    ``<id>.proposals.json``, ``<id>.gt.json`` with true boxes, and
    ``<id>.ptlabels.txt`` mapping each point to its instance (-1 = ground).
    Proposal k belongs to ground-truth instance k.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if anchors is None:
        anchors = default_anchors()
    cameras = camera_ring(spec)
    ego = EgoPose(0.0, 0.0, 0.0)
    n_instances = 0

    for fi in range(spec.n_frames):
        frame_id = f"{fi:04d}"
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, fi]))
        instances = _place_instances(rng, spec, cameras, anchors, frame_id)

        ticks = np.arange(-spec.ground_extent, spec.ground_extent, spec.ground_spacing)
        gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
        gz = spec.ground_z + rng.normal(0.0, spec.ground_jitter, size=gx.shape)
        chunks = [np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])]
        labels = [np.full(chunks[0].shape[0], -1, dtype=np.int64)]

        gt_entries = []
        proposals = []
        for k, inst in enumerate(instances):
            box: BoxParams = inst["box"]
            pts = sample_box_surface(
                rng, box, ego, spec.point_spacing, spec.ground_clearance,
                spec.ground_z, spec.surface_inset,
            )
            if len(pts) < 3:
                raise ValidationError(
                    f"frame {frame_id}: instance {k} ({inst['class']}) got only "
                    f"{len(pts)} surface points; lower point_spacing"
                )
            chunks.append(pts)
            labels.append(np.full(len(pts), k, dtype=np.int64))

            cam = next(c for c in cameras if c.camera_id == inst["camera_id"])
            hull = project_box_to_2d(box, cam)
            assert hull is not None  # guaranteed by placement
            crop_w = max(1, int(round(hull.width)))
            crop_h = max(1, int(round(hull.height)))
            ratio = rng.uniform(
                *next(
                    (c.mask_ratio_min, c.mask_ratio_max)
                    for c in spec.classes
                    if c.name == inst["class"]
                )
            )
            mask_px = int(np.clip(round(ratio * crop_w * crop_h), 0, crop_w * crop_h))
            embedding = None
            if spec.embedding_dim > 0:
                vec = rng.standard_normal(spec.embedding_dim)
                embedding = (vec / np.linalg.norm(vec)).tolist()
            proposal = {
                "camera_id": inst["camera_id"],
                "box": [hull.u_min, hull.v_min, hull.u_max, hull.v_max],
                "class": inst["class"],
                "score": float(rng.uniform(spec.score_min, spec.score_max)),
                "mask_pixel_count": mask_px,
                "crop_w": crop_w,
                "crop_h": crop_h,
            }
            if embedding is not None:
                proposal["embedding"] = embedding
            proposals.append(proposal)
            gt_entries.append(
                {
                    "id": f"{frame_id}:{k}",
                    "class": inst["class"],
                    "camera_id": inst["camera_id"],
                    "proposal_index": k,
                    "box": asdict(box),
                    "n_points": int(len(pts)),
                    "mask_ratio": ratio,
                }
            )

        cloud = np.vstack(chunks)
        point_labels = np.concatenate(labels)
        save_cloud(out / f"{frame_id}.bin", cloud)
        (out / f"{frame_id}.ptlabels.txt").write_text(
            "\n".join(str(int(v)) for v in point_labels) + "\n"
        )
        calib = {
            "ego": [ego.x, ego.y, ego.z],
            "cameras": [
                {
                    "camera_id": cam.camera_id,
                    "extrinsic": cam.extrinsic.tolist(),
                    "intrinsic": cam.intrinsic.tolist(),
                    "image_width": cam.image_width,
                    "image_height": cam.image_height,
                }
                for cam in cameras
            ],
        }
        (out / f"{frame_id}.calib.json").write_text(json.dumps(calib, indent=1))
        (out / f"{frame_id}.proposals.json").write_text(json.dumps(proposals, indent=1))
        (out / f"{frame_id}.gt.json").write_text(
            json.dumps({"frame": frame_id, "instances": gt_entries}, indent=1)
        )
        n_instances += len(instances)

    return {"frames": spec.n_frames, "instances": n_instances, "out_dir": str(out)}
