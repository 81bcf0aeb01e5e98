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

from .config import default_anchors, read_yaml
from .costfn import AnchorRange
from .errors import ValidationError, make_output_dir, read_record, reading
from .geom import Box2D, BoxParams, CameraCalib, EgoPose, project_box_to_2d, rotation_z
from .sceneprep import discover_frames, save_cloud


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

    def __post_init__(self) -> None:
        if self.n_frames < 1:
            raise ValidationError("n_frames must be at least 1")
        if self.n_cameras < 1:
            raise ValidationError("n_cameras must be at least 1")
        for key in ("ground_extent", "ground_spacing", "point_spacing", "focal",
                    "image_width", "image_height"):
            if getattr(self, key) <= 0:
                raise ValidationError(f"{key} must be positive, got {getattr(self, key)}")
        for key in ("seed", "ground_jitter", "ground_clearance", "surface_inset", "embedding_dim"):
            if getattr(self, key) < 0:
                raise ValidationError(f"{key} must be non-negative, got {getattr(self, key)}")


def load_synth_spec(path: str | Path) -> SynthSpec:
    """Read a YAML scene recipe; unknown keys and values of the wrong type fail."""
    raw = read_yaml(path, "spec")
    with reading(path):
        return read_record(SynthSpec, {} if raw is None else raw)


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
    rectangle close to saturation for the given minimum spacing. A dart is
    tested only against the accepted samples in the 3 x 3 cells around it,
    on a grid of cells 1.5 spacings wide: a sample two or more cells away
    lies more than a spacing from the dart, whatever the rounding of the
    cell indices, so the grid rejects exactly the darts a scan of every
    sample would, and the same draws give the same samples.
    """
    if width <= 0 or height <= 0:
        return np.empty((0, 2))
    cell = 1.5 * spacing
    grid: dict[tuple[int, int], list[tuple[float, float]]] = {}
    accepted: list[tuple[float, float]] = []
    misses = 0
    sq = spacing * spacing
    while misses < 60:
        u, v = rng.random(2).tolist()
        x, y = u * width, v * height
        i, j = int(x // cell), int(y // cell)
        near = (p for di in (-1, 0, 1) for dj in (-1, 0, 1) for p in grid.get((i + di, j + dj), ()))
        if any((px - x) * (px - x) + (py - y) * (py - y) < sq for px, py in near):
            misses += 1
            continue
        grid.setdefault((i, j), []).append((x, y))
        accepted.append((x, y))
        misses = 0
    return np.array(accepted)


def sample_box_surface(
    rng: np.random.Generator,
    box: BoxParams,
    ego: EgoPose,
    spacing: float,
    ground_z: float,
    ground_clearance: float = 0.3,
    inset: float = 0.002,
) -> np.ndarray:
    """LiDAR-like points on the two ego-facing side faces and the roof.

    Side faces start ``ground_clearance`` above the ground at height
    ``ground_z``, or at the box bottom when that is higher, mimicking how
    returns near the road surface get eaten by ground removal. All samples
    sit ``inset`` inside the box skin, so the true box contains every one of
    its points even after the cloud round-trips through float32 storage.
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
    z_floor = max(-0.5 * box.h, ground_z + ground_clearance - box.z)
    face_h = z_top - z_floor

    # Each face is (corner, unit axis u, extent along u, unit axis v, extent
    # along v); a sample (u, v) lands at corner + u * axis_u + v * axis_v.
    ex, ey, ez = np.eye(3)
    faces = (
        ((sx * half_l, -half_w, z_floor), ey, 2.0 * half_w, ez, face_h),
        ((-half_l, sy * half_w, z_floor), ex, 2.0 * half_l, ez, face_h),
        ((-half_l, -half_w, z_top), ex, 2.0 * half_l, ey, 2.0 * half_w),
    )
    local = []
    for corner, axis_u, extent_u, axis_v, extent_v in faces:
        uv = poisson_disk(rng, extent_u, extent_v, spacing)
        local.append(np.asarray(corner) + uv[:, :1] * axis_u + uv[:, 1:] * axis_v)
    return np.vstack(local) @ rotation_z(box.ry).T + box.center


def _place_instances(
    rng: np.random.Generator,
    spec: SynthSpec,
    cameras: list[CameraCalib],
    anchors: dict[str, AnchorRange],
    frame_id: str,
) -> list[tuple[SynthClassSpec, BoxParams, CameraCalib, Box2D]]:
    """Drop instances without footprint overlap, each visible in its camera.

    Each accepted instance comes back as (class entry, box, camera, image hull).
    """
    placed: list[tuple[SynthClassSpec, BoxParams, CameraCalib, Box2D]] = []
    half_hfov = math.atan(spec.image_width / (2.0 * spec.focal))
    for cls in spec.classes:
        if cls.name not in anchors:
            raise ValidationError(f"no anchor range for synth class {cls.name!r}")
        anchor = anchors[cls.name]
        for j in range(cls.count):
            for _ in range(200):
                dims = rng.uniform(anchor.min, anchor.max)
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
                if any(
                    math.hypot(x - ob.x, y - ob.y) < radius + 0.5 * math.hypot(ob.l, ob.w) + 0.8
                    for _, ob, _, _ in placed
                ):
                    continue
                hull = project_box_to_2d(box, cameras[cam_k])
                if hull is None or hull.width < 2.0 or hull.height < 2.0:
                    continue
                placed.append((cls, box, cameras[cam_k], hull))
                break
            else:
                raise ValidationError(
                    f"frame {frame_id}: could not place instance {j} of class "
                    f"{cls.name!r} after 200 attempts; relax counts or distances"
                )
    return placed


def generate(spec: SynthSpec, out_dir: str | Path) -> dict:
    """Write a synthetic scene set and return a small summary.

    Per frame: ``<id>.bin`` cloud, ``<id>.calib.json``,
    ``<id>.proposals.json``, ``<id>.gt.json`` with true boxes, and
    ``<id>.ptlabels.txt`` mapping each point to its instance (-1 = ground).
    Proposal k belongs to ground-truth instance k. A directory holding frames
    this spec does not write fails first: readers would mix the corpora.
    """
    with reading("focal"):  # the one camera check a positive focal can still fail
        cameras = camera_ring(spec)
    out = make_output_dir(Path(out_dir))
    stale = sorted(set(discover_frames(out)) - {f"{fi:04d}" for fi in range(spec.n_frames)})
    if stale:
        raise ValidationError(f"{out} holds frames {stale} of another corpus")
    anchors = default_anchors()
    ego = EgoPose(0.0, 0.0, 0.0)
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
    calib_text = json.dumps(calib, indent=1)
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
        for k, (cls, box, cam, hull) in enumerate(instances):
            pts = sample_box_surface(
                rng, box, ego, spec.point_spacing, spec.ground_z,
                spec.ground_clearance, spec.surface_inset,
            )
            if len(pts) < 3:
                raise ValidationError(
                    f"frame {frame_id}: instance {k} ({cls.name}) got only "
                    f"{len(pts)} surface points; lower point_spacing"
                )
            chunks.append(pts)
            labels.append(np.full(len(pts), k, dtype=np.int64))

            crop_w = max(1, int(round(hull.width)))
            crop_h = max(1, int(round(hull.height)))
            ratio = rng.uniform(cls.mask_ratio_min, cls.mask_ratio_max)
            mask_px = int(np.clip(round(ratio * crop_w * crop_h), 0, crop_w * crop_h))
            # Drawn before the score: the draw order fixes the corpus bytes.
            vec = rng.standard_normal(spec.embedding_dim) if spec.embedding_dim > 0 else None
            proposal = {
                "camera_id": cam.camera_id,
                "box": [hull.u_min, hull.v_min, hull.u_max, hull.v_max],
                "class": cls.name,
                # Read by nothing; still drawn, so the RNG stream and the corpus bytes hold.
                "score": float(rng.uniform(0.5, 1.0)),
                "mask_pixel_count": mask_px,
                "crop_w": crop_w,
                "crop_h": crop_h,
            }
            if vec is not None:
                proposal["embedding"] = (vec / np.linalg.norm(vec)).tolist()
            proposals.append(proposal)
            gt_entries.append(
                {
                    "id": f"{frame_id}:{k}",
                    "class": cls.name,
                    "camera_id": cam.camera_id,
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
        (out / f"{frame_id}.calib.json").write_text(calib_text)
        (out / f"{frame_id}.proposals.json").write_text(json.dumps(proposals, indent=1))
        (out / f"{frame_id}.gt.json").write_text(
            json.dumps({"frame": frame_id, "instances": gt_entries}, indent=1)
        )
        n_instances += len(instances)

    return {"frames": spec.n_frames, "instances": n_instances, "out_dir": str(out)}
