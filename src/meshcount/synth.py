"""Seeded synthetic multi-camera scenarios with exact ground truth.

Vehicles live on a shared world plane; each camera images a window of it
under a translation, affine, or projective warp. Detections derive from
the true geometry with configurable noise, and identity labels plus the
true homographies are kept so protocol tests have exact oracles.

Visibility is view-dependent: every camera sits at the near edge of its
window looking along +x, so a vehicle can be occluded by another one
parked closely in front of it in that view while a neighboring camera
sees it clearly. The ground-truth count covers vehicles detectable in at
least one view. The noise model follows how detectors fail in practice:
misses grow with the distance from the camera (the configured drop rate
is the per-frame mean), and spurious detections are near-duplicates of
detected objects rather than uniform clutter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleOverlap
from .geometry import Homography, Point2, Polygon
from .matching import Feature
from .protocol import Detection, GroundTruth, NodeSpec, Scenario

WARP_FAMILIES = ("translation", "affine", "projective")

_PLACEMENT_MARGIN = 4.0  # px kept clear of image borders so membership is crisp
_MIN_SEPARATION = 42.0  # px between vehicle centers; disjoint masks guaranteed
_CAMERA_SETBACK = 80.0  # px the camera stands before its window along -x
_OCCLUSION_HALF_WIDTH = 7.0  # px around the sight line that a blocker covers
_OCCLUSION_REACH = 260.0  # px; a blocker shadows vehicles this far behind it
_LANDMARKS_PER_WINDOW = 160
_DESCRIPTOR_DIM = 32
_DESCRIPTOR_NOISE = 0.05


@dataclass(frozen=True)
class SyntheticSceneSpec:
    n_cameras: int = 2
    image_shape: tuple = (640, 480)  # (width, height)
    n_vehicles: int = 12
    overlap: float = 0.4  # fraction of a window shared with the next camera
    warp: str = "translation"
    drop_rate: float = 0.0
    jitter_px: float = 0.0
    spurious_rate: float = 0.0
    n_frames: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_cameras < 1:
            raise ValueError("need at least one camera")
        if self.n_vehicles < 0:
            raise ValueError("n_vehicles must be >= 0")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if self.warp not in WARP_FAMILIES:
            raise ValueError(f"warp must be one of {WARP_FAMILIES}")
        if self.drop_rate < 0 or self.spurious_rate < 0 or self.jitter_px < 0:
            raise ValueError("noise rates must be >= 0")
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")


def _camera_warp(spec: SyntheticSceneSpec, cam: int, x0: float, rng) -> np.ndarray:
    """World-to-image matrix for one camera (window origin at x0)."""
    w, h = spec.image_shape
    translate = np.array([[1.0, 0.0, -x0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    if spec.warp == "translation":
        return translate
    angle = rng.uniform(-0.06, 0.06)
    sx, sy = rng.uniform(0.96, 1.04, 2)
    lin = np.array(
        [
            [sx * math.cos(angle), -sy * math.sin(angle)],
            [sx * math.sin(angle), sy * math.cos(angle)],
        ]
    )
    m = np.eye(3)
    m[:2, :2] = lin
    if spec.warp == "projective":
        m[2, :2] = rng.uniform(-4e-5, 4e-5, 2)
    # recenter so the window center maps to the image center
    center = np.array([w / 2.0, h / 2.0, 1.0])
    mapped = m @ center
    mapped = mapped[:2] / mapped[2]
    m[:2, 2] = np.array([w / 2.0, h / 2.0]) - mapped
    return m @ translate


def _world_to_image(m: np.ndarray, pts: np.ndarray) -> np.ndarray:
    hom = np.ones((pts.shape[0], 3))
    hom[:, :2] = pts
    hom = hom @ m.T
    return hom[:, :2] / hom[:, 2:3]


def _visible(m: np.ndarray, center: np.ndarray, shape) -> tuple[bool, bool, float]:
    """(clearly inside, borderline, image x) for one world point in one camera."""
    w, h = shape
    x, y = _world_to_image(m, center[None, :])[0].tolist()
    inside = (
        _PLACEMENT_MARGIN <= x < w - _PLACEMENT_MARGIN
        and _PLACEMENT_MARGIN <= y < h - _PLACEMENT_MARGIN
    )
    outside = (
        x < -_PLACEMENT_MARGIN
        or x >= w + _PLACEMENT_MARGIN
        or y < -_PLACEMENT_MARGIN
        or y >= h + _PLACEMENT_MARGIN
    )
    return inside, not inside and not outside, x


def generate_scene(spec: SyntheticSceneSpec) -> Scenario:
    """Build a deterministic scenario with truth counts and homographies.

    Cameras form a chain with the requested pairwise overlap; the layout
    cannot realize more than half-window overlaps for three or more
    cameras without triple coverage, which raises InfeasibleOverlap.
    """
    if spec.n_cameras >= 3 and spec.overlap > 0.5:
        raise InfeasibleOverlap(
            "a chain of 3+ cameras cannot keep overlaps pairwise beyond 0.5"
        )
    w, h = spec.image_shape
    rng = np.random.default_rng(spec.seed)
    origins = [cam * w * (1.0 - spec.overlap) for cam in range(spec.n_cameras)]
    world_w = origins[-1] + w
    warps = [_camera_warp(spec, cam, origins[cam], rng) for cam in range(spec.n_cameras)]
    inverses = [np.linalg.inv(m) for m in warps]

    neighbors = {cam: [] for cam in range(spec.n_cameras)}
    if spec.overlap > 0.0:
        for cam in range(spec.n_cameras - 1):
            neighbors[cam].append(cam + 1)
            neighbors[cam + 1].append(cam)

    truth_h = {}
    for i, j in [(i, j) for i in range(spec.n_cameras) for j in neighbors[i]]:
        truth_h[(j, i)] = Homography(warps[i] @ inverses[j])

    # shared world landmarks give every camera a feature set for calibration
    n_land = int(_LANDMARKS_PER_WINDOW * world_w / w) + 1
    land_pts = np.column_stack(
        [rng.uniform(0, world_w, n_land), rng.uniform(0, h, n_land)]
    )
    land_desc = rng.normal(0.0, 1.0, (n_land, _DESCRIPTOR_DIM))
    features = {
        cam: _landmark_features(warps[cam], land_pts, land_desc, spec.image_shape, rng)
        for cam in range(spec.n_cameras)
    }

    frames = [f"frame-{k:03d}" for k in range(spec.n_frames)]
    node_frames = {cam: {} for cam in range(spec.n_cameras)}
    global_counts = {}
    for frame_id in frames:
        placed = _place_vehicles(spec, world_w, h, warps, rng)
        owners_of = _detectable_views(placed, origins, h)
        visible_any = sum(1 for owners in owners_of if owners)
        per_cam = {cam: [] for cam in range(spec.n_cameras)}
        for vid, (_, corners, image_x, _) in enumerate(placed):
            for cam in owners_of[vid]:
                img_corners = _world_to_image(warps[cam], corners)
                u = float(np.clip(image_x[cam] / w, 0.0, 1.0))
                # misses concentrate far from the camera; mean rate = drop_rate
                p_drop = min(1.0, spec.drop_rate * 3.0 * u * u)
                dropped = rng.uniform() < p_drop
                jitter = rng.normal(0.0, spec.jitter_px, 2) if spec.jitter_px > 0 else np.zeros(2)
                spawn_spurious = rng.uniform() < spec.spurious_rate
                if not dropped:
                    per_cam[cam].append(
                        Detection(
                            polygon=Polygon(img_corners + jitter),
                            score=float(rng.uniform(0.7, 1.0)),
                            vehicle_id=vid,
                        )
                    )
                if spawn_spurious:
                    # detector double-fire: a tight near-duplicate of the object
                    offset = rng.normal(0.0, spec.jitter_px + 1.5, 2)
                    per_cam[cam].append(
                        Detection(
                            polygon=Polygon(img_corners + offset),
                            score=float(rng.uniform(0.5, 0.8)),
                            vehicle_id=None,
                        )
                    )
        for cam in range(spec.n_cameras):
            node_frames[cam][frame_id] = per_cam[cam]
        global_counts[frame_id] = visible_any

    nodes = [
        NodeSpec(
            node_id=cam,
            neighbors=tuple(neighbors[cam]),
            width=w,
            height=h,
            features=features[cam],
            frames=node_frames[cam],
        )
        for cam in range(spec.n_cameras)
    ]
    return Scenario(
        nodes=nodes,
        frames=frames,
        ground_truth=GroundTruth(global_counts=global_counts, homographies=truth_h),
    )


def _detectable_views(placed, origins, image_height):
    """Cameras that can actually detect each vehicle.

    A camera that sees the center clearly inside stands a little before
    its window at mid-height and looks along +x; a vehicle is occluded
    from it when another vehicle sits on the sight line (within a
    half-width), closer to the camera, and within the occlusion reach.
    Cameras at different posts lose different cars, which is exactly the
    redundancy overlapping views provide.
    """
    owners = []
    centers = np.array([c for c, *_ in placed]) if placed else np.zeros((0, 2))
    cam_pos = [
        np.array([x0 - _CAMERA_SETBACK, image_height / 2.0]) for x0 in origins
    ]
    offsets = [centers - pos for pos in cam_pos]  # every vehicle relative to each camera
    for vid, (_, _, _, inside) in enumerate(placed):
        views = []
        for cam in np.flatnonzero(inside).tolist():
            rel = offsets[cam]
            ray = rel[vid]
            dv = float(np.hypot(*ray))
            # distance off the sight line first; only blockers near it need the along-ray test
            perp = np.abs(rel[:, 0] * ray[1] - rel[:, 1] * ray[0]) / dv
            occluded = False
            for uid in np.flatnonzero(perp < _OCCLUSION_HALF_WIDTH).tolist():
                if uid == vid:
                    continue
                du = float(rel[uid] @ ray) / dv  # distance along the sight line
                if 0.0 < du < dv and dv - du < _OCCLUSION_REACH:
                    occluded = True
                    break
            if not occluded:
                views.append(cam)
        owners.append(views)
    return owners


def _place_vehicles(spec: SyntheticSceneSpec, world_w: float, h: float, warps, rng):
    """Rejection-sample vehicle rectangles: visible somewhere, never
    borderline in any camera, and mutually separated. Each entry is
    (center, corners, image x per camera, clearly inside per camera)."""
    placed = []
    centers = np.empty((spec.n_vehicles, 2))  # centers[:len(placed)] are in use
    attempts = 0
    budget = 20_000 + 4_000 * spec.n_vehicles
    while len(placed) < spec.n_vehicles:
        attempts += 1
        if attempts > budget:
            raise InfeasibleOverlap(
                f"could not place {spec.n_vehicles} vehicles in the requested geometry"
            )
        center = np.array([rng.uniform(0, world_w), rng.uniform(0, h)])
        length = rng.uniform(24, 32)
        width = rng.uniform(12, 16)
        inside, border, image_x = zip(*(_visible(m, center, spec.image_shape) for m in warps))
        if not any(inside) or any(border):
            continue
        others = centers[:len(placed)]
        if (np.hypot(center[0] - others[:, 0], center[1] - others[:, 1]) < _MIN_SEPARATION).any():
            continue
        dx, dy = length / 2.0, width / 2.0
        corners = center + np.array([[-dx, -dy], [dx, -dy], [dx, dy], [-dx, dy]])
        centers[len(placed)] = center
        placed.append((center, corners, image_x, inside))
    return placed


def _landmark_features(m: np.ndarray, land_pts, land_desc, shape, rng) -> list:
    """Features of the landmarks inside one camera's image; one (kept, dim)
    noise draw takes the same stream as a draw of dim per kept landmark."""
    w, h = shape
    img = _world_to_image(m, land_pts)
    keep = np.flatnonzero(
        (img[:, 0] >= 0.0) & (img[:, 0] < w) & (img[:, 1] >= 0.0) & (img[:, 1] < h)
    )
    desc = land_desc[keep] + rng.normal(0.0, _DESCRIPTOR_NOISE, (keep.size, _DESCRIPTOR_DIM))
    return [Feature(Point2(x, y), d) for (x, y), d in zip(img[keep].tolist(), desc)]
