"""Deterministic synthetic scenes with exact ground truth.

A scene is a rolling terrain sheet plus a few convex "boulder" bodies, each
assigned its own rigid motion (bounded translation, rotation up to 10
degrees) while the terrain stays put. Optional gray images of both epochs
are rendered through pinhole cameras with a hash-based surface texture that
travels with the surface, so image matching can rediscover the 3D motion.
Everything derives from one seed; the same seed reproduces the scene
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dvf import MODALITY_3D, DisplacementVectorField
from .errors import InvalidParams
from .geometry import RigidTransform
from .io import CameraModel, PointCloud, Raster

MAX_BODY_ROTATION_DEG = 10.0


@dataclass
class SynthParams:
    extent: float = 100.0            # terrain side length, meters
    n_points: int = 20_000
    n_bodies: int = 4
    motion_scale: float = 2.0        # max body translation magnitude, meters
    noise_sigma: float = 0.02        # per-axis target jitter, meters
    texture: bool = True             # render per-epoch images
    n_images: int = 2
    image_width: int = 320
    image_height: int = 240
    body_point_fraction: float = 0.25
    # per-body planted translations (identity rotation); None = random motion
    forced_translations: tuple | None = None

    def validate(self) -> "SynthParams":
        if self.extent <= 0:
            raise InvalidParams(f"extent must be positive, got {self.extent}")
        if self.n_points < 10:
            raise InvalidParams(f"need at least 10 points, got {self.n_points}")
        if self.n_bodies < 0:
            raise InvalidParams(f"n_bodies must be >= 0, got {self.n_bodies}")
        if self.motion_scale < 0 or self.noise_sigma < 0:
            raise InvalidParams("motion scale and noise sigma must be >= 0")
        if not 0.0 < self.body_point_fraction < 1.0:
            raise InvalidParams("body_point_fraction must lie in (0, 1)")
        if self.texture and self.n_images < 1:
            raise InvalidParams("textured scenes need at least one image")
        return self


@dataclass
class RigidBody:
    point_ids: np.ndarray
    transform: RigidTransform


@dataclass
class SyntheticScene:
    source: PointCloud
    target: PointCloud
    bodies: list
    ground_truth: DisplacementVectorField
    cameras: list = field(default_factory=list)
    source_images: list = field(default_factory=list)
    target_images: list = field(default_factory=list)
    seed: int = 0

    @property
    def moving_ids(self) -> np.ndarray:
        if not self.bodies:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate([b.point_ids for b in self.bodies])


def _bump_octave(xy: np.ndarray, cell: float, amp: float,
                 salt: float) -> np.ndarray:
    """Smooth deterministic value noise: hashed corner heights on a square
    grid of the given cell size, blended with a smoothstep."""
    g = xy / cell
    base = np.floor(g)
    frac = g - base

    def corner(di, dj):
        h = (base + (di, dj)) @ np.array([127.1, 311.7]) + salt
        return np.modf(np.sin(h) * 43758.5453123)[0]

    sx = frac[:, 0] ** 2 * (3.0 - 2.0 * frac[:, 0])
    sy = frac[:, 1] ** 2 * (3.0 - 2.0 * frac[:, 1])
    top = corner(0, 0) * (1.0 - sx) + corner(1, 0) * sx
    bot = corner(0, 1) * (1.0 - sx) + corner(1, 1) * sx
    return amp * (top * (1.0 - sy) + bot * sy - 0.5)


def _terrain_height(xy: np.ndarray, extent: float) -> np.ndarray:
    """Rolling heightfield with rocky detail.

    Long waves shape the slope; the bump octaves put genuine geometric
    structure at and below neighborhood scale, the way natural rough terrain
    has it — on a perfectly smooth surface every neighborhood would look
    identical and there would be nothing to segment or describe.
    """
    u = xy / extent * (2.0 * np.pi)
    rolling = (1.8 * np.sin(1.3 * u[:, 0]) * np.cos(0.9 * u[:, 1])
               + 1.1 * np.sin(2.1 * u[:, 1] + 0.7)
               + 0.6 * np.cos(3.2 * u[:, 0] + 1.9 * u[:, 1]))
    rocky = (_bump_octave(xy, 2.5, 0.55, 13.7)
             + _bump_octave(xy, 1.0, 0.25, 57.3)
             + _bump_octave(xy, 0.45, 0.10, 91.1))
    return rolling + rocky


def _hash_gray(points: np.ndarray, texel: float = 0.4) -> np.ndarray:
    """Deterministic pseudo-random gray per surface texel in [0, 255]."""
    cell = np.floor(points / texel)
    phase = cell @ np.array([12.9898, 78.233, 37.719])
    frac = np.modf(np.sin(phase) * 43758.5453123)[0]
    return np.abs(frac) * 255.0


def _look_at_pose(center: np.ndarray, target: np.ndarray) -> RigidTransform:
    fwd = target - center
    fwd = fwd / np.linalg.norm(fwd)
    up = np.array([0.0, 0.0, 1.0])
    if abs(fwd @ up) > 0.99:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(fwd, up)
    right /= np.linalg.norm(right)
    down = np.cross(fwd, right)
    rot = np.stack([right, down, fwd])          # world -> camera rows
    return RigidTransform(rot, -rot @ center)


def _render(points: np.ndarray, gray: np.ndarray, cam: CameraModel) -> Raster:
    """Nearest-depth point splat into a gray raster (unlit z-buffer)."""
    from .imaging import project_to_image
    proj = project_to_image(points, cam)
    img = np.zeros(cam.height * cam.width, dtype=np.float64)
    sel = np.flatnonzero(proj.valid)
    if len(sel):
        u = proj.u[sel].astype(np.int64)
        v = proj.v[sel].astype(np.int64)
        pix = v * cam.width + u
        order = np.lexsort((proj.depth[sel], pix))  # per pixel, nearest first
        first = np.unique(pix[order], return_index=True)[1]
        win = order[first]
        img[pix[win]] = gray[sel][win]
    img = img.reshape(cam.height, cam.width)
    return Raster(np.clip(img, 0, 255).astype(np.uint8), cam.image_id)


def _scene_cameras(params: SynthParams, rng) -> list:
    e = params.extent
    targets = np.array([e / 2.0, e / 2.0, 0.0])
    corners = [(0.15 * e, 0.15 * e), (0.85 * e, 0.2 * e),
               (0.2 * e, 0.85 * e), (0.85 * e, 0.85 * e)]
    cams = []
    for i in range(params.n_images):
        cx, cy = corners[i % len(corners)]
        center = np.array([cx, cy, 0.9 * e + 2.0 * (i // len(corners))])
        pose = _look_at_pose(center, targets)
        f = 1.1 * max(params.image_width, params.image_height)
        cams.append(CameraModel(
            image_id=f"view{i}", width=params.image_width,
            height=params.image_height, fx=f, fy=f,
            cx=params.image_width / 2.0, cy=params.image_height / 2.0,
            pose=pose))
    return cams


def synth_generate_scene(params: SynthParams | None = None,
                         seed: int = 0) -> SyntheticScene:
    """Build one scene; every random draw comes from `seed`."""
    params = (params or SynthParams()).validate()
    rng = np.random.default_rng(seed)
    e = params.extent

    n_body_total = int(params.n_points * params.body_point_fraction) \
        if params.n_bodies else 0
    n_terrain = params.n_points - n_body_total
    per_body = n_body_total // params.n_bodies if params.n_bodies else 0

    xy = rng.uniform(0.0, e, (n_terrain, 2))
    terrain = np.column_stack([xy, _terrain_height(xy, e)])

    # Centers keep a minimum mutual separation so a body displaced by up to
    # motion_scale can never be confused with a neighbour's footprint.
    sep = 0.18 * e
    centers_xy: list = []
    for _ in range(params.n_bodies):
        for _attempt in range(2000):
            cand = rng.uniform(0.15 * e, 0.85 * e, 2)
            if all(np.linalg.norm(cand - c) >= sep for c in centers_xy):
                centers_xy.append(cand)
                break
        else:
            raise InvalidParams(
                f"cannot place {params.n_bodies} bodies at separation "
                f"{sep:.1f} within extent {e:.1f}")

    chunks = [terrain]
    bodies_members = []
    next_id = n_terrain
    for b in range(params.n_bodies):
        n_pts = per_body + (n_body_total - per_body * params.n_bodies
                            if b == params.n_bodies - 1 else 0)
        center_xy = centers_xy[b]
        radius = rng.uniform(0.03 * e, 0.05 * e)
        axes = radius * rng.uniform(0.6, 1.0, 3)
        # points on the exposed upper half of an ellipsoid: a boulder dome
        # resting on the ground, as a scanner would actually see it
        dirs = rng.normal(size=(n_pts, 3))
        dirs[:, 2] = np.abs(dirs[:, 2])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        # Low-order radial irregularity makes every dome unique and kills
        # the rotational self-similarity of a plain ellipsoid (which would
        # otherwise admit ring-rotated self-matches that are isometric and
        # hence undetectable downstream).
        warp = np.ones(n_pts)
        for _ in range(3):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            warp += rng.uniform(-0.25, 0.25) * (dirs @ u) ** 2 \
                + rng.uniform(-0.2, 0.2) * (dirs @ u)
        shell = dirs * axes * np.clip(warp, 0.55, 1.65)[:, None]
        # Fine-scale surface ripple (random cosine waves, ~0.7 m wavelength)
        # gives the shell the roughness of real rock: local neighbourhoods
        # become distinctive instead of quasi-planar caps.
        ripple = np.zeros(n_pts)
        for _ in range(8):
            k_vec = rng.normal(size=3)
            k_vec *= (2.0 * np.pi / rng.uniform(0.5, 1.1)) / np.linalg.norm(k_vec)
            ripple += rng.uniform(0.6, 1.0) * np.cos(shell @ k_vec
                                                     + rng.uniform(0, 2 * np.pi))
        shell += dirs * (0.045 * ripple)[:, None]
        ground = _terrain_height(center_xy[None, :], e)[0]
        center = np.array([center_xy[0], center_xy[1], ground + 0.15 * axes[2]])
        chunks.append(shell + center)
        bodies_members.append(np.arange(next_id, next_id + n_pts))
        next_id += n_pts

    source_pts = np.vstack(chunks)
    n = len(source_pts)

    bodies = []
    target_pts = source_pts.copy()
    truth = np.zeros((n, 3))
    body_of = np.full(n, -1, dtype=np.int64)
    forced = params.forced_translations
    for b, members in enumerate(bodies_members):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        direction[2] *= 0.3                      # mostly horizontal motion
        translation = direction / np.linalg.norm(direction) \
            * rng.uniform(0.3, 1.0) * params.motion_scale
        angle = np.deg2rad(rng.uniform(0.0, MAX_BODY_ROTATION_DEG))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        if forced is not None and b < len(forced) and forced[b] is not None:
            translation = np.asarray(forced[b], dtype=np.float64)
            angle = 0.0
        k = axis
        kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
        rot = np.eye(3) + np.sin(angle) * kx + (1 - np.cos(angle)) * (kx @ kx)
        centroid = source_pts[members].mean(axis=0)
        t = RigidTransform(rot, centroid - rot @ centroid + translation)
        moved = t.apply(source_pts[members])
        truth[members] = moved - source_pts[members]
        target_pts[members] = moved
        body_of[members] = b
        bodies.append(RigidBody(members, t))

    if params.noise_sigma > 0:
        target_pts = target_pts + rng.normal(0.0, params.noise_sigma, (n, 3))

    ground_truth = DisplacementVectorField(
        np.arange(n), source_pts, truth,
        np.ones(n, dtype=np.int64), body_of,
        np.full(n, MODALITY_3D, dtype="U2"))

    scene = SyntheticScene(
        source=PointCloud(source_pts),
        target=PointCloud(target_pts),
        bodies=bodies, ground_truth=ground_truth, seed=seed)

    if params.texture:
        gray = _hash_gray(source_pts)            # texture rides with the surface
        scene.cameras = _scene_cameras(params, rng)
        scene.source_images = [_render(source_pts, gray, c) for c in scene.cameras]
        scene.target_images = [_render(target_pts, gray, c) for c in scene.cameras]
    return scene
