"""Accuracy metrics against external observations, spatial coverage, and the
two reference baselines (uniform-tile ICP and normal-projected distances).

Deviations follow the |dDX|, |dDY|, |dDZ|, |dDS| convention: absolute
per-component differences plus the absolute difference of the displacement
magnitudes. All joins run in the source-epoch frame: observations carry a
first-epoch position and are compared against estimates at nearby source
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .dvf import MODALITY_3D, DisplacementVectorField
from .errors import (
    DegenerateInput,
    EmptyNeighborhood,
    InvalidParams,
    NoEstimateNearObservation,
)
from .features import adaptive_downsample
from .geometry import (
    as_points,
    grid_cells,
    icp_point_to_point,
    local_covariance_features,
    mean_scan_resolution,
)
from .io import write_table

M3C2_CORE_VOXEL_FACTOR = 2.0    # core point spacing, x mean scan resolution


@dataclass
class ObservationComparison:
    """Estimate-vs-reference at one external observation."""

    obs_id: str
    estimate: np.ndarray
    reference: np.ndarray
    deviations: np.ndarray          # |dDX|, |dDY|, |dDZ|, |dDS|
    n_members: int = 1
    member_mad: np.ndarray | None = None


@dataclass
class EvaluationReport:
    rows: list = field(default_factory=list)
    coverage: float | None = None

    def deviation_matrix(self) -> np.ndarray:
        if not self.rows:
            return np.zeros((0, 4))
        return np.stack([r.deviations for r in self.rows])

    def mean_deviations(self) -> np.ndarray:
        return self.deviation_matrix().mean(axis=0)

    def mad_deviations(self) -> np.ndarray:
        """Mean absolute deviation of each column about its mean, across
        observations."""
        m = self.deviation_matrix()
        return np.abs(m - m.mean(axis=0)).mean(axis=0)


def _deviations(estimate: np.ndarray, reference: np.ndarray) -> np.ndarray:
    comp = np.abs(estimate - reference)
    ds = abs(np.linalg.norm(estimate) - np.linalg.norm(reference))
    return np.append(comp, ds)


def spatial_coverage(dvf: DisplacementVectorField, source_points,
                     voxel: float) -> float:
    """Fraction of occupied source voxels that hold at least one estimate.
    Voxels are the `geometry.grid_cells` of edge `voxel` from the source's
    minimum, as in `adaptive_downsample` and `baseline_piecewise_icp`."""
    if voxel <= 0:
        raise InvalidParams(f"voxel size must be positive, got {voxel}")
    src = as_points(source_points)
    if len(dvf) == 0:
        return 0.0
    cell, k = grid_cells(np.concatenate([src, dvf.positions]), voxel,
                         src.min(axis=0))
    occupied = np.bincount(cell[:len(src)], minlength=k) > 0
    estimated = np.bincount(cell[len(src):], minlength=k) > 0
    return int((occupied & estimated).sum()) / int(occupied.sum())


def compare_nn(dvf: DisplacementVectorField, observations,
               max_dist: float) -> EvaluationReport:
    """Compare each observation against the estimate at the nearest covered
    source point.

    Raises:
        NoEstimateNearObservation: empty field, or nearest estimate farther
            than `max_dist` from the observation position.
    """
    if len(dvf) == 0:
        raise NoEstimateNearObservation("displacement field is empty")
    tree = cKDTree(dvf.positions)
    report = EvaluationReport()
    for obs in observations:
        dist, idx = tree.query(obs.position[None, :], k=1)
        if dist[0] > max_dist:
            raise NoEstimateNearObservation(
                f"observation {obs.id}: nearest estimate at {dist[0]:.3f} m "
                f"exceeds {max_dist:.3f} m")
        est = dvf.vectors[idx[0]]
        report.rows.append(ObservationComparison(
            obs.id, est.copy(), obs.displacement.copy(),
            _deviations(est, obs.displacement)))
    return report


def compare_mean_radius(dvf: DisplacementVectorField, observations,
                        radius: float) -> EvaluationReport:
    """Compare each observation against the mean estimate within a radius.

    `member_mad` holds the mean absolute deviation of member components (and
    magnitudes, fourth column) about the neighbourhood mean.

    Raises:
        EmptyNeighborhood: no estimate within the radius.
    """
    if radius <= 0:
        raise InvalidParams(f"radius must be positive, got {radius}")
    if len(dvf) == 0:
        raise EmptyNeighborhood("displacement field is empty")
    tree = cKDTree(dvf.positions)
    report = EvaluationReport()
    for obs in observations:
        members = tree.query_ball_point(obs.position, radius)
        if not members:
            raise EmptyNeighborhood(
                f"observation {obs.id}: no estimate within {radius:.3f} m")
        vecs = dvf.vectors[np.asarray(members, dtype=np.int64)]
        est = vecs.mean(axis=0)
        comp_mad = np.abs(vecs - est).mean(axis=0)
        mags = np.linalg.norm(vecs, axis=1)
        mag_mad = np.abs(mags - mags.mean()).mean()
        report.rows.append(ObservationComparison(
            obs.id, est, obs.displacement.copy(),
            _deviations(est, obs.displacement),
            n_members=len(members),
            member_mad=np.append(comp_mad, mag_mad)))
    return report


# ---------------------------------------------------------------------------
# Baselines


def baseline_piecewise_icp(source_points, target_points, tile_size: float,
                           max_pair_dist: float | None = None) -> DisplacementVectorField:
    """Uniform-grid tile ICP: one rigid fit per 2D tile, applied to every
    source point of the tile. Tiles whose fit fails contribute nothing.
    Tiles are the `geometry.grid_cells` of both clouds' xy from their joint
    minimum, as in `adaptive_downsample` and `spatial_coverage`; a tile's
    number (its patch id) is its rank in grid order among the source's."""
    if tile_size <= 0:
        raise InvalidParams(f"tile size must be positive, got {tile_size}")
    src = as_points(source_points)
    tgt = as_points(target_points)
    xy = np.concatenate([src[:, :2], tgt[:, :2]])
    cell, k = grid_cells(xy, tile_size, xy.min(axis=0))

    def members(cells):     # each tile's ascending rows of `cells`
        order = np.argsort(cells, kind="stable")
        return np.split(order, np.cumsum(np.bincount(cells, minlength=k))[:-1])

    s_tiles, t_tiles = members(cell[:len(src)]), members(cell[len(src):])
    ids, vecs, patch = [], [], []
    source_tiles = ((s, t) for s, t in zip(s_tiles, t_tiles) if len(s))
    for tile_no, (s_idx, t_idx) in enumerate(source_tiles):
        if len(t_idx) == 0:
            continue
        try:
            result = icp_point_to_point(src[s_idx], tgt[t_idx],
                                        max_pair_dist=max_pair_dist)
        except DegenerateInput:
            continue
        moved = result.transform.apply(src[s_idx])
        ids.append(s_idx)
        vecs.append(moved - src[s_idx])
        patch.append(np.full(len(s_idx), tile_no, dtype=np.int64))
    if not ids:
        return DisplacementVectorField.empty()
    ids = np.concatenate(ids)
    n = len(ids)
    return DisplacementVectorField(
        ids, src[ids], np.vstack(vecs), np.zeros(n, dtype=np.int64),
        np.concatenate(patch), np.full(n, MODALITY_3D, dtype="U2")).sorted_by_id()


@dataclass
class M3C2Result:
    """Signed distances along per-core-point normals; NaN where either
    cylinder was empty (`valid` False)."""

    core_indices: np.ndarray
    normals: np.ndarray
    distances: np.ndarray
    valid: np.ndarray

    def __len__(self) -> int:
        return len(self.core_indices)


def baseline_m3c2(source_points, target_points,
                  normal_radius: float, cylinder_radius: float,
                  max_depth: float) -> M3C2Result:
    """Distance along the local surface normal between the epochs.

    Per core point: PCA normal over `normal_radius` neighbours in the source;
    both epochs' points inside the normal-aligned cylinder (radius
    `cylinder_radius`, half-depth `max_depth`) are averaged and the mean
    difference is projected on the normal. Blind to motion tangential to the
    surface by construction. Core points are an adaptive downsample of the
    source, one per voxel of `M3C2_CORE_VOXEL_FACTOR` x its mean scan
    resolution.
    """
    if normal_radius <= 0 or cylinder_radius <= 0:
        raise InvalidParams("radii must be positive")
    src = as_points(source_points)
    tgt = as_points(target_points)
    core_indices = adaptive_downsample(src, voxel_factor=M3C2_CORE_VOXEL_FACTOR)
    cores = src[core_indices]
    geo = local_covariance_features(src, radius=normal_radius)
    normals = geo.normals[core_indices]

    s_tree = cKDTree(src)
    t_tree = cKDTree(tgt)
    reach = float(np.hypot(cylinder_radius, max_depth))
    distances = np.full(len(cores), np.nan)
    valid = np.zeros(len(cores), dtype=bool)
    for i, (c, n) in enumerate(zip(cores, normals)):
        if not np.any(n):
            continue

        def cylinder_mean(tree, pts):
            cand = tree.query_ball_point(c, reach)
            if not cand:
                return None
            rel = pts[np.asarray(cand, dtype=np.int64)] - c
            along = rel @ n
            r_perp = np.linalg.norm(rel - along[:, None] * n, axis=1)
            inside = (np.abs(along) <= max_depth) & (r_perp <= cylinder_radius)
            if not inside.any():
                return None
            return rel[inside].mean(axis=0)

        mean_s = cylinder_mean(s_tree, src)
        mean_t = cylinder_mean(t_tree, tgt)
        if mean_s is None or mean_t is None:
            continue
        distances[i] = float((mean_t - mean_s) @ n)
        valid[i] = True
    return M3C2Result(core_indices, normals, distances, valid)


def dump_report(path, report: EvaluationReport) -> None:
    """CSV with one row per observation plus a trailing summary block."""
    rows = [[r.obs_id,
             *(f"{v:.6f}" for v in (*r.estimate, *r.reference, *r.deviations)),
             r.n_members] for r in report.rows]
    if report.rows:
        for name, dev in (("mean", report.mean_deviations()),
                          ("mad", report.mad_deviations())):
            rows.append([name, *[""] * 6, *(f"{v:.6f}" for v in dev), ""])
    if report.coverage is not None:
        rows.append(["coverage", f"{report.coverage:.6f}", *[""] * 10])
    write_table(path, ["obs_id", "est_x", "est_y", "est_z",
                       "ref_x", "ref_y", "ref_z",
                       "abs_ddx", "abs_ddy", "abs_ddz", "abs_dds", "n_members"],
                rows)


def format_report(report: EvaluationReport) -> str:
    """Human-readable deviation table."""
    lines = [f"{'obs':>8} {'|dDX|':>9} {'|dDY|':>9} {'|dDZ|':>9} {'|dDS|':>9}"]
    for r in report.rows:
        lines.append(f"{r.obs_id:>8} " +
                     " ".join(f"{v:9.4f}" for v in r.deviations))
    if report.rows:
        lines.append(f"{'mean':>8} " +
                     " ".join(f"{v:9.4f}" for v in report.mean_deviations()))
        lines.append(f"{'MAD':>8} " +
                     " ".join(f"{v:9.4f}" for v in report.mad_deviations()))
    if report.coverage is not None:
        lines.append(f"coverage {report.coverage:.1%}")
    return "\n".join(lines)
