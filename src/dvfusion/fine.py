"""Per-match rigid motion estimation and hierarchy integration.

Each surviving patch match yields one rigid transform, fit on its support
pairs (closed-form first, then ICP on the same points). Applying the
transform to every full-resolution point of the source patch gives that
patch's displacement vectors; the three hierarchy levels are then collapsed
into a single field, finer levels taking precedence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarse import PatchMatch
from .dvf import DisplacementVectorField
from .errors import DegenerateInput, DegenerateSupport
from .geometry import RigidTransform, alignment_rmse, icp_point_to_point, kabsch

ICP_MAX_ITER = 30
ICP_CONV_TOL = 1e-6


@dataclass
class PatchDisplacement:
    """Displacement vectors for every full-resolution point of one patch."""

    level: int
    patch_id: int
    modality: str
    transform: RigidTransform
    point_ids: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        self.point_ids = np.asarray(self.point_ids, dtype=np.int64).reshape(-1)
        self.vectors = np.asarray(self.vectors, dtype=np.float64).reshape(-1, 3)
        if len(self.point_ids) != len(self.vectors):
            raise ValueError("one vector per point id required")

    def __len__(self) -> int:
        return len(self.point_ids)


def estimate_patch_transform(match: PatchMatch,
                             gate: float | None = None,
                             max_iter: int = ICP_MAX_ITER,
                             conv_tol: float = ICP_CONV_TOL) -> RigidTransform:
    """Closed-form fit on the support pairs, then ICP polish on the same
    points (never the whole patch). Falls back to the closed-form result if
    ICP cannot improve its residual.

    Raises:
        DegenerateSupport: fewer than 3 support pairs or (nearly) collinear
            support geometry.
    """
    support = match.support
    try:
        t0 = kabsch(support)
    except DegenerateInput as exc:
        raise DegenerateSupport(
            f"match {match.source_patch_id}->{match.target_patch_id}: {exc}"
        ) from exc
    rmse0 = alignment_rmse(t0, support.source, support.target)
    try:
        result = icp_point_to_point(support.source, support.target, init=t0,
                                    max_iter=max_iter, conv_tol=conv_tol,
                                    max_pair_dist=gate)
    except DegenerateInput:
        return t0
    if result.rmse <= rmse0 + 1e-12:
        return result.transform
    return t0


def patch_dvf(patch, transform: RigidTransform, points,
              modality: str) -> PatchDisplacement:
    """Displacement vector for every full-resolution point of `patch`:
    v_i = R p_i + T - p_i."""
    pts = np.asarray(points, dtype=np.float64)[patch.point_indices]
    vectors = transform.apply(pts) - pts
    return PatchDisplacement(patch.level, patch.patch_id, modality, transform,
                             patch.point_indices.copy(), vectors)


def assemble_level_field(displacements, positions) -> DisplacementVectorField:
    """Stack per-patch displacements of one level into a single field.

    Patches of one level are disjoint by construction, so ids never collide.
    """
    displacements = [d for d in displacements if len(d)]
    if not displacements:
        return DisplacementVectorField.empty()
    pts = np.asarray(positions, dtype=np.float64)
    ids = np.concatenate([d.point_ids for d in displacements])
    return DisplacementVectorField(
        ids,
        pts[ids],
        np.vstack([d.vectors for d in displacements]),
        np.concatenate([np.full(len(d), d.level, dtype=np.int64)
                        for d in displacements]),
        np.concatenate([np.full(len(d), d.patch_id, dtype=np.int64)
                        for d in displacements]),
        np.concatenate([np.full(len(d), d.modality, dtype="U2")
                        for d in displacements])).sorted_by_id()


def integrate_levels(level1: DisplacementVectorField,
                     level2: DisplacementVectorField,
                     level3: DisplacementVectorField) -> DisplacementVectorField:
    """Collapse the hierarchy: per source point keep the level-1 estimate if
    present, else level-2, else level-3."""
    fields = [f for f in (level1, level2, level3) if len(f)]
    if not fields:
        return DisplacementVectorField.empty()
    ids = np.concatenate([f.point_ids for f in fields])
    # first occurrence in priority order wins; np.unique returns, per id, the
    # smallest index into the concatenation, and sorts ids as a side effect
    _, keep = np.unique(ids, return_index=True)
    return DisplacementVectorField(
        ids[keep],
        np.concatenate([f.positions for f in fields])[keep],
        np.concatenate([f.vectors for f in fields])[keep],
        np.concatenate([f.levels for f in fields])[keep],
        np.concatenate([f.patch_ids for f in fields])[keep],
        np.concatenate([f.modalities for f in fields])[keep])
