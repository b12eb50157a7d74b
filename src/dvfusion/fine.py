"""Per-match rigid motion estimation and hierarchy integration.

Each surviving patch match yields one rigid transform, fit on its support
(index pairs into the tile's points; closed-form first, then ICP on the same
points). Applying the
transform to every full-resolution point of the source patch gives that
patch's displacement vectors; the three hierarchy levels are then collapsed
into a single field, finer levels taking precedence.

A patch is a patch id of one level's label array (see `partition`): its
members are the points carrying that id, and every vector records the level
and patch id it came from.
"""

from __future__ import annotations

import numpy as np

from .coarse import PatchMatch
from .dvf import DisplacementVectorField, merge_fields
from .errors import DegenerateInput, DegenerateSupport
from .geometry import RigidTransform, alignment_rmse, icp_point_to_point, kabsch


def estimate_patch_transform(match: PatchMatch, src_points, tgt_points,
                             gate: float, max_iter: int,
                             conv_tol: float) -> RigidTransform:
    """Closed-form fit on the support pairs, looked up in the tile's
    `src_points` and `tgt_points`, then ICP polish on the same points (never
    the whole patch), pairing only points within `gate`. Falls back to the
    closed-form result if ICP cannot improve its residual.

    Raises:
        DegenerateSupport: fewer than 3 support pairs or (nearly) collinear
            support geometry.
    """
    p = src_points[match.source_indices]
    q = tgt_points[match.target_indices]
    try:
        t0 = kabsch(p, q)
    except DegenerateInput as exc:
        raise DegenerateSupport(
            f"match {match.source_patch_id}->{match.target_patch_id}: {exc}"
        ) from exc
    rmse0 = alignment_rmse(t0, p, q)
    try:
        result = icp_point_to_point(p, q, init=t0, max_iter=max_iter,
                                    conv_tol=conv_tol, max_pair_dist=gate)
    except DegenerateInput:
        return t0
    if result.rmse <= rmse0 + 1e-12:
        return result.transform
    return t0


def level_field(level: int, patches, fits, points,
                point_ids) -> DisplacementVectorField:
    """Displacement field of one level of a tile from its per-patch rigid fits.

    `patches` lists each patch's member indices into the tile's `points` by
    patch id (as `HierarchicalPartition.patches` returns them); `fits` holds
    one (patch id, transform, modality) per fitted patch. Every member p of a
    fitted patch gets v = R p + T - p, keyed by its id in `point_ids`, the
    tile's ascending ids into the whole cloud. Patches of one level are
    disjoint, so ids never collide.
    """
    if not fits:
        return DisplacementVectorField.empty()
    pts = np.asarray(points, dtype=np.float64)
    members = [patches[pid] for pid, _, _ in fits]
    sizes = [len(m) for m in members]
    ids = np.concatenate(members)
    # one apply per patch on its ascending members keeps each vector's bits
    moved = np.vstack([t.apply(pts[m]) for m, (_, t, _) in zip(members, fits)])
    return DisplacementVectorField(
        np.asarray(point_ids)[ids],
        pts[ids],
        moved - pts[ids],
        np.full(len(ids), level, dtype=np.int64),
        np.repeat([pid for pid, _, _ in fits], sizes),
        np.repeat(np.array([mod for _, _, mod in fits], dtype="U2"), sizes),
    ).sorted_by_id()


def integrate_levels(level1: DisplacementVectorField,
                     level2: DisplacementVectorField,
                     level3: DisplacementVectorField) -> DisplacementVectorField:
    """Collapse the hierarchy: per source point keep the level-1 estimate if
    present, else level-2, else level-3."""
    return merge_fields((level1, level2, level3))
