"""Patch descriptors, 3D patch matches and level fields derived from the
level label arrays, against the per-patch reference they replaced: one
membership scan per patch, one `np.isin` per patch and matched pair, and
one field piece per fitted patch. The outputs must be bit-identical."""

import numpy as np
import pytest

from dvfusion.coarse import _cap_members, match_patches_3d, mutual_nn
from dvfusion.config import PipelineConfig
from dvfusion.dvf import MODALITY_3D, DisplacementVectorField
from dvfusion.errors import DegenerateSupport
from dvfusion.features import (
    adaptive_downsample,
    aggregate_level_features,
    extract_point_features,
)
from dvfusion.fine import estimate_patch_transform, level_field
from dvfusion.geometry import (NORMAL_NEIGHBOURS, local_covariance_features,
                               mean_scan_resolution)
from dvfusion.partition import hierarchical_partition, partition_features
from dvfusion.synth import SynthParams, synth_generate_scene

LEVELS = (1, 2, 3)
CFG = PipelineConfig()


# ---------------------------------------------------------------------------
# Reference: the per-patch object path


def reference_patches(labels, points):
    """(patch id, ascending members, centroid) per patch, one scan each."""
    out = []
    for pid in range(labels.max() + 1):
        members = np.flatnonzero(labels == pid)
        out.append((pid, members, points[members].mean(axis=0)))
    return out


def reference_aggregate(patches, feats):
    """Unit mean descriptor of every patch holding featured points."""
    ids, vecs = [], []
    for pid, members, _ in patches:
        inside = np.isin(feats.point_indices, members)
        if not inside.any():
            continue
        vec = feats.descriptors[inside].mean(axis=0)
        norm = np.linalg.norm(vec)
        if norm <= 1e-12:
            continue
        ids.append(pid)
        vecs.append(vec / norm)
    return ids, vecs


def reference_match_3d(level, src_agg, tgt_agg, src_feats, tgt_feats,
                       src_patches, tgt_patches, src_points, tgt_points,
                       max_displacement):
    """(source id, target id, support source indices, support target
    indices) per 3D patch match."""
    (src_ids, fa), (tgt_ids, fb) = src_agg, tgt_agg
    if not src_ids or not tgt_ids:
        return []
    fa, fb = np.stack(fa), np.stack(fb)
    pa = [src_patches[pid] for pid in src_ids]
    pb = [tgt_patches[pid] for pid in tgt_ids]
    ca = np.stack([c for _, _, c in pa])
    cb = np.stack([c for _, _, c in pb])
    ra = np.array([np.linalg.norm(src_points[m] - c, axis=1).max() for _, m, c in pa])
    rb = np.array([np.linalg.norm(tgt_points[m] - c, axis=1).max() for _, m, c in pb])
    gap = np.linalg.norm(ca[:, None, :] - cb[None, :, :], axis=2)
    allowed = gap <= max_displacement + ra[:, None] + rb[None, :]
    out = []
    for ia, ib in zip(*mutual_nn(fa, fb, allowed=allowed)):
        sid, tid = src_ids[ia], tgt_ids[ib]
        pos_a = _cap_members(np.flatnonzero(
            np.isin(src_feats.point_indices, src_patches[sid][1])))
        pos_b = _cap_members(np.flatnonzero(
            np.isin(tgt_feats.point_indices, tgt_patches[tid][1])))
        if len(pos_a) == 0 or len(pos_b) == 0:
            continue
        qa, qb = mutual_nn(src_feats.descriptors[pos_a], tgt_feats.descriptors[pos_b])
        if len(qa) == 0:
            continue
        out.append((sid, tid, src_feats.point_indices[pos_a[qa]],
                    tgt_feats.point_indices[pos_b[qb]]))
    return out


def reference_level_field(level, patches, fits, points):
    """One field piece per fitted patch, stacked and sorted by point id."""
    pieces = []
    for pid, t, modality in fits:
        members = patches[pid][1]
        pts = points[members]
        pieces.append((pid, modality, members, t.apply(pts) - pts))
    if not pieces:
        return DisplacementVectorField.empty()
    ids = np.concatenate([m for _, _, m, _ in pieces])
    return DisplacementVectorField(
        ids, points[ids], np.vstack([v for _, _, _, v in pieces]),
        np.concatenate([np.full(len(m), level) for _, _, m, _ in pieces]),
        np.concatenate([np.full(len(m), pid) for pid, _, m, _ in pieces]),
        np.concatenate([np.full(len(m), mod, dtype="U2")
                        for _, mod, m, _ in pieces])).sorted_by_id()


# ---------------------------------------------------------------------------
# A synthetic tile pair


@pytest.fixture(scope="module")
def tile_pair():
    scene = synth_generate_scene(SynthParams(n_points=3000, texture=False), seed=3)
    src, tgt = scene.source.points, scene.target.points
    resolution = mean_scan_resolution(src)

    def describe(pts):
        """Patch hierarchy and descriptors from one k-NN covariance, as a
        run computes them."""
        geo = local_covariance_features(pts, k=NORMAL_NEIGHBOURS)
        part = hierarchical_partition(pts, partition_features(geo),
                                      lambda_factors=CFG.lambda_factors,
                                      min_patch=CFG.min_patch, k_adj=CFG.k_adj)
        sample = adaptive_downsample(pts, CFG.voxel_factor, resolution)
        return part, extract_point_features(pts, geo, sample, resolution)

    (part_src, feats_src), (part_tgt, feats_tgt) = describe(src), describe(tgt)
    return (src, tgt, part_src, part_tgt, feats_src, feats_tgt, resolution)


def fields_equal(a, b):
    return all(np.array_equal(getattr(a, c), getattr(b, c))
               for c in ("point_ids", "positions", "vectors", "levels",
                         "patch_ids", "modalities"))


@pytest.mark.parametrize("level", LEVELS)
def test_level_path_is_bit_identical_to_per_patch_reference(tile_pair, level):
    src, tgt, part_src, part_tgt, feats_src, feats_tgt, resolution = tile_pair
    lab_s, lab_t = part_src.labels(level), part_tgt.labels(level)
    ref_s = reference_patches(lab_s, src)
    ref_t = reference_patches(lab_t, tgt)
    assert [m.tolist() for m in part_src.patches(level)] == [m.tolist() for _, m, _ in ref_s]

    agg_s = aggregate_level_features(lab_s, feats_src)
    agg_t = aggregate_level_features(lab_t, feats_tgt)
    for (ids, desc), feats, ref in ((agg_s, feats_src, ref_s), (agg_t, feats_tgt, ref_t)):
        ref_ids, ref_vecs = reference_aggregate(ref, feats)
        assert ids.tolist() == ref_ids
        assert np.array_equal(desc, np.stack(ref_vecs))

    ms = match_patches_3d(level, agg_s, agg_t, feats_src, feats_tgt, lab_s, lab_t,
                          src, tgt, max_displacement=CFG.max_displacement)
    ref_ms = reference_match_3d(
        level, reference_aggregate(ref_s, feats_src),
        reference_aggregate(ref_t, feats_tgt), feats_src, feats_tgt,
        ref_s, ref_t, src, tgt, CFG.max_displacement)
    assert len(ms) == len(ref_ms) > 0
    for m, (sid, tid, si, ti) in zip(ms.matches, ref_ms):
        assert (m.level, m.source_patch_id, m.target_patch_id, m.modality) == (
            level, sid, tid, MODALITY_3D)
        assert np.array_equal(m.source_indices, si)
        assert np.array_equal(m.target_indices, ti)
    # the bound is live here: without it the matches differ
    unbounded = match_patches_3d(level, agg_s, agg_t, feats_src, feats_tgt,
                                 lab_s, lab_t, src, tgt, max_displacement=np.inf)
    assert ([(m.source_patch_id, m.target_patch_id) for m in unbounded.matches]
            != [(m.source_patch_id, m.target_patch_id) for m in ms.matches])

    fits = []
    for m in reversed(ms.matches):        # fit order must not matter
        try:
            t = estimate_patch_transform(m, src, tgt,
                                         CFG.icp_gate_factor * resolution,
                                         CFG.icp_max_iter, CFG.icp_conv_tol)
            fits.append((m.source_patch_id, t, m.modality))
        except DegenerateSupport:
            continue
    assert fits
    got = level_field(level, part_src.patches(level), fits, src,
                      np.arange(len(src)))
    assert fields_equal(got, reference_level_field(level, ref_s, fits, src))
