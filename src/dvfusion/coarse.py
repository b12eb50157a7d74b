"""Coarse patch-to-patch matching.

Candidate matches come from two independent channels per hierarchy level:
mutual nearest-neighbour matching of aggregated patch descriptors (the 3D
channel) and pixel matches lifted through the cameras onto tile points (the
2D channel). Both carry point-level support: index pairs into the tile's
source and target points, which stay the only record of a coordinate. The
merge step prefers the geometric channel where the two disagree and
enforces an injective source-to-target patch mapping.

Patches are the ids of one level's label arrays (see `partition`): a
patch's members, centroid, radius and featured points are all derived from
the source or target label array, and every match names its patches by id.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .dvf import MODALITY_2D, MODALITY_3D
from .errors import InvalidParams
from .geometry import as_points, bincount_rows
from .partition import patch_members


@dataclass
class PatchMatch:
    """One matched patch pair with its support: pair i joins tile source
    point `source_indices[i]` to tile target point `target_indices[i]`, and
    no point appears in two pairs."""

    level: int
    source_patch_id: int
    target_patch_id: int
    modality: str
    source_indices: np.ndarray
    target_indices: np.ndarray

    def __len__(self) -> int:
        return len(self.source_indices)


@dataclass
class MatchSet:
    level: int
    matches: list = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.matches)


@dataclass
class CorrTable:
    """Lifted 2D matches of one tile: index pairs into the tile's source and
    target points with a per-pair confidence, until they are voted into
    patch supports."""

    source_indices: np.ndarray
    target_indices: np.ndarray
    confidence: np.ndarray

    def __len__(self) -> int:
        return len(self.source_indices)

    @classmethod
    def empty(cls) -> "CorrTable":
        none = np.zeros(0, dtype=np.int64)
        return cls(none, none, np.zeros(0))

    def take(self, sel) -> "CorrTable":
        return CorrTable(self.source_indices[sel], self.target_indices[sel],
                         self.confidence[sel])


# Similarity-matrix entries held at once: 8 MiB of float64 scores. The
# mutual-NN calls of the benchmark scenes give the same pairs for blocks of
# 2^16, 2^20 and 2^22 entries.
_MUTUAL_NN_BLOCK = 2 ** 20


def _blocked_argmax(a: np.ndarray, b: np.ndarray, allowed=None):
    """Per row of a @ b.T: the argmax among the scores `allowed` (shape
    (len(a), len(b))) keeps, the lowest index among equal computed scores,
    and whether that score is finite. Rows of `a` go through in blocks of
    `_MUTUAL_NN_BLOCK // len(b)`, multiplied into one buffer and masked in
    place, so a single block of scores is alive at a time."""
    rows = max(1, _MUTUAL_NN_BLOCK // max(1, len(b)))
    best = np.empty(len(a), dtype=np.int64)
    finite = np.empty(len(a), dtype=bool)
    buf = np.empty((min(rows, len(a)), len(b)), dtype=np.result_type(a, b))
    for lo in range(0, len(a), rows):
        hi = min(lo + rows, len(a))
        s = np.matmul(a[lo:hi], b.T, out=buf[:hi - lo])
        if allowed is not None:
            s[~allowed[lo:hi]] = -np.inf
        best[lo:hi] = s.argmax(axis=1)
        finite[lo:hi] = np.isfinite(s[np.arange(hi - lo), best[lo:hi]])
    return best, finite


def mutual_nn(a: np.ndarray, b: np.ndarray, allowed: np.ndarray | None = None):
    """Mutual nearest neighbours between two stacks of unit descriptors
    under cosine distance. `allowed` optionally masks candidate pairs
    (shape (len(a), len(b))); a pair can only form where it is True.
    Returns the paired row indices (into a, into b).

    The forward argmax runs over blocks of a @ b.T, the backward one over
    blocks of b[hit] @ a.T for the targets some row chose (`hit`), since `i`
    pairs only if its choice chooses `i` back. BLAS can round the scores of
    exact duplicate descriptors apart by an ulp, by column position or block
    shape, so a duplicate need not resolve to its lowest copy."""
    fwd, finite = _blocked_argmax(a, b, allowed)
    hit, back = np.unique(fwd, return_inverse=True)
    bwd, _ = _blocked_argmax(b[hit], a, None if allowed is None else allowed[:, hit].T)
    ia = np.flatnonzero((bwd[back] == np.arange(len(a))) & finite)
    return ia, fwd[ia]


MAX_MEMBERS_PER_MATCH = 8192
_MEMBER_SUBSAMPLE_SEED = 71


def _cap_members(pos: np.ndarray, cap: int = MAX_MEMBERS_PER_MATCH) -> np.ndarray:
    """Bound the points fed into per-pair matching. Very large patches (a
    coarse level can cover most of a tile) would otherwise make the pairing
    quadratic in the tile size; a fixed-seed subsample keeps it bounded
    without changing behaviour for normal-sized patches."""
    if len(pos) <= cap:
        return pos
    rng = np.random.default_rng(_MEMBER_SUBSAMPLE_SEED)
    return pos[np.sort(rng.choice(len(pos), size=cap, replace=False))]


def _centroids_and_radii(labels, points):
    """Per patch id: member centroid and max member distance from it."""
    keep = np.flatnonzero(labels >= 0)
    lab = labels[keep]
    n = lab.max(initial=-1) + 1
    centroids = bincount_rows(lab, points[keep], n) / np.bincount(lab, minlength=n)[:, None]
    radii = np.zeros(n)
    np.maximum.at(radii, lab, np.linalg.norm(points[keep] - centroids[lab], axis=1))
    return centroids, radii


def match_patches_3d(level, src_patch_feats, tgt_patch_feats,
                     src_point_feats, tgt_point_feats,
                     src_labels, tgt_labels,
                     src_points, tgt_points,
                     max_displacement: float) -> MatchSet:
    """Mutual-NN matching of patch descriptors, with point-level support.

    `src_patch_feats`/`tgt_patch_feats` are (patch ids, unit descriptors) as
    `aggregate_level_features` returns them; `src_labels`/`tgt_labels` map
    each tile point to its patch id at this level (-1: none).

    A target patch is only a candidate if its centroid lies within
    `max_displacement` of the source centroid plus both patch radii (the
    two epochs cut patches independently, so matching patches can have
    offset centroids even without motion). This keeps near-duplicate
    descriptors from pairing patches across the scene.

    Support pairs are mutual nearest neighbours between the two patches'
    featured (downsampled) points, as indices into `src_points`/`tgt_points`;
    a patch pair without any supporting point pair is dropped, since nothing
    downstream could estimate motion from it.
    """
    src_ids, fa = src_patch_feats
    tgt_ids, fb = tgt_patch_feats
    if len(src_ids) == 0 or len(tgt_ids) == 0:
        return MatchSet(level)
    src_labels = np.asarray(src_labels)
    tgt_labels = np.asarray(tgt_labels)
    src_points = as_points(src_points)
    tgt_points = as_points(tgt_points)

    ca, ra = _centroids_and_radii(src_labels, src_points)
    cb, rb = _centroids_and_radii(tgt_labels, tgt_points)
    ca, ra, cb, rb = ca[src_ids], ra[src_ids], cb[tgt_ids], rb[tgt_ids]
    allowed = cdist(ca, cb) <= max_displacement + ra[:, None] + rb[None, :]

    # positions (into each feature set) of the featured points of every patch
    src_members = patch_members(src_labels[src_point_feats.point_indices])
    tgt_members = patch_members(tgt_labels[tgt_point_feats.point_indices])
    matches = []
    for ia, ib in zip(*mutual_nn(fa, fb, allowed=allowed)):
        sid = int(src_ids[ia])
        tid = int(tgt_ids[ib])
        pos_a = _cap_members(src_members[sid])
        pos_b = _cap_members(tgt_members[tid])
        pa, pb = mutual_nn(src_point_feats.descriptors[pos_a],
                           tgt_point_feats.descriptors[pos_b])
        if len(pa) == 0:
            continue
        matches.append(PatchMatch(level, sid, tid, MODALITY_3D,
                                  src_point_feats.point_indices[pos_a[pa]],
                                  tgt_point_feats.point_indices[pos_b[pb]]))
    return MatchSet(level, matches)


def _dedup_keep_best(key, conf):
    """Row selection keeping, per duplicated key, the highest-confidence row
    (first row on equal confidence)."""
    order = np.lexsort((np.arange(len(key)), -conf))
    _, first = np.unique(key[order], return_index=True)
    return np.sort(order[first])


def lift_matches(pixmatch_sets, src_projections, tgt_projections,
                 r_px: float) -> CorrTable:
    """Turn pixel matches into tile point pairs via nearest projected points.

    Each match end snaps to the closest validly-projected tile point within
    `r_px` pixels; matches with a bare end are dropped. Within an image pair,
    duplicated 3D points keep their highest-confidence row. Across image
    pairs, the pair with the most surviving matches is taken first and later
    pairs only contribute points not matched yet.
    """
    per_pair = []
    for pm in pixmatch_sets:
        img_s, img_t = pm.image_pair
        if img_s not in src_projections or img_t not in tgt_projections:
            raise InvalidParams(f"no projections for image pair {pm.image_pair}")
        if len(pm) == 0:
            continue
        sp = src_projections[img_s]
        tp = tgt_projections[img_t]
        sv = np.flatnonzero(sp.valid)
        tv = np.flatnonzero(tp.valid)
        if len(sv) == 0 or len(tv) == 0:
            continue
        m = pm.matches
        ds, js = cKDTree(np.column_stack([sp.u[sv], sp.v[sv]])).query(m[:, 0:2])
        dt, jt = cKDTree(np.column_stack([tp.u[tv], tp.v[tv]])).query(m[:, 2:4])
        ok = (ds <= r_px) & (dt <= r_px)
        if not ok.any():
            continue
        si, ti, conf = sv[js[ok]], tv[jt[ok]], m[ok, 4]
        keep = _dedup_keep_best(si, conf)
        si, ti, conf = si[keep], ti[keep], conf[keep]
        keep = _dedup_keep_best(ti, conf)
        si, ti, conf = si[keep], ti[keep], conf[keep]
        per_pair.append((len(si), pm.image_pair, si, ti, conf))

    # Within one image pair both ends are unique, so a row only competes
    # with the rows of image pairs taken before its own.
    per_pair.sort(key=lambda t: (-t[0], t[1]))
    taken = []
    for _, _, si, ti, conf in per_pair:
        if taken:
            fresh = (~np.isin(si, np.concatenate([t[0] for t in taken]))
                     & ~np.isin(ti, np.concatenate([t[1] for t in taken])))
            si, ti, conf = si[fresh], ti[fresh], conf[fresh]
        taken.append((si, ti, conf))
    if not taken:
        return CorrTable.empty()
    si, ti, conf = (np.concatenate(col) for col in zip(*taken))
    order = np.argsort(si)
    return CorrTable(si[order], ti[order], conf[order])


def filter_by_max_displacement(table: CorrTable, src_points, tgt_points,
                               d_max: float) -> CorrTable:
    """Drop pairs whose implied displacement magnitude exceeds `d_max`."""
    d = np.linalg.norm(tgt_points[table.target_indices]
                       - src_points[table.source_indices], axis=1)
    return table.take(d <= d_max)


def gate_match_set(ms: MatchSet, src_points, tgt_points, d_max: float,
                   min_support: int) -> MatchSet:
    """Apply the plausible-displacement bound to patch-match supports.

    Support pairs implying a displacement above `d_max` are dropped, and a
    match whose support shrinks below `min_support` pairs (floor 3, the
    rigid-fit minimum) is discarded entirely. This is the patch-level
    counterpart of filter_by_max_displacement: feature matching alone
    happily pairs two similar-looking patches from opposite ends of a scene.
    """
    min_support = max(int(min_support), 3)
    out = []
    for m in ms.matches:
        d = np.linalg.norm(tgt_points[m.target_indices]
                           - src_points[m.source_indices], axis=1)
        keep = d <= d_max
        if keep.sum() < min_support:
            continue
        if keep.all():
            out.append(m)
            continue
        out.append(replace(m, source_indices=m.source_indices[keep],
                           target_indices=m.target_indices[keep]))
    return MatchSet(ms.level, out)


def match_patches_2d(level, table: CorrTable, src_labels, tgt_labels) -> MatchSet:
    """Vote lifted point pairs into patch matches.

    Every pair votes (source patch -> target patch); per source patch the
    most-voted target wins, ties resolved by higher summed confidence and
    then lower target patch_id. The winning pairs become the support.
    Target-side injectivity is *not* enforced here — the merge handles it.
    """
    src_labels = np.asarray(src_labels)
    tgt_labels = np.asarray(tgt_labels)
    if len(table) == 0:
        return MatchSet(level)
    sp = src_labels[table.source_indices]
    tp = tgt_labels[table.target_indices]
    ok = (sp >= 0) & (tp >= 0)
    matches = []
    for sid in np.unique(sp[ok]):
        rows = ok & (sp == sid)
        cand = tp[rows]
        counts = np.bincount(cand)
        conf_sum = np.bincount(cand, weights=table.confidence[rows],
                               minlength=len(counts))
        present = np.flatnonzero(counts)
        best = min(present, key=lambda t: (-counts[t], -conf_sum[t], t))
        votes = rows & (tp == best)
        matches.append(PatchMatch(level, int(sid), int(best), MODALITY_2D,
                                  table.source_indices[votes],
                                  table.target_indices[votes]))
    return MatchSet(level, matches)


def _extend_support(base: PatchMatch, extra: PatchMatch) -> PatchMatch:
    """`base` with the pairs of `extra` that do not reuse a point of `base`
    appended to its support."""
    fresh = (~np.isin(extra.source_indices, base.source_indices)
             & ~np.isin(extra.target_indices, base.target_indices))
    return replace(
        base,
        source_indices=np.concatenate([base.source_indices,
                                       extra.source_indices[fresh]]),
        target_indices=np.concatenate([base.target_indices,
                                       extra.target_indices[fresh]]))


def merge_match_sets(m3d: MatchSet, m2d: MatchSet) -> MatchSet:
    """Union of the two channels with geometric priority.

    A source patch present in both keeps its 3D match; the 2D support is
    appended when both channels agree on the target and discarded otherwise.
    Injectivity: when several sources claim one target, the larger support
    wins (tie: lower source patch_id).
    """
    if m3d.level != m2d.level:
        raise InvalidParams(f"cannot merge levels {m3d.level} and {m2d.level}")
    merged = {m.source_patch_id: m for m in m3d.matches}
    if len(merged) != len(m3d.matches):
        raise InvalidParams("3D match set has duplicate source patches")
    for m in sorted(m2d.matches, key=lambda m: m.source_patch_id):
        held = merged.get(m.source_patch_id)
        if held is None:
            merged[m.source_patch_id] = m
        elif held.target_patch_id == m.target_patch_id:
            merged[m.source_patch_id] = _extend_support(held, m)
    by_target: dict = {}
    for sid in sorted(merged):
        m = merged[sid]
        rival = by_target.get(m.target_patch_id)
        if rival is None or len(m) > len(rival):
            by_target[m.target_patch_id] = m
    matches = sorted(by_target.values(), key=lambda m: m.source_patch_id)
    return MatchSet(m3d.level, matches)
