"""Point descriptors for coarse 3D matching: adaptive voxel downsampling, a
33-bin rotation-robust pair-angle histogram descriptor (the builtin one),
lookup of imported descriptors, and patch-level aggregation.

Descriptor design: classic fast point-feature histograms. Per point, the
three Darboux-frame angles of every neighbor pair are binned (11 bins each,
concatenated to 33); neighbor histograms are then distance-weighted into
the center one and the result L2-normalized. Normals are oriented to the
upper hemisphere — the natural convention for ground-based scans — which
makes the signed angles consistent across epochs and keeps the descriptor
sensitive to chirality (a folded variant would match mirror images).

The normals come from the tile's k-NN covariance features, the pass the
partition features are derived from, so a tile epoch computes its
neighbourhood covariance once. Both passes search the epoch's KD-tree
`_SEARCH_BLOCK` points at a time, in the tree's leaf order, so no search
returns more than one block's radius pairs: the histogram pass counts each
pair once, from its lower id, evaluating the frames `_PAIR_BLOCK` pairs at
a time, and the pooling pass weights a block of query rows by 1/d as one
sparse product. The sum order is that of a per-query loop over sorted
ball-search neighbours (see `pair_histogram_descriptors`), so the
descriptors keep their bits.

Only the n x 33 histograms and the output rows are held for the whole
epoch. Measured as the rise of a fresh process's peak RSS (`VmHWM`), which
counts the KD-tree's own buffers, over its RSS before the call, on the
source epoch of the seed-0 synth scene: 18 MiB at 20k points and 56 MiB at
100k, against 26 and 140 MiB when one `query_pairs` call held every radius
pair of the epoch.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree

from .errors import ImportKeyMismatch, InvalidParams
from .geometry import (LocalGeomFeatures, as_points, bincount_rows,
                       grid_cells, mean_scan_resolution)
from .io import PointFeatureSet

RADIUS_FACTOR = 5.0     # descriptor radius = factor x mean scan resolution
N_ANGLE_BINS = 11
DESCRIPTOR_DIM = 3 * N_ANGLE_BINS
_SEARCH_BLOCK = 2 ** 10  # points whose radius pairs one search returns
_PAIR_BLOCK = 2 ** 14   # radius pairs whose angles are held at once


def adaptive_downsample(points, voxel_factor: float,
                        resolution: float | None = None) -> np.ndarray:
    """Voxel-grid downsample scaled to the cloud's own density.

    The voxel edge is `voxel_factor` x the mean scan resolution (measured
    on `points` unless given), so sparse clouds keep proportionally as many
    points as dense ones. Voxels are the `geometry.grid_cells` from the
    cloud's minimum, as in `spatial_coverage` and `baseline_piecewise_icp`.
    Returns the ascending indices of one representative per voxel: the
    point closest to the voxel centroid (ties toward the lower index).
    """
    pts = as_points(points)
    n = len(pts)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    if voxel_factor <= 0:
        raise InvalidParams(f"voxel_factor must be > 0, got {voxel_factor}")
    if resolution is None:
        resolution = mean_scan_resolution(pts)
    edge = voxel_factor * resolution
    if edge <= 0:
        return np.arange(n, dtype=np.int64)
    cell, k = grid_cells(pts, edge, pts.min(axis=0))
    # Per-voxel centroid, then the member nearest to it: sorted by voxel and
    # distance, stably, so a tie goes to the lower index.
    centroids = bincount_rows(cell, pts, k) / np.bincount(cell, minlength=k)[:, None]
    d2 = np.sum((pts - centroids[cell]) ** 2, axis=1)
    pick = np.lexsort((d2, cell))
    reps = pick[np.searchsorted(cell[pick], np.arange(k))]
    return np.sort(reps)


def _pair_angles(p_src, n_src, p_tgt, n_tgt):
    """Darboux-frame angles for point pairs, mapped to [0, 1].

    The frame origin is the end whose normal is closer to the connecting
    line (the usual source-selection rule). Normals are assumed oriented to
    the upper hemisphere by the caller, which makes the signed angles
    well-defined; keeping the signs (rather than folding to magnitudes)
    matters because folded histograms cannot tell a surface from its mirror
    image, and mirror-paired matches are isometric — invisible to every
    downstream consistency check.
    """
    d = p_tgt - p_src
    dist = np.linalg.norm(d, axis=1)
    ok = dist > 1e-12
    d_hat = np.divide(d, dist[:, None], out=np.zeros_like(d), where=ok[:, None])

    cos1 = np.einsum("ij,ij->i", n_src, d_hat)
    cos2 = np.einsum("ij,ij->i", n_tgt, d_hat)
    swap = np.abs(cos1) < np.abs(cos2)
    u = np.where(swap[:, None], n_tgt, n_src)
    n_other = np.where(swap[:, None], n_src, n_tgt)
    # the connecting line runs from the chosen source end
    d_signed = np.where(swap[:, None], -d_hat, d_hat)
    phi = np.einsum("ij,ij->i", u, d_signed)

    v = np.cross(d_signed, u)
    v_norm = np.linalg.norm(v, axis=1)
    ok &= v_norm > 1e-12
    np.divide(v, v_norm[:, None], out=v, where=ok[:, None])
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, n_other)
    theta = np.arctan2(np.einsum("ij,ij->i", w, n_other),
                       np.einsum("ij,ij->i", u, n_other))
    return ((alpha + 1.0) / 2.0, (phi + 1.0) / 2.0,
            (theta + np.pi) / (2.0 * np.pi), ok)


def _bin_triplets(alpha, phi, theta):
    """Map three [0, 1] magnitudes onto 3 x 11 histogram bin ids."""
    def bins(x):
        return np.clip((x * N_ANGLE_BINS).astype(np.int64), 0, N_ANGLE_BINS - 1)
    return bins(alpha), bins(phi), bins(theta)


def _radius_pairs(tree, pts, ids, radius: float):
    """Yield, per block of `_SEARCH_BLOCK` of the point ids `ids`, the block
    and its radius pairs as (row in the block, neighbor id), in no order.
    A point pairs with itself and with every tree point within `radius`,
    by the `<=` test of a ball query."""
    for lo in range(0, len(ids), _SEARCH_BLOCK):
        block = ids[lo:lo + _SEARCH_BLOCK]
        found = cKDTree(pts[block]).sparse_distance_matrix(
            tree, radius, output_type="ndarray")
        yield block, found["i"], found["j"]


def pair_histogram_descriptors(points, geo: LocalGeomFeatures, radius: float,
                               query_indices) -> np.ndarray:
    """33-bin descriptors for the query points, rows in `query_indices` order.

    Two passes in the classic style: per-point simplified histograms over the
    whole cloud first, then distance-weighted pooling of neighbor histograms
    into each query. Using every cloud point as context — not only the
    queries — keeps the histograms well-populated even when queries are a
    sparse downsample. The normals are those of `geo`, the cloud's k-NN
    covariance features (invalid rows read as +Z). Rows are L2-normalized;
    isolated points get a uniform histogram so the norm invariant still
    holds.

    Pooling is a sparse product per block of query rows. Row q of a CSR
    matrix holds the weights 1/d of q's neighbors: the points other than q
    within `radius`, by the same `<=` test a ball query uses, at sorted
    column ids. scipy's CSR x dense product adds each weighted neighbor row
    in turn, in column order, just as summing the rows of a sorted ball
    query does, so the result has the bits of that per-query loop.
    Repeated query ids share one row.
    """
    pts = as_points(points)
    n = len(pts)
    query = np.asarray(query_indices, dtype=np.int64)
    normals = geo.normals.copy()
    normals[~geo.valid] = np.array([0.0, 0.0, 1.0])
    # Consistent upward orientation: ground-based scans see upper surfaces,
    # so +Z disambiguates the eigenvector sign the same way in both epochs.
    normals[normals[:, 2] < 0.0] *= -1.0

    # Both passes search the tree a block of points at a time, in its leaf
    # order, so that each search stays local and only one block's pairs are
    # held. Histogram counts are whole numbers, exact in float64 in any
    # order, so adding them a block at a time gives the bits of one
    # bincount. `add.at` costs what a block holds; a bincount per block
    # would sweep all n x 33 cells each time.
    tree = cKDTree(pts)
    spfh = np.zeros(n * DESCRIPTOR_DIM)
    for block, row, nbr in _radius_pairs(tree, pts, tree.indices, radius):
        q = block[row]
        lower = nbr > q                     # each pair once, lower id first
        i, j = q[lower], nbr[lower]
        for lo in range(0, len(i), _PAIR_BLOCK):
            bi, bj = i[lo:lo + _PAIR_BLOCK], j[lo:lo + _PAIR_BLOCK]
            # evaluate the asymmetric frame once, accumulate into both ends
            alpha, phi, theta, ok = _pair_angles(pts[bi], normals[bi],
                                                 pts[bj], normals[bj])
            cells = [ends[ok] * DESCRIPTOR_DIM + k * N_ANGLE_BINS + b[ok]
                     for ends in (bi, bj)
                     for k, b in enumerate(_bin_triplets(alpha, phi, theta))]
            np.add.at(spfh, np.concatenate(cells), 1.0)
    spfh = spfh.reshape(n, DESCRIPTOR_DIM)

    # Distance-weighted pooling of neighbor histograms into the queries, one
    # row per distinct query, a block of query rows at a time. The weight's
    # distance is the norm of a difference, whose bits do not depend on
    # which end it is taken from. Each row is normalized on its own, so a
    # block's rows are final once pooled.
    uq, row_of = np.unique(query, return_inverse=True)
    is_query = np.zeros(n, dtype=bool)
    is_query[uq] = True
    desc = np.empty((len(uq), DESCRIPTOR_DIM))
    leaf_queries = tree.indices[is_query[tree.indices]]
    for block, row, nbr in _radius_pairs(tree, pts, leaf_queries, radius):
        keep = np.flatnonzero(nbr != block[row])
        keep = keep[np.argsort(row[keep] * n + nbr[keep])]  # by row, then neighbor id
        row, nbr = row[keep], nbr[keep]
        wgt = 1.0 / np.maximum(np.linalg.norm(pts[nbr] - pts[block[row]], axis=1),
                               1e-9)
        counts = np.bincount(row, minlength=len(block))
        pool = csr_matrix((wgt, nbr, np.r_[0, np.cumsum(counts)]),
                          shape=(len(block), n))
        part = pool @ spfh
        has = counts > 0
        part[has] /= counts[has, None]
        part += spfh[block]
        flat = np.linalg.norm(part, axis=1) <= 1e-12
        part[flat] = 1.0 / np.sqrt(DESCRIPTOR_DIM)
        part /= np.linalg.norm(part, axis=1)[:, None]
        desc[np.searchsorted(uq, block)] = part
    return desc[row_of]


def extract_point_features(points, geo: LocalGeomFeatures, sample_indices,
                           resolution: float) -> PointFeatureSet:
    """Builtin descriptors for the downsampled points of a tile: pair-angle
    histograms over radius `RADIUS_FACTOR` x the mean scan resolution, with
    the full tile as neighborhood context and the normals of `geo`, the
    tile's k-NN covariance features."""
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    desc = pair_histogram_descriptors(points, geo, RADIUS_FACTOR * resolution,
                                      query_indices=sample_indices)
    return PointFeatureSet(sample_indices, desc)


def lookup_descriptors(imported: PointFeatureSet, point_ids) -> np.ndarray:
    """Rows of an imported feature set for the given point ids, in order.

    Raises:
        ImportKeyMismatch: some id has no imported descriptor.
    """
    keys = imported.point_indices
    ids = np.asarray(point_ids, dtype=np.int64).reshape(-1)
    missing = ids[~np.isin(ids, keys)]
    if len(missing):
        raise ImportKeyMismatch(
            f"imported features miss {len(missing)} sampled indices "
            f"(first missing: {missing[0]})")
    order = np.argsort(keys, kind="stable")
    return imported.descriptors[order[np.searchsorted(keys, ids, sorter=order)]]


# ---------------------------------------------------------------------------
# Patch-level aggregation


def aggregate_level_features(labels, feats: PointFeatureSet):
    """Descriptor of every patch of one level that holds featured points.

    `labels` maps tile points to patch ids (-1: no patch). A patch's
    descriptor is the mean of its members' descriptors, re-normalized.
    Returns (patch ids, unit descriptors), ascending by id; patches with no
    featured member, or whose member descriptors cancel to zero, get none
    (they cannot be matched in 3D).
    """
    lab = np.asarray(labels)[feats.point_indices]
    rows = np.flatnonzero(lab >= 0)
    n = lab.max(initial=-1) + 1
    counts = np.bincount(lab[rows], minlength=n)
    ids = np.flatnonzero(counts)
    means = bincount_rows(lab[rows], feats.descriptors[rows], n)[ids] / counts[ids, None]
    # the 1-D norm per row: norm(axis=1) rounds differently
    norms = np.array([np.linalg.norm(v) for v in means])
    ok = norms > 1e-12
    return ids[ok], means[ok] / norms[ok, None]
