"""Pure numerical geometry: rigid transforms, Kabsch estimation, point-to-point
ICP, local covariance features and per-label row sums.

Points are plain float64 ndarrays: a single point has shape (3,), a cloud
(N, 3). All operations are deterministic and reentrant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateInput

_ORTHO_TOL = 1e-9
_RESOLUTION_SAMPLE_CAP = 50_000
_RESOLUTION_SEED = 7
NORMAL_NEIGHBOURS = 16     # k of the k-NN normals of partition features and descriptors


def bincount_cols(index, cols, n):
    """Per-index sums of each row of `cols` (D, N), as a (D, n) array.

    Each row is one `np.bincount`, added in index order like `np.add.at`, so
    a label's sum has the bits of `cols[:, index == label].sum(axis=1)`.
    Rows of a C-contiguous `cols` are read without a copy.
    """
    out = np.empty((len(cols), n))
    for row, c in zip(out, cols):
        row[:] = np.bincount(index, weights=c, minlength=n)
    return out


def bincount_rows(index, values, n):
    """Row sums of `values` (N, D) per index, as a C-contiguous (n, D) array:
    `bincount_cols` over the columns of `values`."""
    return np.ascontiguousarray(bincount_cols(index, values.T, n).T)


def as_points(a) -> np.ndarray:
    """Coerce to a contiguous (N, 3) float64 array."""
    pts = np.ascontiguousarray(a, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (N, 3) point array, got shape {pts.shape}")
    return pts


@dataclass
class RigidTransform:
    """Proper rigid motion p -> rotation @ p + translation.

    The rotation must be orthonormal with det = +1 (checked on construction).
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > _ORTHO_TOL:
            raise ValueError(f"rotation not orthonormal (max |R'R - I| = {err:.3e})")
        det = np.linalg.det(self.rotation)
        if abs(det - 1.0) > _ORTHO_TOL:
            raise ValueError(f"rotation is not proper (det = {det:.12f})")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, pts) -> np.ndarray:
        pts = as_points(pts)
        return pts @ self.rotation.T + self.translation

    def as_matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m


def kabsch(source, target) -> RigidTransform:
    """Least-squares rigid transform minimising sum ||R p_i + T - q_i||^2
    over the paired rows p_i of `source` and q_i of `target`.

    Uses the SVD of the cross-covariance; a reflection solution is corrected by
    flipping the sign of the smallest singular direction, so the returned
    rotation is always proper.

    Raises:
        ValueError: `source` and `target` hold different numbers of points.
        DegenerateInput: fewer than 3 pairs, or source points all (nearly)
            collinear (centred source covariance has rank < 2).
    """
    p, q = as_points(source), as_points(target)
    if len(p) != len(q):
        raise ValueError(f"kabsch needs paired arrays, got {len(p)} and {len(q)} points")
    if len(p) < 3:
        raise DegenerateInput(f"kabsch needs >= 3 correspondences, got {len(p)}")
    p_mean = p.mean(axis=0)
    q_mean = q.mean(axis=0)
    pc = p - p_mean
    qc = q - q_mean
    sv = np.linalg.svd(pc, compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1e-30):
        raise DegenerateInput("source points are collinear (rank < 2)")
    return _kabsch_solve(pc, qc, p_mean, q_mean)


def _kabsch_solve(pc, qc, p_mean, q_mean) -> RigidTransform:
    """Rigid motion from centred pairs `pc`, `qc` and their means: SVD of the
    cross-covariance, reflection corrected on the smallest direction."""
    h = pc.T @ qc
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(rot, q_mean - rot @ p_mean)


def alignment_rmse(t: RigidTransform, source, target) -> float:
    """RMS of ||t(p_i) - q_i|| over paired arrays."""
    res = t.apply(source) - as_points(target)
    return float(np.sqrt(np.mean(np.sum(res * res, axis=1))))


@dataclass
class IcpResult:
    transform: RigidTransform
    rmse: float
    iterations: int


def icp_point_to_point(source, target, init: RigidTransform | None = None,
                       max_iter: int = 30, conv_tol: float = 1e-6,
                       max_pair_dist: float | None = None) -> IcpResult:
    """Point-to-point ICP: alternate 1-NN association and Kabsch re-estimation.

    Association is one-directional source -> target. Pairs farther than
    `max_pair_dist` are dropped; the default gate is 5x the target's mean scan
    resolution (pass ``np.inf`` to disable). The transform is re-estimated from
    the original source positions each iteration, so the result stays a single
    rigid motion. Convergence: change in association RMSE below `conv_tol`.

    Raises:
        DegenerateInput: either cloud empty, or an iteration retains < 3 pairs.
    """
    src = as_points(source)
    tgt = as_points(target)
    if len(src) == 0 or len(tgt) == 0:
        raise DegenerateInput("ICP requires non-empty source and target")
    if max_pair_dist is None:
        max_pair_dist = 5.0 * mean_scan_resolution(tgt) if len(tgt) >= 2 else np.inf
    t = RigidTransform.identity() if init is None else init
    tree = cKDTree(tgt)
    rmse = np.inf
    iterations = 0
    for _ in range(max_iter):
        moved = t.apply(src)
        dist, idx = tree.query(moved, k=1)
        keep = dist <= max_pair_dist
        if int(keep.sum()) < 3:
            raise DegenerateInput(
                f"ICP association kept {int(keep.sum())} pairs (< 3) under gate {max_pair_dist:.3g}")
        pairs_src = src[keep]
        pairs_tgt = tgt[idx[keep]]
        rmse_before = float(np.sqrt(np.mean(dist[keep] ** 2)))
        # Indices are unique on the source side only; Kabsch does not need them.
        p_mean = pairs_src.mean(axis=0)
        q_mean = pairs_tgt.mean(axis=0)
        t = _kabsch_solve(pairs_src - p_mean, pairs_tgt - q_mean, p_mean, q_mean)
        rmse = alignment_rmse(t, pairs_src, pairs_tgt)
        iterations += 1
        if rmse_before - rmse < conv_tol:
            break
    return IcpResult(t, rmse, iterations)


@dataclass
class LocalGeomFeatures:
    """Per-point eigenvalue features of the neighbourhood covariance.

    linearity = (l1 - l2) / l1, planarity = (l2 - l3) / l1,
    curvature = l3 / (l1 + l2 + l3), for eigenvalues l1 >= l2 >= l3 >= 0.
    `normals` holds the unit eigenvector of l3; rows with `valid` False carry
    zeros.
    """

    linearity: np.ndarray
    planarity: np.ndarray
    curvature: np.ndarray
    normals: np.ndarray
    valid: np.ndarray


def _orient_normals(normals: np.ndarray) -> np.ndarray:
    # Canonical sign (largest-magnitude component positive), so the
    # orientation is deterministic.
    comp = normals[np.arange(len(normals)), np.abs(normals).argmax(axis=1)]
    flip = comp < 0
    normals[flip] = -normals[flip]
    return normals


def local_covariance_features(points, k: int | None = None,
                              radius: float | None = None) -> LocalGeomFeatures:
    """Eigenvalue features and normals from k-NN or radius neighbourhoods.

    Exactly one of `k` / `radius` must be given; k is capped at the cloud
    size. Points whose neighbourhood holds fewer than 3 points (or is
    rank-0) are flagged invalid instead of raising.
    """
    pts = as_points(points)
    n = len(pts)
    if (k is None) == (radius is None):
        raise ValueError("pass exactly one of k or radius")
    tree = cKDTree(pts)

    lam = np.zeros((n, 3))
    counts = np.zeros(n, dtype=np.int64)
    normals = np.zeros((n, 3))
    if k is not None:
        kk = min(k, n)
        _, idx = tree.query(pts, k=kk)
        idx = np.atleast_2d(idx)
        if kk == 1:
            idx = idx.reshape(n, 1)
        local = pts[idx] - pts[:, None, :]  # (n, kk, 3), shifted to the query
        centered = local - local.mean(axis=1, keepdims=True)
        cov = np.einsum("nki,nkj->nij", centered, centered) / kk
        counts[:] = kk
    else:
        groups = tree.query_ball_point(pts, float(radius))
        cov = np.zeros((n, 3, 3))
        for i, grp in enumerate(groups):
            counts[i] = len(grp)
            if len(grp) < 3:
                continue
            local = pts[grp] - pts[i]       # shift to the query point for stability
            mu = local.mean(axis=0)
            cc = local - mu
            cov[i] = cc.T @ cc / len(grp)

    ok = counts >= 3
    if ok.any():
        w, v = np.linalg.eigh(cov[ok])      # ascending eigenvalues
        w = np.clip(w, 0.0, None)
        lam_ok = w[:, ::-1]                 # descending: l1, l2, l3
        lam[ok] = lam_ok
        normals[ok] = v[:, :, 0]
    ok &= lam[:, 0] > 1e-30

    linearity = np.zeros(n)
    planarity = np.zeros(n)
    curvature = np.zeros(n)
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    with np.errstate(invalid="ignore", divide="ignore"):
        linearity[ok] = (l1[ok] - l2[ok]) / l1[ok]
        planarity[ok] = (l2[ok] - l3[ok]) / l1[ok]
        curvature[ok] = l3[ok] / (l1[ok] + l2[ok] + l3[ok])
    np.clip(linearity, 0.0, 1.0, out=linearity)
    np.clip(planarity, 0.0, 1.0, out=planarity)
    np.clip(curvature, 0.0, 1.0, out=curvature)

    normals[ok] = _orient_normals(normals[ok])
    normals[~ok] = 0.0
    return LocalGeomFeatures(linearity, planarity, curvature, normals, ok)


def mean_scan_resolution(points) -> float:
    """Mean distance to the first nearest neighbour over a fixed-seed sample
    of at most 50k points (the whole cloud when smaller)."""
    pts = as_points(points)
    n = len(pts)
    if n < 2:
        raise DegenerateInput("mean scan resolution needs >= 2 points")
    if n > _RESOLUTION_SAMPLE_CAP:
        rng = np.random.default_rng(_RESOLUTION_SEED)
        sample = pts[rng.choice(n, _RESOLUTION_SAMPLE_CAP, replace=False)]
    else:
        sample = pts
    tree = cKDTree(pts)
    d, _ = tree.query(sample, k=2)
    return float(np.mean(d[:, 1]))
