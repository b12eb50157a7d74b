"""Tests for the geometry core: Kabsch, ICP, covariance features and scan
resolution. Derived expectations are checked against
independent brute-force oracles, never against the implementation itself;
the blocked k-NN covariance against the one-shot form it replaced."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

import dvfusion.geometry
from dvfusion.errors import DegenerateInput
from dvfusion.geometry import (
    LocalGeomFeatures,
    IcpResult,
    RigidTransform,
    alignment_rmse,
    icp_point_to_point,
    _orient_normals,
    kabsch,
    local_covariance_features,
    mean_scan_resolution,
)


def rot_z(deg: float) -> np.ndarray:
    a = np.deg2rad(deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_rigid(rng) -> RigidTransform:
    rot = Rotation.random(random_state=np.random.RandomState(rng.integers(2**31))).as_matrix()
    return RigidTransform(rot, rng.uniform(-50, 50, 3))


# ---------------------------------------------------------------------------
# RigidTransform


def test_rigid_transform_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))


def test_rigid_transform_rejects_reflection():
    m = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError):
        RigidTransform(m, np.zeros(3))


def test_apply_transform_identity_and_axis_cases():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 2.0, -1.0]])
    assert np.array_equal(RigidTransform.identity().apply(pts), pts)
    shifted = RigidTransform(np.eye(3), [1.0, 0.0, 0.0]).apply([[0.0, 0.0, 0.0]])
    assert np.allclose(shifted, [[1.0, 0.0, 0.0]])
    flipped = RigidTransform(rot_z(180.0), np.zeros(3)).apply([[1.0, 0.0, 0.0]])
    assert np.allclose(flipped, [[-1.0, 0.0, 0.0]], atol=1e-12)


# ---------------------------------------------------------------------------
# Kabsch


def test_kabsch_identity_on_equal_clouds():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    t = kabsch(src, src)
    assert np.allclose(t.rotation, np.eye(3), atol=1e-12)
    assert np.allclose(t.translation, 0.0, atol=1e-12)


def test_kabsch_exact_rotation_translation():
    """Four non-collinear points under Rz(90) + (1,2,3) force the unique
    minimizer; recovery must be exact to float precision."""
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rot = rot_z(90.0)
    trans = np.array([1.0, 2.0, 3.0])
    tgt = src @ rot.T + trans
    t = kabsch(src, tgt)
    assert np.allclose(t.rotation, rot, atol=1e-12)
    assert np.allclose(t.translation, trans, atol=1e-12)
    assert alignment_rmse(t, src, tgt) < 1e-12


def test_kabsch_noisy_residual_bounded_and_optimal():
    """With sigma=0.01 noise the LS residual must stay below 3*sigma and beat
    the ground-truth transform's own objective value (optimality check)."""
    rng = np.random.default_rng(11)
    src = rng.uniform(-5, 5, (50, 3))
    truth = random_rigid(rng)
    sigma = 0.01
    tgt = truth.apply(src) + rng.normal(0.0, sigma, (50, 3))
    t = kabsch(src, tgt)
    rmse_fit = alignment_rmse(t, src, tgt)
    rmse_truth = alignment_rmse(truth, src, tgt)
    assert rmse_fit <= 3.0 * sigma
    assert rmse_fit <= rmse_truth + 1e-12


def test_kabsch_too_few_points():
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DegenerateInput):
        kabsch(src, src)


def test_kabsch_rejects_unpaired_arrays():
    src = np.arange(12, dtype=np.float64).reshape(4, 3)
    with pytest.raises(ValueError, match="paired"):
        kabsch(src, src[:3])


def test_kabsch_collinear_source():
    src = np.array([[float(i), 0.0, 0.0] for i in range(5)])
    with pytest.raises(DegenerateInput):
        kabsch(src, src + 1.0)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_kabsch_exact_on_noiseless_rigid_data(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 40))
    src = rng.uniform(-10, 10, (n, 3))
    # guard against the rare nearly-collinear draw
    if np.linalg.svd(src - src.mean(0), compute_uv=False)[1] < 1e-3:
        return
    truth = random_rigid(rng)
    tgt = truth.apply(src)
    t = kabsch(src, tgt)
    scale = float(np.abs(tgt).max()) + 1.0
    assert alignment_rmse(t, src, tgt) < 1e-9 * scale


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_kabsch_rotation_always_proper(seed):
    """det(R)=+1 and orthonormality must survive noisy and reflective
    target configurations."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(-5, 5, (12, 3))
    tgt = src @ np.diag([1.0, 1.0, -1.0]) + rng.normal(0, 0.5, (12, 3))
    t = kabsch(src, tgt)
    assert np.abs(t.rotation.T @ t.rotation - np.eye(3)).max() < 1e-9
    assert abs(np.linalg.det(t.rotation) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# ICP


def jittered_grid(rng, shape=(6, 6, 6), spacing=1.5, jitter=0.1):
    axes = [np.arange(s) * spacing for s in shape]
    g = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return g + rng.uniform(-jitter, jitter, g.shape)


def test_icp_identity_when_clouds_equal():
    rng = np.random.default_rng(21)
    pts = jittered_grid(rng)
    res = icp_point_to_point(pts, pts, RigidTransform.identity())
    assert isinstance(res, IcpResult)
    assert res.iterations == 1
    assert res.rmse < 1e-12
    assert np.allclose(res.transform.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(res.transform.translation, 0.0, atol=1e-9)


def test_icp_recovers_small_translation():
    """Oracle: Kabsch on the ground-truth correspondences, which is the exact
    translation for noiseless data."""
    rng = np.random.default_rng(22)
    src = jittered_grid(rng)
    shift = np.array([0.05, -0.05, 0.02])
    tgt = src + shift
    res = icp_point_to_point(src, tgt, RigidTransform.identity(), conv_tol=1e-9)
    oracle = kabsch(src, tgt)
    assert np.allclose(res.transform.translation, oracle.translation, atol=1e-6)
    assert np.allclose(res.transform.rotation, oracle.rotation, atol=1e-6)
    assert res.rmse < 1e-6


def _one_step_icp_oracle(src, tgt):
    """Brute-force NN association under identity followed by one closed-form
    rigid fit; returns (rotation, translation, rmse over the associations)."""
    d = np.linalg.norm(src[:, None, :] - tgt[None, :, :], axis=2)
    j = d.argmin(axis=1)
    q = tgt[j]
    p_mean, q_mean = src.mean(0), q.mean(0)
    h = (src - p_mean).T @ (q - q_mean)
    u, _, vt = np.linalg.svd(h)
    s = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, s]) @ u.T
    trans = q_mean - rot @ p_mean
    res = src @ rot.T + trans - q
    return rot, trans, float(np.sqrt(np.mean(np.sum(res * res, axis=1))))


def test_icp_one_step_matches_brute_force_on_disjoint_clusters():
    rng = np.random.default_rng(23)
    src = rng.uniform(-2, 2, (40, 3))
    tgt = rng.uniform(-2, 2, (35, 3)) + np.array([100.0, 0.0, 0.0])
    res = icp_point_to_point(src, tgt, RigidTransform.identity(), max_iter=1,
                             max_pair_dist=np.inf)
    rot, trans, rmse = _one_step_icp_oracle(src, tgt)
    assert res.iterations == 1
    assert np.allclose(res.transform.rotation, rot, atol=1e-9)
    assert np.allclose(res.transform.translation, trans, atol=1e-9)
    assert abs(res.rmse - rmse) < 1e-12


def test_icp_step_is_kabsch_on_its_associations():
    """One ICP iteration re-estimates with the same solve as `kabsch`, so on
    pairs it associates one to one it returns kabsch's bits exactly."""
    rng = np.random.default_rng(24)
    src = jittered_grid(rng)
    tgt = RigidTransform(rot_z(0.5), np.array([0.03, -0.02, 0.01])).apply(src)
    res = icp_point_to_point(src, tgt, RigidTransform.identity(), max_iter=1,
                             max_pair_dist=np.inf)
    t = kabsch(src, tgt)
    assert np.array_equal(res.transform.rotation, t.rotation)
    assert np.array_equal(res.transform.translation, t.translation)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**6))
def test_icp_rmse_non_increasing(seed):
    rng = np.random.default_rng(seed)
    src = rng.uniform(-5, 5, (60, 3))
    truth = RigidTransform(rot_z(rng.uniform(-15, 15)), rng.uniform(-0.5, 0.5, 3))
    tgt = truth.apply(src) + rng.normal(0, 0.05, src.shape)
    # ICP is deterministic: a run capped at k iterations ends where a
    # longer run is after its k-th iteration
    hist = [icp_point_to_point(src, tgt, RigidTransform.identity(), max_iter=k,
                               conv_tol=0.0, max_pair_dist=np.inf).rmse
            for k in range(1, 21)]
    assert np.all(np.diff(hist) <= 1e-12)


def test_icp_empty_input_raises():
    with pytest.raises(DegenerateInput):
        icp_point_to_point(np.zeros((0, 3)), np.zeros((4, 3)))


def test_icp_gate_starving_associations_raises():
    src = np.zeros((5, 3)) + np.arange(5)[:, None]
    tgt = src + 1000.0
    with pytest.raises(DegenerateInput):
        icp_point_to_point(src, tgt, max_pair_dist=1.0)


# ---------------------------------------------------------------------------
# Local covariance features


def test_plane_features():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(100)], axis=1)
    f = local_covariance_features(pts, radius=100.0)
    assert f.valid.all()
    assert np.all(np.abs(f.planarity - 1.0) < 1e-6)
    assert np.all(f.curvature < 1e-6)
    assert np.allclose(np.abs(f.normals[:, 2]), 1.0, atol=1e-6)
    assert np.all(f.normals[:, 2] > 0)  # canonical orientation points +z


@pytest.mark.parametrize("kw", [{}, {"k": 8, "radius": 1.0}])
def test_neighbourhood_is_k_or_radius(kw):
    with pytest.raises(ValueError, match="exactly one of k or radius"):
        local_covariance_features(np.zeros((10, 3)), **kw)


def test_line_features():
    pts = np.stack([np.arange(10.0), np.zeros(10), np.zeros(10)], axis=1)
    f = local_covariance_features(pts, radius=100.0)
    assert f.valid.all()
    assert np.all(np.abs(f.linearity - 1.0) < 1e-6)


def test_sphere_shell_curvature_matches_eigen_oracle():
    rng = np.random.default_rng(41)
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = dirs * 2.0 + np.array([3.0, -1.0, 5.0])
    f = local_covariance_features(pts, radius=10.0)  # everything in range
    centered = pts - pts.mean(axis=0)
    lam = np.linalg.eigvalsh(centered.T @ centered / len(pts))[::-1]
    expect = lam[2] / lam.sum()
    assert f.valid.all()
    assert np.all(np.abs(f.curvature - expect) < 1e-9)


def test_features_range_and_unit_normals():
    rng = np.random.default_rng(42)
    pts = rng.uniform(-3, 3, (150, 3))
    f = local_covariance_features(pts, k=12)
    for arr in (f.linearity, f.planarity, f.curvature):
        assert np.all((arr >= 0.0) & (arr <= 1.0))
    norms = np.linalg.norm(f.normals[f.valid], axis=1)
    assert np.all(np.abs(norms - 1.0) < 1e-6)


def test_sparse_neighborhood_flagged_invalid():
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [20.0, 0.0, 0.0],
                    [20.1, 0.0, 0.0]])
    f = local_covariance_features(pts, radius=0.5)
    assert not f.valid[0] and not f.valid[1]
    assert np.all(f.normals[~f.valid] == 0.0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_features_rigid_invariance(seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-4, 4, (80, 3))
    t = RigidTransform(
        Rotation.random(random_state=np.random.RandomState(seed % 2**31)).as_matrix(),
        rng.uniform(-30, 30, 3))
    fa = local_covariance_features(pts, k=10)
    fb = local_covariance_features(t.apply(pts), k=10)
    assert np.array_equal(fa.valid, fb.valid)
    assert np.all(np.abs(fa.linearity - fb.linearity) < 1e-9)
    assert np.all(np.abs(fa.planarity - fb.planarity) < 1e-9)
    assert np.all(np.abs(fa.curvature - fb.curvature) < 1e-9)
    # normal direction transforms with the rotation, up to sign
    rotated = fa.normals[fa.valid] @ t.rotation.T
    dots = np.abs(np.einsum("ij,ij->i", rotated, fb.normals[fb.valid]))
    assert np.all(dots > 1.0 - 1e-6)


# ---------------------------------------------------------------------------
# k-NN covariance: row blocks against the one-shot form


def one_shot_knn_covariance_features(points, k: int) -> LocalGeomFeatures:
    """The k-NN branch of `local_covariance_features` as computed before it
    ran in row blocks: every neighbourhood searched, gathered and centred at
    once."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    kk = min(k, n)
    _, idx = cKDTree(pts).query(pts, k=kk)
    idx = np.atleast_2d(idx)
    if kk == 1:
        idx = idx.reshape(n, 1)
    local = pts[idx] - pts[:, None, :]
    centered = local - local.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / kk

    lam = np.zeros((n, 3))
    normals = np.zeros((n, 3))
    ok = np.full(n, kk >= 3)
    if ok.any():
        w, v = np.linalg.eigh(cov[ok])
        lam[ok] = np.clip(w, 0.0, None)[:, ::-1]
        normals[ok] = v[:, :, 0]
    ok &= lam[:, 0] > 1e-30
    feats = [np.zeros(n) for _ in range(3)]
    l1, l2, l3 = lam[ok].T
    for out, value in zip(feats, ((l1 - l2) / l1, (l2 - l3) / l1,
                                  l3 / (l1 + l2 + l3))):
        out[ok] = value
        np.clip(out, 0.0, 1.0, out=out)
    normals[ok] = _orient_normals(normals[ok])
    normals[~ok] = 0.0
    return LocalGeomFeatures(*feats, normals, ok)


def cloud_with_duplicates(n):
    rng = np.random.default_rng(n)
    pts = np.c_[rng.uniform(0, 10, (n, 2)), rng.normal(0, 0.1, n)]
    # exact copies tie in the k-NN search and share neighbourhoods
    pts[n // 2:n // 2 + n // 5] = pts[:n // 5]
    return pts


@pytest.mark.parametrize("block", [1, 7, dvfusion.geometry._COV_BLOCK])
@pytest.mark.parametrize("n, k", [(1, 16), (2, 16), (5, 16), (16, 16),
                                  (100, 16), (257, 8), (300, 3)])
def test_blocked_knn_covariance_gives_the_one_shot_bits(monkeypatch, block,
                                                        n, k):
    pts = cloud_with_duplicates(n)
    want = one_shot_knn_covariance_features(pts, k)
    monkeypatch.setattr(dvfusion.geometry, "_COV_BLOCK", block)
    got = local_covariance_features(pts, k=k)
    for name in ("linearity", "planarity", "curvature", "normals", "valid"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_knn_covariance_holds_one_block_of_neighbourhoods():
    rng = np.random.default_rng(3)
    pts = np.c_[rng.uniform(0, 60, (12_000, 2)), rng.normal(0, 0.05, 12_000)]
    tracemalloc.start()
    try:
        local_covariance_features(pts, k=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 8.6 MiB in row blocks; 15.4 MiB with every neighbourhood held at once
    assert peak < 12 * 2 ** 20


# ---------------------------------------------------------------------------
# Mean scan resolution


def test_resolution_regular_grid():
    axes = np.arange(5.0)
    g = np.stack(np.meshgrid(axes, axes, axes, indexing="ij"), axis=-1).reshape(-1, 3)
    assert abs(mean_scan_resolution(g) - 1.0) < 1e-12


def test_resolution_two_points():
    assert abs(mean_scan_resolution([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]]) - 3.0) < 1e-12


def test_resolution_matches_exhaustive_oracle():
    rng = np.random.default_rng(51)
    pts = rng.uniform(0, 1, (10_000, 3))
    got = mean_scan_resolution(pts)
    # chunked brute force to keep memory flat
    mins = np.empty(len(pts))
    for lo in range(0, len(pts), 500):
        hi = min(lo + 500, len(pts))
        d = np.linalg.norm(pts[lo:hi, None, :] - pts[None, :, :], axis=2)
        d[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        mins[lo:hi] = d.min(axis=1)
    expect = float(mins.mean())
    assert abs(got - expect) <= 0.02 * expect


def test_resolution_needs_two_points():
    with pytest.raises(DegenerateInput):
        mean_scan_resolution([[0.0, 0.0, 0.0]])
