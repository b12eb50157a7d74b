"""Rigid motion estimation per match, level displacement fields from
per-patch fits, and level integration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from dvfusion.coarse import PatchMatch
from dvfusion.config import PipelineConfig
from dvfusion.dvf import (MODALITY_2D, MODALITY_3D, DisplacementVectorField,
                          merge_fields)
from dvfusion.errors import DegenerateSupport
from dvfusion.fine import estimate_patch_transform, integrate_levels, level_field
from dvfusion.geometry import RigidTransform

CFG = PipelineConfig()


def random_rigid(rng):
    return RigidTransform(
        Rotation.random(random_state=int(rng.integers(2 ** 31))).as_matrix(),
        rng.uniform(-20, 20, 3))


# ---------------------------------------------------------------------------
# Transform estimation


def fit(p, q, gate=np.inf):
    """The fit of a match whose support pairs row i of `p` and `q`, with the
    configured ICP settings; no pair gate by default."""
    idx = np.arange(len(p))
    return estimate_patch_transform(PatchMatch(1, 0, 0, MODALITY_3D, idx, idx),
                                    p, q, gate, CFG.icp_max_iter,
                                    CFG.icp_conv_tol)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_rigid_support_recovers_exact_transform(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(-10, 10, (12, 3))
    truth = random_rigid(rng)
    t = fit(p, truth.apply(p))
    assert np.abs(t.apply(p) - truth.apply(p)).max() < 1e-9


def test_gross_outlier_recovered_by_gated_icp():
    rng = np.random.default_rng(1)
    p = rng.uniform(0, 10, (40, 3))
    truth = RigidTransform(np.eye(3), np.array([0.8, -0.3, 0.2]))
    q = truth.apply(p)
    q[0] += np.array([100.0, 100.0, 100.0])    # one wild pair
    t = fit(p, q, gate=5.0)
    extent = np.ptp(p, axis=0).max()
    err = np.linalg.norm(t.apply(p[1:]) - truth.apply(p[1:]), axis=1)
    assert err.max() < 0.1 * extent


def test_collinear_support_raises():
    p = np.array([[float(i), 0.0, 0.0] for i in range(6)])
    with pytest.raises(DegenerateSupport):
        fit(p, p + 1.0)


def test_two_point_support_raises():
    p = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(DegenerateSupport):
        fit(p, p)


def test_icp_never_worse_than_closed_form():
    # comparison under the metric ICP optimizes: nearest-neighbour residual
    # of the returned transform vs the fixed-pairing residual of the
    # closed-form fit (which upper-bounds the former at the start)
    rng = np.random.default_rng(2)
    from scipy.spatial import cKDTree

    from dvfusion.geometry import alignment_rmse, kabsch
    for _ in range(10):
        p = rng.uniform(-5, 5, (25, 3))
        q = random_rigid(rng).apply(p) + rng.normal(0, 0.3, p.shape)
        t = fit(p, q)
        dist, _ = cKDTree(q).query(t.apply(p), k=1)
        assert (float(np.sqrt((dist ** 2).mean()))
                <= alignment_rmse(kabsch(p, q), p, q) + 1e-12)


# ---------------------------------------------------------------------------
# Level fields from per-patch fits


def one_patch_field(ids, t, pts, modality=MODALITY_3D, level=1, pid=0):
    """Field of a level whose only fitted patch `pid` has members `ids`."""
    patches = [np.zeros(0, dtype=np.int64)] * pid + [np.asarray(ids)]
    return level_field(level, patches, [(pid, t, modality)], pts,
                       np.arange(len(pts)))


def test_identity_transform_zero_vectors():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 5, (30, 3))
    f = one_patch_field(np.arange(10), RigidTransform.identity(), pts)
    assert np.all(f.vectors == 0.0)
    assert f.point_ids.tolist() == list(range(10))


def test_translation_gives_constant_vectors():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 5, (20, 3))
    t = RigidTransform(np.eye(3), np.array([1.0, -2.0, 0.5]))
    f = one_patch_field(np.arange(20), t, pts, MODALITY_2D)
    assert np.allclose(f.vectors, [1.0, -2.0, 0.5], atol=1e-12)
    assert f.modalities.tolist() == [MODALITY_2D] * 20


def test_rotation_about_centroid_closed_form():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, (50, 3))
    ids = np.arange(50)
    c = pts.mean(axis=0)
    theta = np.deg2rad(30.0)
    rot = Rotation.from_rotvec([0, 0, theta]).as_matrix()
    t = RigidTransform(rot, c - rot @ c)       # rotate about the centroid
    f = one_patch_field(ids, t, pts)
    # |v| = 2 sin(theta/2) * distance from the rotation axis through c
    radial = np.linalg.norm((pts - c)[:, :2], axis=1)
    expect = 2.0 * np.sin(theta / 2.0) * radial
    assert np.allclose(np.linalg.norm(f.vectors, axis=1), expect, atol=1e-9)


def test_vectors_recomputable_from_transform():
    rng = np.random.default_rng(6)
    pts = rng.uniform(0, 10, (40, 3))
    t = random_rigid(rng)
    f = one_patch_field(np.arange(15, 35), t, pts, level=2, pid=3)
    pa = pts[f.point_ids]
    assert np.abs(f.vectors - (t.apply(pa) - pa)).max() < 1e-12
    assert np.array_equal(f.positions, pa)
    assert f.levels.tolist() == [2] * 20
    assert f.patch_ids.tolist() == [3] * 20


def test_level_field_keys_vectors_by_the_given_point_ids():
    """A tile's members are looked up in its own points and keyed by its
    ascending ids into the whole cloud."""
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 10, (12, 3))
    point_ids = np.array([3, 4, 8, 15, 16, 23, 42, 50, 51, 60, 77, 99])
    labels = np.array([1, 0, 1, 0, 2, 1, 1, 0, 2, 2, 0, 1])
    patches = [np.flatnonzero(labels == k) for k in range(3)]
    t = random_rigid(rng)
    f = level_field(2, patches, [(1, t, MODALITY_2D),
                                 (0, RigidTransform.identity(), MODALITY_3D)],
                    pts, point_ids)
    local = np.flatnonzero(labels < 2)
    assert np.array_equal(f.point_ids, point_ids[local])
    assert np.array_equal(f.positions, pts[local])
    assert np.array_equal(f.patch_ids, labels[local])
    in1 = labels[local] == 1
    assert np.array_equal(f.vectors[in1], t.apply(pts[local][in1]) - pts[local][in1])
    assert np.all(f.vectors[~in1] == 0.0)


def test_level_field_without_fits_is_empty():
    assert len(level_field(1, [np.arange(5)], [], np.zeros((5, 3)),
                           np.arange(5))) == 0


# ---------------------------------------------------------------------------
# Level integration


def field_of(ids, level, value):
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    return DisplacementVectorField(
        ids, np.zeros((n, 3)), np.full((n, 3), float(value)),
        np.full(n, level), np.zeros(n), np.full(n, MODALITY_3D, dtype="U2"))


def columns(f):
    return (f.point_ids, f.positions, f.vectors, f.levels, f.patch_ids,
            f.modalities)


def test_merge_of_disjoint_fields_is_the_sorted_concatenation():
    rng = np.random.default_rng(10)
    ids = rng.permutation(40)
    fields = [DisplacementVectorField(
        ids[lo:hi], rng.normal(size=(hi - lo, 3)), rng.normal(size=(hi - lo, 3)),
        np.full(hi - lo, lvl), rng.integers(0, 5, hi - lo),
        np.full(hi - lo, mod, dtype="U2"))
        for lo, hi, lvl, mod in ((0, 9, 1, MODALITY_3D), (9, 9, 2, MODALITY_2D),
                                 (9, 25, 2, MODALITY_2D), (25, 40, 3, MODALITY_3D))]
    got = merge_fields(fields)
    cat = DisplacementVectorField(*(np.concatenate(cols)
                                    for cols in zip(*map(columns, fields))))
    want = cat.sorted_by_id()
    for a, b in zip(columns(got), columns(want)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_merge_of_overlapping_fields_keeps_the_first_field():
    out = merge_fields([field_of([5, 2], 3, 3.0), field_of([2, 9], 1, 1.0),
                        field_of([9, 5, 0], 2, 2.0)])
    assert out.point_ids.tolist() == [0, 2, 5, 9]
    assert out.levels.tolist() == [2, 3, 3, 1]
    assert out.vectors[:, 0].tolist() == [2.0, 3.0, 3.0, 1.0]


def test_merge_of_no_estimate_is_empty():
    assert len(merge_fields([])) == 0
    assert len(merge_fields([field_of([], 1, 0.0)])) == 0


def test_point_only_in_level3_survives():
    out = integrate_levels(field_of([], 1, 0), field_of([], 2, 0),
                           field_of([7], 3, 3.0))
    assert out.point_ids.tolist() == [7]
    assert out.levels.tolist() == [3]


def test_point_in_all_levels_takes_level1():
    out = integrate_levels(field_of([4], 1, 1.0), field_of([4], 2, 2.0),
                           field_of([4], 3, 3.0))
    assert len(out) == 1
    assert out.levels.tolist() == [1]
    assert out.vectors[0, 0] == 1.0


def test_disjoint_levels_union():
    out = integrate_levels(field_of([0, 1], 1, 1.0), field_of([5], 2, 2.0),
                           field_of([9, 3], 3, 3.0))
    assert out.point_ids.tolist() == [0, 1, 3, 5, 9]
    assert out.levels.tolist() == [1, 1, 3, 2, 3]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_integration_matches_per_point_rule_oracle(seed):
    rng = np.random.default_rng(seed)
    fields = [field_of(rng.choice(30, size=rng.integers(0, 15), replace=False),
                       level, float(level))
              for level in (1, 2, 3)]
    out = integrate_levels(*fields)

    expect = {}
    for level_field in reversed(fields):           # level 1 wins last
        for pid in level_field.point_ids:
            expect[int(pid)] = int(level_field.levels[0]) if len(level_field) else None
    got = {int(p): int(l) for p, l in zip(out.point_ids, out.levels)}
    assert got == expect
    # coverage never below any single level
    assert len(out) >= max(len(f) for f in fields)


def test_assemble_level_field_roundtrip():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 10, (40, 3))
    t = random_rigid(rng)
    # patch 1 interleaves with patch 0 and patch 2 has no fit
    labels = np.where(np.arange(40) % 4 == 1, 1, 0)
    labels[30:] = 2
    patches = [np.flatnonzero(labels == k) for k in range(3)]
    f = level_field(1, patches, [(1, RigidTransform.identity(), MODALITY_2D),
                                 (0, t, MODALITY_3D)], pts, np.arange(40))
    assert len(f) == 30
    assert np.array_equal(f.point_ids, np.arange(30))
    assert np.array_equal(f.patch_ids, labels[:30])
    # stored vectors recompute from the patch transforms
    in0 = labels[:30] == 0
    p0 = pts[:30][in0]
    assert np.abs(f.vectors[in0] - (t.apply(p0) - p0)).max() < 1e-12
    assert np.all(f.vectors[~in0] == 0.0)
    assert np.array_equal(f.modalities, np.where(in0, MODALITY_3D, MODALITY_2D))
