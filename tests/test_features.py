"""Descriptor pipeline: adaptive downsampling, pair-angle histograms and
their rotation robustness, imported descriptor lookup, patch aggregation."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dvfusion.config import PipelineConfig
from dvfusion.errors import ImportKeyMismatch, InvalidParams
from dvfusion.features import (
    DESCRIPTOR_DIM,
    adaptive_downsample,
    aggregate_level_features,
    extract_point_features,
    lookup_descriptors,
    pair_histogram_descriptors,
)
from dvfusion.geometry import mean_scan_resolution
from dvfusion.io import PointFeatureSet

VOXEL_FACTOR = PipelineConfig().voxel_factor


def bumpy_blob(rng, n=60, scale=1.0):
    """A structured non-symmetric neighborhood (half-ellipsoid with a ridge)."""
    t = rng.uniform(0, 2 * np.pi, n)
    r = np.sqrt(rng.uniform(0, 1, n))
    x = r * np.cos(t) * scale
    y = r * np.sin(t) * 0.6 * scale
    z = (0.5 * (1 - r ** 2) + 0.2 * np.cos(3 * x / scale)) * scale
    return np.stack([x, y, z], axis=1)


# ---------------------------------------------------------------------------
# Downsampling


def test_grid_downsample_density():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(100)], axis=1)
    idx = adaptive_downsample(pts, VOXEL_FACTOR)    # resolution 1 m, voxel 2 m
    assert len(idx) == 25                   # one representative per 2 m cell


def test_single_point_downsample():
    assert adaptive_downsample([[1.0, 2.0, 3.0]], VOXEL_FACTOR).tolist() == [0]


def test_downsample_scale_adaptivity():
    """Scaling the cloud scales the resolution estimate, so the voxel grid
    scales along and the selected representatives are identical."""
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 20, (500, 3))
    a = adaptive_downsample(pts, VOXEL_FACTOR)
    b = adaptive_downsample(pts * 2.0, VOXEL_FACTOR)
    assert np.array_equal(a, b)


def test_downsample_representative_is_nearest_to_centroid():
    pts = np.array([[0.0, 0.0, 0.0], [0.4, 0.0, 0.0], [0.21, 0.0, 0.0]])
    idx = adaptive_downsample(pts, voxel_factor=10.0, resolution=1.0)
    # centroid x ~ 0.2033 -> the 0.21 point is closest
    assert idx.tolist() == [2]


def test_downsample_rejects_bad_factor():
    with pytest.raises(InvalidParams):
        adaptive_downsample(np.zeros((5, 3)), voxel_factor=0.0)


# ---------------------------------------------------------------------------
# Descriptors


def test_descriptors_unit_norm_and_shape():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 4, (80, 3))
    desc = pair_histogram_descriptors(pts, radius=1.5, query_indices=np.arange(80))
    assert desc.shape == (80, DESCRIPTOR_DIM)
    assert np.allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-9)


def test_duplicate_neighborhoods_nearly_identical_descriptors():
    rng = np.random.default_rng(6)
    blob = bumpy_blob(rng)
    far = blob + np.array([100.0, 0.0, 0.0])
    pts = np.vstack([blob, far])
    desc = pair_histogram_descriptors(pts, radius=1.2,
                                      query_indices=np.arange(len(pts)))
    sims = np.einsum("ij,ij->i", desc[:60], desc[60:])
    assert np.all(sims > 0.99)


def test_rotated_copy_descriptor_stability():
    # Descriptors use signed pair angles with normals oriented upward, so
    # they are stable under the moderate rotations rigid bodies actually
    # undergo between epochs, but deliberately not under rotations large
    # enough to swing normals across the horizon (those change which side
    # of a surface faces up and must read differently).
    rng = np.random.default_rng(7)
    blob = bumpy_blob(rng)
    rot = Rotation.from_euler("xyz", [8, -5, 110], degrees=True).as_matrix()
    moved = blob @ rot.T + np.array([5.0, -3.0, 2.0])
    every = np.arange(len(blob))
    d_a = pair_histogram_descriptors(blob, radius=1.2, query_indices=every)
    d_b = pair_histogram_descriptors(moved, radius=1.2, query_indices=every)
    cos_dist = 1.0 - np.einsum("ij,ij->i", d_a, d_b)
    assert np.median(cos_dist) < 0.02
    assert np.quantile(cos_dist, 0.95) < 0.05


def test_extract_builtin_provider():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 10, (400, 3))
    sample = adaptive_downsample(pts, VOXEL_FACTOR)
    feats = extract_point_features(pts, sample, mean_scan_resolution(pts))
    assert np.array_equal(feats.point_indices, sample) and len(sample) <= 400
    assert feats.descriptors.shape[1] == DESCRIPTOR_DIM


def test_extract_import_provider():
    rng = np.random.default_rng(9)
    sample = np.array([3, 17, 31])
    desc = rng.normal(size=(50, 8))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    table = PointFeatureSet(np.arange(50), desc)
    assert np.array_equal(lookup_descriptors(table, sample), desc[sample])


def test_import_key_mismatch():
    table = PointFeatureSet([0, 1, 2], np.eye(3))
    with pytest.raises(ImportKeyMismatch):
        lookup_descriptors(table, [0, 5])


# ---------------------------------------------------------------------------
# Aggregation


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def labels_of(*patches, n=None):
    """Label array in which patch k holds the point indices `patches[k]`."""
    n = n or max(max(p) for p in patches if len(p)) + 1
    labels = np.full(n, -1)
    for k, members in enumerate(patches):
        labels[list(members)] = k
    return labels


def test_single_point_patch_keeps_descriptor():
    d = unit([1.0, 2.0, 2.0])
    feats = PointFeatureSet([5], d.reshape(1, -1))
    ids, desc = aggregate_level_features(labels_of([5]), feats)
    assert ids.tolist() == [0]
    assert np.allclose(desc[0], d, atol=1e-12)


def test_identical_descriptors_aggregate_to_same():
    d = unit([0.0, 3.0, 4.0])
    feats = PointFeatureSet([1, 2], np.vstack([d, d]))
    ids, desc = aggregate_level_features(labels_of([1, 2]), feats)
    assert np.allclose(desc[0], d, atol=1e-12)


def test_aggregate_matches_direct_mean_oracle():
    rng = np.random.default_rng(11)
    d = rng.normal(size=(9, 7))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    feats = PointFeatureSet(np.arange(9), d)
    members = ([0, 3, 4, 8], [1, 2, 5], [6, 7])
    ids, desc = aggregate_level_features(labels_of(*members), feats)
    assert ids.tolist() == [0, 1, 2]
    for k, m in enumerate(members):
        expect = d[m].mean(axis=0)
        expect /= np.linalg.norm(expect)
        assert np.abs(desc[k] - expect).max() < 1e-9


def test_empty_patch_gets_no_feature():
    feats = PointFeatureSet([0, 1], np.eye(2))
    ids, desc = aggregate_level_features(labels_of([7, 8]), feats)
    assert len(ids) == 0
    assert desc.shape == (0, 2)


def test_aggregate_level_skips_uncovered_patches():
    d = np.eye(3)
    feats = PointFeatureSet([0, 1, 2], d)
    ids, desc = aggregate_level_features(labels_of([9], [0, 1], [2]), feats)
    assert ids.tolist() == [1, 2]
    assert len(desc) == 2


def test_patch_feature_validates_norm():
    # members of patch 0 cancel to a zero mean: it gets no descriptor, and
    # every descriptor returned is unit norm
    d = np.array([[1.0, 0.0], [-1.0, 0.0], [0.6, 0.8]])
    feats = PointFeatureSet([0, 1, 2], d)
    ids, desc = aggregate_level_features(labels_of([0, 1], [2]), feats)
    assert ids.tolist() == [1]
    assert np.allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-12)
