"""Descriptor pipeline: adaptive downsampling, pair-angle histograms and
their rotation robustness, sparse-product pooling against the per-query
loop it replaced, the blocked pair pass against the one-shot pass it
replaced, imported descriptor lookup, patch aggregation."""

import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.spatial import cKDTree
from scipy.spatial.transform import Rotation

import dvfusion.features
from dvfusion.config import PipelineConfig
from dvfusion.errors import ImportKeyMismatch, InvalidParams
from dvfusion.features import (
    DESCRIPTOR_DIM,
    N_ANGLE_BINS,
    RADIUS_FACTOR,
    _bin_triplets,
    _pair_angles,
    adaptive_downsample,
    aggregate_level_features,
    extract_point_features,
    lookup_descriptors,
    pair_histogram_descriptors,
)
from dvfusion.geometry import (NORMAL_NEIGHBOURS, as_points,
                               local_covariance_features, mean_scan_resolution)
from dvfusion.io import PointFeatureSet
from dvfusion.synth import SynthParams, synth_generate_scene

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


def covariance(pts):
    """The k-NN covariance features a run computes once per tile epoch."""
    return local_covariance_features(pts, k=NORMAL_NEIGHBOURS)


def descriptors(pts, radius, query_indices):
    return pair_histogram_descriptors(pts, covariance(pts), radius,
                                      query_indices)


def test_descriptors_unit_norm_and_shape():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 4, (80, 3))
    desc = descriptors(pts, radius=1.5, query_indices=np.arange(80))
    assert desc.shape == (80, DESCRIPTOR_DIM)
    assert np.allclose(np.linalg.norm(desc, axis=1), 1.0, atol=1e-9)


def test_duplicate_neighborhoods_nearly_identical_descriptors():
    rng = np.random.default_rng(6)
    blob = bumpy_blob(rng)
    far = blob + np.array([100.0, 0.0, 0.0])
    pts = np.vstack([blob, far])
    desc = descriptors(pts, radius=1.2, query_indices=np.arange(len(pts)))
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
    d_a = descriptors(blob, radius=1.2, query_indices=every)
    d_b = descriptors(moved, radius=1.2, query_indices=every)
    cos_dist = 1.0 - np.einsum("ij,ij->i", d_a, d_b)
    assert np.median(cos_dist) < 0.02
    assert np.quantile(cos_dist, 0.95) < 0.05


def test_extract_builtin_provider():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 10, (400, 3))
    sample = adaptive_downsample(pts, VOXEL_FACTOR)
    feats = extract_point_features(pts, covariance(pts), sample,
                                   mean_scan_resolution(pts))
    assert np.array_equal(feats.point_indices, sample) and len(sample) <= 400
    assert feats.descriptors.shape[1] == DESCRIPTOR_DIM


# ---------------------------------------------------------------------------
# Pooling: the sparse product against the per-query loop it replaced


def reference_pair_histogram_descriptors(points, radius: float,
                                         query_indices) -> np.ndarray:
    """The descriptors as computed before pooling became one sparse product:
    a `query_ball_point` search per query and one weighted sum per query."""
    pts = as_points(points)
    n = len(pts)
    query = np.asarray(query_indices, dtype=np.int64)
    geo = local_covariance_features(pts, k=NORMAL_NEIGHBOURS)
    normals = geo.normals.copy()
    normals[~geo.valid] = np.array([0.0, 0.0, 1.0])
    # Consistent upward orientation: ground-based scans see upper surfaces,
    # so +Z disambiguates the eigenvector sign the same way in both epochs.
    normals[normals[:, 2] < 0.0] *= -1.0

    tree = cKDTree(pts)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    spfh = np.zeros((n, DESCRIPTOR_DIM))
    if len(pairs):
        i, j = pairs[:, 0], pairs[:, 1]
        # evaluate the asymmetric frame once, accumulate into both endpoints
        alpha, phi, theta, ok = _pair_angles(pts[i], normals[i], pts[j], normals[j])
        i, j = i[ok], j[ok]
        ba, bp, bt = (b[ok] for b in _bin_triplets(alpha, phi, theta))
        cells = [ends * DESCRIPTOR_DIM + k * N_ANGLE_BINS + b
                 for ends in (i, j) for k, b in enumerate((ba, bp, bt))]
        spfh = np.bincount(np.concatenate(cells), minlength=n * DESCRIPTOR_DIM
                           ).astype(np.float64).reshape(n, DESCRIPTOR_DIM)

    # Distance-weighted pooling of neighbor histograms into the queries.
    desc = spfh[query].copy()
    if len(pairs):
        nbrs = tree.query_ball_point(pts[query], radius)
        for row, (q, nb) in enumerate(zip(query, nbrs)):
            nb = np.asarray(nb, dtype=np.int64)
            nb = nb[nb != q]
            if len(nb) == 0:
                continue
            dist = np.linalg.norm(pts[nb] - pts[q], axis=1)
            wgt = 1.0 / np.maximum(dist, 1e-9)
            desc[row] += (wgt[:, None] * spfh[nb]).sum(axis=0) / len(nb)

    norms = np.linalg.norm(desc, axis=1)
    flat = norms <= 1e-12
    desc[flat] = 1.0 / np.sqrt(DESCRIPTOR_DIM)
    return desc / np.linalg.norm(desc, axis=1)[:, None]


def assert_pooling_bit_equal(pts, radius, query):
    got = descriptors(pts, radius, query)
    want = reference_pair_histogram_descriptors(pts, radius, query)
    assert got.shape == (len(query), DESCRIPTOR_DIM)
    assert np.array_equal(got, want)


def test_pooling_with_isolated_points():
    rng = np.random.default_rng(20)
    # a dense blob, a sparse scatter, and points far from everything
    pts = np.vstack([rng.uniform(0, 3, (150, 3)), rng.uniform(0, 40, (40, 3)),
                     [[100.0, 100.0, 100.0], [-80.0, 0.0, 5.0]]])
    assert_pooling_bit_equal(pts, 1.0, np.arange(len(pts)))


def test_pooling_with_duplicated_points():
    rng = np.random.default_rng(21)
    base = rng.uniform(0, 4, (120, 3))
    # exact copies pool each other at the 1e-9 distance floor
    pts = np.vstack([base, base[:30], base[5:10]])
    assert_pooling_bit_equal(pts, 1.2, np.arange(len(pts)))


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_pooling_with_neighbors_exactly_at_the_radius(radius):
    # integer grid: many pair distances equal the radius, where the pair
    # search and a ball query must make the same `<=` decision
    xs, ys, zs = np.meshgrid(np.arange(8.0), np.arange(8.0), np.arange(3.0))
    pts = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    assert_pooling_bit_equal(pts, radius, np.arange(len(pts)))


def test_pooling_with_unsorted_and_repeated_queries():
    rng = np.random.default_rng(22)
    pts = rng.uniform(0, 5, (200, 3))
    query = np.array([57, 3, 199, 3, 120, 0, 57, 57, 88, 1])
    assert_pooling_bit_equal(pts, 1.3, query)
    assert_pooling_bit_equal(pts, 1.3, rng.permutation(200))


def test_pooling_with_a_radius_that_forms_no_pair():
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 10, (60, 3))
    desc = descriptors(pts, 1e-6, np.arange(60))
    assert np.all(desc == 1.0 / np.sqrt(DESCRIPTOR_DIM))
    assert_pooling_bit_equal(pts, 1e-6, np.array([4, 2, 4]))


def synth_epoch(epoch):
    """One epoch of the 20k-point synth scene of seed 0, with the scan
    resolution of its source and the epoch's downsample."""
    scene = synth_generate_scene(SynthParams(n_points=20_000, texture=False),
                                 seed=0)
    pts = getattr(scene, epoch).points
    resolution = mean_scan_resolution(scene.source.points)
    return pts, resolution, adaptive_downsample(pts, VOXEL_FACTOR, resolution)


def test_pooling_on_a_synth_epoch():
    pts, resolution, sample = synth_epoch("target")
    assert_pooling_bit_equal(pts, RADIUS_FACTOR * resolution, sample)


def test_descriptor_pass_memory_on_a_synth_epoch():
    pts, resolution, sample = synth_epoch("source")
    geo = covariance(pts)
    tracemalloc.start()
    try:
        pair_histogram_descriptors(pts, geo, RADIUS_FACTOR * resolution, sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 15.5 MiB with the search in blocks, half of it the histograms and the
    # output rows; 23.4 MiB with every radius pair held, and 44.4 MiB when
    # both ends of every pair were gathered, then masked
    assert peak < 20 * 2 ** 20


# ---------------------------------------------------------------------------
# Blocks: the pair pass a block at a time against the one-shot pass


def one_shot_pair_histogram_descriptors(points, geo, radius: float,
                                        query_indices) -> np.ndarray:
    """The descriptors as computed before the pair pass ran in blocks: the
    angles of every radius pair at once, one bincount, one sparse product."""
    pts = as_points(points)
    n = len(pts)
    query = np.asarray(query_indices, dtype=np.int64)
    normals = geo.normals.copy()
    normals[~geo.valid] = np.array([0.0, 0.0, 1.0])
    normals[normals[:, 2] < 0.0] *= -1.0

    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    p_i, p_j = pts[i], pts[j]
    alpha, phi, theta, ok = _pair_angles(p_i, normals[i], p_j, normals[j])
    cells = [ends[ok] * DESCRIPTOR_DIM + k * N_ANGLE_BINS + b[ok]
             for ends in (i, j)
             for k, b in enumerate(_bin_triplets(alpha, phi, theta))]
    spfh = np.bincount(np.concatenate(cells), minlength=n * DESCRIPTOR_DIM
                       ).astype(np.float64).reshape(n, DESCRIPTOR_DIM)

    uq, row_of = np.unique(query, return_inverse=True)
    pos = np.full(n, -1, dtype=np.int64)
    pos[uq] = np.arange(len(uq))
    rows = np.concatenate([pos[i], pos[j]])
    nbrs = np.concatenate([j, i])
    wgt = np.tile(1.0 / np.maximum(np.linalg.norm(p_j - p_i, axis=1), 1e-9), 2)
    keep = rows >= 0
    rows, nbrs, wgt = rows[keep], nbrs[keep], wgt[keep]
    order = np.argsort(rows * n + nbrs)
    counts = np.bincount(rows, minlength=len(uq))
    pool = csr_matrix((wgt[order], nbrs[order], np.r_[0, np.cumsum(counts)]),
                      shape=(len(uq), n))
    pooled = pool @ spfh
    has = counts > 0
    pooled[has] /= counts[has, None]
    desc = spfh[query] + pooled[row_of]

    norms = np.linalg.norm(desc, axis=1)
    flat = norms <= 1e-12
    desc[flat] = 1.0 / np.sqrt(DESCRIPTOR_DIM)
    return desc / np.linalg.norm(desc, axis=1)[:, None]


def blocked_pass_cases():
    """(points, radius, queries) of each case the blocked pass must keep
    the one-shot bits on."""
    rng = np.random.default_rng(24)
    base = rng.uniform(0, 4, (150, 3))
    # duplicates form zero-length pairs that `ok` masks out of the counts;
    # the far point has no neighbour and gets the uniform row
    dup = np.vstack([base, base[:20], [[50.0, 50.0, 50.0]]])
    xs, ys, zs = np.meshgrid(np.arange(8.0), np.arange(8.0), np.arange(3.0))
    grid = np.stack([xs.ravel(), ys.ravel(), zs.ravel()], axis=1)
    scatter = rng.uniform(0, 5, (200, 3))
    return {
        "duplicates and an isolated point":
            (dup, 1.2, np.r_[np.arange(0, len(dup), 3), 150, 3, len(dup) - 1]),
        # pairs exactly at the radius, where every search must make the
        # same `<=` decision
        "integer grid, radius 1": (grid, 1.0, np.arange(len(grid))),
        "integer grid, radius 2": (grid, 2.0, np.arange(len(grid))[::-1]),
        "repeated and unsorted queries":
            (scatter, 1.3, np.array([57, 3, 199, 3, 120, 0, 57, 57, 88, 1])),
        "a radius that forms no pair": (scatter, 1e-6, np.array([4, 2, 4])),
    }


@pytest.mark.parametrize("block", [1, 7, 10 ** 9])
def test_blocked_pair_pass_gives_the_one_shot_bits(monkeypatch, block):
    """Searches of 1, 7 and every point, frames of 1, 7 and every pair, on
    the small cases the pooling tests check against the per-query loop."""
    cases = blocked_pass_cases()
    monkeypatch.setattr(dvfusion.features, "_SEARCH_BLOCK", block)
    monkeypatch.setattr(dvfusion.features, "_PAIR_BLOCK", block)
    got = {}
    for name, (pts, radius, query) in cases.items():
        geo = covariance(pts)
        want = one_shot_pair_histogram_descriptors(pts, geo, radius, query)
        got[name] = pair_histogram_descriptors(pts, geo, radius, query)
        assert np.array_equal(got[name], want), name
    uniform = 1.0 / np.sqrt(DESCRIPTOR_DIM)
    assert np.all(got["duplicates and an isolated point"][-1] == uniform)
    assert np.all(got["a radius that forms no pair"] == uniform)


@pytest.mark.parametrize("block", [1, 7, 10 ** 9])
def test_blocked_search_on_a_synth_epoch_gives_the_one_shot_bits(monkeypatch,
                                                                 block):
    """Searches of 1, 7 and every point on 20k points and 564k pairs, with
    the frames at their own block size."""
    pts, resolution, sample = synth_epoch("target")
    geo = covariance(pts)
    want = one_shot_pair_histogram_descriptors(
        pts, geo, RADIUS_FACTOR * resolution, sample)
    monkeypatch.setattr(dvfusion.features, "_SEARCH_BLOCK", block)
    got = pair_histogram_descriptors(pts, geo, RADIUS_FACTOR * resolution, sample)
    assert np.array_equal(got, want)


def test_no_search_returns_more_than_one_block_of_pairs(monkeypatch):
    """`tracemalloc` does not see the KD-tree's own buffers, so the memory
    test above cannot tell one search of the whole epoch from a search per
    block: count what each search returns instead."""
    pts, resolution, sample = synth_epoch("source")
    radius = RADIUS_FACTOR * resolution
    geo = covariance(pts)
    degree = cKDTree(pts).query_ball_point(pts, radius, return_length=True)
    sizes = []

    class SearchSpy(cKDTree):
        """Records the points and the pairs of each radius search, and
        refuses the search that returns every pair of a cloud at once."""

        def sparse_distance_matrix(self, other, max_distance, *args, **kwargs):
            found = super().sparse_distance_matrix(other, max_distance,
                                                   *args, **kwargs)
            sizes.append((self.n, len(found)))
            return found

        def query_pairs(self, *args, **kwargs):
            raise AssertionError("query_pairs returns every pair at once")

    monkeypatch.setattr(dvfusion.features, "cKDTree", SearchSpy)
    pair_histogram_descriptors(pts, geo, radius, sample)
    block = dvfusion.features._SEARCH_BLOCK
    queried = [m for m, _ in sizes]
    # the histogram pass searches from every point, the pooling pass from
    # every distinct query, each in blocks of at most `block` points
    assert sum(queried) == len(pts) + len(np.unique(sample))
    assert max(queried) <= block
    # no search returns more pairs than the `block` points of highest degree
    # have: 185,790 at most here, against 1,148,610 pairs on the epoch
    largest = max(found for _, found in sizes)
    assert largest <= np.sort(degree)[-block:].sum()
    assert largest < degree.sum() / 4


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


@pytest.mark.parametrize("ids, first", [
    ([9, 40, 3, 41], 41),         # past the largest imported id
    ([-1, 9], -1),                # before the smallest
    ([9, 10, 12], 10),            # between two
])
def test_import_key_mismatch_names_the_first_missing_id(ids, first):
    table = PointFeatureSet([40, 3, 9, 12], np.eye(4))
    n = sum(i not in (40, 3, 9, 12) for i in ids)
    with pytest.raises(ImportKeyMismatch,
                       match=rf"miss {n} sampled indices \(first missing: {first}\)"):
        lookup_descriptors(table, ids)


def test_lookup_descriptors_takes_unsorted_ids_in_order():
    rng = np.random.default_rng(4)
    keys = rng.permutation(1000)[:300]
    desc = rng.normal(size=(300, 5))
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    table = PointFeatureSet(keys, desc)
    pick = rng.integers(0, 300, 120)          # repeats allowed
    assert np.array_equal(lookup_descriptors(table, keys[pick]), desc[pick])
    assert lookup_descriptors(table, []).shape == (0, 5)


def test_lookup_descriptors_in_an_empty_table_misses_everything():
    table = PointFeatureSet(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
    with pytest.raises(ImportKeyMismatch, match="miss 2 sampled indices"):
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
