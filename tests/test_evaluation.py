"""Coverage and deviation metrics, plus the two reference baselines."""

import numpy as np
import pytest

from dvfusion.dvf import MODALITY_3D, DisplacementVectorField
from dvfusion.errors import (
    EmptyNeighborhood,
    InvalidParams,
    NoEstimateNearObservation,
)
from dvfusion.evaluation import (
    baseline_m3c2,
    baseline_piecewise_icp,
    compare_mean_radius,
    compare_nn,
    dump_report,
    format_report,
    spatial_coverage,
)
from dvfusion.io import ExternalObservation


def field_at(positions, vectors):
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    n = len(positions)
    return DisplacementVectorField(
        np.arange(n), positions, vectors, np.ones(n), np.zeros(n),
        np.full(n, MODALITY_3D, dtype="U2"))


def obs(position, displacement, oid="t1"):
    return ExternalObservation(oid, np.asarray(position, dtype=np.float64),
                               np.asarray(displacement, dtype=np.float64))


# ---------------------------------------------------------------------------
# Coverage


def test_full_field_coverage_is_one():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 10, (500, 3))
    dvf = field_at(pts, np.zeros_like(pts))
    assert spatial_coverage(dvf, pts, voxel=1.0) == 1.0


def test_half_field_coverage():
    # two separated slabs; estimates only on the first
    a = np.random.default_rng(1).uniform(0, 4, (200, 3))
    b = a + np.array([100.0, 0.0, 0.0])
    pts = np.vstack([a, b])
    dvf = field_at(a, np.zeros_like(a))
    cov = spatial_coverage(dvf, pts, voxel=1.0)
    assert abs(cov - 0.5) < 0.02


def test_empty_field_zero_coverage():
    pts = np.random.default_rng(2).uniform(0, 5, (50, 3))
    assert spatial_coverage(DisplacementVectorField.empty(), pts, 1.0) == 0.0


def test_coverage_monotone_in_estimates():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 10, (300, 3))
    few = field_at(pts[:100], np.zeros((100, 3)))
    more = field_at(pts[:200], np.zeros((200, 3)))
    assert (spatial_coverage(more, pts, 1.0)
            >= spatial_coverage(few, pts, 1.0))


def set_coverage(dvf, source_points, voxel):
    """The voxel coverage counted with a set of cell tuples."""
    origin = source_points.min(axis=0)

    def keys(pts):
        return {tuple(c) for c in np.floor((pts - origin) / voxel).astype(np.int64)}

    occupied = keys(source_points)
    if len(dvf) == 0:
        return 0.0
    return len(keys(dvf.positions) & occupied) / len(occupied)


@pytest.mark.parametrize("seed", range(6))
def test_coverage_counts_cells_like_a_set(seed):
    rng = np.random.default_rng(40 + seed)
    pts = rng.uniform(-5, 5, (rng.integers(1, 400), 3))
    # estimates at source points, inside the box but off the points, and
    # outside the source's bounding box on every side
    at = rng.uniform(-8, 8, (rng.integers(1, 300), 3))
    positions = np.vstack([pts[rng.integers(0, len(pts), 50)], at])
    dvf = field_at(positions, np.zeros_like(positions))
    for voxel in (0.3, 1.0, 4.0):
        assert spatial_coverage(dvf, pts, voxel) == set_coverage(dvf, pts, voxel)


def test_coverage_voxel_validation():
    pts = np.zeros((2, 3))
    with pytest.raises(InvalidParams):
        spatial_coverage(field_at(pts, pts), pts, voxel=0.0)


# ---------------------------------------------------------------------------
# compare_nn


def test_exact_estimate_zero_deviation():
    dvf = field_at([(0, 0, 0)], [(1.0, 2.0, 2.0)])
    rep = compare_nn(dvf, [obs((0.1, 0, 0), (1.0, 2.0, 2.0))], max_dist=np.inf)
    assert np.allclose(rep.rows[0].deviations, 0.0, atol=1e-12)


def test_magnitude_equal_but_direction_off():
    dvf = field_at([(0, 0, 0)], [(1.0, 0.0, 0.0)])
    rep = compare_nn(dvf, [obs((0, 0, 0), (0.0, 1.0, 0.0))], max_dist=np.inf)
    d = rep.rows[0].deviations
    assert d.tolist() == [1.0, 1.0, 0.0, 0.0]     # |dDS| = |1 - 1| = 0


def test_nn_uses_nearest_source_point():
    dvf = field_at([(0, 0, 0), (10, 0, 0)], [(1, 0, 0), (5, 0, 0)])
    rep = compare_nn(dvf, [obs((9, 0, 0), (5.0, 0.0, 0.0))], max_dist=np.inf)
    assert np.allclose(rep.rows[0].estimate, [5.0, 0.0, 0.0])
    assert np.allclose(rep.rows[0].deviations, 0.0)


def test_no_estimate_near_observation():
    dvf = field_at([(0, 0, 0)], [(1, 0, 0)])
    with pytest.raises(NoEstimateNearObservation):
        compare_nn(dvf, [obs((500, 0, 0), (0, 0, 0))], max_dist=10.0)
    with pytest.raises(NoEstimateNearObservation):
        compare_nn(DisplacementVectorField.empty(), [obs((0, 0, 0), (0, 0, 0))],
                   max_dist=np.inf)


def test_planted_observation_table():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 20, (100, 3))
    vecs = rng.normal(0, 1, (100, 3))
    dvf = field_at(pts, vecs)
    picks = [5, 17, 60]
    refs = [(0.5, 0, 0), (0, 0, 0), (-1, 2, 0.5)]
    rep = compare_nn(dvf, [obs(pts[i], r, oid=str(i))
                           for i, r in zip(picks, refs)], max_dist=np.inf)
    for row, i, r in zip(rep.rows, picks, refs):
        expect_comp = np.abs(vecs[i] - np.asarray(r, dtype=float))
        expect_ds = abs(np.linalg.norm(vecs[i]) - np.linalg.norm(r))
        assert np.allclose(row.deviations[:3], expect_comp, atol=1e-12)
        assert abs(row.deviations[3] - expect_ds) < 1e-12


# ---------------------------------------------------------------------------
# compare_mean_radius


def test_single_member_equals_nn():
    dvf = field_at([(0, 0, 0)], [(1.5, -0.5, 0.0)])
    o = [obs((1, 0, 0), (1.0, 0.0, 0.0))]
    a = compare_nn(dvf, o, max_dist=np.inf)
    b = compare_mean_radius(dvf, o, radius=5.0)
    assert np.allclose(a.rows[0].deviations, b.rows[0].deviations, atol=1e-12)
    assert b.rows[0].n_members == 1


def test_two_member_mean_and_mad():
    dvf = field_at([(0, 0, 0), (1, 0, 0)], [(1.0, 0, 0), (3.0, 0, 0)])
    rep = compare_mean_radius(dvf, [obs((0.5, 0, 0), (2.0, 0.0, 0.0))],
                              radius=5.0)
    row = rep.rows[0]
    assert np.allclose(row.estimate, [2.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(row.deviations, 0.0, atol=1e-12)
    assert row.member_mad[0] == 1.0               # |1-2|, |3-2| -> mean 1
    assert row.member_mad[3] == 1.0               # magnitudes 1 and 3
    assert row.n_members == 2


def test_empty_neighborhood_raises():
    dvf = field_at([(0, 0, 0)], [(1, 0, 0)])
    with pytest.raises(EmptyNeighborhood):
        compare_mean_radius(dvf, [obs((100, 0, 0), (0, 0, 0))], radius=1.0)


# ---------------------------------------------------------------------------
# Piecewise ICP baseline


def test_translated_clone_recovered_per_tile():
    # cell-centred unit grid, shift well under half the point spacing: the
    # very first nearest-neighbour association is already the true bijection
    # and every tile must recover the translation to numerical precision
    xs = np.arange(0.5, 40.0, 1.0)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    z = np.sin(0.4 * gx) * np.cos(0.3 * gy)
    src = np.column_stack([gx.ravel(), gy.ravel(), z.ravel()])
    shift = np.array([0.3, -0.2, 0.1])
    dvf = baseline_piecewise_icp(src, src + shift, tile_size=10.0)
    assert len(dvf) == len(src)
    assert np.abs(dvf.vectors - shift).max() < 1e-9


def test_two_body_tile_gives_biased_estimate():
    rng = np.random.default_rng(6)
    half = rng.uniform(0, 5, (800, 3))
    half[:, 2] *= 0.05
    body_a = half.copy()                      # stays put
    body_b = half + np.array([5.0, 0.0, 0.0])  # second half of the tile
    src = np.vstack([body_a, body_b])
    shift = np.array([0.6, 0.0, 0.0])
    tgt = np.vstack([body_a, body_b + shift])  # only body B moves
    dvf = baseline_piecewise_icp(src, tgt, tile_size=20.0, max_pair_dist=np.inf)
    mags = np.linalg.norm(dvf.vectors, axis=1)
    # a single rigid fit cannot satisfy both bodies: the estimate lands
    # between the true magnitudes 0 and 0.6 for essentially all points
    assert 0.0 < np.median(mags) < 0.6


def test_tile_without_target_points_absent():
    src = np.vstack([np.random.default_rng(7).uniform(0, 5, (200, 3)),
                     np.random.default_rng(8).uniform(100, 105, (200, 3))])
    tgt = src[:200]                           # second tile empty in epoch 1
    dvf = baseline_piecewise_icp(src, tgt, tile_size=10.0)
    assert set(dvf.point_ids) <= set(range(200))


# ---------------------------------------------------------------------------
# M3C2 baseline


def plane_cloud(rng, n=4000, side=20.0):
    xy = rng.uniform(0, side, (n, 2))
    z = rng.normal(0, 0.01, n)
    return np.column_stack([xy, z])


def test_normal_shift_measured_everywhere():
    rng = np.random.default_rng(9)
    src = plane_cloud(rng)
    tgt = src + np.array([0.0, 0.0, 0.5])
    res = baseline_m3c2(src, tgt, normal_radius=1.5, cylinder_radius=1.0,
                        max_depth=5.0)
    got = np.abs(res.distances[res.valid])
    assert res.valid.mean() > 0.9
    assert np.abs(got - 0.5).max() < 0.02     # within 2x noise sigma


def test_tangential_shift_invisible():
    rng = np.random.default_rng(10)
    src = plane_cloud(rng)
    tgt = src + np.array([2.0, 0.0, 0.0])     # large in-plane motion
    res = baseline_m3c2(src, tgt, normal_radius=1.5, cylinder_radius=1.0,
                        max_depth=5.0)
    inner = res.valid & (src[res.core_indices, 0] > 3.0) \
        & (src[res.core_indices, 0] < 17.0)
    assert inner.sum() > 50
    assert np.abs(res.distances[inner]).max() < 0.05


def test_empty_cylinder_absent():
    src = np.column_stack([np.random.default_rng(11).uniform(0, 5, (300, 2)),
                           np.zeros(300)])
    tgt = src + np.array([0.0, 0.0, 100.0])   # beyond max_depth
    res = baseline_m3c2(src, tgt, normal_radius=1.0, cylinder_radius=0.8,
                        max_depth=5.0)
    assert not res.valid.any()
    assert np.all(np.isnan(res.distances[~res.valid]))


def test_m3c2_validates_radii():
    pts = np.zeros((10, 3))
    with pytest.raises(InvalidParams):
        baseline_m3c2(pts, pts, normal_radius=0.0, cylinder_radius=1.0,
                      max_depth=10.0)


# ---------------------------------------------------------------------------
# Report formatting


def test_report_dump_and_format(tmp_path):
    dvf = field_at([(0, 0, 0), (1, 0, 0)], [(1.0, 0, 0), (1.2, 0, 0)])
    rep = compare_nn(dvf, [obs((0, 0, 0), (1.0, 0.0, 0.0), oid="a"),
                           obs((1, 0, 0), (1.0, 0.0, 0.0), oid="b")],
                     max_dist=np.inf)
    rep.coverage = 0.87
    path = tmp_path / "report.csv"
    dump_report(path, rep)
    text = path.read_text()
    assert text.splitlines()[0].startswith("obs_id,")
    assert "coverage,0.870000" in text
    pretty = format_report(rep)
    assert "|dDS|" in pretty and "87.0%" in pretty
