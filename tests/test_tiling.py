"""Tiling: projection-axis choice, recursive bisection, margin dilation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvfusion.errors import DegenerateInput, InvalidParams
from dvfusion.tiling import dump_tile_map, select_projection_axis, tile_pair


def box_cloud(rng, n, extent):
    return rng.uniform(0, 1, (n, 3)) * np.asarray(extent)


def test_axis_flat_terrain_drops_z():
    rng = np.random.default_rng(1)
    pts = box_cloud(rng, 500, (100, 100, 5))
    assert select_projection_axis(pts, pts) == "Z"


def test_axis_vertical_wall_drops_x():
    rng = np.random.default_rng(2)
    pts = box_cloud(rng, 500, (5, 100, 100))
    assert select_projection_axis(pts, pts) == "X"


def test_axis_cube_tie_prefers_z():
    # corners of an exact cube: all three footprints have equal area
    pts = np.array(np.meshgrid([0.0, 1.0], [0.0, 1.0], [0.0, 1.0])).reshape(3, -1).T
    assert select_projection_axis(pts, pts) == "Z"


def test_single_tile_when_under_limit():
    rng = np.random.default_rng(3)
    pts = box_cloud(rng, 500, (10, 10, 1))
    pairs = tile_pair(pts, pts, max_points=1000, overlap_margin=1.0)
    assert len(pairs) == 1
    assert len(pairs[0].source) == 500
    assert len(pairs[0].target) == 500


def test_two_tiles_split_along_long_edge():
    rng = np.random.default_rng(4)
    pts = box_cloud(rng, 2000, (2, 1, 0.01))
    pairs = tile_pair(pts, pts, max_points=1001, overlap_margin=0.0)
    assert len(pairs) == 2
    for p in pairs:
        assert len(p.source) < 1001
        # split must be along u (the 2-unit edge): both cells keep full v range
        b = p.source.bounds2d
        assert b[1, 0] - b[0, 0] < 1.5
    counts = sorted(len(p.source) for p in pairs)
    assert sum(counts) == 2000


def test_margin_threshold_inclusion():
    """A target point 5 m outside a cell belongs to that cell's target tile at
    margin 10; one 15 m outside does not."""
    src = np.array([[0.0, 0.0, 0.0], [50.0, 50.0, 0.0]])
    near = np.array([[-5.0, 25.0, 0.0]])
    far = np.array([[-15.0, 25.0, 0.0]])
    tgt = np.vstack([src, near, far])
    pairs = tile_pair(src, tgt, max_points=1000, overlap_margin=10.0)
    assert len(pairs) == 1
    tids = set(pairs[0].target.point_indices.tolist())
    assert 2 in tids       # the near point
    assert 3 not in tids   # the far point


def test_empty_cloud_rejected():
    with pytest.raises(DegenerateInput):
        tile_pair(np.zeros((0, 3)), np.zeros((5, 3)), max_points=1000,
                  overlap_margin=0.0)


def test_max_points_floor_enforced():
    pts = np.zeros((10, 3))
    with pytest.raises(InvalidParams):
        tile_pair(pts, pts, max_points=10, overlap_margin=0.0)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_source_cells_partition_cloud(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2000, 6000))
    pts = box_cloud(rng, n, (40, 25, 3))
    pairs = tile_pair(pts, pts, max_points=1000, overlap_margin=2.0)
    all_ids = np.concatenate([p.source.point_indices for p in pairs])
    assert len(all_ids) == n
    assert len(np.unique(all_ids)) == n


def test_margin_dilation_monotone():
    rng = np.random.default_rng(7)
    src = box_cloud(rng, 3000, (30, 30, 2))
    tgt = box_cloud(rng, 3000, (30, 30, 2))
    small = tile_pair(src, tgt, max_points=1000, overlap_margin=1.0)
    large = tile_pair(src, tgt, max_points=1000, overlap_margin=5.0)
    assert len(small) == len(large)
    for a, b in zip(small, large):
        assert set(a.target.point_indices).issubset(set(b.target.point_indices))


def test_tiling_deterministic():
    rng = np.random.default_rng(8)
    src = box_cloud(rng, 4000, (50, 20, 5))
    tgt = src + np.array([0.5, 0.0, 0.0])
    a = tile_pair(src, tgt, max_points=1000, overlap_margin=3.0)
    b = tile_pair(src, tgt, max_points=1000, overlap_margin=3.0)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.source.point_indices, pb.source.point_indices)
        assert np.array_equal(pa.target.point_indices, pb.target.point_indices)
        assert np.array_equal(pa.source.bounds2d, pb.source.bounds2d)


def test_coincident_points_do_not_recurse_forever():
    pts = np.zeros((2000, 3))   # everything at the origin
    pairs = tile_pair(pts, pts, max_points=1000, overlap_margin=0.0)
    assert len(pairs) == 1
    assert len(pairs[0].source) == 2000


def test_tile_map_dump(tmp_path):
    rng = np.random.default_rng(9)
    pts = box_cloud(rng, 2500, (20, 10, 1))
    pairs = tile_pair(pts, pts, max_points=1000, overlap_margin=1.0)
    out = tmp_path / "tiles.csv"
    dump_tile_map(out, pairs)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(pairs) + 1
    assert lines[0].startswith("pair_id,axis,")
