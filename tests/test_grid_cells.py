"""One grid-cell rule: `geometry.grid_cells` and its three callers, the
voxel downsample, voxel coverage and the uniform-tile ICP baseline, each
checked bit for bit against the cell code it replaced (a packed key sorted
by voxel, a lexsort of cell rows, and a dict of cell tuples)."""

import numpy as np
import pytest

from dvfusion.dvf import MODALITY_3D, DisplacementVectorField
from dvfusion.errors import DegenerateInput
from dvfusion.evaluation import baseline_piecewise_icp, spatial_coverage
from dvfusion.features import adaptive_downsample
from dvfusion.geometry import bincount_rows, grid_cells, icp_point_to_point
from dvfusion.synth import SynthParams, synth_generate_scene


# ---------------------------------------------------------------------------
# The helper


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cells_are_numbered_in_lexicographic_order(dim):
    rng = np.random.default_rng(dim)
    pts = rng.uniform(-3.0, 3.0, (500, dim))
    origin = np.full(dim, -1.0)             # rows below the origin too
    ids, k = grid_cells(pts, 0.7, origin)
    cells = np.floor((pts - origin) / 0.7).astype(np.int64)
    uniq, want = np.unique(cells, axis=0, return_inverse=True)
    assert k == len(uniq)
    assert np.array_equal(ids, want.ravel())
    assert ids.dtype == np.int64


def test_a_point_on_a_cell_boundary_belongs_to_the_cell_above():
    x = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 0.4999999999999999])
    pts = np.column_stack([x, np.zeros_like(x)])
    ids, k = grid_cells(pts, 0.5, np.zeros(2))
    assert k == 4
    assert ids.tolist() == [0, 0, 1, 1, 2, 3, 0]


def test_a_grid_beyond_one_int64_key_is_refused():
    pts = np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
    with pytest.raises(ValueError, match="dims"):
        grid_cells(pts, 1e-1, np.zeros(3))


# ---------------------------------------------------------------------------
# The cell code each caller held before


def packed_key_downsample(pts, edge):
    """Voxel downsample on an int64 key sorted by voxel: per voxel the
    member nearest its centroid, ties toward the lower index."""
    cell = np.floor((pts - pts.min(axis=0)) / edge).astype(np.int64)
    dims = cell.max(axis=0) + 1
    key = (cell[:, 0] * dims[1] + cell[:, 1]) * dims[2] + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    starts = np.flatnonzero(np.r_[True, key_sorted[1:] != key_sorted[:-1]])
    counts = np.diff(np.r_[starts, len(key_sorted)])
    group = np.repeat(np.arange(len(starts)), counts)
    centroids = bincount_rows(group, pts[order], len(starts)) / counts[:, None]
    d2 = np.sum((pts[order] - centroids[group]) ** 2, axis=1)
    pick = np.lexsort((order, d2, group))
    first_of_group = np.searchsorted(group[pick], np.arange(len(starts)))
    return np.sort(order[pick[first_of_group]])


def lexsort_coverage(dvf, src, voxel):
    """Voxel coverage numbering the voxels of lexsorted cell rows."""
    if len(dvf) == 0:
        return 0.0
    cells = np.floor((np.concatenate([src, dvf.positions]) - src.min(axis=0))
                     / voxel).astype(np.int64)
    order = np.lexsort(cells.T)
    cells = cells[order]
    voxel_id = np.cumsum(np.r_[True, (cells[1:] != cells[:-1]).any(axis=1)]) - 1
    from_src = order < len(src)
    occupied = np.bincount(voxel_id[from_src], minlength=voxel_id[-1] + 1) > 0
    estimated = np.bincount(voxel_id[~from_src], minlength=voxel_id[-1] + 1) > 0
    return int((occupied & estimated).sum()) / int(occupied.sum())


def dict_baseline(src, tgt, tile_size, max_pair_dist=None):
    """Tile ICP grouping each cloud's points in a dict of cell tuples."""
    origin = np.minimum(src[:, :2].min(axis=0), tgt[:, :2].min(axis=0))

    def group(pts):
        out: dict = {}
        cells = np.floor((pts[:, :2] - origin) / tile_size).astype(np.int64)
        for i, key in enumerate(map(tuple, cells)):
            out.setdefault(key, []).append(i)
        return {key: np.asarray(v, dtype=np.int64) for key, v in out.items()}

    s_tiles, t_tiles = group(src), group(tgt)
    ids, vecs, patch = [], [], []
    for tile_no, key in enumerate(sorted(s_tiles)):
        s_idx, t_idx = s_tiles[key], t_tiles.get(key)
        if t_idx is None:
            continue
        try:
            result = icp_point_to_point(src[s_idx], tgt[t_idx],
                                        max_pair_dist=max_pair_dist)
        except DegenerateInput:
            continue
        ids.append(s_idx)
        vecs.append(result.transform.apply(src[s_idx]) - src[s_idx])
        patch.append(np.full(len(s_idx), tile_no, dtype=np.int64))
    if not ids:
        return DisplacementVectorField.empty()
    ids = np.concatenate(ids)
    n = len(ids)
    return DisplacementVectorField(
        ids, src[ids], np.vstack(vecs), np.zeros(n, dtype=np.int64),
        np.concatenate(patch), np.full(n, MODALITY_3D, dtype="U2")).sorted_by_id()


# ---------------------------------------------------------------------------
# Clouds with exact duplicates and tied distances to a centroid


def shuffled_lattice(seed, side=6):
    """Integer lattice points in a random order: with an even voxel edge
    every voxel's members lie at one distance from its centroid."""
    axis = np.arange(side, dtype=np.float64)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    return pts[np.random.default_rng(seed).permutation(len(pts))]


def clouds():
    rng = np.random.default_rng(11)
    lattice = shuffled_lattice(0)
    blob = rng.uniform(-4.0, 9.0, (700, 3))
    scene = synth_generate_scene(SynthParams(n_points=3000, texture=False), seed=1)
    return {
        "lattice": lattice,
        "lattice with duplicates": np.vstack([lattice, lattice[::3]]),
        "blob with duplicates": np.vstack([blob, blob[rng.integers(0, 700, 200)]]),
        "synth source": scene.source.points,
    }


CLOUDS = clouds()


def assert_same_field(a, b):
    for col in ("point_ids", "positions", "vectors", "levels", "patch_ids",
                "modalities"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), col


@pytest.mark.parametrize("name", sorted(CLOUDS))
@pytest.mark.parametrize("edge", [0.5, 2.0, 3.0, 7.5])
def test_downsample_gives_the_packed_key_picks(name, edge):
    pts = CLOUDS[name]
    got = adaptive_downsample(pts, voxel_factor=edge, resolution=1.0)
    assert np.array_equal(got, packed_key_downsample(pts, edge))


def test_tied_members_give_the_lowest_index():
    pts = shuffled_lattice(3, side=4)
    got = adaptive_downsample(pts, voxel_factor=2.0, resolution=1.0)
    cell = np.floor(pts / 2.0).astype(np.int64)
    lowest = [np.flatnonzero((cell == c).all(axis=1))[0]
              for c in np.unique(cell, axis=0)]
    assert np.array_equal(got, np.sort(lowest))


@pytest.mark.parametrize("name", sorted(CLOUDS))
def test_coverage_gives_the_lexsort_count(name):
    pts = CLOUDS[name]
    rng = np.random.default_rng(5)
    # estimates at source points, repeated ones, and off the source's box
    outside = rng.uniform(-20.0, 20.0, (100, 3)) + pts.mean(axis=0)
    positions = np.vstack([pts[rng.integers(0, len(pts), len(pts) // 2)], outside])
    dvf = DisplacementVectorField(
        np.arange(len(positions)), positions, np.zeros_like(positions),
        np.ones(len(positions)), np.zeros(len(positions)),
        np.full(len(positions), MODALITY_3D, dtype="U2"))
    for voxel in (0.5, 1.0, 3.0):
        assert spatial_coverage(dvf, pts, voxel) == lexsort_coverage(dvf, pts, voxel)


def test_baseline_gives_the_dict_grouping_field():
    scene = synth_generate_scene(SynthParams(n_points=3000, texture=False), seed=2)
    src, tgt = scene.source.points, scene.target.points
    for tile_size in (8.0, 15.0):
        assert_same_field(baseline_piecewise_icp(src, tgt, tile_size),
                          dict_baseline(src, tgt, tile_size))


def test_baseline_numbers_only_the_tiles_the_source_occupies():
    # 5 m tiles from a target point at the origin: the source fills tiles
    # x = 2 and 6, the target alone tiles x = 0, 4 and 8, before, between
    # and after them in grid order; tile numbers count source tiles alone
    rng = np.random.default_rng(9)

    def blocks(*tiles):
        return [rng.uniform(0.5, 4.5, (150, 3)) + [5.0 * x, 0.0, 0.0] for x in tiles]

    src = np.vstack(blocks(2, 6))
    shift = np.array([0.05, -0.02, 0.01])
    tgt = np.vstack([src + shift, np.zeros((1, 3)), *blocks(0, 4, 8)])
    dvf = baseline_piecewise_icp(src, tgt, tile_size=5.0, max_pair_dist=np.inf)
    assert_same_field(dvf, dict_baseline(src, tgt, 5.0, max_pair_dist=np.inf))
    assert np.array_equal(dvf.point_ids, np.arange(len(src)))
    assert np.array_equal(dvf.patch_ids, np.repeat([0, 1], 150))
