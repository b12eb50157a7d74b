"""Coarse matching: mutual-NN patch pairing, 2D match lifting, displacement
gating, patch voting, and channel merging."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import dvfusion.coarse
from dvfusion.coarse import (
    CorrTable,
    MatchSet,
    PatchMatch,
    _plausible_pairs,
    filter_by_max_displacement,
    gate_match_set,
    lift_matches,
    match_patches_2d,
    match_patches_3d,
    merge_match_sets,
    mutual_nn,
)
from dvfusion.config import PipelineConfig
from dvfusion.dvf import MODALITY_2D, MODALITY_3D
from dvfusion.errors import InvalidParams
from dvfusion.imaging import Projection
from dvfusion.io import PixelMatchSet, PointFeatureSet

R_PX = PipelineConfig().lift_radius_px


def unit_rows(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def patch_ids(ms):
    """(source patch ids, target patch ids) of the matches of `ms`, in order."""
    return ([m.source_patch_id for m in ms.matches],
            [m.target_patch_id for m in ms.matches])


def is_injective(ms):
    """No patch of either epoch appears in two matches of `ms`."""
    src, tgt = patch_ids(ms)
    return len(set(src)) == len(set(tgt)) == len(ms.matches)


def supports_use_points_once(ms):
    """No support of `ms` pairs one point of either epoch twice."""
    return all(len(np.unique(m.source_indices)) == len(m)
               == len(np.unique(m.target_indices)) for m in ms.matches)


def brute_force_mutual_nn(a, b, allowed=None):
    """Mutual NN pairs by one dot product per pair; a pair the mask
    `allowed` rules out scores -inf, and a row with nothing allowed pairs
    with nothing."""
    if allowed is None:
        allowed = np.ones((len(a), len(b)), dtype=bool)

    def score(i, j):
        return float(a[i] @ b[j]) if allowed[i, j] else -np.inf

    pairs = []
    for i in range(len(a)):
        if not allowed[i].any():
            continue
        j = int(np.argmax([score(i, j) for j in range(len(b))]))
        if int(np.argmax([score(k, j) for k in range(len(a))])) == i:
            pairs.append((i, j))
    return pairs


# ---------------------------------------------------------------------------
# Mutual NN


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_mutual_nn_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    a = unit_rows(rng, 20, 6)
    b = unit_rows(rng, 20, 6)
    ia, ib = mutual_nn(a, b)
    assert list(zip(ia.tolist(), ib.tolist())) == brute_force_mutual_nn(a, b)


def with_duplicates(rng, rows, n, d):
    """`n` unit rows of dimension `d`, each of the `rows` given (row, earlier
    row) pairs an exact copy, so ties must go to the lowest index."""
    v = unit_rows(rng, n, d)
    for i, j in rows:
        v[i] = v[j]
    return v


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_blocked_mutual_nn_matches_brute_force_and_one_block(seed):
    rng = np.random.default_rng(seed)
    a = with_duplicates(rng, [(7, 2), (15, 11), (22, 0)], 23, 6)
    # the later copy of a duplicated target is a row no source picks
    b = with_duplicates(rng, [(9, 4), (16, 1)], 17, 6)
    with pytest.MonkeyPatch.context() as mp:
        # forward blocks of 5 rows (the last of 3), backward blocks of 4
        mp.setattr(dvfusion.coarse, "_MUTUAL_NN_BLOCK", 100)
        blocked = mutual_nn(a, b)
        mp.setattr(dvfusion.coarse, "_MUTUAL_NN_BLOCK", 10 ** 12)
        one_block = mutual_nn(a, b)
    pairs = list(zip(blocked[0].tolist(), blocked[1].tolist()))
    assert pairs == brute_force_mutual_nn(a, b)
    assert pairs == list(zip(one_block[0].tolist(), one_block[1].tolist()))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=30, deadline=None)
def test_masked_mutual_nn_in_blocks_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    a = with_duplicates(rng, [(7, 2), (15, 11), (22, 0)], 23, 6)
    b = with_duplicates(rng, [(9, 4), (16, 1)], 17, 6)
    allowed = rng.random((23, 17)) < 0.6
    allowed[[3, 11, 20]] = False          # source rows with no candidate
    allowed[:, [5, 9]] = False            # target rows no source may take
    # a row whose only candidates are the two copies of target 1
    allowed[15] = False
    allowed[15, [1, 16]] = True
    with pytest.MonkeyPatch.context() as mp:
        # forward blocks of 5 rows (the last of 3), backward blocks of 4
        mp.setattr(dvfusion.coarse, "_MUTUAL_NN_BLOCK", 100)
        ia, ib = mutual_nn(a, b, allowed=allowed)
    pairs = list(zip(ia.tolist(), ib.tolist()))
    assert pairs == brute_force_mutual_nn(a, b, allowed)
    assert all(allowed[i, j] for i, j in pairs)
    assert not {3, 11, 20} & set(ia.tolist())


def test_masked_mutual_nn_holds_one_block(monkeypatch):
    """A masked call holds one block of scores and, in the backward pass, a
    transposed copy of the mask's chosen columns; never the whole score
    matrix (16 times the mask, 139 MB here)."""
    block = 2 ** 18
    monkeypatch.setattr(dvfusion.coarse, "_MUTUAL_NN_BLOCK", block)
    rng = np.random.default_rng(6)
    a, b = unit_rows(rng, 3000, 4), unit_rows(rng, 2900, 4)
    allowed = rng.random((3000, 2900)) < 0.5
    tracemalloc.start()
    try:
        ia, ib = mutual_nn(a, b, allowed=allowed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * block + allowed.nbytes
    assert len(ia) > 0 and allowed[ia, ib].all()


def test_blocked_mutual_nn_holds_one_block(monkeypatch):
    monkeypatch.setattr(dvfusion.coarse, "_MUTUAL_NN_BLOCK", 2 ** 18)
    rng = np.random.default_rng(5)
    a, b = unit_rows(rng, 3000, 4), unit_rows(rng, 2900, 4)
    tracemalloc.start()
    try:
        blocked = mutual_nn(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * 2 ** 18       # bytes of one block of float64 scores
    monkeypatch.setattr(dvfusion.coarse, "_MUTUAL_NN_BLOCK", 10 ** 12)
    one_block = mutual_nn(a, b)
    assert all(np.array_equal(x, y) for x, y in zip(blocked, one_block))


def one_matrix_plausible_pairs(ca, ra, cb, rb, max_displacement):
    """The plausibility gate as computed before it ran in row blocks: the
    whole distance matrix and the whole threshold matrix at once."""
    return cdist(ca, cb) <= max_displacement + ra[:, None] + rb[None, :]


@pytest.mark.parametrize("block", [1, 7, 10 ** 12])
def test_plausibility_gate_in_row_blocks_gives_the_one_matrix_mask(
        monkeypatch, block):
    rng = np.random.default_rng(9)
    ca = rng.uniform(0, 30, (41, 3))
    cb = np.vstack([ca[:20] + rng.normal(0, 2, (20, 3)),
                    rng.uniform(0, 30, (9, 3))])
    ra, rb = rng.uniform(0, 3, 41), rng.uniform(0, 3, 29)
    # a pair exactly at its threshold: 5 m apart, 3 m plus radii of 1 m
    ca[0], cb[0], ra[0], rb[0] = [0.0, 0.0, 0.0], [3.0, 4.0, 0.0], 1.0, 1.0
    want = one_matrix_plausible_pairs(ca, ra, cb, rb, 3.0)
    assert want[0, 0] and 0 < want.sum() < want.size
    # blocks of one row over 29 columns, of 1 and 7 rows over one column,
    # and one block of every row
    monkeypatch.setattr(dvfusion.coarse, "_MUTUAL_NN_BLOCK", block)
    assert np.array_equal(_plausible_pairs(ca, ra, cb, rb, 3.0), want)
    assert np.array_equal(_plausible_pairs(ca, ra, cb[:1], rb[:1], 3.0),
                          want[:, :1])
    assert _plausible_pairs(ca[:0], ra[:0], cb, rb, 3.0).shape == (0, 29)


def test_plausibility_gate_holds_one_block_of_distances():
    """The gate of 3000 x 3000 patches holds its bool mask and one block of
    distances and thresholds; with both whole matrices it peaked at
    145.9 MiB."""
    rng = np.random.default_rng(10)
    ca = rng.uniform(0, 200, (3000, 3))
    cb = ca + rng.normal(0, 2, (3000, 3))
    ra, rb = rng.uniform(0, 5, 3000), rng.uniform(0, 5, 3000)
    tracemalloc.start()
    try:
        allowed = _plausible_pairs(ca, ra, cb, rb, 1.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 24.6 MiB here: the 8.6 MiB mask, 8 MiB of distances, 8 of thresholds
    assert peak < allowed.nbytes + 2.5 * 8 * dvfusion.coarse._MUTUAL_NN_BLOCK
    assert np.array_equal(allowed, one_matrix_plausible_pairs(ca, ra, cb, rb, 1.5))


def test_mutual_nn_is_injective():
    rng = np.random.default_rng(1)
    ia, ib = mutual_nn(unit_rows(rng, 30, 5), unit_rows(rng, 25, 5))
    assert len(set(ia.tolist())) == len(ia)
    assert len(set(ib.tolist())) == len(ib)


# ---------------------------------------------------------------------------
# 3D patch matching


def patch_world(vectors):
    """One single-point patch per descriptor; the point descriptor equals the
    patch descriptor, so every matched pair has a support pair. Returns the
    patch descriptors (ids, rows), point features, labels and points."""
    vec = np.asarray(vectors, dtype=np.float64)
    ids = np.arange(len(vec))
    points = np.arange(len(vec) * 3, dtype=np.float64).reshape(-1, 3)
    return (ids, vec), PointFeatureSet(ids, vec), ids, points


def test_identical_feature_lists_match_identity():
    rng = np.random.default_rng(2)
    vecs = unit_rows(rng, 8, 4)
    pf_s, feats_s, labels_s, pts_s = patch_world(vecs)
    pf_t, feats_t, labels_t, pts_t = patch_world(vecs)
    ms = match_patches_3d(1, pf_s, pf_t, feats_s, feats_t,
                          labels_s, labels_t, pts_s, pts_t, np.inf)
    assert patch_ids(ms) == (list(range(8)), list(range(8)))
    assert is_injective(ms)
    assert all(m.modality == MODALITY_3D for m in ms.matches)
    assert all(len(m) >= 1 for m in ms.matches)


def test_non_mutual_pair_is_dropped():
    deg = np.deg2rad
    a = [np.cos(deg(0)), np.sin(deg(0))]        # nearest target: X
    b = [np.cos(deg(10)), np.sin(deg(10))]      # equals X exactly
    x = [np.cos(deg(10)), np.sin(deg(10))]
    y = [np.cos(deg(80)), np.sin(deg(80))]
    pf_s, feats_s, labels_s, pts_s = patch_world([a, b])
    pf_t, feats_t, labels_t, pts_t = patch_world([x, y])
    ms = match_patches_3d(1, pf_s, pf_t, feats_s, feats_t,
                          labels_s, labels_t, pts_s, pts_t, np.inf)
    # X's nearest source is B (exact), so A stays unmatched
    assert patch_ids(ms) == ([1], [0])


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_patch_matching_equals_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    va = unit_rows(rng, 20, 8)
    vb = unit_rows(rng, 20, 8)
    pf_s, feats_s, labels_s, pts_s = patch_world(va)
    pf_t, feats_t, labels_t, pts_t = patch_world(vb)
    ms = match_patches_3d(1, pf_s, pf_t, feats_s, feats_t,
                          labels_s, labels_t, pts_s, pts_t, np.inf)
    got = list(zip(*patch_ids(ms)))
    assert got == brute_force_mutual_nn(va, vb)


def test_role_swap_transposes_matches():
    rng = np.random.default_rng(3)
    va = unit_rows(rng, 15, 6)
    vb = unit_rows(rng, 12, 6)
    pf_s, feats_s, labels_s, pts_s = patch_world(va)
    pf_t, feats_t, labels_t, pts_t = patch_world(vb)
    fwd = match_patches_3d(1, pf_s, pf_t, feats_s, feats_t,
                           labels_s, labels_t, pts_s, pts_t, np.inf)
    rev = match_patches_3d(1, pf_t, pf_s, feats_t, feats_s,
                           labels_t, labels_s, pts_t, pts_s, np.inf)
    assert (sorted(zip(*patch_ids(fwd)))
            == sorted((t, s) for s, t in zip(*patch_ids(rev))))


@pytest.mark.parametrize("gap,matched", [(7.9, True), (8.1, False)])
def test_max_displacement_allows_gap_plus_both_radii(gap, matched):
    """Identical descriptors pair only when the centroid gap is at most
    max_displacement (5) plus the source radius (1) and target radius (2)."""
    d = np.array([[0.6, 0.8]] * 3)
    src = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    tgt = np.array([[-2.0, 0.0, gap], [0.0, 0.0, gap], [2.0, 0.0, gap]])
    labels = np.zeros(3, dtype=np.int64)
    feats = PointFeatureSet(np.arange(3), d)
    pf = (np.array([0]), d[:1])
    ms = match_patches_3d(1, pf, pf, feats, feats, labels, labels, src, tgt,
                          max_displacement=5.0)
    assert len(ms) == int(matched)
    unbounded = match_patches_3d(1, pf, pf, feats, feats, labels, labels,
                                 src, tgt, max_displacement=np.inf)
    assert len(unbounded) == 1


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_3d_supports_use_points_once(seed):
    """Patches of many points whose descriptors repeat (tied candidates)
    still get supports that pair each point at most once."""
    rng = np.random.default_rng(seed)
    n, k = 60, 5
    pf = (np.arange(k), unit_rows(rng, k, 4))
    world = []
    for _ in range(2):
        labels = rng.permutation(np.arange(n) % k)
        desc = unit_rows(rng, 6, 4)[rng.integers(0, 6, n)]
        world.append((PointFeatureSet(np.arange(n), desc), labels,
                      rng.uniform(0, 10, (n, 3))))
    (feats_s, labels_s, pts_s), (feats_t, labels_t, pts_t) = world
    ms = match_patches_3d(1, pf, pf, feats_s, feats_t, labels_s, labels_t,
                          pts_s, pts_t, np.inf)
    assert len(ms) > 0
    assert supports_use_points_once(ms)


# ---------------------------------------------------------------------------
# Lifting 2D matches


def line_projection(n, spacing=10.0, offset=0.0):
    """n points projected to a pixel row at u = offset + spacing * i."""
    u = offset + spacing * np.arange(n, dtype=np.float64)
    return Projection(u, np.zeros(n), np.ones(n), np.ones(n, dtype=bool))


def test_exact_pixel_match_lifts_to_point_pair():
    src_proj = {"a": line_projection(5)}
    tgt_proj = {"b": line_projection(5)}
    pm = PixelMatchSet(("a", "b"), [[10.0, 0.0, 20.0, 0.0, 0.9]])
    out = lift_matches([pm], src_proj, tgt_proj, R_PX)
    assert out.source_indices.tolist() == [1]
    assert out.target_indices.tolist() == [2]
    assert out.confidence.tolist() == [0.9]


def test_match_beyond_radius_dropped():
    src_proj = {"a": line_projection(5)}
    tgt_proj = {"b": line_projection(5)}
    # target end lands 3 px from the nearest projected point
    pm = PixelMatchSet(("a", "b"), [[10.0, 0.0, 23.0, 0.0, 0.9]])
    out = lift_matches([pm], src_proj, tgt_proj, r_px=2.0)
    assert len(out) == 0


def test_lift_equals_projection_table_oracle():
    rng = np.random.default_rng(4)
    n = 40
    src_proj = {"a": line_projection(n, spacing=7.0)}
    tgt_proj = {"b": line_projection(n, spacing=7.0, offset=3.0)}
    # known point mapping i -> (i + 2) with pixel coords straight off the table
    table = [(i, i + 2) for i in range(0, 30, 3)]
    rows = [[7.0 * s, 0.0, 3.0 + 7.0 * t, 0.0, float(rng.uniform(0.5, 1.0))]
            for s, t in table]
    pm = PixelMatchSet(("a", "b"), rows)
    out = lift_matches([pm], src_proj, tgt_proj, R_PX)
    assert list(zip(out.source_indices, out.target_indices)) == table


def test_duplicate_source_keeps_highest_confidence():
    src_proj = {"a": line_projection(5)}
    tgt_proj = {"b": line_projection(5)}
    pm = PixelMatchSet(("a", "b"), [
        [10.0, 0.0, 10.0, 0.0, 0.6],
        [10.5, 0.0, 20.0, 0.0, 0.9],     # same source point, better match
    ])
    out = lift_matches([pm], src_proj, tgt_proj, R_PX)
    assert out.source_indices.tolist() == [1]
    assert out.target_indices.tolist() == [2]
    assert out.confidence.tolist() == [0.9]


def test_richest_image_pair_wins_conflicts():
    src_proj = {"a": line_projection(5), "c": line_projection(5)}
    tgt_proj = {"b": line_projection(5), "d": line_projection(5)}
    rich = PixelMatchSet(("a", "b"), [
        [0.0, 0.0, 0.0, 0.0, 0.7],
        [10.0, 0.0, 10.0, 0.0, 0.7],
        [20.0, 0.0, 20.0, 0.0, 0.7],
    ])
    poor = PixelMatchSet(("c", "d"), [[0.0, 0.0, 30.0, 0.0, 0.99]])
    out = lift_matches([poor, rich], src_proj, tgt_proj, R_PX)
    # the 3-match pair is integrated first; the conflicting single match for
    # source point 0 arrives too late
    assert list(zip(out.source_indices, out.target_indices)) == [(0, 0), (1, 1), (2, 2)]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_lift_across_image_pairs_equals_row_by_row_merge(seed):
    """Image pairs lifted together give what lifting each alone and merging
    the rows one at a time, richest image pair first, gives."""
    rng = np.random.default_rng(seed)
    n = 30

    def scattered():
        return Projection(rng.uniform(0, 100, n), rng.uniform(0, 100, n),
                          np.ones(n), np.ones(n, dtype=bool))

    src_proj = {f"s{k}": scattered() for k in range(3)}
    tgt_proj = {f"t{k}": scattered() for k in range(3)}
    sets = []
    for k in range(3):
        m = int(rng.integers(5, 40))
        rows = np.column_stack([rng.uniform(0, 100, (m, 4)),
                                rng.uniform(0.5, 1.0, m)])
        sets.append(PixelMatchSet((f"s{k}", f"t{k}"), rows))
    alone = [(pm.image_pair, lift_matches([pm], src_proj, tgt_proj, 5.0))
             for pm in sets]
    alone.sort(key=lambda e: (-len(e[1]), e[0]))
    seen_src, seen_tgt, expect = set(), set(), []
    for _, t in alone:
        for s, d, c in zip(t.source_indices, t.target_indices, t.confidence):
            if s not in seen_src and d not in seen_tgt:
                seen_src.add(s)
                seen_tgt.add(d)
                expect.append((s, d, c))
    got = lift_matches(sets, src_proj, tgt_proj, 5.0)
    assert list(zip(got.source_indices, got.target_indices,
                    got.confidence)) == sorted(expect)


def test_lift_without_projections_raises():
    pm = PixelMatchSet(("a", "b"), [[0.0, 0.0, 0.0, 0.0, 0.8]])
    with pytest.raises(InvalidParams):
        lift_matches([pm], {}, {}, R_PX)


# ---------------------------------------------------------------------------
# Displacement gate


def displaced(mags):
    """Tile points whose i-th pair moves by mags[i] along x: (table of the
    pairs, source points, target points)."""
    n = len(mags)
    src = np.zeros((n, 3))
    src[:, 1] = np.arange(n) * 100.0       # keep pairs apart
    tgt = src.copy()
    tgt[:, 0] += np.asarray(mags, dtype=np.float64)
    return CorrTable(np.arange(n), np.arange(n), np.full(n, 0.8)), src, tgt


def test_displacement_gate_boundary():
    out = filter_by_max_displacement(*displaced([9.9, 10.1, 0.0]), 10.0)
    assert out.source_indices.tolist() == [0, 2]


def test_all_outliers_filtered_to_empty():
    out = filter_by_max_displacement(*displaced([11.0, 250.0]), 10.0)
    assert len(out) == 0


def test_gate_is_idempotent_and_subset():
    rng = np.random.default_rng(5)
    table, src, tgt = displaced(rng.uniform(0, 20, 50))
    once = filter_by_max_displacement(table, src, tgt, 10.0)
    twice = filter_by_max_displacement(once, src, tgt, 10.0)
    assert set(once.source_indices) <= set(table.source_indices)
    assert np.array_equal(once.source_indices, twice.source_indices)


def gated(level, *mags):
    """Matches 0, 1, ... of one tile, pair i of match k moving by
    mags[k][i] along x: (MatchSet, source points, target points)."""
    sizes = [len(m) for m in mags]
    table, src, tgt = displaced(np.concatenate(mags))
    supports = np.split(table.source_indices, np.cumsum(sizes)[:-1])
    return MatchSet(level, [PatchMatch(level, k, k, MODALITY_3D, idx, idx)
                            for k, idx in enumerate(supports)]), src, tgt


def test_match_gate_drops_pairs_beyond_d_max():
    out = gate_match_set(*gated(2, [1.0, 12.0, 3.0, 9.9, 4.0]),
                         d_max=10.0, min_support=3)
    assert out.level == 2 and len(out) == 1
    assert out.matches[0].source_indices.tolist() == [0, 2, 3, 4]
    assert out.matches[0].target_indices.tolist() == [0, 2, 3, 4]


def test_match_gate_drops_matches_left_below_min_support():
    gate_input = gated(1, [1.0, 2.0, 3.0, 11.0],      # 3 kept
                       [1.0, 2.0, 11.0, 12.0])        # 2 kept
    assert [m.source_patch_id for m in
            gate_match_set(*gate_input, d_max=10.0, min_support=3).matches] == [0]
    assert len(gate_match_set(*gate_input, d_max=10.0, min_support=4)) == 0


def test_match_gate_returns_untouched_matches_unchanged():
    ms, src, tgt = gated(1, [1.0, 2.0, 3.0])
    out = gate_match_set(ms, src, tgt, d_max=10.0, min_support=3)
    assert out.matches[0] is ms.matches[0]


def test_match_gate_keeps_the_rigid_fit_floor_of_three():
    gate_input = gated(1, [1.0, 2.0])
    for min_support in (0, 1, 2):
        assert len(gate_match_set(*gate_input, d_max=10.0,
                                  min_support=min_support)) == 0


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_gated_supports_use_points_once(seed):
    rng = np.random.default_rng(seed)
    n = 40
    src = rng.uniform(0, 20, (n, 3))
    tgt = rng.uniform(0, 20, (n, 3))
    matches = [PatchMatch(1, k, k, MODALITY_3D, rng.permutation(n)[:12],
                          rng.permutation(n)[:12]) for k in range(5)]
    out = gate_match_set(MatchSet(1, matches), src, tgt, d_max=15.0,
                         min_support=3)
    assert supports_use_points_once(out)
    for m in out.matches:
        held = matches[m.source_patch_id]
        assert set(zip(m.source_indices, m.target_indices)) <= set(
            zip(held.source_indices, held.target_indices))


# ---------------------------------------------------------------------------
# 2D patch voting


def vote_table(src_idx, tgt_idx, conf):
    return CorrTable(np.asarray(src_idx), np.asarray(tgt_idx),
                     np.asarray(conf, dtype=np.float64))


def test_unanimous_votes_give_single_match():
    table = vote_table([0, 1, 2], [0, 1, 2], [0.8, 0.8, 0.8])
    src_labels = np.array([4, 4, 4])
    tgt_labels = np.array([7, 7, 7])
    ms = match_patches_2d(2, table, src_labels, tgt_labels)
    assert [(m.source_patch_id, m.target_patch_id) for m in ms.matches] == [(4, 7)]
    assert ms.matches[0].modality == MODALITY_2D
    assert len(ms.matches[0]) == 3


def test_vote_tie_broken_by_summed_confidence():
    # 5 votes for target patch 0 totalling 4.0, 5 votes for patch 1
    # totalling 3.0 -> patch 0 wins
    table = vote_table(np.arange(10), np.arange(10),
                       [0.8] * 5 + [0.6] * 5)
    src_labels = np.zeros(10, dtype=int)
    tgt_labels = np.array([0] * 5 + [1] * 5)
    ms = match_patches_2d(1, table, src_labels, tgt_labels)
    assert [(m.source_patch_id, m.target_patch_id) for m in ms.matches] == [(0, 0)]
    assert len(ms.matches[0]) == 5


def test_full_tie_prefers_lower_patch_id():
    table = vote_table([0, 1], [0, 1], [0.7, 0.7])
    ms = match_patches_2d(1, table, np.zeros(2, dtype=int), np.array([3, 1]))
    assert [(m.source_patch_id, m.target_patch_id) for m in ms.matches] == [(0, 1)]


def test_unassigned_points_do_not_vote():
    table = vote_table([0, 1, 2], [0, 1, 2], [0.9, 0.9, 0.9])
    ms = match_patches_2d(1, table, np.array([0, -1, 0]), np.array([1, 1, -1]))
    # only row 0 has both ends inside patches
    assert len(ms.matches) == 1
    assert len(ms.matches[0]) == 1


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_voting_equals_histogram_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 60
    src_idx = rng.permutation(n)
    tgt_idx = rng.permutation(n)
    conf = rng.uniform(0.5, 1.0, n).round(3)
    src_labels = rng.integers(0, 5, n)
    tgt_labels = rng.integers(0, 6, n)
    table = vote_table(src_idx, tgt_idx, conf)
    ms = match_patches_2d(1, table, src_labels, tgt_labels)

    expect = {}
    for sid in range(5):
        tally = {}
        for r in range(n):
            if src_labels[src_idx[r]] == sid:
                t = int(tgt_labels[tgt_idx[r]])
                cnt, cs = tally.get(t, (0, 0.0))
                tally[t] = (cnt + 1, cs + conf[r])
        if tally:
            expect[sid] = min(tally, key=lambda t: (-tally[t][0], -tally[t][1], t))
    got = {m.source_patch_id: m.target_patch_id for m in ms.matches}
    assert got == expect
    assert supports_use_points_once(ms)


# ---------------------------------------------------------------------------
# Merging


def simple_match(level, sid, tid, modality, pairs):
    src_idx, tgt_idx = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return PatchMatch(level, sid, tid, modality, src_idx, tgt_idx)


def test_merge_disjoint_sets_concatenates():
    m3 = MatchSet(1, [simple_match(1, 0, 0, MODALITY_3D, [(0, 0)])])
    m2 = MatchSet(1, [simple_match(1, 1, 1, MODALITY_2D, [(5, 5)])])
    out = merge_match_sets(m3, m2)
    assert [(m.source_patch_id, m.target_patch_id) for m in out.matches] \
        == [(0, 0), (1, 1)]
    assert is_injective(out)


def test_merge_same_pair_unions_support():
    m3 = MatchSet(1, [simple_match(1, 0, 0, MODALITY_3D, [(0, 0), (1, 1)])])
    m2 = MatchSet(1, [simple_match(1, 0, 0, MODALITY_2D, [(1, 1), (2, 2)])])
    out = merge_match_sets(m3, m2)
    assert len(out.matches) == 1
    m = out.matches[0]
    assert m.modality == MODALITY_3D
    assert sorted(zip(m.source_indices, m.target_indices)) \
        == [(0, 0), (1, 1), (2, 2)]


def test_merge_conflicting_targets_prefers_3d():
    m3 = MatchSet(1, [simple_match(1, 0, 0, MODALITY_3D, [(0, 0)])])
    m2 = MatchSet(1, [simple_match(1, 0, 9, MODALITY_2D, [(5, 5), (6, 6)])])
    for order in ([m2.matches], [list(reversed(m2.matches))]):
        out = merge_match_sets(m3, MatchSet(1, order[0]))
        assert [(m.source_patch_id, m.target_patch_id, m.modality)
                for m in out.matches] == [(0, 0, MODALITY_3D)]
        assert len(out.matches[0]) == 1


def test_merge_enforces_target_injectivity_by_support_size():
    m3 = MatchSet(1, [simple_match(1, 0, 7, MODALITY_3D, [(0, 0), (1, 1)])])
    m2 = MatchSet(1, [simple_match(1, 3, 7, MODALITY_2D,
                                   [(5, 5), (6, 6), (8, 8)])])
    out = merge_match_sets(m3, m2)
    assert [(m.source_patch_id, m.target_patch_id) for m in out.matches] == [(3, 7)]


def test_merge_target_tie_keeps_lower_source_id():
    m3 = MatchSet(1, [simple_match(1, 2, 7, MODALITY_3D, [(0, 0), (1, 1)])])
    m2 = MatchSet(1, [simple_match(1, 1, 7, MODALITY_2D, [(5, 5), (6, 6)])])
    out = merge_match_sets(m3, m2)
    assert [(m.source_patch_id, m.target_patch_id) for m in out.matches] == [(1, 7)]


def test_merge_rejects_level_mismatch():
    m3 = MatchSet(1, [simple_match(1, 0, 0, MODALITY_3D, [(0, 0)])])
    m2 = MatchSet(2, [])
    with pytest.raises(InvalidParams):
        merge_match_sets(m3, m2)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_merged_sets_always_injective(seed):
    rng = np.random.default_rng(seed)
    used = set()

    def random_set(modality, n):
        matches = []
        for sid in rng.choice(20, size=n, replace=False):
            tid = int(rng.integers(0, 8))
            k = int(rng.integers(1, 5))
            pool = [p for p in range(100) if p not in used][:k]
            used.update(pool)
            matches.append(simple_match(1, int(sid), tid, modality,
                                        [(p, p) for p in pool]))
        return MatchSet(1, matches)

    out = merge_match_sets(random_set(MODALITY_3D, 6), random_set(MODALITY_2D, 6))
    assert is_injective(out)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_merged_supports_use_points_once(seed):
    """Both channels pair points of the same patches independently; a
    support the merge extends still uses each point at most once."""
    rng = np.random.default_rng(seed)

    def channel(modality):
        return MatchSet(1, [PatchMatch(1, sid, sid, modality,
                                       rng.permutation(12)[:6],
                                       rng.permutation(12)[:6])
                            for sid in range(4)])

    out = merge_match_sets(channel(MODALITY_3D), channel(MODALITY_2D))
    assert len(out) == 4
    assert supports_use_points_once(out)
