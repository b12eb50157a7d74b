"""Partitioning: adjacency graph construction, the greedy l0 minimal-partition
solver against exhaustive enumeration on chains, and hierarchy assembly."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from dvfusion.config import PipelineConfig
from dvfusion.errors import InvalidParams
from dvfusion import partition
from dvfusion.geometry import (NORMAL_NEIGHBOURS, RigidTransform,
                               local_covariance_features)
from dvfusion.synth import SynthParams, synth_generate_scene
from dvfusion.partition import (
    AdjacencyGraph,
    build_adjacency_graph,
    cut_pursuit,
    filter_small_patches,
    hierarchical_partition,
    partition_energy,
    partition_features,
    patch_members,
    standardize_features,
)


# ---------------------------------------------------------------------------
# Oracle: independent energy evaluation + exhaustive chain enumeration


def oracle_energy(f, edges, weights, labels, lam):
    """Straight-line reimplementation of the partition energy (no shared code
    with the solver's accounting)."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape[0] == 1 and len(labels) > 1:
        f = f.T
    total = 0.0
    for r in set(labels.tolist()):
        members = [i for i, l in enumerate(labels) if l == r]
        mean = f[members].mean(axis=0)
        total += sum(float(((f[i] - mean) ** 2).sum()) for i in members)
    for (i, j), w in zip(edges, weights):
        if labels[i] != labels[j]:
            total += lam * float(w)
    return total


def chain(n):
    e = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return e, np.ones(n - 1)


def brute_force_chain(f, lam):
    """Enumerate all 2^(n-1) contiguous segmentations of a chain."""
    n = len(f)
    e, w = chain(n)
    best_e, best_lab = np.inf, None
    for cuts in itertools.product([0, 1], repeat=n - 1):
        lab = np.concatenate([[0], np.cumsum(cuts)]).astype(np.int64)
        en = oracle_energy(f, e, w, lab, lam)
        if en < best_e - 1e-15:
            best_e, best_lab = en, lab
    return best_e, best_lab


def staircase(rng, n):
    k = int(rng.integers(1, 4))
    vals = rng.uniform(0, 5, k + 1)
    bounds = np.sort(rng.choice(np.arange(1, n), size=min(k, n - 1), replace=False))
    f = np.empty(n)
    seg = 0
    for i in range(n):
        while seg < len(bounds) and i >= bounds[seg]:
            seg += 1
        f[i] = vals[seg]
    return f


# ---------------------------------------------------------------------------
# Adjacency graph


def test_two_point_cloud_single_edge():
    g = build_adjacency_graph([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], k_adj=3)
    assert len(g.edges) == 1
    assert g.edges[0].tolist() == [0, 1]


def test_grid_degree_at_least_k():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(100)], axis=1)
    g = build_adjacency_graph(pts, k_adj=5)
    assert np.all(np.bincount(g.edges.ravel(), minlength=100) >= 5)


def test_edges_unique_and_cover_nn_relation():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 10, (200, 3))
    g = build_adjacency_graph(pts, k_adj=4)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    keys = g.edges[:, 0] * 200 + g.edges[:, 1]
    assert len(np.unique(keys)) == len(keys)
    # every directed 4-NN pair appears as an undirected edge
    from scipy.spatial import cKDTree
    _, idx = cKDTree(pts).query(pts, k=5)
    edge_set = set(map(tuple, g.edges.tolist()))
    for i in range(200):
        for j in idx[i, 1:]:
            assert (min(i, j), max(i, j)) in edge_set


def test_edge_weights_formula():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 5, (50, 3))
    g = build_adjacency_graph(pts, k_adj=3)
    lengths = np.linalg.norm(pts[g.edges[:, 0]] - pts[g.edges[:, 1]], axis=1)
    dbar = lengths.mean()
    assert np.allclose(g.weights, 1.0 / (1.0 + lengths / dbar))


def test_k_adj_floor():
    with pytest.raises(InvalidParams):
        build_adjacency_graph(np.zeros((5, 3)), k_adj=2)


def one_shot_adjacency_graph(pts, k_adj):
    """The graph as built before the k-NN ran in blocks: every row's k + 1
    neighbours and distances at once, one key array, the lengths of every
    edge at once. The point itself is dropped by id, as the blocked build
    does."""
    n = len(pts)
    kk = min(k_adj + 1, n)
    _, idx = cKDTree(pts).query(pts, k=kk)
    src = np.repeat(np.arange(n), kk)
    dst = idx.ravel()
    other = dst != src
    src, dst = src[other], dst[other]
    key = np.sort(np.minimum(src, dst) * n + np.maximum(src, dst))
    key = key[np.diff(key, prepend=-1) != 0]
    edges = np.stack([key // n, key % n], axis=1)
    lengths = np.linalg.norm(np.take(pts, edges[:, 0], axis=0)
                             - np.take(pts, edges[:, 1], axis=0), axis=1)
    d_mean = float(lengths.mean())
    weights = 1.0 / (1.0 + lengths / d_mean) if d_mean > 0 else np.ones(len(lengths))
    return AdjacencyGraph(edges, weights)


def synth_source_epoch():
    """The source epoch of the 20k-point synth scene of seed 0."""
    return synth_generate_scene(SynthParams(n_points=20_000, texture=False),
                                seed=0).source.points


def adjacency_cases():
    rng = np.random.default_rng(11)
    base = rng.uniform(0, 10, (200, 3))
    xs, ys = np.meshgrid(np.arange(9.0), np.arange(7.0))
    grid = np.stack([xs.ravel(), ys.ravel(), np.zeros(63)], axis=1)
    return {
        "random": (base, 10),
        # exact copies, some with more copies than k_adj + 1 neighbours
        "duplicates": (np.vstack([base, base[:50],
                                  np.repeat(base[:2], 14, axis=0)]), 10),
        # an integer grid: many neighbours tie at equal distance
        "grid": (grid, 4),
        "fewer points than k_adj": (base[:5], 10),
        "one point repeated": (np.zeros((6, 3)), 3),
        "synth epoch": (synth_source_epoch(), 10),
    }


@pytest.mark.parametrize("block", [1, 7, 10 ** 9])
def test_blocked_adjacency_graph_gives_the_one_shot_bits(monkeypatch, block):
    cases = adjacency_cases()
    monkeypatch.setattr(partition, "_GRAPH_BLOCK", block)
    for name, (pts, k_adj) in cases.items():
        want = one_shot_adjacency_graph(pts, k_adj)
        got = build_adjacency_graph(pts, k_adj=k_adj)
        assert np.array_equal(got.edges, want.edges), name
        assert np.array_equal(got.weights, want.weights), name


def test_duplicate_points_link_to_their_copies_not_themselves():
    """An exact copy can come first in a point's own k-NN; dropping column 0
    as the point itself then left a self-loop (i, i) and lost the copy."""
    rng = np.random.default_rng(0)
    base = rng.uniform(0, 10, (200, 3))
    pts = np.vstack([base, base[:50]])
    g = build_adjacency_graph(pts, k_adj=10)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    edge_set = set(map(tuple, g.edges.tolist()))
    assert all((i, 200 + i) in edge_set for i in range(50))
    assert np.all(np.bincount(g.edges.ravel(), minlength=250) >= 10)


def test_adjacency_graph_memory_on_a_synth_epoch():
    pts = synth_source_epoch()
    tracemalloc.start()
    try:
        build_adjacency_graph(pts, k_adj=PipelineConfig().k_adj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 7.4 MiB in blocks of k-NN rows and edges; 16.2 MiB with every row's
    # distances and every edge's coordinate differences at once
    assert peak < 10 * 2 ** 20


# ---------------------------------------------------------------------------
# Solver vs chain oracle


def test_staircase_boundaries_at_steps():
    f = np.array([0.0, 0.0, 0.0, 0.0, 3.0, 3.0, 3.0, 6.0, 6.0, 6.0, 6.0, 6.0])
    e, w = chain(12)
    lab = cut_pursuit(f.reshape(-1, 1), e, w, lam=0.1)
    assert len(set(lab[:4])) == 1
    assert len(set(lab[4:7])) == 1
    assert len(set(lab[7:])) == 1
    assert lab[3] != lab[4] and lab[6] != lab[7]
    got = oracle_energy(f, e, w, lab, 0.1)
    want, _ = brute_force_chain(f, 0.1)
    assert abs(got - want) < 1e-12


def staircase_chain(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    f = staircase(rng, n)
    return f, float(rng.uniform(0.01, 0.5))


def assert_staircase_optimal(seed):
    f, lam = staircase_chain(seed)
    e, w = chain(len(f))
    lab = cut_pursuit(f.reshape(-1, 1), e, w, lam)
    got = oracle_energy(f, e, w, lab, lam)
    want, _ = brute_force_chain(f, lam)
    assert abs(got - want) < 1e-9


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_staircase_chains_match_enumeration(seed):
    assert_staircase_optimal(seed)


# Draws on which the greedy moves alone stall above the optimum, one per
# kind of stall: a split that only pays once a piece merges back (650), a
# 2-means split that misses the step (2401), a piece that belongs to the
# neighbouring region (2889), three regions that only merge together (6781),
# four pieces that only pay as two regions (24065). The others are further
# draws on which the greedy moves alone miss the optimum.
GREEDY_STALLS = [650, 2401, 2889, 6781, 24065]
MORE_STALLS = [599, 1325, 1334, 1751, 33705, 339467]


@pytest.mark.parametrize("seed", GREEDY_STALLS + MORE_STALLS)
def test_staircase_chains_that_stall_greedy_moves(seed):
    assert_staircase_optimal(seed)


@pytest.mark.parametrize("seed", GREEDY_STALLS)
def test_few_region_finish_lowers_greedy_stalls(monkeypatch, seed):
    f, lam = staircase_chain(seed)
    e, w = chain(len(f))
    finished = cut_pursuit(f.reshape(-1, 1), e, w, lam)
    monkeypatch.setattr(partition, "_EXACT_REGIONS", 0)
    greedy = cut_pursuit(f.reshape(-1, 1), e, w, lam)
    assert (oracle_energy(f, e, w, finished, lam)
            < oracle_energy(f, e, w, greedy, lam) - 1e-9)


@pytest.mark.parametrize("seed", [1, 3, 4])
def test_best_union_is_the_lowest_union(seed):
    """The exhaustive union search against every union of the pieces, each
    scored by the oracle."""
    rng = np.random.default_rng(700 + seed)
    pts, e, w = knn_graph(rng, 60)
    f = rng.normal(0, 1, (60, 2))
    cells = np.digitize(pts[:, 0], [10.0, 20.0]) * 2 + (pts[:, 1] > 15.0)
    keep = cells[e[:, 0]] == cells[e[:, 1]]
    pieces = partition._components(60, e[keep])
    k = pieces.max() + 1
    assert k <= partition._EXACT_REGIONS
    got = partition._best_union(f, e, w, pieces, 0.6, np.ones(60))
    # a union of the pieces, with connected regions
    assert all(len(set(got[pieces == p].tolist())) == 1 for p in range(k))
    comp = partition._components(60, e[got[e[:, 0]] == got[e[:, 1]]])
    assert all(len(set(comp[got == r].tolist())) == 1 for r in range(got.max() + 1))
    want = min(oracle_energy(f, e, w, np.asarray(rgs)[pieces], 0.6)
               for rgs in _ref_set_partitions(k))
    assert abs(oracle_energy(f, e, w, got, 0.6) - want) < 1e-9


@pytest.mark.parametrize("seed", GREEDY_STALLS)
def test_few_region_finish_same_labels_as_reference(seed):
    f, lam = staircase_chain(seed)
    e, w = chain(len(f))
    got = cut_pursuit(f.reshape(-1, 1), e, w, lam)
    assert np.array_equal(got, reference_cut_pursuit(f.reshape(-1, 1), e, w, lam))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10**6))
def test_random_chains_never_beat_enumeration(seed):
    """The brute-force enumeration is the true minimum; the greedy solution can
    tie it but never undercut it (oracle-validity check)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    f = rng.uniform(0, 3, n)
    lam = float(rng.uniform(0.01, 1.0))
    e, w = chain(n)
    lab = cut_pursuit(f.reshape(-1, 1), e, w, lam)
    got = oracle_energy(f, e, w, lab, lam)
    want, _ = brute_force_chain(f, lam)
    assert got >= want - 1e-9


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10**6))
def test_energy_never_above_trivial_labelings(seed):
    rng = np.random.default_rng(seed)
    n = 120
    pts = rng.uniform(0, 10, (n, 3))
    g = build_adjacency_graph(pts, k_adj=4)
    f = rng.normal(0, 1, (n, 2))
    lam = float(rng.choice([0.01, 0.3, 5.0]))
    lab = cut_pursuit(f, g.edges, g.weights, lam)
    e_sol = oracle_energy(f, g.edges, g.weights, lab, lam)
    e_single = oracle_energy(f, g.edges, g.weights, np.zeros(n, dtype=int), lam)
    e_singletons = oracle_energy(f, g.edges, g.weights, np.arange(n), lam)
    assert e_sol <= e_single + 1e-9
    assert e_sol <= e_singletons + 1e-9


def test_solver_regions_are_connected():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0, 20, (300, 3))
    g = build_adjacency_graph(pts, k_adj=5)
    f = rng.normal(0, 1, (300, 3))
    lab = cut_pursuit(f, g.edges, g.weights, 0.4)
    # regions must be connected in the adjacency graph
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    same = lab[g.edges[:, 0]] == lab[g.edges[:, 1]]
    m = coo_matrix((np.ones(same.sum()), (g.edges[same, 0], g.edges[same, 1])),
                   shape=(300, 300))
    _, comp = connected_components(m, directed=False)
    for r in np.unique(lab):
        members = comp[lab == r]
        assert len(np.unique(members)) == 1


# ---------------------------------------------------------------------------
# Hierarchy


def hierarchy(points, feats=None, **kw):
    """`hierarchical_partition` with the configured settings, `kw`
    overriding them; without `feats`, on the partition features a run
    derives from the points' k-NN covariance."""
    if feats is None:
        feats = partition_features(
            local_covariance_features(points, k=NORMAL_NEIGHBOURS))
    cfg = PipelineConfig()
    settings = dict(lambda_factors=cfg.lambda_factors, min_patch=cfg.min_patch,
                    k_adj=cfg.k_adj)
    return hierarchical_partition(points, feats, **{**settings, **kw})


def two_cluster_scene(rng, n_each=60):
    a = rng.normal(0, 0.5, (n_each, 3)) + np.array([0.0, 0.0, 0.0])
    b = rng.normal(0, 0.5, (n_each, 3)) + np.array([50.0, 0.0, 0.0])
    pts = np.vstack([a, b])
    feats = np.vstack([np.tile([0.1, 0.1, 0.0], (n_each, 1)),
                       np.tile([0.9, 0.2, 0.5], (n_each, 1))])
    feats = feats + rng.normal(0, 0.01, feats.shape)
    return pts, feats


def test_two_separated_clusters_two_patches_each_level():
    rng = np.random.default_rng(11)
    pts, feats = two_cluster_scene(rng)
    for lambdas in [(0.05, 0.2, 1.0), (0.2, 1.0, 4.0)]:
        # standardized live channels have unit variance: factors = strengths
        part = hierarchy(pts, feats=feats, lambda_factors=lambdas)
        for level in (1, 2, 3):
            assert len(part.patches(level)) == 2


def test_uniform_features_single_patch():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 5, (80, 3))
    feats = np.full((80, 3), 0.7)
    part = hierarchy(pts, feats=feats)
    for level in (1, 2, 3):
        assert len(part.patches(level)) == 1
        assert len(part.patches(level)[0]) == 80


def test_lambdas_must_increase():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 5, (40, 3))
    with pytest.raises(InvalidParams):
        hierarchy(pts, feats=np.ones((40, 2)), lambda_factors=(1.0, 1.0, 2.0))


def test_monotone_coarsening_on_clustered_scene():
    rng = np.random.default_rng(14)
    pts = rng.uniform(0, 60, (2000, 3))
    pts[:, 2] *= 0.05
    centers = rng.uniform(0, 60, (8, 2))
    cl = np.linalg.norm(pts[:, None, :2] - centers[None], axis=2).argmin(axis=1)
    feats = rng.uniform(0, 1, (8, 3))[cl] + rng.normal(0, 0.05, (2000, 3))
    part = hierarchy(pts, feats=feats)
    n1 = len(part.patches(1))
    n3 = len(part.patches(3))
    assert n1 >= n3
    assert n1 >= 1


def test_levels_disjoint_and_labels_consistent():
    rng = np.random.default_rng(15)
    pts = rng.uniform(0, 30, (600, 3))
    feats = rng.uniform(0, 1, (600, 3))
    part = hierarchy(pts, feats=feats)
    for level in (1, 2, 3):
        lab = part.labels(level)
        seen = np.zeros(len(pts), dtype=int)
        patches = part.patches(level)
        first = []
        for pid, members in enumerate(patches):
            seen[members] += 1
            assert np.all(lab[members] == pid)
            assert np.all(np.diff(members) > 0)
            assert len(members) >= 10
            first.append(members[0])
        assert seen.max() <= 1
        assert np.all((lab >= 0) == (seen == 1))
        # ids run 0..K-1 in order of each patch's lowest point index
        assert len(patches) == lab.max() + 1
        assert np.all(np.diff(first) > 0)


def test_patch_members_groups_ascending_by_id():
    labels = np.array([2, -1, 0, 2, 0, -1, 2, 4])
    got = [m.tolist() for m in patch_members(labels)]
    assert got == [[2, 4], [], [0, 3, 6], [], [7]]
    assert patch_members(np.full(3, -1)) == []


def test_filter_small_patches_thresholds():
    labels = np.array([0] * 9 + [1] * 10 + [2] * 3)
    out = filter_small_patches(labels, min_patch=10)
    assert np.all(out[:9] == -1)          # 9-point patch removed
    assert np.all(out[9:19] == 1)         # 10-point patch kept
    assert np.all(out[19:] == -1)
    empty = filter_small_patches(np.full(5, -1), min_patch=10)
    assert np.all(empty == -1)


def test_rigid_motion_invariance_of_memberships():
    from scipy.spatial.transform import Rotation
    rng = np.random.default_rng(16)
    pts, feats = two_cluster_scene(rng, n_each=120)
    jitter = rng.normal(0, 0.2, pts.shape)
    pts = pts + jitter
    part_a = hierarchy(pts, feats=feats)
    t = RigidTransform(Rotation.from_euler("xyz", [5, -3, 30], degrees=True).as_matrix(),
                       [12.0, -7.0, 4.0])
    part_b = hierarchy(t.apply(pts), feats=feats)
    for level in (1, 2, 3):
        assert np.array_equal(part_a.labels(level), part_b.labels(level))


def test_standardize_features_handles_dead_channels():
    f = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    out = standardize_features(f)
    assert abs(out[:, 0].mean()) < 1e-12
    assert abs(out[:, 0].std() - 1.0) < 1e-12
    assert np.all(out[:, 1] == 0.0)


def test_partition_energy_matches_oracle():
    rng = np.random.default_rng(18)
    n = 40
    pts = rng.uniform(0, 10, (n, 3))
    g = build_adjacency_graph(pts, k_adj=3)
    f = rng.normal(0, 1, (n, 2))
    for labels in (rng.integers(0, 4, n), rng.integers(-1, 3, n)):
        assert abs(partition_energy(f, g.edges, g.weights, labels, 0.7)
                   - oracle_energy(f, g.edges, g.weights, labels, 0.7)) < 1e-9


# ---------------------------------------------------------------------------
# Reference: the full-sweep solver as it was before the active set, with its
# arithmetic in the same order: every split pass retries every region, sums
# go through `np.add.at`, and the merge and polish loops work on arrays. The
# solver must return the same labels.


def _ref_region_stats(f, labels, nreg, sizes):
    counts = np.bincount(labels, weights=sizes, minlength=nreg)
    sums = np.zeros((nreg, f.shape[1]))
    np.add.at(sums, labels, sizes[:, None] * f)
    sq = np.bincount(labels, weights=sizes * (f * f).sum(axis=1), minlength=nreg)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = sq - (sums * sums).sum(axis=1) / counts
    data[counts == 0] = 0.0
    return counts, sums, data


def _ref_canonical(labels):
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first))
    return order[inv]


def _ref_components(n, sub_edges):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    if len(sub_edges) == 0:
        return np.arange(n)
    m = coo_matrix((np.ones(len(sub_edges)), (sub_edges[:, 0], sub_edges[:, 1])),
                   shape=(n, n))
    _, comp = connected_components(m, directed=False)
    return comp


def _ref_energy(f, edges, weights, labels, lam, sizes):
    _, inv = np.unique(labels, return_inverse=True)
    _, _, per_region = _ref_region_stats(f, inv, inv.max() + 1, sizes)
    cut = float(np.sum(weights[inv[edges[:, 0]] != inv[edges[:, 1]]])) if len(edges) else 0.0
    return float(per_region.sum()) + lam * cut


def _ref_bisect(f, edges, weights, labels, lam, sizes, sweeps):
    """Every region's connected pieces after its 2-means split."""
    n, dim = f.shape
    nreg = labels.max() + 1
    counts, sums, _ = _ref_region_stats(f, labels, nreg, sizes)
    means = np.zeros((nreg, dim))
    nz = counts > 0
    means[nz] = sums[nz] / counts[nz, None]
    centered = f - means[labels]
    cov = np.zeros((nreg, dim, dim))
    np.add.at(cov, labels, sizes[:, None, None] * (centered[:, :, None] * centered[:, None, :]))
    _, vecs = np.linalg.eigh(cov)
    pc1 = vecs[:, :, -1]
    flip = pc1[np.arange(nreg), np.abs(pc1).argmax(axis=1)] < 0
    pc1[flip] *= -1.0
    proj = np.einsum("ij,ij->i", centered, pc1[labels])
    order = np.lexsort((np.arange(n), proj, labels))
    sorted_labels = labels[order]
    first_of = np.searchsorted(sorted_labels, np.arange(nreg), side="left")
    last_of = np.searchsorted(sorted_labels, np.arange(nreg), side="right") - 1
    c0 = f[order[np.clip(first_of, 0, n - 1)]].copy()
    c1 = f[order[np.clip(last_of, 0, n - 1)]].copy()
    side = np.zeros(n, dtype=np.int64)

    def assign(with_cut):
        d0 = sizes * ((f - c0[labels]) ** 2).sum(axis=1)
        d1 = sizes * ((f - c1[labels]) ** 2).sum(axis=1)
        if with_cut and len(edges):
            internal = labels[edges[:, 0]] == labels[edges[:, 1]]
            ie, iw = edges[internal], weights[internal]
            pen0, pen1 = np.zeros(n), np.zeros(n)
            s_i, s_j = side[ie[:, 0]], side[ie[:, 1]]
            np.add.at(pen0, ie[:, 0], iw * (s_j == 1))
            np.add.at(pen1, ie[:, 0], iw * (s_j == 0))
            np.add.at(pen0, ie[:, 1], iw * (s_i == 1))
            np.add.at(pen1, ie[:, 1], iw * (s_i == 0))
            d0 = d0 + lam * pen0
            d1 = d1 + lam * pen1
        return np.where(d1 < d0, 1, 0)

    def update_centers():
        key = labels * 2 + side
        cnt = np.bincount(key, weights=sizes, minlength=nreg * 2)
        sm = np.zeros((nreg * 2, dim))
        np.add.at(sm, key, sizes[:, None] * f)
        ok = cnt > 0
        sm[ok] /= cnt[ok, None]
        return (np.where(ok[0::2, None], sm[0::2], c0),
                np.where(ok[1::2, None], sm[1::2], c1))

    for iters, with_cut in ((partition._KMEANS_ITERS, False), (sweeps, True)):
        for _ in range(iters):
            new_side = assign(with_cut)
            if np.array_equal(new_side, side):
                break
            side = new_side
            c0, c1 = update_centers()
    key = labels * 2 + side
    if len(edges):
        comp = _ref_components(n, edges[key[edges[:, 0]] == key[edges[:, 1]]])
    else:
        comp = np.arange(n)
    return _ref_canonical(comp)


def _ref_split_pass(f, edges, weights, labels, lam, sizes):
    nreg = labels.max() + 1
    _, _, data_old = _ref_region_stats(f, labels, nreg, sizes)
    if not (np.bincount(labels, minlength=nreg) >= 2).any():
        return labels, False
    comp = _ref_bisect(f, edges, weights, labels, lam, sizes,
                       partition._ICM_SWEEPS)
    _, _, comp_data = _ref_region_stats(f, comp, comp.max() + 1, sizes)
    _, first_vertex = np.unique(comp, return_index=True)
    data_new = np.bincount(labels[first_vertex], weights=comp_data, minlength=nreg)
    cut_new = np.zeros(nreg)
    if len(edges):
        internal = labels[edges[:, 0]] == labels[edges[:, 1]]
        ie, iw = edges[internal], weights[internal]
        crossing = comp[ie[:, 0]] != comp[ie[:, 1]]
        np.add.at(cut_new, labels[ie[:, 0][crossing]], iw[crossing])
    accept = data_old - (data_new + lam * cut_new) > partition._EPS_DECREASE
    if not accept.any():
        return labels, False
    out = labels.copy()
    take = accept[labels]
    out[take] = nreg + comp[take]
    return _ref_canonical(out), True


def _ref_merge_pass(f, edges, weights, labels, lam, sizes):
    changed_any = False
    while True:
        nreg = labels.max() + 1
        if nreg <= 1 or len(edges) == 0:
            return labels, changed_any
        counts, sums, data = _ref_region_stats(f, labels, nreg, sizes)
        la, lb = labels[edges[:, 0]], labels[edges[:, 1]]
        cross = la != lb
        if not cross.any():
            return labels, changed_any
        a = np.minimum(la[cross], lb[cross])
        b = np.maximum(la[cross], lb[cross])
        uniq, inv = np.unique(a.astype(np.int64) * nreg + b, return_inverse=True)
        wsum = np.bincount(inv, weights=weights[cross], minlength=len(uniq))
        pa = (uniq // nreg).astype(np.int64)
        pb = (uniq % nreg).astype(np.int64)
        smerge = sums[pa] + sums[pb]
        data_merged = (data[pa] + data[pb]
                       + counts[pa] * ((sums[pa] / counts[pa, None]) ** 2).sum(1)
                       + counts[pb] * ((sums[pb] / counts[pb, None]) ** 2).sum(1)
                       - (smerge ** 2).sum(1) / (counts[pa] + counts[pb]))
        gain = lam * wsum - (data_merged - data[pa] - data[pb])
        used = np.zeros(nreg, dtype=bool)
        mapping = np.arange(nreg)
        any_this_round = False
        for e in np.lexsort((pb, pa, -gain)):
            if gain[e] <= partition._EPS_DECREASE:
                break
            ra, rb = pa[e], pb[e]
            if used[ra] or used[rb]:
                continue
            mapping[rb] = ra
            used[ra] = used[rb] = True
            any_this_round = True
        if not any_this_round:
            return labels, changed_any
        labels = _ref_canonical(mapping[labels])
        changed_any = True


def _ref_boundary_polish(f, edges, weights, labels, lam, sizes):
    n = len(f)
    if n > partition._POLISH_LIMIT or len(edges) == 0:
        return labels, False
    nbr = [[] for _ in range(n)]
    for (i, j), w in zip(edges, weights):
        nbr[i].append((int(j), float(w)))
        nbr[j].append((int(i), float(w)))
    labels = labels.copy()
    nreg = labels.max() + 1
    counts, sums, _ = _ref_region_stats(f, labels, nreg, sizes)
    vertices_per = np.bincount(labels, minlength=nreg)
    changed_any = False
    for _ in range(6):
        moved = False
        boundary = np.unique(edges[labels[edges[:, 0]] != labels[edges[:, 1]]].ravel())
        for v in boundary:
            r = labels[v]
            if vertices_per[r] <= 1:
                continue
            cand = {r} | {int(labels[u]) for u, _w in nbr[v]}
            if len(cand) == 1:
                continue
            fv, sv = f[v], float(sizes[v])
            best_lab, best_delta = r, 0.0
            mu_r = sums[r] / counts[r]
            rem = -(counts[r] * sv / (counts[r] - sv)) * float(((fv - mu_r) ** 2).sum())
            for s in sorted(cand):
                if s == r:
                    continue
                mu_s = sums[s] / counts[s]
                add = (counts[s] * sv / (counts[s] + sv)) * float(((fv - mu_s) ** 2).sum())
                dcut = 0.0
                for u, w in nbr[v]:
                    lu = labels[u]
                    dcut += w * (int(lu != s) - int(lu != r))
                delta = rem + add + lam * dcut
                if delta < best_delta - partition._EPS_DECREASE:
                    best_delta, best_lab = delta, s
            if best_lab != r:
                labels[v] = best_lab
                counts[r] -= sv
                sums[r] -= sv * fv
                vertices_per[r] -= 1
                counts[best_lab] += sv
                sums[best_lab] += sv * fv
                vertices_per[best_lab] += 1
                moved = True
        if not moved:
            break
        changed_any = True
    if changed_any:
        same = labels[edges[:, 0]] == labels[edges[:, 1]]
        labels = _ref_canonical(_ref_components(n, edges[same]))
    return labels, changed_any


def _ref_set_partitions(k):
    """Partitions of k items as restricted growth strings, in lexicographic
    order."""
    def grow(prefix):
        if len(prefix) == k:
            yield prefix
            return
        for block in range(max(prefix) + 2):
            yield from grow(prefix + [block])
    yield from grow([0])


def _ref_finish_few_regions(f, edges, weights, labels, lam, sizes):
    if labels.max() + 1 > partition._EXACT_REGIONS:
        return labels
    pieces = labels
    while True:
        finer = _ref_bisect(f, edges, weights, pieces, lam, sizes, sweeps=0)
        if (finer.max() == pieces.max()
                or finer.max() + 1 > partition._EXACT_REGIONS):
            break
        pieces = finer
    best, best_e = None, np.inf
    for rgs in _ref_set_partitions(pieces.max() + 1):
        union = np.asarray(rgs)[pieces]
        e = _ref_energy(f, edges, weights, union, lam, sizes)
        if e < best_e:
            best, best_e = union, e
    same = best[edges[:, 0]] == best[edges[:, 1]]
    return _ref_canonical(_ref_components(len(f), edges[same]))


def reference_cut_pursuit(features, edges, weights, lam, sizes=None):
    f = np.asarray(features, dtype=np.float64)
    n = f.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    sizes = np.ones(n) if sizes is None else np.asarray(sizes, dtype=np.float64)
    labels = _ref_canonical(_ref_components(n, edges))
    for _ in range(partition._MAX_OUTER):
        ch_split = False
        while True:
            labels, ch = _ref_split_pass(f, edges, weights, labels, lam, sizes)
            ch_split = ch_split or ch
            if not ch:
                break
        labels, ch_merge = _ref_merge_pass(f, edges, weights, labels, lam, sizes)
        labels, ch_polish = _ref_boundary_polish(f, edges, weights, labels, lam, sizes)
        if not (ch_split or ch_merge or ch_polish):
            break
    best = labels
    best_e = _ref_energy(f, edges, weights, labels, lam, sizes)
    for cand in (_ref_finish_few_regions(f, edges, weights, labels, lam, sizes),
                 _ref_canonical(_ref_components(n, edges)), np.arange(n)):
        e = _ref_energy(f, edges, weights, cand, lam, sizes)
        if e < best_e - partition._EPS_DECREASE:
            best, best_e = cand, e
    return _ref_canonical(best)


# ---------------------------------------------------------------------------
# Solver vs reference


def test_flat_features_are_rejected():
    rng = np.random.default_rng(99)
    pts, e, w = knn_graph(rng, 30)
    with pytest.raises(InvalidParams, match="features must be"):
        cut_pursuit(rng.normal(size=30), e, w, 0.4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_or_sizes_are_rejected(bad):
    rng = np.random.default_rng(98)
    pts, e, w = knn_graph(rng, 30)
    f = rng.normal(size=(30, 2))
    f[7, 1] = bad
    with pytest.raises(InvalidParams, match="must be finite"):
        cut_pursuit(f, e, w, 0.4)
    sizes = np.ones(30)
    sizes[3] = bad
    with pytest.raises(InvalidParams, match="must be finite"):
        cut_pursuit(f[:, :1], e, w, 0.4, sizes=sizes)


def knn_graph(rng, n, k_adj=6):
    """Random k-NN graph over clustered points, with cluster features."""
    pts = rng.uniform(0, 30, (n, 3))
    g = build_adjacency_graph(pts, k_adj=k_adj)
    return pts, g.edges, g.weights


def clustered_features(rng, pts, dim, n_clusters=8, noise=0.3):
    centers = pts[rng.choice(len(pts), n_clusters, replace=False)]
    cl = np.linalg.norm(pts[:, None] - centers[None], axis=2).argmin(axis=1)
    return rng.normal(0, 1, (n_clusters, dim))[cl] + rng.normal(0, noise, (len(pts), dim))


def assert_same_labels(f, edges, weights, sizes=None):
    for lam in (0.05, 0.4, 1.0, 2.0):
        got = cut_pursuit(f, edges, weights, lam, sizes=sizes)
        want = reference_cut_pursuit(f, edges, weights, lam, sizes=sizes)
        assert np.array_equal(got, want), lam


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("dim", [1, 4, 9])
def test_same_labels_as_reference_on_knn_graphs(seed, dim):
    rng = np.random.default_rng(100 + seed)
    pts, e, w = knn_graph(rng, 300)
    f = clustered_features(rng, pts, dim)
    assert_same_labels(f, e, w)


@pytest.mark.parametrize("seed", range(3))
def test_same_labels_as_reference_with_sizes(seed):
    """Non-unit multiplicities, as on a region-contracted graph."""
    rng = np.random.default_rng(200 + seed)
    pts, e, w = knn_graph(rng, 250)
    f = clustered_features(rng, pts, 4, noise=0.5)
    assert_same_labels(f, e, w * rng.uniform(0.5, 3.0, len(w)),
                       sizes=rng.integers(1, 40, len(pts)).astype(float))


def test_same_labels_as_reference_on_disconnected_graphs():
    rng = np.random.default_rng(300)
    pts, e, w = knn_graph(rng, 300)
    f = clustered_features(rng, pts, 3)
    # cut the slab x in [12, 18) loose, and isolate every 25th vertex
    halves = np.digitize(pts[:, 0], [12.0, 18.0])
    isolated = np.zeros(len(pts), dtype=bool)
    isolated[::25] = True
    keep = (halves[e[:, 0]] == halves[e[:, 1]]) & ~isolated[e].any(axis=1)
    assert_same_labels(f, e[keep], w[keep])
    assert_same_labels(f, np.zeros((0, 2), dtype=np.int64), np.zeros(0))


def test_same_labels_as_reference_with_ties():
    rng = np.random.default_rng(400)
    pts, e, w = knn_graph(rng, 240)
    assert_same_labels(np.full((240, 3), 0.25), e, w)
    # features drawn from four values: many exact duplicates and equal seeds
    f = rng.integers(0, 4, (240, 2)).astype(float)
    assert_same_labels(f, e, w)
    assert_same_labels(f, e, np.ones(len(e)), sizes=np.full(240, 3.0))


@pytest.mark.parametrize("n", [120, 200])
def test_same_labels_as_reference_around_polish_limit(monkeypatch, n):
    monkeypatch.setattr(partition, "_POLISH_LIMIT", 150)
    rng = np.random.default_rng(500 + n)
    pts, e, w = knn_graph(rng, n)
    assert_same_labels(clustered_features(rng, pts, 4, noise=0.6), e, w)


def test_hierarchy_same_labels_as_reference(monkeypatch):
    from dvfusion.synth import SynthParams, synth_generate_scene
    scene = synth_generate_scene(SynthParams(n_points=3000, texture=False), seed=7)
    pts = scene.source.points
    got = hierarchy(pts)
    monkeypatch.setattr(partition, "cut_pursuit", reference_cut_pursuit)
    want = hierarchy(pts)
    for a, b in zip(got.level_labels, want.level_labels):
        assert np.array_equal(a, b)


def test_bench_scale_hierarchy_same_labels_as_reference(monkeypatch):
    """The 20k-point source epoch of the `slope20k_3d` bench scene, seed 0:
    levels 1 and 2 lie above the polish limit and level 3 below it. Each
    level's solve gives the reference's labels."""
    from dvfusion.synth import SynthParams, synth_generate_scene
    scene = synth_generate_scene(SynthParams(n_points=20_000, texture=False), seed=0)
    solve, solved = partition.cut_pursuit, []

    def both(features, edges, weights, lam, sizes=None):
        got = solve(features, edges, weights, lam, sizes=sizes)
        want = reference_cut_pursuit(features, edges, weights, lam, sizes=sizes)
        assert np.array_equal(got, want), len(solved) + 1
        solved.append(len(features))
        return got

    monkeypatch.setattr(partition, "cut_pursuit", both)
    hierarchy(scene.source.points)
    assert len(solved) == 3 and solved[0] == 20_000
    assert solved[1] > partition._POLISH_LIMIT >= solved[2]


@pytest.mark.parametrize("n", [1, 3, 7, 8, 9, 16, 17, 127, 128, 129, 300])
def test_python_sum_has_numpy_bits(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)
    assert partition._sum(x.tolist()) == x.sum()


@pytest.mark.parametrize("cols", range(1, 10))
def test_row_sums_have_numpy_bits(cols):
    rng = np.random.default_rng(cols)
    a = rng.standard_normal((500, cols)) * 10.0 ** rng.integers(-150, 150, (500, cols))
    a[rng.random(a.shape) < 0.2] = 0.0
    a[rng.random(a.shape) < 0.2] = -0.0
    a[:20] = -0.0                       # rows of negative zeros only
    got = partition._sum(list(a.T))             # the solver's sums over channels
    assert np.array_equal(got.view(np.int64), a.sum(axis=1).view(np.int64))


# ---------------------------------------------------------------------------
# Column kernels: the bits of the row-major forms they replace

KERNEL_DIMS = [1, 4, 8, 9, 17]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def spread_columns(rng, n, dim):
    """(dim, n) feature columns over twelve orders of magnitude, so that
    adding the channels in another order changes the last bits of many
    sums."""
    return rng.standard_normal((dim, n)) * 10.0 ** rng.uniform(-6, 6, (dim, n))


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_sq_dists_have_row_sum_bits(dim):
    rng = np.random.default_rng(900 + dim)
    xt = spread_columns(rng, 600, dim)
    centers = spread_columns(rng, 40, dim)
    idx = rng.integers(0, 40, 600)
    rows = np.ascontiguousarray(xt.T) - np.ascontiguousarray(centers.T)[idx]
    # numpy adds a C-contiguous row pairwise from 8 terms on
    want = (rows ** 2).sum(axis=1)
    assert np.array_equal(bits(partition._sq_dists(xt, centers, idx)), bits(want))


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_region_stats_have_row_major_bits(dim):
    """Counts, per-channel sums and scatter of non-unit multiplicities
    against `np.add.at` over rows and `.sum(axis=1)`."""
    rng = np.random.default_rng(950 + dim)
    ft = spread_columns(rng, 600, dim)
    labels = rng.integers(0, 300, 600)
    sizes = rng.integers(1, 40, 600).astype(float)
    got = partition._region_stats(np.ascontiguousarray(ft), labels, 301, sizes)
    want = _ref_region_stats(np.ascontiguousarray(ft.T), labels, 301, sizes)
    for g, w in zip(got, (want[0], want[1].T, want[2])):
        assert np.array_equal(bits(g), bits(w))


@pytest.mark.parametrize("dim", KERNEL_DIMS)
def test_covariance_has_outer_product_bits(dim):
    """`sizes * (c_i * c_j)` scattered per region: the outer-product form.
    Sizes that are not powers of two make `(sizes * c_i) * c_j` round
    differently."""
    rng = np.random.default_rng(1000 + dim)
    ct = spread_columns(rng, 600, dim)
    labels = rng.integers(0, 30, 600)
    sizes = rng.integers(1, 40, 600).astype(float)
    c = ct.T
    want = np.zeros((30, dim, dim))
    np.add.at(want, labels, sizes[:, None, None] * (c[:, :, None] * c[:, None, :]))
    got = partition._covariance(ct, labels, 30, sizes)
    assert got.flags.c_contiguous
    assert np.array_equal(bits(got), bits(want))


def lexsort_seeds(proj, labels, nreg):
    """The seeds as a sort defines them: each region's first and last vertex
    in (region, projection, index) order."""
    order = np.lexsort((np.arange(len(proj)), proj, labels))
    ordered = labels[order]
    return (order[np.searchsorted(ordered, np.arange(nreg), side="left")],
            order[np.searchsorted(ordered, np.arange(nreg), side="right") - 1])


@pytest.mark.parametrize("seed", range(5))
def test_extreme_seeds_break_ties_like_lexsort(seed):
    """Projections drawn from a few values, -0.0 and +0.0 among them: ties
    go to the lowest index for the first seed and to the highest for the
    last, and the two zeros tie."""
    rng = np.random.default_rng(1100 + seed)
    values = np.array([-2.5, -1.0, -0.0, 0.0, 1e-300, 3.0])
    proj = values[rng.integers(0, len(values), 400)]
    labels = rng.integers(0, 25, 400)
    labels[:25] = np.arange(25)                 # every region has a vertex
    first, last = partition._extreme_seeds(proj, labels, 25)
    want_first, want_last = lexsort_seeds(proj, labels, 25)
    assert np.array_equal(first, want_first)
    assert np.array_equal(last, want_last)


def test_extreme_seeds_of_signed_zeros_only():
    proj = np.array([0.0, -0.0, 0.0, -0.0, -0.0])
    labels = np.array([0, 0, 1, 1, 0])
    first, last = partition._extreme_seeds(proj, labels, 2)
    assert first.tolist() == [0, 2] and last.tolist() == [4, 3]


@pytest.mark.parametrize("labels", [
    [],
    [7],
    [5, 5, 0, 1000, 5, 3, 0, 1000],             # gaps and repeats
    [3, 2, 1, 0],
    list(np.random.default_rng(1200).integers(0, 10 ** 4, 3000)),
])
def test_canonical_labels_match_the_unique_definition(labels):
    labels = np.asarray(labels, dtype=np.int64)
    got = partition._canonical_labels(labels)
    want = _ref_canonical(labels) if len(labels) else np.zeros(0, dtype=np.int64)
    assert got.dtype == np.int64 and np.array_equal(got, want)


@pytest.mark.parametrize("n, edges, want", [
    (5, [], [0, 1, 2, 3, 4]),
    # isolated vertices 0 and 3, edges listed high-to-low
    (7, [[6, 5], [4, 2], [5, 1]], [0, 1, 2, 3, 2, 1, 1]),
    (6, [[5, 4], [4, 3], [2, 1]], [0, 1, 1, 2, 2, 2]),
])
def test_components_are_numbered_by_lowest_vertex(n, edges, want):
    got = partition._components(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    assert got.dtype == np.int64 and got.tolist() == want


def count_calls(monkeypatch, name):
    """Count the calls of a partition function made from now on."""
    calls = []
    fn = getattr(partition, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(partition, name, counted)
    return calls


def test_cascading_merges_same_labels_as_reference(monkeypatch):
    """From singletons on a chain of slowly drifting features, pairs merge
    into pairs of pairs and so on: one merge pass of many rounds."""
    rng = np.random.default_rng(700)
    n = 256
    e = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    w = rng.uniform(0.5, 2.0, n - 1)
    f = np.cumsum(rng.normal(0, 0.05, (n, 3)), axis=0)
    sizes = rng.integers(1, 5, n).astype(float)
    for lam in (0.05, 0.4, 2.0):
        want, _ = _ref_merge_pass(f, e, w, np.arange(n), lam, sizes)
        stats = count_calls(monkeypatch, "_region_stats")
        got, changed = partition._merge_pass(f, e, w, np.arange(n), lam, sizes)
        monkeypatch.undo()
        assert changed and np.array_equal(got, want), lam
        assert len(stats) - 1 > 2, lam          # one call per round after the first
    assert_same_labels(f, e, w, sizes=sizes)


def moved_vertices(start, end):
    """Vertices whose final region mostly holds another starting region."""
    table = np.zeros((end.max() + 1, start.max() + 1), dtype=np.int64)
    np.add.at(table, (end, start), 1)
    return start != table.argmax(axis=1)[end]


@pytest.mark.parametrize("hub_degree", [0, 8, 32])
def test_polish_with_many_moves_same_labels_as_reference(monkeypatch, hub_degree):
    """Regions drawn around other centres than the features' clusters, so
    most boundary vertices move, and many are rescored after a move. A last
    vertex joined to `hub_degree` random vertices gives the scorer one wide
    boundary vertex, with neighbours in many regions."""
    rng = np.random.default_rng(800)
    pts, e, w = knn_graph(rng, 600)
    if hub_degree:
        hub = len(pts)
        ends = rng.choice(hub, hub_degree, replace=False)
        e = np.vstack([e, np.column_stack([ends, np.full(hub_degree, hub)])])
        w = np.append(w, np.ones(hub_degree))
        pts = np.vstack([pts, pts[ends].mean(axis=0)])
    # the solver polishes this graph whatever the default limit: n == limit
    monkeypatch.setattr(partition, "_POLISH_LIMIT", len(pts))
    f = clustered_features(rng, pts, 4, n_clusters=10, noise=0.8)
    sizes = rng.integers(1, 30, len(pts)).astype(float)
    centres = pts[rng.choice(len(pts), 10, replace=False)]
    cells = np.linalg.norm(pts[:, None] - centres[None], axis=2).argmin(axis=1)
    start = partition._components(len(pts), e[cells[e[:, 0]] == cells[e[:, 1]]])
    nbrs = partition._Neighbours.of(len(pts), e, w)
    for lam in (0.1, 0.6):
        got, changed = partition._boundary_polish(f, e, w, start, lam, sizes, nbrs)
        want, _ = _ref_boundary_polish(f, e, w, start, lam, sizes)
        assert changed and np.array_equal(got, want), lam
        assert moved_vertices(start, got).sum() > 40, lam
    assert_same_labels(f, e, w, sizes=sizes)


@pytest.mark.parametrize("far_neighbours", [0, 32])
def test_polish_near_tie_keeps_the_first_candidate(far_neighbours):
    """Vertex 0 leaves {0, 1} for {2} or {3}; moving to {3} is lower by less
    than _EPS_DECREASE, so the lower label, {2}, wins. `far_neighbours` more
    neighbours of vertex 0, each a region of its own with a far feature, add
    candidates after {3} that never win and leave the tie as it is."""
    f = np.array([[0.0], [10.0], [1.2e-6], [0.5e-6]] + [[100.0]] * far_neighbours)
    n = len(f)
    e = np.column_stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    w, sizes = np.ones(n - 1), np.ones(n)
    start = np.concatenate([[0], np.arange(n - 1)])
    got, _ = partition._boundary_polish(f, e, w, start, 1.0, sizes,
                                        partition._Neighbours.of(n, e, w))
    want, _ = _ref_boundary_polish(f, e, w, start, 1.0, sizes)
    assert np.array_equal(got, want)
    assert got[0] == got[2] != got[3]


def test_polish_drops_rescored_labels_after_a_move():
    """A vertex rescored after a neighbour moved can depend on a region the
    sweep's start-of-sweep index does not list for it; its rescored label
    must not outlive the next move, whichever region that move changes."""
    f = np.array([[-0.02], [-0.37], [0.28], [0.45], [0.02], [-0.27], [-0.35],
                  [0.12]])
    e = np.array([[0, 1], [0, 2], [0, 4], [0, 6], [1, 2], [1, 4], [1, 7],
                  [2, 3], [3, 4], [3, 6], [4, 5], [5, 6], [6, 7]])
    w = np.array([0.25, 0.42, 0.75, 0.23, 0.81, 0.64, 0.63, 0.9, 0.41, 0.25,
                  1.0, 0.29, 0.49])
    sizes = np.array([3.0, 3, 1, 3, 3, 3, 2, 3])
    start = np.array([3, 1, 2, 0, 1, 2, 2, 0])
    got, changed = partition._boundary_polish(f, e, w, start, 0.2, sizes,
                                              partition._Neighbours.of(8, e, w))
    want, _ = _ref_boundary_polish(f, e, w, start, 0.2, sizes)
    assert changed and np.array_equal(got, want)
    assert got.tolist() == [0, 1, 2, 2, 0, 0, 3, 4]
