"""Partitioning: adjacency graph construction, the greedy l0 minimal-partition
solver against exhaustive enumeration on chains, and hierarchy assembly."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dvfusion.errors import InvalidParams
from dvfusion.geometry import RigidTransform
from dvfusion.partition import (
    build_adjacency_graph,
    cut_pursuit,
    filter_small_patches,
    hierarchical_partition,
    partition_energy,
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


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_staircase_chains_match_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    f = staircase(rng, n)
    lam = float(rng.uniform(0.01, 0.5))
    e, w = chain(n)
    lab = cut_pursuit(f.reshape(-1, 1), e, w, lam)
    got = oracle_energy(f, e, w, lab, lam)
    want, _ = brute_force_chain(f, lam)
    assert abs(got - want) < 1e-9


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
        part = hierarchical_partition(pts, feats=feats, lambdas=lambdas)
        for level in (1, 2, 3):
            assert len(part.patches(level)) == 2


def test_uniform_features_single_patch():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 5, (80, 3))
    feats = np.full((80, 3), 0.7)
    part = hierarchical_partition(pts, feats=feats)
    for level in (1, 2, 3):
        assert len(part.patches(level)) == 1
        assert len(part.patches(level)[0]) == 80


def test_lambdas_must_increase():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 5, (40, 3))
    with pytest.raises(InvalidParams):
        hierarchical_partition(pts, feats=np.ones((40, 2)), lambdas=(1.0, 1.0, 2.0))


def test_monotone_coarsening_on_clustered_scene():
    rng = np.random.default_rng(14)
    pts = rng.uniform(0, 60, (2000, 3))
    pts[:, 2] *= 0.05
    centers = rng.uniform(0, 60, (8, 2))
    cl = np.linalg.norm(pts[:, None, :2] - centers[None], axis=2).argmin(axis=1)
    feats = rng.uniform(0, 1, (8, 3))[cl] + rng.normal(0, 0.05, (2000, 3))
    part = hierarchical_partition(pts, feats=feats)
    n1 = len(part.patches(1))
    n3 = len(part.patches(3))
    assert n1 >= n3
    assert n1 >= 1


def test_levels_disjoint_and_labels_consistent():
    rng = np.random.default_rng(15)
    pts = rng.uniform(0, 30, (600, 3))
    feats = rng.uniform(0, 1, (600, 3))
    part = hierarchical_partition(pts, feats=feats)
    for level in (1, 2, 3):
        lab = part.labels(level)
        seen = np.zeros(len(pts), dtype=int)
        for patch in part.patches(level):
            assert patch.level == level
            seen[patch.point_indices] += 1
            assert np.all(lab[patch.point_indices] == patch.patch_id)
            assert np.allclose(patch.centroid, pts[patch.point_indices].mean(axis=0))
            assert len(patch) >= 10
        assert seen.max() <= 1
        assert np.all((lab >= 0) == (seen == 1))


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
    part_a = hierarchical_partition(pts, feats=feats)
    t = RigidTransform(Rotation.from_euler("xyz", [5, -3, 30], degrees=True).as_matrix(),
                       [12.0, -7.0, 4.0])
    part_b = hierarchical_partition(t.apply(pts), feats=feats)
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
    labels = rng.integers(0, 4, n)
    assert abs(partition_energy(f, g.edges, g.weights, labels, 0.7)
               - oracle_energy(f, g.edges, g.weights, labels, 0.7)) < 1e-9
