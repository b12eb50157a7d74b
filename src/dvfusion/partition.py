"""Hierarchical patch decomposition by graph-regularized minimal partition.

Each tile is segmented three times with increasing regularization strength
into connected, feature-homogeneous patches. The solver minimizes the l0
partition energy

    E(labels) = sum_i ||f_i - c_{r(i)}||^2  +  lam * sum_{cut edges} w_ij

(c_r = mean feature of region r) with a greedy scheme: parallel region
2-means splits with regularized boundary sweeps, connected-component
relabeling, strict-decrease acceptance, followed by region merges and a
vertex-level boundary polish on small problems. A solve that ends with at
most 8 regions is finished by an exhaustive search over unions of their
2-means pieces. Deterministic throughout: no RNG, fixed vertex orderings,
ties broken toward lower index.

Every pass redoes only what changed since it last looked, and each
shortcut is exact, not a heuristic; the labels are those of the full sweeps.

- Like cut pursuit (Landrieu & Obozinski 2017), split passes keep an active
  set: they retry only regions that changed since their split was last
  rejected. A region's split and its acceptance depend only on its own
  vertices, their features and sizes, its internal edges and lam, so an
  unchanged region would be rejected again.
- Merge rounds after the first score only pairs that touch a region merged
  in the round before: the greedy would already have taken any positive
  pair of two untouched regions, whose gain has not changed.
- The boundary polish has one scorer, vectorised over vertices
  (`_screen_moves`). A sweep scores every boundary vertex at once and then
  rescores, a batch at a time, only the vertices whose regions changed
  earlier in the sweep: a vertex nothing touched scores as before.
- Row sums over the feature columns add whole columns in numpy's order
  (`_row_sums`), so they have the bits of `.sum(axis=1)`.

Label convention: a level is one int array over the tile's points holding
each point's patch id, or -1 where the point lies in no patch (its region
fell under `min_patch`). Ids run 0..K-1 in order of each patch's lowest
point index. That array is the only record of a patch: descriptors,
matches and displacement vectors downstream are derived from it and carry
its ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InvalidParams
from .geometry import LocalGeomFeatures, as_points, bincount_rows
from scipy.spatial import cKDTree

_EPS_DECREASE = 1e-12          # strict-improvement threshold for accepting moves
_KMEANS_ITERS = 12
_ICM_SWEEPS = 4
_POLISH_LIMIT = 5000           # vertex-level polish only below this size
_EXACT_REGIONS = 8             # exhaustive union search up to this many regions
_MAX_OUTER = 10                # split/merge/polish rounds per solve


# ---------------------------------------------------------------------------
# Adjacency graph


@dataclass
class AdjacencyGraph:
    """Symmetric k-NN graph; `edges` holds each undirected edge once (i < j)."""

    edges: np.ndarray            # (E, 2) int64, i < j
    weights: np.ndarray          # (E,) float64


def build_adjacency_graph(points, k_adj: int) -> AdjacencyGraph:
    """Symmetric k-NN adjacency with weights 1/(1 + d/d_mean).

    Close-range edges get weights near 1, long edges decay smoothly, so cuts
    prefer to run through sparse gaps.
    """
    pts = as_points(points)
    n = len(pts)
    if k_adj < 3:
        raise InvalidParams(f"k_adj must be >= 3, got {k_adj}")
    if n < 2:
        return AdjacencyGraph(np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    kk = min(k_adj + 1, n)
    tree = cKDTree(pts)
    dist, idx = tree.query(pts, k=kk)
    src = np.repeat(np.arange(n), kk - 1)
    dst = idx[:, 1:].ravel()
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = lo * n + hi
    _, first = np.unique(key, return_index=True)
    edges = np.stack([lo[first], hi[first]], axis=1)
    lengths = np.linalg.norm(pts[edges[:, 0]] - pts[edges[:, 1]], axis=1)
    d_mean = float(lengths.mean()) if len(lengths) else 0.0
    weights = 1.0 / (1.0 + lengths / d_mean) if d_mean > 0 else np.ones(len(lengths))
    return AdjacencyGraph(edges, weights)


# ---------------------------------------------------------------------------
# l0 minimal-partition solver


def partition_energy(features, edges, weights, labels, lam: float,
                     sizes=None) -> float:
    """Direct evaluation of the partition energy for a labeling."""
    f = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    _, inv = np.unique(labels, return_inverse=True)
    nreg = inv.max() + 1 if len(inv) else 0
    _, _, per_region = _region_stats(f, inv, nreg, sizes)
    data = float(per_region.sum())
    if len(edges):
        cut = float(np.sum(weights[inv[edges[:, 0]] != inv[edges[:, 1]]]))
    else:
        cut = 0.0
    return data + lam * cut


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber regions 0..K-1 in order of first appearance."""
    _, first, inv = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first))
    return order[inv]


def _region_stats(f, labels, nreg, sizes=None):
    """Per-region weighted count, feature sum, and scatter.

    `sizes` are vertex multiplicities (defaults to 1): a vertex standing for
    `s` original points contributes `s` to the count and `s·f` to the sum,
    which keeps the energy of a contracted graph identical to the original.
    """
    if sizes is None:
        sizes = np.ones(len(f))
    counts = np.bincount(labels, weights=sizes, minlength=nreg)
    sums = bincount_rows(labels, sizes[:, None] * f, nreg)
    sq = np.bincount(labels, weights=sizes * _row_sums(f * f), minlength=nreg)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = sq - _row_sums(sums * sums) / counts
    data[counts == 0] = 0.0
    return counts, sums, data


def _components(n, sub_edges):
    if len(sub_edges) == 0:
        return np.arange(n)
    m = coo_matrix((np.ones(len(sub_edges)), (sub_edges[:, 0], sub_edges[:, 1])),
                   shape=(n, n))
    _, comp = connected_components(m, directed=False)
    return comp


def _split_pass(f, edges, weights, labels, lam, sizes, stable):
    """Attempt a regularized 2-means split of every region not marked stable.

    Returns (labels, stable, changed). Each region's split is accepted
    independently, only on strict energy decrease. The split core runs on the
    subgraph of the unstable regions (vertex order kept); afterwards only the
    vertices of accepted splits are unstable.
    """
    act = np.flatnonzero(~stable)
    if len(act) == 0:
        return labels, stable, False
    inside = ~stable[edges[:, 0]] & (labels[edges[:, 0]] == labels[edges[:, 1]])
    pos = np.zeros(len(f), dtype=np.int64)
    pos[act] = np.arange(len(act))
    _, sub_labels = np.unique(labels[act], return_inverse=True)
    comp, take = _split_regions(f[act], pos[edges[inside]], weights[inside],
                                sub_labels, lam, sizes[act])
    stable = np.ones(len(f), dtype=bool)
    if not take.any():
        return labels, stable, False
    out = labels.copy()
    out[act[take]] = labels.max() + 1 + comp[take]     # canonicalized below
    stable[act[take]] = False
    return _canonical_labels(out), stable, True


def _split_regions(f, edges, weights, labels, lam, sizes, sweeps=_ICM_SWEEPS):
    """Regularized 2-means split of each region; `edges` are internal edges.

    Returns each vertex's connected component after the split and whether
    its region's split strictly lowers the energy. `sweeps` caps the
    regularized boundary sweeps that follow the plain 2-means iterations.
    """
    n, dim = f.shape
    nreg = labels.max() + 1
    counts, sums, data_old = _region_stats(f, labels, nreg, sizes)
    means = np.zeros((nreg, dim))
    nz = counts > 0
    means[nz] = sums[nz] / counts[nz, None]
    centered = f - means[labels]

    # Per-region principal direction from batched covariance eigenvectors.
    outer = sizes[:, None, None] * (centered[:, :, None] * centered[:, None, :])
    cov = bincount_rows(labels, outer.reshape(n, -1), nreg).reshape(nreg, dim, dim)
    _, vecs = np.linalg.eigh(cov)
    pc1 = vecs[:, :, -1]
    flip = pc1[np.arange(nreg), np.abs(pc1).argmax(axis=1)] < 0
    pc1[flip] *= -1.0

    proj = np.einsum("ij,ij->i", centered, pc1[labels])
    # Extreme points along the principal direction seed the two centers;
    # ordering by (region, projection, index) makes the seed deterministic.
    order = np.lexsort((np.arange(n), proj, labels))
    sorted_labels = labels[order]
    first_of = np.searchsorted(sorted_labels, np.arange(nreg), side="left")
    last_of = np.searchsorted(sorted_labels, np.arange(nreg), side="right") - 1
    c0 = f[order[np.clip(first_of, 0, n - 1)]].copy()
    c1 = f[order[np.clip(last_of, 0, n - 1)]].copy()

    # Degenerate (zero-spread) regions can't improve: mask them out later via
    # the energy test; their two seeds coincide and produce a no-op split.
    side = np.zeros(n, dtype=np.int64)
    ends = np.concatenate([edges[:, 0], edges[:, 1]])

    def assign(with_cut):
        d0 = sizes * _row_sums((f - c0[labels]) ** 2)
        d1 = sizes * _row_sums((f - c1[labels]) ** 2)
        if with_cut and len(edges):
            s_i, s_j = side[edges[:, 0]], side[edges[:, 1]]
            # disagreement cost a vertex would pay for picking each side
            pen0 = np.bincount(ends, minlength=n, weights=np.concatenate(
                [weights * (s_j == 1), weights * (s_i == 1)]))
            pen1 = np.bincount(ends, minlength=n, weights=np.concatenate(
                [weights * (s_j == 0), weights * (s_i == 0)]))
            d0 = d0 + lam * pen0
            d1 = d1 + lam * pen1
        return np.where(d1 < d0, 1, 0)

    def update_centers():
        key = labels * 2 + side
        cnt = np.bincount(key, weights=sizes, minlength=nreg * 2)
        sm = bincount_rows(key, sizes[:, None] * f, nreg * 2)
        ok = cnt > 0
        sm[ok] /= cnt[ok, None]
        c0_new = np.where(ok[0::2, None], sm[0::2], c0)
        c1_new = np.where(ok[1::2, None], sm[1::2], c1)
        return c0_new, c1_new

    for _ in range(_KMEANS_ITERS):
        new_side = assign(with_cut=False)
        if np.array_equal(new_side, side):
            break
        side = new_side
        c0, c1 = update_centers()
    for _ in range(sweeps):
        new_side = assign(with_cut=True)
        if np.array_equal(new_side, side):
            break
        side = new_side
        c0, c1 = update_centers()

    # Split regions into connected components per side.
    key = labels * 2 + side
    same = key[edges[:, 0]] == key[edges[:, 1]]
    comp = _canonical_labels(_components(n, edges[same]))
    ncomp = comp.max() + 1

    _, _, comp_data = _region_stats(f, comp, ncomp, sizes)
    # Each component lies inside one region: map via its first member vertex.
    _, first_vertex = np.unique(comp, return_index=True)
    comp_region = labels[first_vertex]

    data_new_per_region = np.bincount(comp_region, weights=comp_data, minlength=nreg)
    crossing = comp[edges[:, 0]] != comp[edges[:, 1]]
    cut_new_per_region = np.bincount(labels[edges[crossing, 0]],
                                     weights=weights[crossing], minlength=nreg)
    gain = data_old - (data_new_per_region + lam * cut_new_per_region)
    return comp, (gain > _EPS_DECREASE)[labels]


def _unchanged(stable, old, new):
    """Mark the vertices of `new` regions that are stable regions of `old`.

    A region keeps its flag only when all its vertices were stable, share one
    old label, and that old region had as many vertices: the same vertex set.
    """
    rep = np.empty(new.max() + 1, dtype=np.int64)
    rep[new] = old
    same = stable & (old == rep[new])
    size = np.bincount(new)
    keep = ((np.bincount(new[same], minlength=len(size)) == size)
            & (np.bincount(old)[rep] == size))
    return keep[new]


def _merge_pass(f, edges, weights, labels, lam, sizes):
    """Merge adjacent region pairs whenever it strictly lowers the energy.

    Rounds of conflict-free greedy merges (best gain first, ties toward the
    lower region pair); regions touched in a round sit out until the next
    one. Rounds after the first score only the pairs with a region merged
    in the round before, and recompute only those regions' stats. That is
    exact: a pair of two untouched regions had the same gain in the round
    before, and the greedy would have taken it then had the gain been
    positive. An untouched region's stats keep their bits (its vertex set,
    and so the order of its bincount sums, is unchanged), and a region keeps
    its lowest vertex when another merges into it, so its id keeps its rank
    and the ids are made canonical once, at the end of the pass.
    """
    nreg = labels.max() + 1
    if nreg <= 1 or len(edges) == 0:
        return labels, False
    counts, sums, data = _region_stats(f, labels, nreg, sizes)
    cross = np.flatnonzero(labels[edges[:, 0]] != labels[edges[:, 1]])
    merged = None               # regions merged in the last round; None: all
    changed_any = False
    while True:
        la, lb = labels[edges[cross, 0]], labels[edges[cross, 1]]
        keep = la != lb
        cross, la, lb = cross[keep], la[keep], lb[keep]
        near = cross
        if merged is not None:
            hit = merged[la] | merged[lb]
            near, la, lb = cross[hit], la[hit], lb[hit]
        if len(near) == 0:
            break
        key = np.minimum(la, lb) * np.int64(nreg) + np.maximum(la, lb)
        uniq, inv = np.unique(key, return_inverse=True)
        wsum = np.bincount(inv, weights=weights[near], minlength=len(uniq))
        pa, pb = uniq // nreg, uniq % nreg
        nmerge = counts[pa] + counts[pb]
        smerge = sums[pa] + sums[pb]
        data_merged = (data[pa] + data[pb]
                       + counts[pa] * _row_sums((sums[pa] / counts[pa, None]) ** 2)
                       + counts[pb] * _row_sums((sums[pb] / counts[pb, None]) ** 2)
                       - _row_sums(smerge ** 2) / nmerge)
        # data_merged now holds sum||f-c||^2 of the union (parallel-axis form)
        gain = lam * wsum - (data_merged - data[pa] - data[pb])
        good = np.flatnonzero(gain > _EPS_DECREASE)
        if len(good) == 0:
            break
        order = good[np.lexsort((pb[good], pa[good], -gain[good]))]
        used = bytearray(nreg)
        mapping = np.arange(nreg)
        for ra, rb in zip(pa[order].tolist(), pb[order].tolist()):
            if used[ra] or used[rb]:
                continue
            mapping[rb] = ra
            used[ra] = used[rb] = 1
        labels = mapping[labels]
        merged = np.frombuffer(used, dtype=bool)
        inside = np.flatnonzero(merged[labels])
        c, sm, d = _region_stats(f[inside], labels[inside], nreg, sizes[inside])
        counts[merged], sums[merged], data[merged] = c[merged], sm[merged], d[merged]
        changed_any = True
    if changed_any:
        labels = _canonical_labels(labels)
    return labels, changed_any


def _row_sums(a):
    """`a.sum(axis=1)` for a 2-D float array, with the same bits, added
    column by column; numpy's reduction along a short axis is several times
    slower than whole-column additions."""
    return _sum(list(a.T))


def _sum(xs):
    """Sum in the order of numpy's pairwise float64 reduction, so the sum
    has the bits of `np.sum` over the terms: fewer than 8 terms are added
    one by one to 0.0; longer runs go in blocks of up to 128 with 8
    accumulators, the total added to 0.0. Its one caller, `_row_sums`,
    passes the columns of an array as the terms, summed element by element."""
    if len(xs) < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    return 0.0 + _blocks(xs)


def _blocks(xs):
    """numpy's pairwise sum of 8 or more terms."""
    n = len(xs)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _blocks(xs[:half]) + _blocks(xs[half:])
    acc, m = xs[:8], n - n % 8
    for i in range(8, m, 8):
        acc = [a + x for a, x in zip(acc, xs[i:i + 8])]
    total = (((acc[0] + acc[1]) + (acc[2] + acc[3]))
             + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
    for x in xs[m:]:
        total += x
    return total


@dataclass
class _Neighbours:
    """Each vertex's neighbours and edge weights in edge order: vertex v's
    are `ids[start[v]:start[v + 1]]` and `w[...]`."""

    start: np.ndarray
    ids: np.ndarray
    w: np.ndarray

    @classmethod
    def of(cls, n, edges, weights):
        ends = np.concatenate([edges[:, 0], edges[:, 1]])
        order = np.lexsort((np.tile(np.arange(len(edges)), 2), ends))
        ids = np.concatenate([edges[:, 1], edges[:, 0]])[order]
        w = np.concatenate([weights, weights])[order]
        start = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
        return cls(start, ids, w)

    def entries(self, vertices):
        """For every neighbour of `vertices`, in order: its index into `ids`
        and `w`, and the position in `vertices` it belongs to."""
        deg = self.start[vertices + 1] - self.start[vertices]
        owner = np.repeat(np.arange(len(vertices)), deg)
        rank = np.arange(len(owner)) - (np.cumsum(deg) - deg)[owner]
        return self.start[vertices][owner] + rank, owner


def _screen_moves(f, sizes, nbrs, lab, counts, sums, vertices_per, bnd, lam):
    """The label a single-vertex move gives each vertex of `bnd` (its own
    when it stays) under the current state, and every (position in `bnd`,
    region) whose stats that label depends on.

    A vertex leaves region r for the neighbouring region s with the lowest
    delta = rem + add + lam * dcut, trying the s in ascending order, each
    having to beat the best so far (0.0 for staying) by `_EPS_DECREASE`;
    it never leaves a region of one vertex (merges handle that). dcut adds
    w * ((l_u != s) - (l_u != r)) over the neighbours u in edge order, from
    0.0, as `np.bincount` does."""
    r = lab[bnd]
    idx, owner = nbrs.entries(bnd)
    nreg = np.int64(len(counts))
    key = np.unique(owner * nreg + lab[nbrs.ids[idx]])
    row, s = key // nreg, key % nreg
    depends = (np.concatenate([np.arange(len(bnd)), row]), np.concatenate([r, s]))
    pair = (s != r[row]) & (vertices_per[r[row]] > 1)
    row, s = row[pair], s[pair]         # candidates, ascending per vertex
    v, rr = bnd[row], r[row]
    sv = sizes[v]

    def sq_dist(vert, reg):
        d = f[vert] - sums[reg] / counts[reg, None]
        return _row_sums(d * d)

    with np.errstate(invalid="ignore", divide="ignore"):
        cr, sb = counts[r], sizes[bnd]
        rem = -(cr * sb / (cr - sb)) * sq_dist(bnd, r)
    add = (counts[s] * sv / (counts[s] + sv)) * sq_dist(v, s)
    idx, prow = nbrs.entries(v)
    lu = lab[nbrs.ids[idx]]
    dcut = np.bincount(prow, minlength=len(row), weights=nbrs.w[idx] * np.subtract(
        lu != s[prow], lu != rr[prow], dtype=np.float64))
    delta = rem[row] + add + lam * dcut
    best, pick = np.zeros(len(bnd)), r.copy()
    nth = np.arange(len(row)) - np.searchsorted(row, row)
    for j in range(nth.max(initial=-1) + 1):
        at = np.flatnonzero(nth == j)
        win = at[delta[at] < best[row[at]] - _EPS_DECREASE]
        best[row[win]], pick[row[win]] = delta[win], s[win]
    return pick, depends


def _boundary_polish(f, edges, weights, labels, lam, sizes, nbrs):
    """Sequential single-vertex relabeling along region boundaries.

    `cut_pursuit` runs it on graphs of at most `_POLISH_LIMIT` vertices and
    builds `nbrs` once per solve. A sweep visits the boundary vertices in
    index order and moves each to the label `_screen_moves` gives it under
    the state at that point. Each move is accepted on strict decrease of
    the exact local energy delta, so the global energy keeps decreasing.

    `_screen_moves` is the one scorer. It scores every boundary vertex at
    the start of the sweep, and the sweep visits only the vertices that
    score a move or that an earlier move made stale: one whose own region
    or a neighbour's region at the start of the sweep changed. A vertex
    nothing touched scores as at the start, because its move depends only
    on its neighbours' labels, the edge weights and the stats of those
    regions, and a neighbour that moves changes the region it left. On
    reaching a stale vertex, the sweep rescores every stale vertex before
    the next scored move in one call, under the current state. It settles
    the vertices before the first one that now moves, applies that move and
    leaves the rest stale: a rescored vertex may now depend on a region
    that the start-of-sweep index does not list, so its label holds only
    until the next move.
    """
    n = len(f)
    nreg = labels.max() + 1
    counts, sums, _ = _region_stats(f, labels, nreg, sizes)
    vertices_per = np.bincount(labels, minlength=nreg)
    lab = labels.copy()

    def score(vertices):
        return _screen_moves(f, sizes, nbrs, lab, counts, sums, vertices_per,
                             vertices, lam)

    changed_any = False
    for _ in range(6):
        bnd = np.unique(edges[lab[edges[:, 0]] != lab[edges[:, 1]]].ravel())
        pick, (at, reg) = score(bnd)
        by_region = np.argsort(reg, kind="stable")
        reg_start = np.searchsorted(reg[by_region], np.arange(nreg + 1))
        scored = pick != lab[bnd]       # moves the start-of-sweep scores hold
        stale = np.zeros(len(bnd), dtype=bool)
        moved = False
        p = 0
        while p < len(bnd):
            p += int((scored[p:] | stale[p:]).argmax())
            if stale[p]:
                end = p + int(np.append(scored[p:], True).argmax())
                batch = p + np.flatnonzero(stale[p:end])
                now, _ = score(bnd[batch])
                go = np.flatnonzero(now != lab[bnd[batch]])
                if len(go) == 0:
                    p = end
                    continue
                p, to = int(batch[go[0]]), now[go[0]]
            elif scored[p]:
                to = pick[p]
            else:
                break
            v = bnd[p]
            r, sv = lab[v], sizes[v]
            lab[v] = to
            counts[r] -= sv
            sums[r] -= sv * f[v]
            vertices_per[r] -= 1
            counts[to] += sv
            sums[to] += sv * f[v]
            vertices_per[to] += 1
            moved = True
            for x in (r, to):
                q = at[by_region[reg_start[x]:reg_start[x + 1]]]
                q = q[q > p]
                stale[q], scored[q] = True, False
            p += 1
        if not moved:
            break
        changed_any = True
    if changed_any:
        # a move can disconnect a region; restore the components-are-regions rule
        same = lab[edges[:, 0]] == lab[edges[:, 1]]
        lab = _canonical_labels(_components(n, edges[same]))
    return lab, changed_any


def _set_partitions(k):
    """Every partition of k items into blocks, one row each, as restricted
    growth strings: item j joins one of the blocks opened before it or opens
    the next one."""
    parts = np.zeros((1, 1), dtype=np.int64)
    for _ in range(1, k):
        reps = parts.max(axis=1) + 2
        choice = np.concatenate([np.arange(r) for r in reps.tolist()])
        parts = np.column_stack([np.repeat(parts, reps, axis=0), choice])
    return parts


def _best_union(f, edges, weights, labels, lam, sizes):
    """Lowest-energy labeling whose regions are unions of `labels`' regions.

    Scores every partition of the (at most `_EXACT_REGIONS`) regions on the
    region-contracted graph, whose energy differs from the full one by a
    constant. A block that is not connected scores no lower than its
    components, so splitting the winner into components loses nothing.
    """
    k = labels.max() + 1
    means, counts, sup_edges, sup_w = _contract_graph(f, edges, weights,
                                                      labels, sizes)
    parts = _set_partitions(k)
    b = len(parts)
    key = (parts + k * np.arange(b)[:, None]).ravel()
    _, _, data = _region_stats(np.tile(means, (b, 1)), key, b * k,
                               np.tile(counts, b))
    energy = data.reshape(b, k).sum(axis=1)
    if len(sup_edges):
        cut = parts[:, sup_edges[:, 0]] != parts[:, sup_edges[:, 1]]
        energy = energy + lam * (cut * sup_w).sum(axis=1)
    coarse = parts[int(np.argmin(energy))][labels]
    same = coarse[edges[:, 0]] == coarse[edges[:, 1]]
    return _canonical_labels(_components(len(f), edges[same]))


def _finish_few_regions(f, edges, weights, labels, lam, sizes):
    """Exhaustive finish for a labeling of at most `_EXACT_REGIONS` regions.

    Greedy moves change one region or one pair at a time, so they stall
    where only a joint change pays: three regions that merge together, or
    a region that splits and sends a piece to its neighbour. Here every
    region is bisected along its 2-means sides, again and again while the
    pieces number at most `_EXACT_REGIONS`, and the best union of the pieces
    is returned; `labels` is one of those unions. Cost grows with the number
    of set partitions (4,140 for 8 pieces), not with the graph.
    """
    if labels.max() + 1 > _EXACT_REGIONS:
        return labels
    pieces = labels
    while True:
        inside = pieces[edges[:, 0]] == pieces[edges[:, 1]]
        finer, _ = _split_regions(f, edges[inside], weights[inside], pieces,
                                  lam, sizes, sweeps=0)
        if finer.max() == pieces.max() or finer.max() >= _EXACT_REGIONS:
            break
        pieces = finer
    return _best_union(f, edges, weights, pieces, lam, sizes)


def cut_pursuit(features, edges, weights, lam: float, sizes=None) -> np.ndarray:
    """Greedy l0 minimal partition on an arbitrary weighted graph.

    Returns per-vertex region labels, 0..K-1, regions connected. The result
    never has higher energy than the single-region-per-component labeling or
    the all-singletons labeling. When the greedy moves stall at 8 regions or
    fewer, the exhaustive finish (`_finish_few_regions`) takes over.

    `sizes` gives each vertex a multiplicity in the data term, so a solve on
    a region-contracted graph reproduces the energy of the full one; it
    defaults to 1 for every vertex.

    Each pass skips work whose outcome is already known, and gives the
    labels of the full sweeps:

    - Split passes only retry regions that changed: a region whose split was
      rejected and whose vertex set has not changed since is skipped,
      because a region's split and its acceptance depend only on its own
      vertices, their features and sizes, its internal edges and `lam`.
    - A merge round after the first scores only the pairs with a region
      merged in the round before (`_merge_pass`): a positive pair of two
      untouched regions had the same gain in that round and would have been
      taken then.
    - The polish scores its moves with one vectorised scorer
      (`_screen_moves`): every boundary vertex once per sweep, then again,
      in batches, only the vertices whose regions changed earlier in the
      sweep (`_boundary_polish`).
    - Row sums over the feature columns go column by column in numpy's
      order (`_row_sums`), with the bits of `.sum(axis=1)`.

    The polish's neighbour lists are built once per solve.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise InvalidParams(f"features must be (N, D), got shape {f.shape}")
    n = f.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    sizes = (np.ones(n) if sizes is None
             else np.asarray(sizes, dtype=np.float64).reshape(-1))
    if lam < 0:
        raise InvalidParams(f"regularization strength must be >= 0, got {lam}")
    components = _canonical_labels(_components(n, edges))
    labels = components
    nbrs = (_Neighbours.of(n, edges, weights)
            if len(edges) and n <= _POLISH_LIMIT else None)
    stable = np.zeros(n, dtype=bool)
    for _ in range(_MAX_OUTER):
        ch_split = False
        while True:
            labels, stable, ch = _split_pass(f, edges, weights, labels, lam,
                                             sizes, stable)
            ch_split = ch_split or ch
            if not ch:
                break
        split = labels
        labels, ch_merge = _merge_pass(f, edges, weights, labels, lam, sizes)
        ch_polish = False
        if nbrs is not None:
            labels, ch_polish = _boundary_polish(f, edges, weights, labels, lam,
                                                 sizes, nbrs)
        if not (ch_split or ch_merge or ch_polish):
            break
        stable = _unchanged(stable, split, labels)
    # Keep the finish, or a trivial labeling as a safety net, on strict decrease.
    best = labels
    best_e = partition_energy(f, edges, weights, labels, lam, sizes)
    finished = _finish_few_regions(f, edges, weights, labels, lam, sizes)
    for cand in (finished, components, np.arange(n)):
        e = partition_energy(f, edges, weights, cand, lam, sizes)
        if e < best_e - _EPS_DECREASE:
            best, best_e = cand, e
    return _canonical_labels(best)


# ---------------------------------------------------------------------------
# Hierarchy assembly


def patch_members(labels) -> list:
    """Ascending member indices of each patch, in patch-id order.

    `labels` gives each point its patch id, or -1 for none; entry k of the
    result lists the points labelled k (empty where no point is). One stable
    argsort, so members keep their index order.
    """
    labels = np.asarray(labels)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(labels.max(initial=-1) + 2))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


@dataclass
class HierarchicalPartition:
    """Three nested segmentations of one tile, fine to coarse: level 2 is
    solved on level 1's region-contracted graph and level 3 on level 2's, so
    before the size floor every coarser region is a union of finer ones.

    `level_labels[l]` maps every tile point to a patch id at level l+1, or -1
    where the point belongs to no surviving patch. Patch ids of a level run
    0..K-1 in order of each patch's lowest point index; the label array is
    the only record of a patch.
    """

    level_labels: list        # list of 3 int arrays, -1 = unassigned

    def patches(self, level: int) -> list:
        """Member indices of each patch of `level`, see `patch_members`."""
        return patch_members(self.level_labels[level - 1])

    def labels(self, level: int) -> np.ndarray:
        return self.level_labels[level - 1]


def standardize_features(feats) -> np.ndarray:
    """Per-channel zero-mean unit-variance scaling; dead channels stay zero."""
    f = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    mu = f.mean(axis=0)
    sd = f.std(axis=0)
    out = np.zeros_like(f)
    live = sd > 1e-12
    out[:, live] = (f[:, live] - mu[live]) / sd[live]
    return out


def partition_features(geo: LocalGeomFeatures) -> np.ndarray:
    """Per-point feature vector: [linearity, planarity, curvature,
    verticality] from the k-NN covariance features `geo` of the tile.

    Verticality (1 - |n_z|) is what usually tells an object's flanks from
    the ground around it; the eigenvalue shape measures alone are too noisy
    on natural surfaces to support that distinction.
    """
    verticality = 1.0 - np.abs(geo.normals[:, 2])
    return np.stack([geo.linearity, geo.planarity, geo.curvature, verticality],
                    axis=1)


def filter_small_patches(labels: np.ndarray, min_patch: int) -> np.ndarray:
    """Drop regions below the size floor; their points become unassigned (-1)."""
    labels = np.asarray(labels).copy()
    valid = labels >= 0
    if not valid.any():
        return labels
    counts = np.bincount(labels[valid])
    small = counts[labels[valid]] < min_patch
    idx = np.flatnonzero(valid)
    labels[idx[small]] = -1
    return labels


def _contract_graph(f, edges, weights, labels, sizes=None):
    """Region-contracted graph: mean features, multiplicities, merged edges.

    Parallel edges between two regions collapse into one with summed weight;
    the within-region scatter becomes an additive constant of the energy, so
    solving on the contraction (with `sizes` as vertex weights) optimizes the
    same objective over coarsenings of `labels`.
    """
    nreg = labels.max() + 1
    counts, sums, _ = _region_stats(f, labels, nreg, sizes)
    means = sums / counts[:, None]
    la, lb = labels[edges[:, 0]], labels[edges[:, 1]]
    cross = la != lb
    if not cross.any():
        return means, counts, np.empty((0, 2), np.int64), np.empty(0)
    a = np.minimum(la[cross], lb[cross])
    b = np.maximum(la[cross], lb[cross])
    key = a * np.int64(nreg) + b
    uniq, inv = np.unique(key, return_inverse=True)
    w = np.bincount(inv, weights=weights[cross], minlength=len(uniq))
    sup_edges = np.column_stack([uniq // nreg, uniq % nreg]).astype(np.int64)
    return means, counts, sup_edges, w


def hierarchical_partition(points, feats, lambda_factors, min_patch: int,
                           k_adj: int) -> HierarchicalPartition:
    """Build the three-level patch hierarchy of a tile.

    Per-point features (`feats`, one row per point; a run passes
    `partition_features`) are standardized per tile; the three strengths are
    `lambda_factors` x the mean channel variance of the standardized
    features (1 when every channel is live). Level 1 solves on the
    full graph; levels 2 and 3 re-solve on the previous level's
    region-contracted graph (same energy, far fewer vertices), so the
    hierarchy is nested coarse-over-fine by construction.
    """
    pts = as_points(points)
    f = standardize_features(feats)
    graph = build_adjacency_graph(pts, k_adj=k_adj)
    base = float(f.var(axis=0).mean())
    if base <= 0:
        base = 1.0
    lambdas = tuple(c * base for c in lambda_factors)
    lam1, lam2, lam3 = lambdas
    if not lam1 < lam2 < lam3:
        raise InvalidParams(f"regularization strengths must increase, got {lambdas}")

    raw1 = cut_pursuit(f, graph.edges, graph.weights, lam1)
    means, counts, sup_edges, sup_w = _contract_graph(
        f, graph.edges, graph.weights, raw1)
    sup2 = cut_pursuit(means, sup_edges, sup_w, lam2, sizes=counts)
    raw2 = sup2[raw1]
    means2, counts2, sup_edges2, sup_w2 = _contract_graph(
        means, sup_edges, sup_w, sup2, sizes=counts)
    sup3 = cut_pursuit(means2, sup_edges2, sup_w2, lam3, sizes=counts2)
    raw3 = sup3[raw2]

    level_labels = []
    for raw in (raw1, raw2, raw3):
        filtered = filter_small_patches(raw, min_patch=min_patch)
        keep = filtered >= 0
        full = np.full(len(filtered), -1, dtype=np.int64)
        full[keep] = _canonical_labels(filtered[keep])
        level_labels.append(full)
    return HierarchicalPartition(level_labels)

