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
  unchanged region would be rejected again. A pass is handed the edges
  inside the regions to retry, so it never scans the whole edge list, and
  it skips regions of one vertex, whose split gains exactly 0.
- Merge rounds after the first score only pairs that touch a region merged
  in the round before: the greedy would already have taken any positive
  pair of two untouched regions, whose gain has not changed. The crossing
  edges keep their endpoints' region ids, updated only where a region
  merged.
- The boundary polish has one scorer, vectorised over vertices
  (`_screen_moves`). A sweep scores every boundary vertex at once and then
  rescores, a batch at a time, only the vertices whose regions changed
  earlier in the sweep: a vertex nothing touched scores as before.

Column layout. The passes take features as rows (N, D) and work on their
transpose, one contiguous row per channel (D, N); region sums and centres
are held the same way, (D, regions). Each kernel keeps the bits of the
row-major form it replaces:

- A sum over channels adds whole channel rows in numpy's pairwise order
  (`_sum`), so it has the bits of `.sum(axis=1)` over a C-contiguous row.
- Per-label sums are one `np.bincount` per channel (`bincount_cols`), in
  index order like `np.add.at`.
- Region covariances scatter `sizes * (c_i * c_j)` for the D(D+1)/2
  distinct channel pairs (`_covariance`), the bits of the outer product.
- The 2-means seeds, each region's vertices of lowest and highest
  projection, come from `np.minimum.at` / `np.maximum.at` with ties to the
  lowest and highest index (`_extreme_seeds`), the vertices a lexsort by
  (region, projection, index) puts first and last. The projections come
  from an einsum over C-contiguous rows, as einsum's bits depend on the
  layout of its operands.
- Labels are renumbered by scattering first occurrences
  (`_canonical_labels`), which `_components` applies to its output as
  well; no pass sorts the n labels.

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
from .geometry import LocalGeomFeatures, as_points, bincount_cols
from scipy.spatial import cKDTree

_EPS_DECREASE = 1e-12          # strict-improvement threshold for accepting moves
_KMEANS_ITERS = 12
_ICM_SWEEPS = 4
_POLISH_LIMIT = 5000           # vertex-level polish only below this size
_EXACT_REGIONS = 8             # exhaustive union search up to this many regions
_MAX_OUTER = 10                # split/merge/polish rounds per solve
_GRAPH_BLOCK = 2 ** 14         # adjacency k-NN rows, then edges, at a time


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

    Each point links to its `k_adj` nearest neighbours other than itself;
    the point is dropped from its own k + 1 nearest by id, since an exact
    copy can come first. The k-NN runs `_GRAPH_BLOCK` rows at a time and
    keeps no distances: each block writes its edge keys min * n + max into
    one array, which is sorted once, so the edges come out ascending and
    distinct. The lengths are then taken a block of edges at a time and
    turned into weights in place. Only the keys, the edges and the weights
    are held for the whole cloud.
    """
    pts = as_points(points)
    n = len(pts)
    if k_adj < 3:
        raise InvalidParams(f"k_adj must be >= 3, got {k_adj}")
    if n < 2:
        return AdjacencyGraph(np.zeros((0, 2), dtype=np.int64), np.zeros(0))
    kk = min(k_adj + 1, n)
    tree = cKDTree(pts)
    key = np.empty(n * kk, dtype=np.int64)
    m = 0
    for lo in range(0, n, _GRAPH_BLOCK):
        rows = np.arange(lo, min(lo + _GRAPH_BLOCK, n))
        dst = tree.query(pts[rows], k=kk)[1].ravel()
        src = np.repeat(rows, kk)
        other = dst != src
        src, dst = src[other], dst[other]
        key[m:m + len(src)] = np.minimum(src, dst) * n + np.maximum(src, dst)
        m += len(src)
    key = key[:m]
    key.sort()
    key = key[np.r_[True, key[1:] != key[:-1]]]          # ascending, distinct
    edges = np.empty((len(key), 2), dtype=np.int64)
    np.divmod(key, n, out=(edges[:, 0], edges[:, 1]))
    del key
    weights = np.empty(len(edges))
    for lo in range(0, len(edges), _GRAPH_BLOCK):
        e = edges[lo:lo + _GRAPH_BLOCK]
        weights[lo:lo + len(e)] = np.linalg.norm(pts[e[:, 0]] - pts[e[:, 1]], axis=1)
    # the lengths become 1 / (1 + d / d_mean) in place, step by step
    d_mean = float(weights.mean())
    if d_mean > 0:
        weights /= d_mean
        weights += 1.0
        np.divide(1.0, weights, out=weights)
    else:
        weights[:] = 1.0
    return AdjacencyGraph(edges, weights)


# ---------------------------------------------------------------------------
# l0 minimal-partition solver


def partition_energy(features, edges, weights, labels, lam: float,
                     sizes=None) -> float:
    """Direct evaluation of the partition energy for a labeling, one
    integer region id per vertex (any ids: they are renumbered)."""
    f = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    inv = _canonical_labels(labels - labels.min(initial=0))
    nreg = inv.max() + 1 if len(inv) else 0
    _, _, per_region = _region_stats(np.ascontiguousarray(f.T), inv, nreg, sizes)
    data = float(per_region.sum())
    if len(edges):
        cut = float(np.sum(weights[inv[edges[:, 0]] != inv[edges[:, 1]]]))
    else:
        cut = 0.0
    return data + lam * cut


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber regions 0..K-1 in order of first appearance.

    Sort-free: each label's first position is scattered with
    `np.minimum.at`, and a mask over the positions lists the first ones in
    order. `labels` are non-negative; the work arrays have
    `labels.max() + 1` entries.
    """
    n = len(labels)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    first = np.full(labels.max() + 1, n)
    np.minimum.at(first, labels, np.arange(n))
    starts = np.zeros(n, dtype=bool)
    starts[first[first < n]] = True
    pos = np.flatnonzero(starts)
    new = np.empty(len(first), dtype=np.int64)
    new[labels[pos]] = np.arange(len(pos))
    return new[labels]


def _region_stats(ft, labels, nreg, sizes=None):
    """Per-region weighted count, feature sum, and scatter.

    `ft` holds one feature channel per row (D, n); the sums come back the
    same way, (D, nreg). `sizes` are vertex multiplicities (defaults to 1):
    a vertex standing for `s` original points contributes `s` to the count
    and `s·f` to the sum, which keeps the energy of a contracted graph
    identical to the original.
    """
    if sizes is None:
        sizes = np.ones(ft.shape[1])
    counts = np.bincount(labels, weights=sizes, minlength=nreg)
    sums = bincount_cols(labels, sizes * ft, nreg)
    sq = np.bincount(labels, weights=sizes * _sum(list(np.square(ft))),
                     minlength=nreg)
    with np.errstate(invalid="ignore", divide="ignore"):
        data = sq - _sum(list(np.square(sums))) / counts
    data[counts == 0] = 0.0
    return counts, sums, data


def _sq_dists(xt, centers, idx):
    """Squared distance of each column i of `xt` (D, m) to column `idx[i]`
    of `centers` (D, k). The channels are added in `_sum`'s order, so the
    result has the bits of `((x - c) ** 2).sum(axis=1)` over rows."""
    d = np.take(centers, idx, axis=1)
    np.subtract(xt, d, out=d)
    d *= d
    return _sum(list(d))


def _covariance(ct, labels, nreg, sizes):
    """Per-region weighted scatter matrices (nreg, D, D) of centred columns
    `ct` (D, n): entry (i, j) scatters `sizes * (c_i * c_j)`, the bits of
    the outer-product form, from the D(D+1)/2 distinct products; both
    triangles hold the same sums because `c_i * c_j == c_j * c_i`."""
    dim = len(ct)
    cov = np.empty((nreg, dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            cov[:, i, j] = cov[:, j, i] = np.bincount(
                labels, weights=sizes * (ct[i] * ct[j]), minlength=nreg)
    return cov


def _extreme_seeds(proj, labels, nreg):
    """Each region's vertex of lowest projection (ties: lowest index) and
    of highest projection (ties: highest index), the first and last vertex
    of the region when ordered by (projection, index). Every region has a
    vertex; `proj` is finite."""
    idx = np.arange(len(proj))
    lo = np.full(nreg, np.inf)
    hi = np.full(nreg, -np.inf)
    np.minimum.at(lo, labels, proj)
    np.maximum.at(hi, labels, proj)
    first = np.full(nreg, len(proj))
    last = np.full(nreg, -1)
    at = proj == lo[labels]
    np.minimum.at(first, labels[at], idx[at])
    at = proj == hi[labels]
    np.maximum.at(last, labels[at], idx[at])
    return first, last


def _components(n, sub_edges):
    """Connected components of `n` vertices under `sub_edges`, labelled
    0..K-1 in order of each component's lowest vertex."""
    if len(sub_edges) == 0:
        return np.arange(n)
    m = coo_matrix((np.ones(len(sub_edges)), (sub_edges[:, 0], sub_edges[:, 1])),
                   shape=(n, n))
    _, comp = connected_components(m, directed=False)
    return _canonical_labels(comp)


def _split_pass(f, edges, weights, labels, lam, sizes, inside):
    """Attempt a regularized 2-means split of every region not known stable.

    `inside` lists, in edge order, the edges inside the regions to retry.
    Returns (labels, inside, changed): the new labels and the edges inside
    the pieces of the splits accepted now, the regions the next pass
    retries. Each region's split is accepted independently, only on strict
    energy decrease. The split core runs on the subgraph of those regions
    (vertex order kept). Regions are connected, so a region of two or more
    vertices has an edge in `inside`; a region of one vertex has none and
    is never retried, which loses nothing: its split gains exactly 0, and
    its 2-means touches no other region.
    """
    if len(inside) == 0:
        return labels, inside, False
    sub_edges = np.take(edges, inside, axis=0)
    is_act = np.zeros(len(f), dtype=bool)
    is_act[sub_edges.ravel()] = True
    act = np.flatnonzero(is_act)
    pos = np.zeros(len(f), dtype=np.int64)
    pos[act] = np.arange(len(act))
    sub_edges = pos[sub_edges]
    comp, take = _split_regions(np.take(f, act, axis=0), sub_edges, weights[inside],
                                _canonical_labels(labels[act]), lam, sizes[act])
    if not take.any():
        return labels, inside[:0], False
    out = labels.copy()
    out[act[take]] = labels.max() + 1 + comp[take]     # canonicalized below
    a, b = sub_edges[:, 0], sub_edges[:, 1]
    return _canonical_labels(out), inside[take[a] & (comp[a] == comp[b])], True


def _split_regions(f, edges, weights, labels, lam, sizes, sweeps=_ICM_SWEEPS):
    """Regularized 2-means split of each region; `edges` are internal edges.

    Returns each vertex's connected component after the split and whether
    its region's split strictly lowers the energy. `sweeps` caps the
    regularized boundary sweeps that follow the plain 2-means iterations.
    Works on the feature columns (`ft`, one channel per row), transposed
    once per call; centres are kept the same way, (D, nreg).
    """
    n, dim = f.shape
    nreg = labels.max() + 1
    ft = np.ascontiguousarray(f.T)
    e0, e1 = np.ascontiguousarray(edges.T)
    sf = sizes * ft
    counts, sums, data_old = _region_stats(ft, labels, nreg, sizes)
    means = np.zeros((dim, nreg))
    nz = counts > 0
    means[:, nz] = sums[:, nz] / counts[nz]
    centered = ft - np.take(means, labels, axis=1)

    # Per-region principal direction from batched covariance eigenvectors.
    _, vecs = np.linalg.eigh(_covariance(centered, labels, nreg, sizes))
    pc1 = vecs[:, :, -1]
    flip = pc1[np.arange(nreg), np.abs(pc1).argmax(axis=1)] < 0
    pc1[flip] *= -1.0

    # einsum's bits depend on its operands' layout: keep them row-major
    proj = np.einsum("ij,ij->i", np.ascontiguousarray(centered.T),
                     np.take(pc1, labels, axis=0))
    # Extreme points along the principal direction seed the two centers.
    first, last = _extreme_seeds(proj, labels, nreg)
    c0 = np.take(ft, first, axis=1)
    c1 = np.take(ft, last, axis=1)

    # Degenerate (zero-spread) regions can't improve: mask them out later via
    # the energy test; their two seeds coincide and produce a no-op split.
    side = np.zeros(n, dtype=np.int64)
    # both directions of each internal edge: endpoint, other end, weight
    ends = np.concatenate([e0, e1])
    other = np.concatenate([e1, e0])
    w2 = np.concatenate([weights, weights])

    def assign(with_cut):
        d0 = sizes * _sq_dists(ft, c0, labels)
        d1 = sizes * _sq_dists(ft, c1, labels)
        if with_cut and len(edges):
            # disagreement cost a vertex would pay for picking each side
            one = side[other] == 1
            d0 = d0 + lam * np.bincount(ends, weights=w2 * one, minlength=n)
            d1 = d1 + lam * np.bincount(ends, weights=w2 * ~one, minlength=n)
        return np.where(d1 < d0, 1, 0)

    def update_centers():
        key = labels * 2 + side
        cnt = np.bincount(key, weights=sizes, minlength=nreg * 2)
        sm = bincount_cols(key, sf, nreg * 2)
        ok = cnt > 0
        np.divide(sm, cnt, out=sm, where=ok)
        return (np.where(ok[0::2], sm[:, 0::2], c0),
                np.where(ok[1::2], sm[:, 1::2], c1))

    # plain 2-means iterations, then the regularized boundary sweeps
    for with_cut, rounds in ((False, _KMEANS_ITERS), (True, sweeps)):
        for _ in range(rounds):
            new_side = assign(with_cut)
            if np.array_equal(new_side, side):
                break
            side = new_side
            c0, c1 = update_centers()

    # Split regions into connected components per side.
    key = labels * 2 + side
    same = key[e0] == key[e1]
    comp = _components(n, np.take(edges, np.flatnonzero(same), axis=0))
    ncomp = comp.max() + 1

    _, _, comp_data = _region_stats(ft, comp, ncomp, sizes)
    # Each component lies inside one region, so all its members write the
    # same value here.
    comp_region = np.empty(ncomp, dtype=np.int64)
    comp_region[comp] = labels

    data_new_per_region = np.bincount(comp_region, weights=comp_data, minlength=nreg)
    crossing = comp[e0] != comp[e1]
    cut_new_per_region = np.bincount(labels[e0[crossing]],
                                     weights=weights[crossing], minlength=nreg)
    gain = data_old - (data_new_per_region + lam * cut_new_per_region)
    return comp, (gain > _EPS_DECREASE)[labels]


def _unchanged(old, new):
    """Mark the vertices of `new` regions that are regions of `old`.

    A region is marked only when all its vertices share one old label, and
    that old region had as many vertices: the same vertex set.
    """
    rep = np.empty(new.max() + 1, dtype=np.int64)
    rep[new] = old
    same = old == rep[new]
    size = np.bincount(new)
    keep = ((np.bincount(new[same], minlength=len(size)) == size)
            & (np.bincount(old)[rep] == size))
    return keep[new]


def _pair_weights(la, lb, w, nreg):
    """The distinct region pairs (pa < pb, ascending) of edges running from
    region `la` to region `lb` (never equal), and each pair's summed edge
    weight `w`, added in edge order."""
    key = np.minimum(la, lb) * np.int64(nreg) + np.maximum(la, lb)
    uniq, inv = np.unique(key, return_inverse=True)
    return uniq // nreg, uniq % nreg, np.bincount(inv, weights=w,
                                                  minlength=len(uniq))


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
    ft = np.ascontiguousarray(f.T)
    counts, sums, data = _region_stats(ft, labels, nreg, sizes)
    # the crossing edges and their endpoints' regions, kept up to date
    la, lb = labels[edges[:, 0]], labels[edges[:, 1]]
    cross = np.flatnonzero(la != lb)
    la, lb = la[cross], lb[cross]
    near = np.arange(len(cross))        # the entries of `cross` to score
    labels = labels.copy()
    changed_any = False
    while len(near):
        pa, pb, wsum = _pair_weights(la[near], lb[near], weights[cross[near]], nreg)
        ca, cb = counts[pa], counts[pb]
        sa, sb = np.take(sums, pa, axis=1), np.take(sums, pb, axis=1)
        data_merged = (data[pa] + data[pb]
                       + ca * _sum(list(np.square(sa / ca)))
                       + cb * _sum(list(np.square(sb / cb)))
                       - _sum(list(np.square(sa + sb))) / (ca + cb))
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
        merged = np.frombuffer(used, dtype=bool)
        inside = np.flatnonzero(merged[labels])
        labels[inside] = mapping[labels[inside]]
        c, sm, d = _region_stats(np.take(ft, inside, axis=1), labels[inside],
                                 nreg, sizes[inside])
        counts[merged], sums[:, merged], data[merged] = c[merged], sm[:, merged], d[merged]
        # a region is merged exactly when its new id is: the next round
        # scores the edges still crossing among those touching one
        hit = np.flatnonzero(merged[la] | merged[lb])
        la[hit], lb[hit] = mapping[la[hit]], mapping[lb[hit]]
        near = hit[la[hit] != lb[hit]]
        changed_any = True
    if changed_any:
        labels = _canonical_labels(labels)
    return labels, changed_any


def _sum(xs):
    """Sum in the order of numpy's pairwise float64 reduction, so the sum
    has the bits of `np.sum` over the terms: fewer than 8 terms are added
    one by one to 0.0; longer runs go in blocks of up to 128 with 8
    accumulators, the total added to 0.0. The solver passes feature
    channels as the terms, summed element by element, so a sum over
    channels has the bits of `.sum(axis=1)` over a row-major array."""
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


def _screen_moves(ft, sizes, nbrs, lab, counts, sums, vertices_per, bnd, lam):
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
    key = np.sort(owner * nreg + lab[nbrs.ids[idx]])
    key = key[np.diff(key, prepend=-1) != 0]            # ascending, distinct
    row, s = key // nreg, key % nreg
    depends = (np.concatenate([np.arange(len(bnd)), row]), np.concatenate([r, s]))
    pair = (s != r[row]) & (vertices_per[r[row]] > 1)
    row, s = row[pair], s[pair]         # candidates, ascending per vertex
    v, rr = bnd[row], r[row]
    sv = sizes[v]

    with np.errstate(invalid="ignore", divide="ignore"):
        means = sums / counts

    def sq_dist(vert, reg):
        return _sq_dists(np.take(ft, vert, axis=1), means, reg)

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

    Features and region sums are held as columns, (D, n) and (D, nreg):
    `f` is transposed once per call.
    """
    n = len(f)
    nreg = labels.max() + 1
    ft = np.ascontiguousarray(f.T)
    counts, sums, _ = _region_stats(ft, labels, nreg, sizes)
    vertices_per = np.bincount(labels, minlength=nreg)
    lab = labels.copy()

    def score(vertices):
        return _screen_moves(ft, sizes, nbrs, lab, counts, sums, vertices_per,
                             vertices, lam)

    changed_any = False
    for _ in range(6):
        on_cut = np.zeros(n, dtype=bool)
        on_cut[edges[lab[edges[:, 0]] != lab[edges[:, 1]]].ravel()] = True
        bnd = np.flatnonzero(on_cut)
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
            sums[:, r] -= sv * ft[:, v]
            vertices_per[r] -= 1
            counts[to] += sv
            sums[:, to] += sv * ft[:, v]
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
        lab = _components(n, edges[same])
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
    _, _, data = _region_stats(np.tile(means.T, b), key, b * k,
                               np.tile(counts, b))
    energy = data.reshape(b, k).sum(axis=1)
    if len(sup_edges):
        cut = parts[:, sup_edges[:, 0]] != parts[:, sup_edges[:, 1]]
        energy = energy + lam * (cut * sup_w).sum(axis=1)
    coarse = parts[int(np.argmin(energy))][labels]
    same = coarse[edges[:, 0]] == coarse[edges[:, 1]]
    return _components(len(f), edges[same])


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
      Each pass gets the edges inside the regions to retry (all edges at
      first; then those inside the pieces of accepted splits; after a
      merge or polish, those inside the regions it made) and skips regions
      of one vertex.
    - A merge round after the first scores only the pairs with a region
      merged in the round before (`_merge_pass`): a positive pair of two
      untouched regions had the same gain in that round and would have been
      taken then.
    - The polish scores its moves with one vectorised scorer
      (`_screen_moves`): every boundary vertex once per sweep, then again,
      in batches, only the vertices whose regions changed earlier in the
      sweep (`_boundary_polish`).

    The passes work on feature columns, (D, N) with one contiguous row per
    channel, and renumber labels without sorting them; each kernel has the
    bits of the row-major form it replaces (see the module docstring). The
    polish's neighbour lists are built once per solve. Features and sizes
    must be finite.
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
    if not (np.isfinite(f).all() and np.isfinite(sizes).all()):
        raise InvalidParams("features and sizes must be finite")
    components = _components(n, edges)
    labels = components
    nbrs = (_Neighbours.of(n, edges, weights)
            if len(edges) and n <= _POLISH_LIMIT else None)
    inside = np.arange(len(edges))  # every edge lies inside a component
    for _ in range(_MAX_OUTER):
        ch_split = False
        while True:
            labels, inside, ch = _split_pass(f, edges, weights, labels, lam,
                                             sizes, inside)
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
        # retry the regions the merges and the polish made
        retry = ~_unchanged(split, labels)
        inside = np.flatnonzero(retry[edges[:, 0]]
                                & (labels[edges[:, 0]] == labels[edges[:, 1]]))
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
    counts, sums, _ = _region_stats(np.ascontiguousarray(f.T), labels, nreg, sizes)
    means = np.ascontiguousarray((sums / counts).T)
    la, lb = labels[edges[:, 0]], labels[edges[:, 1]]
    cross = la != lb
    pa, pb, w = _pair_weights(la[cross], lb[cross], weights[cross], nreg)
    return means, counts, np.column_stack([pa, pb]), w


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

    # each level solves on the previous level's contracted graph; `raw`
    # maps every point to its region of the level just solved
    edges, weights, sizes = graph.edges, graph.weights, None
    raw = np.arange(len(f))
    level_labels = []
    for level, lam in enumerate(lambdas):
        if level:
            f, sizes, edges, weights = _contract_graph(f, edges, weights, sup,
                                                       sizes=sizes)
        sup = cut_pursuit(f, edges, weights, lam, sizes=sizes)
        raw = sup[raw]
        filtered = filter_small_patches(raw, min_patch=min_patch)
        keep = filtered >= 0
        full = np.full(len(filtered), -1, dtype=np.int64)
        full[keep] = _canonical_labels(filtered[keep])
        level_labels.append(full)
    return HierarchicalPartition(level_labels)

