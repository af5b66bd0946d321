"""Spatial kNN graph construction and the variational graph autoencoder.

The encoder runs two branches over the spot expression matrix: a plain MLP
and a 2-layer graph convolution stack over the normalized adjacency. Their
outputs (each d/2 wide) are concatenated and merged into a single d-wide
latent by a fully connected layer, on which the mu/logvar heads sit. The
decoder reconstructs expression (an MLP mirroring the expression branch's
widths), coordinates (MLP to 2-D, in the normalized coordinate frame), and
edges via an inner-product head sigmoid(z_i . z_j).

Graph work is O(|E|), following the sparse formulation of GCN and VGAE
(Kipf & Welling, arXiv:1609.02907 and arXiv:1611.07308); nothing n x n is
ever built:

* the kNN graph comes from a numpy grid of cells that hold about k + 1
  points each where there are points, searched outward until no unsearched
  point can be nearer; the few points with nothing near (outliers) are
  ranked against every point instead;
* ``spatial_graph`` builds, once per edge set, A + I's upper-triangle
  entries as one sorted key array ``i * n + j`` and the GCN-normalized
  adjacency D^-1/2 (A + I) D^-1/2, a scipy CSR matrix multiplied in by the
  ``spmm`` op;
* each GCN layer is A_hat (H W): the adjacency multiplies the narrow
  product H W, so the graph branch holds nothing as wide as the gene panel;
* the inner-product head scores only the requested pairs (``pair_dot``);
* the adjacency loss scores those keys against as many non-edge keys, drawn
  per step by one rejection loop against them: O(|E|) draws on a sparse
  graph, O(n^2) = O(|E|) on a dense one.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import layers as nn
from . import vae
from .errors import DataError, ShapeError

_KNN_CHUNK = 1 << 16  # candidate distances the kNN search holds at once
_KNN_MAX_REACH = 32  # a point pending past this window reach, in cells, ranks every point
_KNN_MAX_SPAN = 1 << 28  # cells per axis at most, so cell keys stay far inside int64


# ---------------------------------------------------------------------------
# spatial graph
# ---------------------------------------------------------------------------

@dataclass
class SpatialGraph:
    """A symmetric spot graph and the constants of A + I, built by ``spatial_graph``.

    ``keys`` holds A + I's upper-triangle entries, self-loops included, as
    sorted ``i * n + j``; the edge list is derived from them where it is read.
    """

    n: int
    keys: np.ndarray  # sorted int64 i * n + j, i <= j
    norm_adj: "scipy.sparse.csr_matrix"  # D^-1/2 (A + I) D^-1/2

    @property
    def edges(self):
        """A's edges as an [m, 2] array of (i, j) with i < j, in key order."""
        i, j = np.divmod(self.keys, self.n)
        return np.stack([i, j], axis=1)[i != j]


def spatial_graph(n: int, edges) -> SpatialGraph:
    """The ``SpatialGraph`` on ``n`` nodes with ``edges`` = pairs (i, j), 0 <= i < j < n.

    The pairs are a set: order and repeats do not matter. The normalized
    adjacency is a CSR matrix whose entries equal the dense formula's bit for bit.
    """
    import scipy.sparse as sp  # kept off the inference import path

    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size and (np.any(e[:, 0] >= e[:, 1]) or e.min() < 0 or e.max() >= n):
        raise DataError(f"edges must be pairs (i, j) with 0 <= i < j < {n}")
    loops = np.arange(n, dtype=np.int64) * (n + 1)  # i * n + i
    keys = np.unique(np.concatenate([loops, e[:, 0] * n + e[:, 1]]))
    full = np.unique(np.concatenate([keys, e[:, 1] * n + e[:, 0]]))  # row-major: canonical CSR
    r, c = full // n, full % n
    counts = np.bincount(r, minlength=n)
    d_inv_sqrt = 1.0 / np.sqrt(counts.astype(np.float64))  # >= 1 via the self-loop
    indptr = np.concatenate([[0], np.cumsum(counts)])
    norm_adj = sp.csr_matrix((d_inv_sqrt[r] * d_inv_sqrt[c], c, indptr), shape=(n, n))
    return SpatialGraph(n=n, keys=keys, norm_adj=norm_adj)


def build_knn_graph(coords, k: int) -> SpatialGraph:
    """Union-symmetrized k-nearest-neighbor graph over 2-D points.

    Distance ties break toward the smaller point index; self-loops are
    excluded from the edge set (A + I adds them back). The search runs on a
    grid of square cells sized by ``_grid_cells`` to hold about k + 1 points
    each where there are points. Each pending point ranks the points of the
    (2r + 1)^2 cells around its own by (exact distance, index); no point
    outside those cells is nearer than r cell sides, so a point whose k-th
    distance is below that is done, and the rest search again with r
    doubled. Once r would pass ``_KNN_MAX_REACH``, the points still pending
    rank every point, in chunks.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    if k < 1:
        raise DataError(f"need at least one neighbor per point: k={k}")
    if n <= k:
        raise DataError(f"need more points than neighbors: n={n}, k={k}")
    if not np.all(np.isfinite(coords)):
        raise DataError("coordinates must be finite")
    cell, side = _grid_cells(coords, k)
    ny = int(cell[:, 1].max()) + 1
    span = int(cell.max()) + 1  # a window of r >= span - 1 covers every cell
    key = cell[:, 0] * ny + cell[:, 1]  # a column of cells is one run of keys
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    xy = coords.T.copy()
    nbrs = np.empty((n, k), dtype=np.intp)
    pending = np.arange(n)
    r = 1
    while pending.size:
        if r > _KNN_MAX_REACH:
            step = max(1, _KNN_CHUNK // n)
            for a in range(0, len(pending), step):
                pts = pending[a:a + step]
                everyone = np.broadcast_to(np.arange(n), (len(pts), n))
                nbrs[pts] = _k_nearest(xy, pts, everyone, k)[0]
            break
        # per point, the 2r + 1 runs of sorted_key that its window's columns hold
        cx, cy = cell[pending, 0], cell[pending, 1]
        col = (cx[:, None] + np.arange(-r, r + 1)) * ny
        start = np.searchsorted(sorted_key, col + np.maximum(cy - r, 0)[:, None], "left")
        lens = np.searchsorted(sorted_key, col + np.minimum(cy + r, ny - 1)[:, None],
                               "right") - start
        count = lens.sum(axis=1)
        # the relative margin covers cell indices rounded in their last bits
        reach = r * side * (1.0 - 1e-9)
        # chunks of points with similar counts, padded to at most _KNN_CHUNK candidates
        by_count = np.argsort(count, kind="stable")
        left = []
        a = 0
        while a < len(pending):
            w = count[by_count[a:a + _KNN_CHUNK // count[by_count[a]]]]
            b = a + max(1, int(np.count_nonzero(np.arange(1, len(w) + 1) * w <= _KNN_CHUNK)))
            rows = by_count[a:b]
            pts, tot, ln = pending[rows], count[rows], lens[rows].reshape(-1)
            # each point's runs end to end, laid into its row; n pads after every index
            at = np.repeat(start[rows].reshape(-1) - (np.cumsum(ln) - ln), ln) + np.arange(ln.sum())
            cand = np.full((len(rows), tot[-1]), n)
            cand[np.arange(tot[-1]) < tot[:, None]] = order[at]
            cand.sort(axis=1)
            near, kth = _k_nearest(xy, pts, cand, k)
            done = (kth < reach) | (r + 1 >= span)
            nbrs[pts[done]] = near[done]
            left.append(pts[~done])
            a = b
        pending = np.concatenate(left)
        r *= 2
    pairs = np.stack([np.repeat(np.arange(n), k), nbrs.reshape(-1)], axis=1)
    return spatial_graph(n, np.sort(pairs, axis=1))  # each pair as i < j


def _grid_cells(coords, k):
    """(the [n, 2] integer cell of every point, the cell side) of the kNN grid.

    The first side gives the bounding box about k + 1 points per cell (a
    degenerate box falls back to its long side). Clustered points leave most
    of the box empty, so the side is then sized from the area the occupied
    cells cover, side <- sqrt(occupied * side^2 * (k + 1) / n), for as long
    as that shrinks it by a tenth or more and leaves at most
    ``_KNN_MAX_SPAN`` cells per axis. All points equal (or a box too wide
    for floats) give one cell.
    """
    n = len(coords)
    lo = coords.min(axis=0)
    extent = coords.max(axis=0) - lo
    side = max(float(np.sqrt(extent[0] * extent[1] * (k + 1) / n)),
               float(extent.max()) * (k + 1) / n)
    if not 0.0 < side < np.inf:
        return np.zeros((n, 2), dtype=np.int64), side
    finest = float(extent.max()) / _KNN_MAX_SPAN
    while True:
        cell = np.floor((coords - lo) / side).astype(np.int64)
        occupied = len(np.unique(cell[:, 0] * (int(cell[:, 1].max()) + 1) + cell[:, 1]))
        finer = side * float(np.sqrt(occupied * (k + 1) / n))
        if not finest <= finer <= 0.9 * side:
            return cell, side
        side = finer


def _k_nearest(xy, pts, cand, k):
    """([m, k] nearest candidates of each point by (distance, index), their k-th distance).

    ``xy`` holds the x and y rows of every point; row i of ``cand`` holds
    point ``pts[i]``'s candidates in ascending order, padded with the point
    count. A point is never its own neighbor (by index: duplicates share
    distance 0); with fewer than k other candidates the k-th distance is inf.
    """
    n = xy.shape[1]
    dist = np.zeros(cand.shape)
    for axis in xy:  # dx^2 + dy^2
        d = axis[np.minimum(cand, n - 1)]
        d -= axis[pts][:, None]
        d *= d
        dist += d
    np.sqrt(dist, out=dist)
    dist[(cand == n) | (cand == pts[:, None])] = np.inf
    sel = np.argsort(dist, axis=1, kind="stable")[:, :k]  # stable: the smaller index first
    return np.take_along_axis(cand, sel, axis=1), dist[np.arange(len(pts)), sel[:, -1]]


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class VgaeConfig:
    n_genes: int
    latent_dim: int
    exp_hidden: tuple
    gcn_hidden: int = 64
    coord_hidden: tuple = (64, 32)

    def __post_init__(self):
        if self.latent_dim % 2 != 0:
            raise DataError("latent_dim must be even (split across the two encoder branches)")

    @property
    def d_half(self):
        return self.latent_dim // 2


class VgaeParams:
    def __init__(self, cfg: VgaeConfig, rng):
        self.cfg = cfg
        self.exp_enc = nn.init_stack(rng, [cfg.n_genes, *cfg.exp_hidden, cfg.d_half])
        self.gcn_w1 = nn.init_dense(rng, cfg.n_genes, cfg.gcn_hidden).w
        self.gcn_w2 = nn.init_dense(rng, cfg.gcn_hidden, cfg.d_half, gain=1.0).w
        self.merge = nn.init_dense(rng, 2 * cfg.d_half, cfg.latent_dim, gain=1.0)
        self.mu_head = nn.init_dense(rng, cfg.latent_dim, cfg.latent_dim, gain=1.0)
        self.logvar_head = nn.init_dense(rng, cfg.latent_dim, cfg.latent_dim, gain=1.0)
        dw = [cfg.latent_dim, *reversed(cfg.exp_hidden)]
        self.dec = nn.init_stack(rng, dw)
        self.out_head = nn.init_dense(rng, dw[-1], cfg.n_genes, gain=1.0)
        cw = [cfg.latent_dim, *cfg.coord_hidden]
        self.coord = nn.init_stack(rng, cw)
        self.coord_head = nn.init_dense(rng, cw[-1], 2, gain=1.0)

    def params(self):
        return nn.collect_params(("exp", self.exp_enc), ("merge", self.merge),
                                 ("mu", self.mu_head), ("logvar", self.logvar_head),
                                 ("dec", self.dec), ("out", self.out_head), ("coord", self.coord),
                                 ("coord_head", self.coord_head), ("gcn.w1", self.gcn_w1),
                                 ("gcn.w2", self.gcn_w2))


def init_vgae(cfg: VgaeConfig, seed_or_rng) -> VgaeParams:
    return VgaeParams(cfg, np.random.default_rng(seed_or_rng))


def vgae_encode(p: VgaeParams, norm_adj, x_exp):
    """(mu, logvar) of the merged latent, each [n, d].

    Expression branch: MLP(x) -> d/2. Graph branch: two GCN layers
    A_hat (H W) over the sparse normalized adjacency -> d/2, so the first
    never forms A_hat x [n, genes]. Concatenate, merge with a fully
    connected layer, then apply the posterior heads.
    """
    x = ad.as_tensor(x_exp)
    if x.shape[1] != p.cfg.n_genes:
        raise ShapeError(f"vgae_encode: input has {x.shape[1]} genes, model expects {p.cfg.n_genes}")
    if norm_adj.shape != (x.shape[0], x.shape[0]):
        raise ShapeError(f"vgae_encode: adjacency {tuple(norm_adj.shape)} vs {x.shape[0]} spots")
    z_exp = nn.mlp_forward(p.exp_enc, x)
    g1 = ad.relu(ad.spmm(norm_adj, ad.matmul(x, p.gcn_w1)))
    z_graph = ad.spmm(norm_adj, ad.matmul(g1, p.gcn_w2))
    merged = p.merge(ad.concat_cols(z_exp, z_graph))
    return p.mu_head(merged), p.logvar_head(merged)


def vgae_decode(p: VgaeParams, z, pairs=None):
    """(expression [n, g], coordinates [n, 2], edge logits [k] or None).

    Coordinates come out in the model's normalized frame (zero mean, unit
    RMS over the training spots). Edge logits are the inner products
    z_i . z_j of the requested ``pairs`` = (rows, cols) only; probabilities
    are their sigmoid. Without ``pairs`` no edge is scored.
    """
    z = ad.as_tensor(z)
    h_exp, h_sp = _decode_hidden(p, z)
    edge_logits = None if pairs is None else ad.pair_dot(z, *pairs)
    return p.out_head(h_exp), p.coord_head(h_sp), edge_logits


def _decode_hidden(p: VgaeParams, z):
    """The expression and coordinate decoders up to their output heads."""
    if z.shape[1] != p.cfg.latent_dim:
        raise ShapeError(f"vgae_decode: input width {z.shape[1]}, model expects {p.cfg.latent_dim}")
    return (nn.mlp_forward(p.dec, z, final_linear=False),
            nn.mlp_forward(p.coord, z, final_linear=False))


def _contains(sorted_keys, query):
    if not sorted_keys.size:
        return np.zeros(query.shape, dtype=bool)
    at = np.searchsorted(sorted_keys, query)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == query


def sample_negatives(keys, n, count, rng):
    """Distinct upper-triangle non-edges of A + I, as sorted keys ``i * n + j``.

    ``keys`` are the ``SpatialGraph.keys`` of the graph on ``n`` nodes, and
    the result holds min(count, number of non-edges) keys. Pairs are drawn
    uniformly without replacement, by rejection against ``keys``: each round
    draws twice the pairs still missing, scaled by all pairs over the
    non-edges not yet drawn, and keeps the first draw of each new non-edge.
    A round thus draws O(count) pairs on a sparse graph and at most
    2 n^2 + 16 when the non-edges are few or the sample takes most of them,
    where n^2 is O(|E| + count).
    """
    pairs = n * (n - 1) // 2
    free = pairs - (len(keys) - n)  # the keys hold every self-loop
    count = min(int(count), free)
    got = np.empty(0, dtype=np.int64)
    while len(got) < count:
        draw = 2 * (count - len(got)) * pairs // (free - len(got)) + 16
        ij = rng.integers(0, n, size=(draw, 2))
        lo, hi = np.minimum(ij[:, 0], ij[:, 1]), np.maximum(ij[:, 0], ij[:, 1])
        cand = (lo * n + hi)[lo != hi]
        # one sort groups each pair's draws; the least draw index of a group
        # is the pair's first draw, and the sorted pairs meet the sorted keys
        order = np.argsort(cand)
        ranked = cand[order]
        start = np.flatnonzero(np.diff(ranked, prepend=-1))  # lo * n + hi >= 1 > -1
        pair, first = ranked[start], np.minimum.reduceat(order, start)
        new = ~_contains(keys, pair) & ~_contains(np.sort(got), pair)
        got = np.concatenate([got, cand[np.sort(first[new])]])  # in draw order
    return np.sort(got[:count])


def vgae_loss(p: VgaeParams, graph: SpatialGraph, x_exp, x_sp, noise, neg):
    """(recon_exp, recon_sp, recon_adj, kl, mu): unweighted scalar terms and the posterior mean.

    Adjacency reconstruction scores the entries of A + I (``graph.keys``:
    the self-loops, then the edges in key order) against the non-edge keys
    ``neg`` (from ``sample_negatives``; as many as ``graph.keys`` keeps the
    classes balanced). ``mu`` lets the caller add terms on the posterior
    mean without a second encoder pass.
    """
    x_exp = ad.as_tensor(x_exp)
    x_sp = ad.as_tensor(x_sp)
    mu, logvar = vgae_encode(p, graph.norm_adj, x_exp)
    z = vae.reparameterize(mu, logvar, noise)
    loop = graph.keys // graph.n == graph.keys % graph.n
    rows, cols = np.divmod(np.concatenate([graph.keys[loop], graph.keys[~loop], neg]), graph.n)
    # vgae_decode without its output heads: each head runs inside its loss
    h_exp, h_sp = _decode_hidden(p, z)
    edge_logits = ad.pair_dot(z, rows, cols)

    recon_exp = ad.affine_mse(h_exp, p.out_head.w, p.out_head.b, x_exp)
    recon_sp = ad.affine_mse(h_sp, p.coord_head.w, p.coord_head.b, x_sp)
    labels = np.concatenate([np.ones(len(graph.keys)), np.zeros(len(neg))])
    recon_adj = ad.bce_with_logits(edge_logits, labels)
    return recon_exp, recon_sp, recon_adj, vae.kl_divergence(mu, logvar), mu


def encode_mu(p: VgaeParams, norm_adj, x_exp) -> np.ndarray:
    mu, _ = vgae_encode(p, norm_adj, ad.as_tensor(x_exp))
    return mu.data.copy()


def edge_auc(z: np.ndarray, pos_pairs, neg_pairs) -> float:
    """Rank-based AUC of inner-product edge scores, ties counted half; O(P + N) memory."""
    z = np.asarray(z, dtype=np.float64)
    pos_pairs = np.asarray(pos_pairs)
    neg_pairs = np.asarray(neg_pairs)
    pos = (z[pos_pairs[:, 0]] * z[pos_pairs[:, 1]]).sum(axis=1)
    neg = np.sort((z[neg_pairs[:, 0]] * z[neg_pairs[:, 1]]).sum(axis=1))
    below = np.searchsorted(neg, pos, side="left")  # negatives < each positive
    ties = np.searchsorted(neg, pos, side="right") - below  # negatives == it
    return (below.sum() + 0.5 * ties.sum()) / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# coordinate normalization
# ---------------------------------------------------------------------------

@dataclass
class CoordTransform:
    """Zero-mean, unit-RMS normalization of the training spot coordinates."""

    center: np.ndarray
    scale: float

    def normalize(self, coords):
        return (np.asarray(coords, dtype=np.float64) - self.center) / self.scale

    def denormalize(self, coords):
        return np.asarray(coords, dtype=np.float64) * self.scale + self.center

    def to_dict(self):
        return {"center": [float(v) for v in self.center], "scale": float(self.scale)}

    @staticmethod
    def from_dict(d):
        """The transform ``to_dict`` wrote; a ValueError unless it has two
        finite center values and a finite scale > 0."""
        center, scale = np.asarray(d["center"], dtype=np.float64), float(d["scale"])
        if center.shape != (2,) or not np.all(np.isfinite(center)) or not 0 < scale < np.inf:
            raise ValueError("coord_transform needs two finite center values and a finite "
                             f"scale > 0, got center {d['center']!r}, scale {d['scale']!r}")
        return CoordTransform(center=center, scale=scale)


def fit_coord_transform(coords) -> CoordTransform:
    coords = np.asarray(coords, dtype=np.float64)
    center = coords.mean(axis=0)
    rms = float(np.sqrt(np.mean(((coords - center) ** 2).sum(axis=1))))
    if rms == 0.0:
        rms = 1.0  # all spots coincide; keep the transform invertible
    return CoordTransform(center=center, scale=rms)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_vgae(path, p: VgaeParams, extra=None):
    nn.save_checkpoint(path, "vgae", p, extra=extra)


def load_vgae(path):
    return nn.load_checkpoint(path, "vgae", VgaeConfig, VgaeParams)
