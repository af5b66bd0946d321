import numpy as np
import pytest
import scipy.sparse as sp
from conftest import traced_peak

from latentmap import autodiff as ad
from latentmap import vgae
from latentmap.errors import DataError


def brute_force_knn_edges(coords, k):
    # distances rounded as build_knn_graph rounds them, sqrt(dx^2 + dy^2):
    # on a hex lattice, points equidistant in exact arithmetic differ in
    # their last bits, and another rounding (np.linalg.norm's) orders them
    # differently
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    edges = set()
    for i in range(n):
        scored = sorted((float(np.sqrt(np.sum((coords[i] - coords[j]) ** 2))), j)
                        for j in range(n) if j != i)
        for _, j in scored[:k]:
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def edge_list(g):
    """``g.edges`` as a list of (i, j) tuples."""
    return [tuple(e) for e in g.edges.tolist()]


def key_pairs(keys, n):
    """[m, 2] (i, j) rows of the keys ``i * n + j``."""
    return np.stack(np.divmod(keys, n), axis=1)


def all_pairs(n):
    """(rows, cols) of every entry of an n x n matrix, row-major."""
    rows, cols = np.indices((n, n)).reshape(2, -1)
    return rows, cols


def tiny_vgae(seed=0, n_genes=12, latent_dim=4):
    cfg = vgae.VgaeConfig(n_genes=n_genes, latent_dim=latent_dim, exp_hidden=(8,),
                          gcn_hidden=6, coord_hidden=(5,))
    return vgae.init_vgae(cfg, seed)


def weighted_total(terms, recon_exp=1.0, recon_sp=1.0, recon_adj=1.0, kl=1.0):
    """The weighted sum of ``vgae_loss``'s four terms, in stage 3's association order."""
    t_exp, t_sp, t_adj, t_kl = terms[:4]
    return ad.add(ad.add(ad.scale(t_exp, recon_exp), ad.scale(t_sp, recon_sp)),
                  ad.add(ad.scale(t_adj, recon_adj), ad.scale(t_kl, kl)))


def balanced_negatives(g, rng):
    return vgae.sample_negatives(g.keys, g.n, len(g.keys), rng)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_knn_collinear_points():
    g = vgae.build_knn_graph([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]], k=1)
    assert edge_list(g) == [(0, 1), (1, 2)]


def test_knn_grid_interior_axis_neighbors():
    side = 5
    coords = [[float(x), float(y)] for y in range(side) for x in range(side)]
    g = vgae.build_knn_graph(coords, k=4)
    center = 2 * side + 2  # (2, 2)
    neighbors = {j for i, j in g.edges if i == center} | {i for i, j in g.edges if j == center}
    assert neighbors == {center - 1, center + 1, center - side, center + side}


def test_knn_two_points():
    g = vgae.build_knn_graph([[0.0, 0.0], [1.0, 1.0]], k=1)
    assert edge_list(g) == [(0, 1)]


def test_knn_matches_brute_force():
    rng = np.random.default_rng(0)
    coords = rng.uniform(0, 10, size=(30, 2))
    for k in (1, 3, 6):
        g = vgae.build_knn_graph(coords, k=k)
        assert edge_list(g) == brute_force_knn_edges(coords, k)


def test_knn_duplicate_coords_tie_by_index():
    coords = [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
    g = vgae.build_knn_graph(coords, k=1)
    # each duplicate picks the smallest other index
    assert (0, 1) in edge_list(g) and (0, 2) in edge_list(g)


def test_knn_too_few_points_errors():
    with pytest.raises(DataError, match="n=2, k=2"):
        vgae.build_knn_graph([[0.0, 0.0], [1.0, 0.0]], k=2)
    with pytest.raises(DataError, match="k=0"):
        vgae.build_knn_graph([[0.0, 0.0], [1.0, 0.0]], k=0)


def test_normalize_adjacency_single_edge():
    a_hat = vgae.spatial_graph(2, [(0, 1)]).norm_adj.toarray()
    assert np.allclose(a_hat, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalize_adjacency_isolated_node():
    a_hat = vgae.spatial_graph(3, [(0, 1)]).norm_adj.toarray()
    assert np.array_equal(a_hat[2], [0.0, 0.0, 1.0])


def test_normalize_adjacency_random_graph_symmetric_finite():
    rng = np.random.default_rng(1)
    g = vgae.build_knn_graph(rng.uniform(0, 5, size=(6, 2)), k=2)
    a_hat = g.norm_adj.toarray()
    assert np.max(np.abs(a_hat - a_hat.T)) < 1e-12
    assert np.all(np.isfinite(a_hat))
    # symmetric normalization keeps the spectral radius at most 1
    eigs = np.linalg.eigvalsh(a_hat)
    assert np.max(np.abs(eigs)) <= 1.0 + 1e-9


def test_spatial_graph_pos_and_keys_match_brute_force():
    rng = np.random.default_rng(24)
    n = 12
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = [upper[t] for t in rng.choice(len(upper), size=20, replace=False)]  # unsorted
    g = vgae.spatial_graph(n, edges)
    assert g.n == n and edge_list(g) == sorted(edges)  # in key order
    pos = [(i, i) for i in range(n)] + edges  # the entries of A + I's upper triangle
    assert g.keys.dtype == np.int64 and g.keys.tolist() == sorted(i * n + j for i, j in pos)
    # the pairs are a set: order and repeats change nothing
    again = vgae.spatial_graph(n, edges[::-1] + edges[:5])
    assert np.array_equal(again.keys, g.keys)
    assert (again.norm_adj != g.norm_adj).nnz == 0


# ---------------------------------------------------------------------------
# GCN layer: relu(A_hat @ (h @ w)), written out as the encoder does
# ---------------------------------------------------------------------------

def test_gcn_identity_adjacency_reduces_to_dense_layer():
    rng = np.random.default_rng(2)
    h = ad.tensor(rng.normal(size=(4, 3)))
    w = ad.tensor(rng.normal(size=(3, 2)))
    out = ad.relu(ad.spmm(sp.identity(4, format="csr"), ad.matmul(h, w)))
    expected = np.maximum(h.data @ w.data, 0.0)
    assert np.allclose(out.data, expected, atol=1e-12)


def test_gcn_constant_rows_on_regular_graph_stay_constant():
    # 6-cycle is 2-regular: rows of A_hat sum to 1, so constant rows persist
    edges = [(i, (i + 1) % 6) for i in range(5)] + [(0, 5)]
    a_hat = vgae.spatial_graph(6, sorted(set(tuple(sorted(e)) for e in edges))).norm_adj
    h = ad.tensor(np.tile([1.5, -2.0, 0.5], (6, 1)))
    w = ad.tensor(np.random.default_rng(3).normal(size=(3, 2)))
    out = ad.spmm(a_hat, ad.matmul(h, w)).data
    assert np.allclose(out, out[0], atol=1e-12)


def test_gcn_grad_check_two_layers():
    rng = np.random.default_rng(4)
    g = vgae.build_knn_graph(rng.uniform(0, 3, size=(5, 2)), k=2)
    x = rng.uniform(0.1, 2.0, size=(5, 4))
    w1 = ad.tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w2 = ad.tensor(rng.normal(size=(3, 2)), requires_grad=True)

    def loss():
        h = ad.relu(ad.spmm(g.norm_adj, ad.matmul(ad.tensor(x), w1)))
        out = ad.spmm(g.norm_adj, ad.matmul(h, w2))
        return ad.tmean(ad.square(out))

    assert ad.grad_check(loss, {"w1": w1, "w2": w2}) < 1e-4


# ---------------------------------------------------------------------------
# encoder / decoder
# ---------------------------------------------------------------------------

def test_encode_zero_gcn_weights_ignores_graph():
    p = tiny_vgae(seed=5)
    p.gcn_w1.data[...] = 0.0
    p.gcn_w2.data[...] = 0.0
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 12))
    g1 = vgae.build_knn_graph(rng.uniform(0, 4, size=(6, 2)), k=2)
    mu_a, _ = vgae.vgae_encode(p, sp.identity(6, format="csr"), x)
    mu_b, _ = vgae.vgae_encode(p, g1.norm_adj, x)
    assert np.array_equal(mu_a.data, mu_b.data)


def test_expression_branch_and_decoders_match_numpy_reference():
    # MLPs with ReLU after each hidden layer and a linear last layer; zero GCN
    # weights leave only the expression branch in the merged latent
    def mlp(layers, h):
        for layer in layers[:-1]:
            h = np.maximum(h @ layer.w.data + layer.b.data, 0.0)
        return h @ layers[-1].w.data + layers[-1].b.data

    p = tiny_vgae(seed=13)
    p.gcn_w1.data[...] = 0.0
    p.gcn_w2.data[...] = 0.0
    x = np.random.default_rng(13).normal(size=(6, 12))
    mu, _ = vgae.vgae_encode(p, sp.identity(6, format="csr"), x)
    merged = mlp([p.merge], np.hstack([mlp(p.exp_enc, x), np.zeros((6, 2))]))
    assert np.array_equal(mu.data, mlp([p.mu_head], merged))
    x_hat, coords_hat, _ = vgae.vgae_decode(p, mu.data)
    assert np.array_equal(x_hat.data, mlp(p.dec + [p.out_head], mu.data))
    assert np.array_equal(coords_hat.data, mlp(p.coord + [p.coord_head], mu.data))


def test_encode_permutation_equivariance():
    p = tiny_vgae(seed=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(7, 12))
    g = vgae.build_knn_graph(rng.uniform(0, 4, size=(7, 2)), k=2)
    mu, logvar = vgae.vgae_encode(p, g.norm_adj, x)
    perm = rng.permutation(7)
    a_perm = g.norm_adj[np.ix_(perm, perm)]
    mu_p, logvar_p = vgae.vgae_encode(p, a_perm, x[perm])
    assert np.max(np.abs(mu_p.data - mu.data[perm])) < 1e-9
    assert np.max(np.abs(logvar_p.data - logvar.data[perm])) < 1e-9


def test_encoder_grad_check():
    p = tiny_vgae(seed=7, n_genes=6)
    rng = np.random.default_rng(7)
    g = vgae.build_knn_graph(rng.uniform(0, 3, size=(5, 2)), k=2)
    x = rng.uniform(0.1, 2.0, size=(5, 6))
    w = rng.normal(size=(5, 4))

    def loss():
        mu, logvar = vgae.vgae_encode(p, g.norm_adj, x)
        return ad.tsum(ad.add(ad.mul(mu, ad.tensor(w)), ad.square(logvar)))

    assert ad.grad_check(loss, p.params()) < 1e-4


def test_decode_zero_latent_gives_half_edge_probabilities():
    p = tiny_vgae(seed=8)
    _, _, logits = vgae.vgae_decode(p, np.zeros((5, 4)), all_pairs(5))
    assert np.array_equal(logits.data, np.zeros(25))  # sigmoid -> 0.5 everywhere


def test_decode_adjacency_logits_symmetric():
    p = tiny_vgae(seed=9)
    z = np.random.default_rng(9).normal(size=(6, 4))
    _, _, logits = vgae.vgae_decode(p, z, all_pairs(6))
    full = logits.data.reshape(6, 6)
    assert np.max(np.abs(full - full.T)) < 1e-12


def test_decoder_grad_check():
    p = tiny_vgae(seed=10, n_genes=6)
    rng = np.random.default_rng(10)
    z0 = rng.uniform(0.1, 1.5, size=(4, 4))

    def loss():
        x_hat, coords_hat, logits = vgae.vgae_decode(p, z0, all_pairs(4))
        return ad.add(ad.tmean(ad.square(x_hat)),
                      ad.add(ad.tmean(ad.square(coords_hat)), ad.tmean(ad.square(logits))))

    assert ad.grad_check(loss, p.params()) < 1e-4


# ---------------------------------------------------------------------------
# loss and training behavior
# ---------------------------------------------------------------------------

def test_loss_kl_only_zero_at_prior():
    p = tiny_vgae(seed=11)
    # zero everything so mu = logvar = 0 regardless of input
    for t in p.params().values():
        t.data[...] = 0.0
    rng = np.random.default_rng(11)
    g = vgae.build_knn_graph(rng.uniform(0, 4, size=(6, 2)), k=2)
    x, xy = rng.normal(size=(6, 12)), rng.normal(size=(6, 2))
    *terms, _ = vgae.vgae_loss(p, g, x, xy, np.zeros((6, 4)), balanced_negatives(g, rng))
    total = weighted_total(terms, recon_exp=0.0, recon_sp=0.0, recon_adj=0.0, kl=1.0)
    kl = terms[3]
    assert total.item() == 0.0 and kl.item() == 0.0


def test_full_loss_grad_check_small_instance():
    p = tiny_vgae(seed=12, n_genes=12)
    rng = np.random.default_rng(12)
    g = vgae.build_knn_graph(rng.uniform(0, 4, size=(8, 2)), k=2)
    x = rng.uniform(0.1, 2.0, size=(8, 12))
    xy = rng.normal(size=(8, 2))
    noise = rng.normal(size=(8, 4))
    neg = balanced_negatives(g, np.random.default_rng(12))

    def loss():
        return weighted_total(vgae.vgae_loss(p, g, x, xy, noise, neg))

    assert ad.grad_check(loss, p.params()) < 1e-4


def test_loss_is_a_function_of_its_inputs():
    # no generator inside: two calls on the same inputs agree bit for bit,
    # in every term and in every leaf gradient
    p = tiny_vgae(seed=18, n_genes=12)
    rng = np.random.default_rng(18)
    g = vgae.build_knn_graph(rng.uniform(0, 4, size=(8, 2)), k=2)
    x = rng.uniform(0.1, 2.0, size=(8, 12))
    xy = rng.normal(size=(8, 2))
    noise = rng.normal(size=(8, 4))
    neg = balanced_negatives(g, rng)
    runs = []
    for _ in range(2):
        for t in p.params().values():
            t.grad = None
        with ad.Tape():
            *terms, mu = vgae.vgae_loss(p, g, x, xy, noise, neg)
            ad.backward(weighted_total(terms))
        runs.append(([t.item() for t in terms], mu.data.copy(),
                     {name: t.grad.copy() for name, t in p.params().items()}))
    (terms_a, mu_a, grads_a), (terms_b, mu_b, grads_b) = runs
    assert terms_a == terms_b and np.array_equal(mu_a, mu_b)
    assert grads_a.keys() == grads_b.keys()
    assert all(np.array_equal(grads_a[name], grads_b[name]) for name in grads_a)


def _train_vgae(p, g, x, sp, steps, seed, lr=1e-2, **weights):
    rng = np.random.default_rng(seed)
    opt = ad.Adam(p.params(), lr=lr)
    history = []
    for _ in range(steps):
        noise = rng.normal(size=(x.shape[0], p.cfg.latent_dim))
        neg = balanced_negatives(g, rng)
        opt.zero_grad()
        with ad.Tape():
            total = weighted_total(vgae.vgae_loss(p, g, x, sp, noise, neg), **weights)
            ad.backward(total)
        ad.adam_step(opt)
        history.append(total.item())
    return history


def test_path_graph_adjacency_reconstruction_trains_below_point_one():
    rng = np.random.default_rng(13)
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    g = vgae.build_knn_graph(coords, k=1)
    assert edge_list(g) == [(0, 1), (1, 2), (2, 3)]
    p = tiny_vgae(seed=13, n_genes=5)
    x = rng.normal(size=(4, 5))
    _train_vgae(p, g, x, coords, steps=400, seed=13,
                recon_exp=0.0, recon_sp=0.0, recon_adj=1.0, kl=1e-4)
    mu = vgae.encode_mu(p, g.norm_adj, x)
    neg = vgae.sample_negatives(g.keys, g.n, g.n * g.n, rng)  # every non-edge
    assert len(neg) == 3
    rows, cols = np.divmod(np.concatenate([g.keys, neg]), g.n)
    labels = np.concatenate([np.ones(len(g.keys)), np.zeros(len(neg))])
    logits = (mu[rows] * mu[cols]).sum(axis=1)
    final = ad.bce_with_logits(ad.tensor(logits), labels).item()
    assert final < 0.1


def test_training_decreases_total_loss_30pct():
    rng = np.random.default_rng(14)
    coords = rng.uniform(0, 10, size=(50, 2))
    g = vgae.build_knn_graph(coords, k=4)
    x = rng.normal(size=(50, 12))
    tr = vgae.fit_coord_transform(coords)
    p = tiny_vgae(seed=14)
    history = _train_vgae(p, g, x, tr.normalize(coords), steps=300, seed=14, kl=1e-3)
    assert history[-1] <= 0.7 * history[0]


def test_two_block_graph_heldout_edge_auc():
    # two grid blocks with block profiles plus a spatial expression gradient;
    # hold out edges, train, rank held-out edges against sampled non-edges
    rng = np.random.default_rng(15)
    side = 5
    grid = np.array([[gx, gy] for gy in range(side) for gx in range(side)], dtype=float)
    coords = np.vstack([grid, grid + [20.0, 0.0]])
    n_half = side * side
    block = np.repeat([0, 1], n_half)
    profile = rng.normal(size=(2, 12))
    local = coords.copy()
    local[n_half:, 0] -= 20.0
    local = (local - local.mean(0)) / local.std(0)
    x = profile[block] + local @ rng.normal(size=(2, 12)) + 0.1 * rng.normal(size=(2 * n_half, 12))

    full = vgae.build_knn_graph(coords, k=4)
    edges = list(full.edges)
    held_idx = rng.choice(len(edges), size=len(edges) // 5, replace=False)
    held = [edges[i] for i in held_idx]
    kept = [e for i, e in enumerate(edges) if i not in set(held_idx)]
    g = vgae.spatial_graph(full.n, kept)

    cfg = vgae.VgaeConfig(n_genes=12, latent_dim=8, exp_hidden=(16,), gcn_hidden=12,
                          coord_hidden=(8,))
    p = vgae.init_vgae(cfg, 15)
    tr = vgae.fit_coord_transform(coords)
    _train_vgae(p, g, x, tr.normalize(coords), steps=500, seed=15,
                recon_exp=1.0, recon_sp=1.0, recon_adj=2.0, kl=1e-4)

    mu = vgae.encode_mu(p, g.norm_adj, x)
    neg = vgae.sample_negatives(full.keys, full.n, 200, rng)
    auc = vgae.edge_auc(mu, np.asarray(held), key_pairs(neg, full.n))
    assert auc >= 0.9


def test_edge_auc_equals_the_pairwise_count():
    # the brute-force definition over every (positive, negative) pair of
    # scores, ties counted half; every other case rounds the codes to one
    # decimal, which gives many tied scores
    rng = np.random.default_rng(17)
    ties_seen = 0
    for case in range(100):
        z = rng.normal(size=(12, 3))
        if case % 2:
            z = np.round(z, 1)
        pos = rng.integers(0, 12, size=(int(rng.integers(1, 30)), 2))
        neg = rng.integers(0, 12, size=(int(rng.integers(1, 30)), 2))
        score = lambda pairs: (z[pairs[:, 0]] * z[pairs[:, 1]]).sum(axis=1)  # edge_auc's scores
        pairs = [(p, q) for p in score(pos) for q in score(neg)]
        greater = sum(p > q for p, q in pairs)
        ties = sum(p == q for p, q in pairs)
        ties_seen += ties
        assert vgae.edge_auc(z, pos, neg) == (greater + 0.5 * ties) / len(pairs)
    assert ties_seen > 100


def test_coord_transform_round_trip():
    rng = np.random.default_rng(16)
    coords = rng.uniform(-5, 20, size=(40, 2))
    tr = vgae.fit_coord_transform(coords)
    normed = tr.normalize(coords)
    assert np.allclose(normed.mean(axis=0), 0.0, atol=1e-12)
    assert np.sqrt(np.mean((normed ** 2).sum(axis=1))) == pytest.approx(1.0)
    assert np.allclose(tr.denormalize(normed), coords, atol=1e-9)
    back = vgae.CoordTransform.from_dict(tr.to_dict())
    assert np.allclose(back.normalize(coords), normed, atol=1e-15)


def test_checkpoint_round_trip(tmp_path):
    p = tiny_vgae(seed=17)
    path = tmp_path / "vgae.json"
    vgae.save_vgae(path, p, extra={"coord_transform": {"center": [1.0, 2.0], "scale": 3.0}})
    q, extra = vgae.load_vgae(path)
    rng = np.random.default_rng(17)
    g = vgae.build_knn_graph(rng.uniform(0, 4, size=(6, 2)), k=2)
    x = rng.normal(size=(6, 12))
    assert np.array_equal(vgae.encode_mu(p, g.norm_adj, x), vgae.encode_mu(q, g.norm_adj, x))
    assert extra["coord_transform"]["scale"] == 3.0


# ---------------------------------------------------------------------------
# sparse graph: grid kNN, CSR adjacency, negative sampling
# ---------------------------------------------------------------------------

def grid(side):
    return np.array([[float(x), float(y)] for y in range(side) for x in range(side)])


@pytest.mark.parametrize("k", [6, 8])
def test_knn_grid_full_of_ties_matches_brute_force(k):
    coords = grid(20)
    assert edge_list(vgae.build_knn_graph(coords, k=k)) == brute_force_knn_edges(coords, k)


def test_knn_with_duplicate_points_matches_brute_force():
    rng = np.random.default_rng(21)
    base = rng.uniform(0, 10, size=(40, 2))
    # scattered duplicates, plus one point repeated more than k times: its
    # copies fill its own grid cell, and their distance-0 ties break by index
    coords = np.vstack([base, base[rng.choice(40, size=10)], np.repeat(base[:1], 15, axis=0)])
    coords = coords[rng.permutation(len(coords))]
    for k in (1, 3, 6):
        assert edge_list(vgae.build_knn_graph(coords, k=k)) == brute_force_knn_edges(coords, k)


def _knn_layout(name):
    rng = np.random.default_rng(5)
    if name == "hex":
        return np.array([[x + 0.5 * (y % 2), y * np.sqrt(3.0) / 2.0]
                         for y in range(10) for x in range(10)])
    if name == "duplicates":  # two points hold a third of the input
        base = rng.uniform(0, 10, size=(60, 2))
        return np.vstack([base, np.repeat(base[:2], 15, axis=0)])[rng.permutation(90)]
    if name == "all_coincide":
        return np.zeros((20, 2))
    if name == "collinear_axis":  # a bounding box of zero area
        return np.stack([rng.uniform(0, 10, 80), np.full(80, 3.0)], axis=1)
    if name == "collinear_diagonal":  # a full bounding box, points on one line
        t = rng.uniform(0, 10, 80)
        return np.stack([t, 2.0 * t - 1.0], axis=1)
    if name == "clustered":  # dense clusters far apart in a sparse box
        centres = rng.uniform(0, 100, size=(4, 2))
        return centres[rng.integers(0, 4, 100)] + 0.2 * rng.normal(size=(100, 2))
    if name == "far_outlier":  # one point far from a unit square: ranked against every point
        return np.vstack([rng.uniform(0, 1, size=(150, 2)), [[1e5, 1e5]]])
    if name == "two_squares":  # two unit squares 1000 apart
        return np.vstack([rng.uniform(0, 1, size=(75, 2)), rng.uniform(1000, 1001, size=(75, 2))])
    if name == "extreme_scale":  # a scale ratio of 1e21: the cell side stops at the span cap
        return np.vstack([rng.uniform(0, 1e-9, size=(150, 2)), [[1e12, 1e12]]])
    raise ValueError(name)


@pytest.mark.parametrize("k", [1, 6, 10])
@pytest.mark.parametrize("layout", ["hex", "duplicates", "all_coincide", "collinear_axis",
                                    "collinear_diagonal", "clustered", "far_outlier",
                                    "two_squares", "extreme_scale"])
def test_knn_layouts_match_brute_force(layout, k):
    coords = _knn_layout(layout)
    assert edge_list(vgae.build_knn_graph(coords, k=k)) == brute_force_knn_edges(coords, k)


def _knn_work_layout(name):
    rng = np.random.default_rng(8)
    grid = np.array([[x, y] for y in range(64) for x in range(64)], dtype=np.float64)
    if name == "uniform":
        return rng.uniform(0, 1, size=(4096, 2))
    if name == "grid":
        return grid
    if name == "gapped_grid":  # a 24-column band missing from the grid
        return grid[(grid[:, 0] < 20) | (grid[:, 0] >= 44)]
    if name == "far_outlier":
        return np.vstack([rng.uniform(0, 1, size=(4095, 2)), [[1e5, 1e5]]])
    if name == "two_squares":  # two sections on one slide
        return np.vstack([rng.uniform(0, 1, size=(2048, 2)),
                          rng.uniform(1000, 1001, size=(2048, 2))])
    raise ValueError(name)


@pytest.mark.parametrize("layout", ["uniform", "grid", "gapped_grid", "far_outlier", "two_squares"])
def test_knn_search_ranks_a_bounded_number_of_candidates_per_point(layout, monkeypatch):
    # a work count, not a clock: a cell grid sized from the bounding box alone
    # ranked 2,000-4,000 candidates per point on the outlier and two-square layouts
    ranked = []
    k_nearest = vgae._k_nearest

    def counting(xy, pts, cand, k):
        ranked.append(cand.size)
        return k_nearest(xy, pts, cand, k)

    monkeypatch.setattr(vgae, "_k_nearest", counting)
    coords = _knn_work_layout(layout)
    vgae.build_knn_graph(coords, k=6)
    assert sum(ranked) <= 100 * len(coords)


def test_norm_adj_csr_equals_dense_formula():
    rng = np.random.default_rng(22)
    g = vgae.build_knn_graph(rng.uniform(0, 6, size=(40, 2)), k=3)
    assert sp.isspmatrix_csr(g.norm_adj)
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    a_hat = a + np.eye(g.n)
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    dense = a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]
    assert np.array_equal(g.norm_adj.toarray(), dense)


def test_normalize_adjacency_rejects_malformed_edges():
    for edges in ([(1, 0)], [(0, 0)], [(0, 3)]):
        with pytest.raises(DataError, match="edges"):
            vgae.spatial_graph(3, edges)


def _check_negatives(g, neg, count):
    free = g.n * (g.n - 1) // 2 - len(g.edges)
    assert neg.dtype == np.int64 and neg.shape == (min(count, free),)
    i, j = np.divmod(neg, g.n)
    assert np.all(i < j)  # upper triangle, no self-loops
    assert np.all(np.diff(neg) > 0)  # sorted and unique
    assert not set(g.keys.tolist()) & set(neg.tolist())  # disjoint from A + I


def _dense_graphs():
    six = vgae.build_knn_graph(np.random.default_rng(1).uniform(0, 4, size=(6, 2)), k=2)
    n = 7
    complete_minus_one = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (2, 5)]
    return {
        # a 6-node k = 2 graph, as in the gradient-check suite: count >= non-edges
        "six_k2": (six, len(six.keys)),
        "complete_minus_one": (vgae.spatial_graph(n, complete_minus_one), 5),
        "path_every_non_edge": (vgae.spatial_graph(9, [(i, i + 1) for i in range(8)]), 28),
    }


@pytest.mark.parametrize("case", ["10-4", "3-4", "six_k2", "complete_minus_one",
                                  "path_every_non_edge"])
def test_sample_negatives_properties(case):
    # "side-k" is a kNN grid; from the sparse 10x10 grid to graphs whose every
    # non-edge is asked for, one rejection loop serves every density
    if case[0].isdigit():
        side, k = map(int, case.split("-"))
        g = vgae.build_knn_graph(grid(side), k=k)
        count = len(g.keys)
    else:
        g, count = _dense_graphs()[case]
    free = g.n * (g.n - 1) // 2 - len(g.edges)
    if case != "10-4":
        # dense: edges fill over half the pairs, or the sample takes over half the non-edges
        assert 2 * free < g.n * (g.n - 1) // 2 or 2 * count > free
    for seed in range(5):
        neg = vgae.sample_negatives(g.keys, g.n, count, np.random.default_rng(seed))
        _check_negatives(g, neg, count)
        again = vgae.sample_negatives(g.keys, g.n, count, np.random.default_rng(seed))
        assert np.array_equal(neg, again)
    if count >= free:
        assert len(neg) == free


def test_sample_negatives_complete_graph_terminates_empty():
    g = vgae.build_knn_graph(grid(3)[:5], k=4)  # n = k + 1: every pair is an edge
    assert len(g.edges) == 10
    neg = vgae.sample_negatives(g.keys, g.n, 15, np.random.default_rng(0))
    assert neg.shape == (0,)


def test_sample_negatives_deterministic_per_seed():
    g = vgae.build_knn_graph(grid(12), k=6)
    keys = g.keys
    a = vgae.sample_negatives(keys, g.n, 300, np.random.default_rng(5))
    b = vgae.sample_negatives(keys, g.n, 300, np.random.default_rng(5))
    c = vgae.sample_negatives(keys, g.n, 300, np.random.default_rng(6))
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_sample_negatives_covers_non_edges_evenly():
    g = vgae.build_knn_graph(grid(6), k=4)
    keys = g.keys
    rng = np.random.default_rng(23)
    hits = {}
    for _ in range(400):
        for i, j in key_pairs(vgae.sample_negatives(keys, g.n, 60, rng), g.n).tolist():
            hits[(i, j)] = hits.get((i, j), 0) + 1
    free = g.n * (g.n - 1) // 2 - len(g.edges)
    assert len(hits) == free
    # chi-square against uniform: mean df, sd sqrt(2 df); allow five sd
    expected = 400 * 60 / free
    chi2 = sum((h - expected) ** 2 / expected for h in hits.values())
    assert chi2 < (free - 1) + 5 * np.sqrt(2 * (free - 1)), chi2


def _sample_negatives_reference(keys, n, count, rng):
    """The rejection loop as first written: deduplicate every draw so far with np.unique."""
    keys = np.asarray(keys, dtype=np.int64)
    pairs = n * (n - 1) // 2
    free = pairs - int(np.count_nonzero(keys // n != keys % n))
    count = min(int(count), free)
    got = np.empty(0, dtype=np.int64)
    while len(got) < count:
        draw = 2 * (count - len(got)) * pairs // (free - len(got)) + 16
        ij = rng.integers(0, n, size=(draw, 2))
        lo, hi = ij.min(axis=1), ij.max(axis=1)
        cand = (lo * n + hi)[lo != hi]
        got = np.concatenate([got, cand[~vgae._contains(keys, cand)]])
        _, first = np.unique(got, return_index=True)  # keep first draws, in draw order
        got = got[np.sort(first)]
    return np.sort(got[:count])


@pytest.mark.parametrize("case", ["8-6", "16-6", "64-6", "3-7", "six_k2", "complete_minus_one",
                                  "path_every_non_edge"])
def test_sample_negatives_matches_reference_loop(case):
    # same RNG stream, same sample, and the same number of draws taken from it;
    # "3-7" (9 nodes, few non-edges) takes two or three rounds on some seeds
    if case[0].isdigit():
        side, k = map(int, case.split("-"))
        g = vgae.build_knn_graph(grid(side), k=k)
        count = len(g.keys)
    else:
        g, count = _dense_graphs()[case]
    for seed in range(20 if g.n < 100 else 5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        neg = vgae.sample_negatives(g.keys, g.n, count, rng)
        assert np.array_equal(neg, _sample_negatives_reference(g.keys, g.n, count, ref_rng))
        assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)


def test_graph_and_negatives_stay_sparse_in_memory():
    import scipy.spatial  # noqa: F401  module import is not graph work

    coords = grid(64)

    def build_and_sample():
        g = vgae.build_knn_graph(coords, k=6)
        vgae.sample_negatives(g.keys, g.n, len(g.keys), np.random.default_rng(0))

    _, peak = traced_peak(build_and_sample)
    # one dense 4096 x 4096 float64 array alone is 134 MB
    assert peak < 16e6, peak


def test_train_step_keeps_one_buffer_per_hidden_activation():
    # A stage-3 step must hold the grads (one copy of the params), the
    # r W^T that affine_mse keeps for the expression head (as wide as the
    # decoder's last hidden layer, not as x) and one [n, width] array per
    # hidden activation a vjp reads: the two ReLU'd layers of each MLP and
    # ReLU(A_hat (x W1)); the tape frees x W1, which no vjp reads. Measured
    # peak on the 32 x 32 grid: 9.39 MB; the bound leaves 10% above it, so one
    # more [n, genes] array (4.1 MB) held through the step fails the test.
    g = vgae.build_knn_graph(grid(32), k=6)
    cfg = vgae.VgaeConfig(n_genes=500, latent_dim=10, exp_hidden=(128, 64))
    p = vgae.init_vgae(cfg, 0)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 3.0, size=(g.n, cfg.n_genes))
    xy = rng.normal(size=(g.n, 2))
    noise = rng.normal(size=(g.n, cfg.latent_dim))
    opt = ad.Adam(p.params(), lr=1e-3)
    neg_rng = np.random.default_rng(2)

    def loss():  # the negative sample is part of the step, as in stage 3
        *terms, _ = vgae.vgae_loss(p, g, x, xy, noise, balanced_negatives(g, neg_rng))
        return {"total": weighted_total(terms), **dict(zip(("exp", "sp", "adj", "kl"), terms))}

    _, peak = traced_peak(lambda: ad.train_step(opt, loss, "memory test"))
    assert peak < 1.1 * 9.39e6, peak
