import numpy as np
import pytest

from latentmap import benchmark as bm
from latentmap import preprocess as pp
from latentmap import synth
from latentmap.errors import DataError


def small_cfg(**over):
    base = dict(n_cells=120, n_genes=80, n_shared=30, n_types=4, grid_side=8,
                noise=0.3, layout="quadrants", seed=7)
    base.update(over)
    return synth.SynthConfig(**base)


def test_single_type_zero_noise_shares_one_rate_vector():
    cfg = small_cfg(n_types=1, noise=0.0, n_cells=40)
    m, labels, profiles = synth.gen_sc(cfg)
    assert set(labels) == {"type0"}
    # every cell drawn from the same Poisson mean vector: empirical means
    # approach the profile
    est = m.counts.mean(axis=0)
    assert np.max(np.abs(est - profiles.rates[0])) < 1.5


def test_same_seed_identical_matrices():
    cfg = small_cfg()
    m1, l1, _ = synth.gen_sc(cfg)
    m2, l2, _ = synth.gen_sc(cfg)
    assert np.array_equal(m1.counts, m2.counts)
    assert l1 == l2
    st1, s1, _ = synth.gen_st(cfg, synth.make_profiles(cfg))
    st2, s2, _ = synth.gen_st(cfg, synth.make_profiles(cfg))
    assert np.array_equal(st1.counts.counts, st2.counts.counts)
    assert np.array_equal(st1.coords, st2.coords)
    assert s1 == s2


def test_different_seed_differs():
    m1, _, _ = synth.gen_sc(small_cfg(seed=1))
    m2, _, _ = synth.gen_sc(small_cfg(seed=2))
    assert not np.array_equal(m1.counts, m2.counts)


def test_sc_separability_certificate():
    # kNN 4-fold CV on raw log1p data must separate the types
    cfg = small_cfg(n_cells=200, n_genes=150)
    m, labels, _ = synth.gen_sc(cfg)
    normed = pp.normalize_log1p(m)
    report = bm.sweep_k(bm.LabeledEmbedding(normed, labels), [4], folds=4, seed=0)[0][1]
    assert report.mean >= 0.9


def test_profiles_agree_on_shared_panel():
    cfg = small_cfg()
    _, _, profiles = synth.gen_sc(cfg)
    st, _, _ = synth.gen_st(cfg, profiles)
    assert st.counts.col_ids == profiles.shared_gene_ids
    # the ST rate table is exactly the SC profile restricted to shared genes
    shared_rates = profiles.rates[:, profiles.shared_idx]
    assert shared_rates.shape == (cfg.n_types, cfg.n_shared)


def test_quadrant_layout_single_typed_quadrants():
    cfg = small_cfg()
    types, regions, coords = synth.spot_type_assignment(cfg)
    assert len(regions) == 4
    for t, (x, y) in zip(types, coords):
        assert synth.point_in_regions(regions, f"type{t}", x, y)
        # and in no other type's region
        others = {f"type{u}" for u in range(cfg.n_types)} - {f"type{t}"}
        assert not any(synth.point_in_regions(regions, lab, x, y) for lab in others)


def test_quadrants_balanced_on_even_grid():
    cfg = small_cfg(grid_side=8)
    types, _, _ = synth.spot_type_assignment(cfg)
    counts = np.bincount(types, minlength=4)
    assert np.all(counts == 16)


def test_stripes_layout_supports_many_types():
    cfg = small_cfg(layout="stripes", n_types=5, grid_side=10)
    types, regions, coords = synth.spot_type_assignment(cfg)
    assert sorted(set(types)) == [0, 1, 2, 3, 4]
    for t, (x, y) in zip(types, coords):
        assert synth.point_in_regions(regions, f"type{t}", x, y)


@pytest.mark.parametrize("layout", synth.LAYOUTS)
def test_each_spot_lies_in_one_region_carrying_its_label(layout):
    # odd sides put the quadrant boundary on a column of spots, and stripes of
    # a height like 5/6 put a band boundary on a row of them
    for side in range(2, 18):
        for n_types in range(1, (4 if layout == "quadrants" else 8) + 1):
            if layout == "stripes" and n_types > side:
                continue  # refused by SynthConfig
            cfg = small_cfg(layout=layout, grid_side=side, n_types=n_types)
            types, regions, coords = synth.spot_type_assignment(cfg)
            inside = np.array([r.contains(coords[:, 0], coords[:, 1]) for r in regions])
            assert np.all(inside.sum(axis=0) == 1), (side, n_types)
            holder = [regions[i].label for i in inside.argmax(axis=0)]
            assert holder == [f"type{t}" for t in types], (side, n_types)


@pytest.mark.parametrize("layout", synth.LAYOUTS)
def test_every_accepted_layout_gives_each_type_a_spot(layout):
    # cells of every type are generated, so a type without spots has no spatial counterpart
    for side in range(2, 18):
        for n_types in range(1, 9):
            try:
                cfg = small_cfg(layout=layout, grid_side=side, n_types=n_types)
            except DataError:
                continue
            types, _, _ = synth.spot_type_assignment(cfg)
            assert sorted(set(types.tolist())) == list(range(n_types)), (side, n_types)


def test_region_contains_agrees_on_arrays_and_scalars():
    r = synth.Region("type0", -0.5, 2.0, 1.0, 3.5)
    xs = np.array([-1.0, -0.5, 0.0, 1.9, 2.0, 3.0, 1.0, 1.0, 1.0])
    ys = np.array([2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.5, 1.0, 3.5])
    got = r.contains(xs, ys)
    assert got.dtype == bool
    assert got.tolist() == [bool(r.contains(float(x), float(y))) for x, y in zip(xs, ys)]
    assert got.tolist() == [False, True, True, True, False, False, False, True, False]
    assert synth.point_in_regions([r], "type0", 0.0, 1.0)
    assert not synth.point_in_regions([r], "type1", 0.0, 1.0)


def test_quadrants_with_too_many_types_error():
    with pytest.raises(DataError, match="stripes"):
        small_cfg(n_types=5)


def test_st_columns_are_shared_panel_order():
    cfg = small_cfg()
    _, _, profiles = synth.gen_sc(cfg)
    st, labels, _ = synth.gen_st(cfg, profiles)
    assert st.counts.col_ids == [profiles.gene_ids[i] for i in profiles.shared_idx]
    assert len(labels) == cfg.n_spots


def test_grid_knn_interior_axis_neighbors():
    from latentmap.vgae import build_knn_graph
    cfg = small_cfg()
    _, _, coords = synth.spot_type_assignment(cfg)
    g = build_knn_graph(coords, k=4)
    side = cfg.grid_side
    center = 3 * side + 3
    neighbors = {j for i, j in g.edges if i == center} | {i for i, j in g.edges if j == center}
    assert neighbors == {center - 1, center + 1, center - side, center + side}


def test_query_cells_fresh_but_same_profiles():
    cfg = small_cfg()
    _, _, profiles = synth.gen_sc(cfg)
    q1, labels = synth.gen_sc_query(cfg, profiles, 16)
    q2, _ = synth.gen_sc_query(cfg, profiles, 16)
    assert np.array_equal(q1.counts, q2.counts)  # seeded
    assert q1.row_ids[0].startswith("Q")
    assert len(labels) == 16
    m, _, _ = synth.gen_sc(cfg)
    assert not np.array_equal(q1.counts[:16], m.counts[:16])  # independent stream


def test_default_config_passes_qc_thresholds():
    # default grid (16 -> 256 spots) keeps floor-rate genes above the
    # 60-cell threshold; smaller grids would not
    cfg = synth.SynthConfig(n_cells=300, n_genes=400, n_shared=100, grid_side=16, seed=3)
    m, _, profiles = synth.gen_sc(cfg)
    st, _, _ = synth.gen_st(cfg, profiles)
    expressed = (m.counts > 0).sum(axis=1)
    assert expressed.min() >= 200
    cells_per_gene = (m.counts > 0).sum(axis=0)
    assert cells_per_gene.min() >= 60
    spots_per_gene = (st.counts.counts > 0).sum(axis=0)
    assert spots_per_gene.min() >= 60

