import math

import numpy as np
import pytest
from conftest import traced_peak

from latentmap import preprocess as pp
from latentmap.errors import DataError


def make_matrix(counts, row_prefix="c", col_prefix="g", col_ids=None):
    counts = np.asarray(counts, dtype=np.int64)
    rows = [f"{row_prefix}{i}" for i in range(counts.shape[0])]
    cols = col_ids if col_ids is not None else [f"{col_prefix}{j:03d}" for j in range(counts.shape[1])]
    return pp.CountMatrix(rows, cols, counts)


# ---------------------------------------------------------------------------
# cell/gene filters: the 199/200 and 59/60 boundaries
# ---------------------------------------------------------------------------

def test_filter_cells_boundary_199_removed_200_kept():
    n_genes = 250
    counts = np.zeros((2, n_genes), dtype=np.int64)
    counts[0, :199] = 1  # expresses 199 distinct genes -> removed
    counts[1, :200] = 1  # exactly 200 -> kept (strict "less than")
    m = pp.filter_cells(make_matrix(counts), min_genes=200)
    assert m.row_ids == ["c1"]
    assert m.col_ids == [f"g{j:03d}" for j in range(n_genes)]  # columns untouched


def test_filter_cells_zero_threshold_is_identity():
    m0 = make_matrix([[0, 1], [0, 0]])
    m1 = pp.filter_cells(m0, min_genes=0)
    assert m1.row_ids == m0.row_ids and np.array_equal(m1.counts, m0.counts)


def test_filter_cells_all_removed_errors():
    with pytest.raises(DataError, match="all cells filtered"):
        pp.filter_cells(make_matrix([[1, 0], [0, 1]]), min_genes=2)


def test_filter_genes_boundary_59_removed_60_kept():
    n_cells = 70
    counts = np.zeros((n_cells, 2), dtype=np.int64)
    counts[:59, 0] = 3  # nonzero in 59 cells -> removed
    counts[:60, 1] = 1  # nonzero in 60 cells -> kept
    m = pp.filter_genes(make_matrix(counts), min_cells=60)
    assert m.col_ids == ["g001"]
    assert m.n_rows == n_cells


def test_filter_genes_zero_threshold_is_identity():
    m0 = make_matrix([[0, 1], [2, 0]])
    m1 = pp.filter_genes(m0, min_cells=0)
    assert m1.col_ids == m0.col_ids and np.array_equal(m1.counts, m0.counts)


def test_filters_idempotent():
    rng = np.random.default_rng(0)
    m0 = make_matrix(rng.integers(0, 3, size=(30, 20)))
    once = pp.filter_genes(pp.filter_cells(m0, min_genes=5), min_cells=4)
    twice = pp.filter_genes(pp.filter_cells(once, min_genes=5), min_cells=4)
    assert once.row_ids == twice.row_ids and once.col_ids == twice.col_ids
    assert np.array_equal(once.counts, twice.counts)


def test_filter_order_is_deterministic():
    rng = np.random.default_rng(1)
    m0 = make_matrix(rng.integers(0, 2, size=(40, 30)))
    a, _ = pp.run_qc(m0, min_genes=8, min_cells=6, max_mito_ribo=1.0)
    b, _ = pp.run_qc(m0, min_genes=8, min_cells=6, max_mito_ribo=1.0)
    assert a.row_ids == b.row_ids and a.col_ids == b.col_ids


def test_filters_preserve_id_row_correspondence():
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 5, size=(25, 15))
    m0 = make_matrix(counts)
    m1 = pp.filter_genes(pp.filter_cells(m0, min_genes=3), min_cells=2)
    for _ in range(20):
        i = rng.integers(0, m1.n_rows)
        j = rng.integers(0, m1.n_cols)
        oi = m0.row_ids.index(m1.row_ids[i])
        oj = m0.col_ids.index(m1.col_ids[j])
        assert m1.counts[i, j] == counts[oi, oj]


def test_take_keeping_every_row_and_column_in_order_returns_the_matrix():
    m = make_matrix(np.arange(12).reshape(3, 4))
    assert m.take_rows(np.arange(3)) is m and m.take_rows([0, 1, 2]) is m
    assert m.take_cols(np.arange(4)) is m and m.take_cols([0, 1, 2, 3]) is m
    # so a filter that drops nothing, and a panel already in column order, copy nothing
    assert pp.run_qc(m, min_genes=0, min_cells=0, max_mito_ribo=1.0)[0] is m
    assert pp.subset_counts(m, pp.GenePanel(m.col_ids)) is m


@pytest.mark.parametrize("axis,idx", [("rows", [0, 2]), ("rows", [2, 1, 0]), ("rows", [0, 1]),
                                      ("cols", [1, 3]), ("cols", [3, 2, 1, 0]),
                                      ("cols", [0, 1, 2])])
def test_take_that_drops_or_reorders_copies(axis, idx):
    m = make_matrix(np.arange(12).reshape(3, 4))
    out = m.take_rows(idx) if axis == "rows" else m.take_cols(idx)
    assert out is not m and not np.shares_memory(out.counts, m.counts)
    if axis == "rows":
        assert out.row_ids == [m.row_ids[i] for i in idx] and out.col_ids == m.col_ids
        assert np.array_equal(out.counts, m.counts[idx])
    else:
        assert out.col_ids == [m.col_ids[j] for j in idx] and out.row_ids == m.row_ids
        assert np.array_equal(out.counts, m.counts[:, idx])


def test_count_matrix_errors_name_the_first_offender():
    counts = np.ones((5, 3), dtype=np.int64)
    with pytest.raises(DataError, match="^duplicate row id 'b'$"):
        pp.CountMatrix(["a", "b", "c", "b", "a"], ["g0", "g1", "g2"], counts)
    with pytest.raises(DataError, match="^duplicate col id 'g1'$"):
        pp.CountMatrix(list("abcde"), ["g0", "g1", "g1"], counts)
    with pytest.raises(DataError, match="^panel contains duplicate gene id 'y'$"):
        pp.GenePanel(["x", "y", "z", "y", "x"])
    counts[1, 2], counts[3, 0], counts[0, 1] = -3, -7, 0
    with pytest.raises(DataError, match="^negative count -3 for row 'b', gene 'g2'$"):
        pp.CountMatrix(list("abcde"), ["g0", "g1", "g2"], counts)
    assert pp.first_duplicate(["p", "q", "r", "q", "p"]) == "q"
    assert pp.first_duplicate(["p", "q"]) is None and pp.first_duplicate([]) is None
    # an empty matrix has no count to check
    assert pp.CountMatrix([], ["g0"], np.zeros((0, 1), dtype=np.int64)).n_rows == 0


# ---------------------------------------------------------------------------
# counts are held in the narrowest unsigned dtype that holds their largest value
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("top,dtype", [
    (0, np.uint8), (255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32),
    (2 ** 32, np.uint64), (2 ** 53 + 1, np.uint64)])
def test_counts_take_the_narrowest_unsigned_dtype_and_keep_their_values(top, dtype):
    counts = np.array([[0, top], [1, 2]], dtype=np.int64)
    m = pp.CountMatrix(["a", "b"], ["g0", "g1"], counts)
    assert m.counts.dtype == dtype
    assert m.counts.tolist() == [[0, top], [1, 2]]  # exact, compared as Python ints
    # a take holds the dtype of what it keeps
    assert m.take_rows([0]).counts.dtype == dtype and m.take_rows([0]).counts.tolist() == [[0, top]]
    assert m.take_cols([0]).counts.dtype == np.uint8 and m.take_cols([0]).counts.tolist() == [[0], [1]]


@pytest.mark.parametrize("values", [np.array([[1.0, 2.0]]), np.array([[1.5, 2.0]]),
                                    np.array([[True, False]]), [[1, 2.5]]],
                         ids=["whole-floats", "fractional-floats", "booleans", "float-list"])
def test_counts_of_a_non_integer_dtype_are_refused_not_truncated(values):
    with pytest.raises(DataError, match=r"^counts must be integers, got dtype (float64|bool)$"):
        pp.CountMatrix(["a"], ["g0", "g1"], values)


def test_totals_past_the_counts_dtype_do_not_wrap():
    # 300 counts of 255 in a uint8 matrix: each row totals 76,500, far past 255
    counts = np.full((2, 300), 255, dtype=np.uint8)
    counts[1, :150] = 0
    cols = ["MT-CO1"] + [f"g{j:03d}" for j in range(1, 300)]
    m = pp.CountMatrix(["c0", "c1"], cols, counts)
    assert m.counts.dtype == np.uint8
    wide = counts.astype(np.float64)
    want = np.log1p(wide * (1e4 / wide.sum(axis=1, keepdims=True)))
    assert np.array_equal(pp.normalize_log1p(m), want)
    assert np.array_equal(pp.panel_matrix(m, pp.GenePanel(cols[150:])),
                          pp.normalize_log1p(pp.CountMatrix(m.row_ids, cols[150:],
                                                            counts[:, 150:].astype(np.int64))))
    # 300 expressed genes in c0, 150 in c1
    assert pp.filter_cells(m, min_genes=300).row_ids == ["c0"]
    # c0's mito fraction is 255 / 76,500 = 1/300; c1 has none
    assert pp.filter_mito_ribo(m, max_fraction=1 / 300).row_ids == ["c0", "c1"]
    assert pp.filter_mito_ribo(m, max_fraction=0.5 / 300).row_ids == ["c1"]
    # on the first 256 genes c0 sums 256 * 255 counts, which a uint8 sum wraps to 0
    assert pp.drop_empty_rows(m, pp.GenePanel(cols[:256])) == (m, 0)
    kept, dropped = pp.drop_empty_rows(m, pp.GenePanel(cols[:150]))
    assert kept.row_ids == ["c0"] and dropped == 1


def test_panel_counts_refuse_what_panel_matrix_refuses():
    m = make_matrix([[1, 0, 2], [0, 3, 0], [4, 0, 5]], col_ids=["a", "b", "c"])
    counts = pp.panel_counts(m, pp.GenePanel(["b", "a"]))
    assert counts.row_ids == m.row_ids and counts.col_ids == ["b", "a"]
    assert counts.counts.tolist() == [[0, 1], [3, 0], [0, 4]]
    assert np.array_equal(pp.panel_matrix(counts, pp.GenePanel(["b", "a"])),
                          pp.panel_matrix(m, pp.GenePanel(["b", "a"])))
    for genes, message in ((["c", "a"], r"rows with zero total counts: \['c1'\]$"),
                           (["a", "zz"], r"matrix is missing panel genes: \['zz'\]$")):
        for refuse in (pp.panel_counts, pp.panel_matrix):
            with pytest.raises(DataError, match=message):
                refuse(m, pp.GenePanel(genes))

def test_mito_fraction_above_threshold_removed():
    cols = ["MT-CO1", "ACTB", "GAPDH"]
    counts = [[3, 4, 3],   # 30% mito -> removed
              [0, 5, 5]]   # 0% -> kept
    m = pp.filter_mito_ribo(make_matrix(counts, col_ids=cols), max_fraction=0.2)
    assert m.row_ids == ["c1"]


def test_mito_fraction_exactly_threshold_kept():
    cols = ["MT-CO1", "ACTB"]
    m = pp.filter_mito_ribo(make_matrix([[2, 8]], col_ids=cols), max_fraction=0.2)
    assert m.row_ids == ["c0"]  # 2/10 == 0.2, strict >


def test_ribo_prefixes_counted_case_insensitive():
    cols = ["rps4", "RPL3", "mrpL1", "ACTB"]
    counts = [[2, 2, 2, 4]]  # 6/10 ribo -> removed
    with pytest.raises(DataError, match="all cells filtered"):
        pp.filter_mito_ribo(make_matrix(counts, col_ids=cols), max_fraction=0.5)


def test_zero_total_cell_removed_with_warning(caplog):
    cols = ["MT-CO1", "ACTB"]
    counts = [[0, 0], [1, 9]]
    with caplog.at_level("WARNING", logger="latentmap.preprocess"):
        m = pp.filter_mito_ribo(make_matrix(counts, col_ids=cols), max_fraction=0.2)
    assert m.row_ids == ["c1"]
    assert any("zero total" in rec.message for rec in caplog.records)


def test_drop_empty_rows_needs_counts_on_every_panel():
    m = make_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3], [4, 5, 0]])
    first, second = pp.GenePanel(["g000", "g002"]), pp.GenePanel(["g001"])
    kept, dropped = pp.drop_empty_rows(m, first, second)
    assert kept.row_ids == ["c3"] and dropped == 3
    assert kept.counts.tolist() == [[4, 5, 0]]
    assert pp.drop_empty_rows(m, pp.GenePanel(["g000", "g001", "g002"])) == (m, 0)
    with pytest.raises(DataError, match="no row has counts on every panel"):
        pp.drop_empty_rows(m, pp.GenePanel(["g002"]), second)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_log1p_values():
    m = make_matrix([[1, 0]])
    out = pp.normalize_log1p(m, target_sum=1e4)
    assert out[0, 0] == pytest.approx(math.log(10001.0), abs=1e-12)
    assert out[0, 1] == 0.0


def test_normalize_log1p_symmetric_row():
    out = pp.normalize_log1p(make_matrix([[5, 5]]), target_sum=1e4)
    assert out[0, 0] == out[0, 1] == pytest.approx(math.log(5001.0), abs=1e-12)


def test_normalize_row_sums_hit_target():
    rng = np.random.default_rng(3)
    m = make_matrix(rng.integers(1, 50, size=(3, 3)))
    scaled = np.expm1(pp.normalize_log1p(m, target_sum=1e4))
    assert np.allclose(scaled.sum(axis=1), 1e4, atol=1e-9)


def test_normalize_zero_row_errors():
    with pytest.raises(DataError, match=r"rows with zero total counts: \['c0'\]"):
        pp.normalize_log1p(make_matrix([[0, 0], [1, 1]]))


# ---------------------------------------------------------------------------
# HVG selection: preprocess takes the head of rank_genes
# ---------------------------------------------------------------------------

def test_select_hvg_zero_variance_ranks_low():
    normed = np.array([[0.0, 5.0], [10.0, 5.0], [0.0, 5.0], [10.0, 5.0]])
    assert pp.rank_genes(normed, ["A", "B"]) == ["A", "B"]


def test_select_hvg_hand_computed_ranking():
    # population-variance dispersions, computed by hand:
    #   E: mean 2.5, var 18.75 -> 7.5      A: mean 5, var 25   -> 5.0
    #   C: mean 2.5, var 1.25  -> 0.5      B: mean 5, var 0    -> 0.0
    #   D: mean 0 -> ranks last
    normed = np.array([
        [0.0, 5.0, 1.0, 0.0, 10.0],
        [10.0, 5.0, 2.0, 0.0, 0.0],
        [0.0, 5.0, 3.0, 0.0, 0.0],
        [10.0, 5.0, 4.0, 0.0, 0.0],
    ])
    ids = ["A", "B", "C", "D", "E"]
    disp = pp.dispersion(normed)
    assert disp[ids.index("E")] == pytest.approx(7.5)
    assert disp[ids.index("A")] == pytest.approx(5.0)
    assert disp[ids.index("C")] == pytest.approx(0.5)
    assert disp[ids.index("B")] == 0.0
    assert pp.rank_genes(normed, ids) == ["E", "A", "C", "B", "D"]


def test_select_hvg_tie_broken_lexicographically():
    col = np.array([[1.0], [3.0], [5.0]])
    normed = np.hstack([col, col])  # identical dispersion
    assert pp.rank_genes(normed, ["zz", "aa"]) == ["aa", "zz"]


def test_select_hvg_n_equals_total():
    rng = np.random.default_rng(4)
    normed = rng.uniform(0, 4, size=(6, 4))
    assert sorted(pp.rank_genes(normed, ["g0", "g1", "g2", "g3"])) == ["g0", "g1", "g2", "g3"]


def test_select_hvg_permutation_stable():
    rng = np.random.default_rng(5)
    normed = rng.uniform(0, 4, size=(8, 6))
    ids = [f"g{j}" for j in range(6)]
    ranked = pp.rank_genes(normed, ids)
    perm = rng.permutation(6)
    ranked_perm = pp.rank_genes(normed[:, perm], [ids[j] for j in perm])
    assert ranked == ranked_perm


def test_rank_genes_order_on_ties_and_zero_means():
    # integer values give many equal dispersions; zero-mean genes rank last at -inf
    rng = np.random.default_rng(9)
    normed = rng.integers(0, 3, size=(5, 60)).astype(np.float64)
    normed[:, ::7] = 0.0
    ids = [f"g{j:02d}" for j in rng.permutation(60)]
    disp = pp.dispersion(normed)
    assert len(set(disp.tolist())) < 40 and np.isneginf(disp).sum() == 9
    # the reference sorts on numpy scalars
    assert pp.rank_genes(normed, ids) == sorted(ids, key=lambda g: (-disp[ids.index(g)], g))


# ---------------------------------------------------------------------------
# shared-panel intersection
# ---------------------------------------------------------------------------

def test_intersect_disjoint_gene_sets_error_reports_count():
    sc = make_matrix([[1, 2], [3, 4]], col_ids=["a", "b"])
    st = make_matrix([[1, 2], [3, 4]], col_ids=["c", "d"])
    with pytest.raises(DataError, match="0 genes shared"):
        pp.intersect_panel(sc, st, n=1)


def test_intersect_subset_case():
    rng = np.random.default_rng(6)
    sc = make_matrix(rng.integers(1, 40, size=(10, 6)), col_ids=list("abcdef"))
    st = make_matrix(rng.integers(1, 40, size=(4, 3)), col_ids=list("bdf"))
    panel = pp.intersect_panel(sc, st, n=3)
    assert sorted(panel.gene_ids) == ["b", "d", "f"]
    # HVG-ordered: same relative order as the full sc ranking
    full = pp.rank_genes(pp.normalize_log1p(sc), sc.col_ids)
    assert panel.gene_ids == [g for g in full if g in "bdf"]


def test_intersect_matches_brute_force_rank_then_intersect():
    rng = np.random.default_rng(7)
    sc_ids = [f"g{j:02d}" for j in range(30)]
    st_ids = [sc_ids[j] for j in rng.choice(30, size=15, replace=False)]
    sc = make_matrix(rng.integers(0, 60, size=(12, 30)) + 1, col_ids=sc_ids)
    st = make_matrix(rng.integers(0, 60, size=(5, 15)) + 1, col_ids=st_ids)

    # independent oracle: plain loops, rank all sc genes then intersect
    totals = sc.counts.sum(axis=1)
    normed = np.log1p(sc.counts * (1e4 / totals)[:, None])
    scores = []
    for j, gid in enumerate(sc_ids):
        mean = float(np.mean(normed[:, j]))
        var = float(np.mean((normed[:, j] - mean) ** 2))
        scores.append((-(var / mean) if mean > 0 else math.inf, gid))
    ranked = [gid for _, gid in sorted(scores)]
    expected = [g for g in ranked if g in set(st_ids)][:10]

    panel = pp.intersect_panel(sc, st, n=10)
    assert panel.gene_ids == expected
    # a ranking the caller already holds gives the same panel
    assert pp.intersect_panel(sc, st, n=10, ranked=ranked).gene_ids == expected


def test_intersect_too_few_shared_reports_count():
    sc = make_matrix([[1, 2, 3]], col_ids=["a", "b", "c"])
    st = make_matrix([[1, 2]], col_ids=["b", "c"])
    with pytest.raises(DataError, match="only 2 genes shared"):
        pp.intersect_panel(sc, st, n=3)


# ---------------------------------------------------------------------------
# panel application
# ---------------------------------------------------------------------------

def test_subset_counts_reorders_to_panel():
    m = make_matrix([[1, 2, 3]], col_ids=["a", "b", "c"])
    out = pp.subset_counts(m, pp.GenePanel(["c", "a"]))
    assert out.col_ids == ["c", "a"]
    assert out.counts.tolist() == [[3, 1]]


def test_panel_matrix_normalizes_within_panel():
    m = make_matrix([[1, 1, 98]], col_ids=["a", "b", "c"])
    out = pp.panel_matrix(m, pp.GenePanel(["a", "b"]), target_sum=100.0)
    # restricted counts [1, 1] -> scaled to [50, 50]
    assert out[0, 0] == pytest.approx(math.log(51.0))
    # it is the normalization of the subset to the bit, on an unsorted panel,
    # the whole matrix and a one-gene panel
    rng = np.random.default_rng(3)
    m = make_matrix(rng.poisson(0.7, size=(301, 700)) + (np.arange(700) == 5))
    for genes in (list(rng.permutation(m.col_ids)[:600]), m.col_ids, [m.col_ids[5]]):
        panel = pp.GenePanel(genes)
        out = pp.panel_matrix(m, panel, target_sum=1e4)
        assert out.flags["C_CONTIGUOUS"]
        assert np.array_equal(out, pp.normalize_log1p(pp.subset_counts(m, panel), 1e4))
    # six zero-total rows: the error names the first five
    counts = m.counts.copy()
    counts[np.ix_([3, 250, 251, 252, 253, 299], range(600))] = 0
    m = make_matrix(counts)
    with pytest.raises(DataError, match=r"rows with zero total counts: "
                                        r"\['c3', 'c250', 'c251', 'c252', 'c253'\]$"):
        pp.panel_matrix(m, pp.GenePanel(m.col_ids[:600]))


def test_panel_matrix_on_counts_already_on_their_panel_holds_only_the_result():
    # train's path: 1000 x 2000 uint8 counts cut to an unsorted 2,000-gene
    # panel by panel_counts, then normalized. The counts are taken as they
    # are: the peak is the float64 result, plus 128 KiB (numpy's 64 KiB ufunc
    # buffer, the row totals and the panel's column index)
    rng = np.random.default_rng(5)
    m = make_matrix(rng.poisson(0.8, size=(1000, 2500)) + 1)
    panel = pp.GenePanel(list(rng.permutation(m.col_ids)[:2000]))
    counts = pp.panel_counts(m, panel)
    assert counts.counts.dtype == np.uint8
    out, peak = traced_peak(lambda: pp.panel_matrix(counts, panel))
    assert out.nbytes == 1000 * 2000 * 8
    assert peak <= out.nbytes + 128 * 1024, (peak, out.nbytes)


def test_panel_matrix_gathers_a_query_in_its_narrow_dtype():
    # infer's path: counts not yet on their panel are cut to it in their own
    # dtype (uint8 here), never widened before the one float64 result
    rng = np.random.default_rng(5)
    m = make_matrix(rng.poisson(0.8, size=(1000, 2500)) + 1)
    assert m.counts.dtype == np.uint8
    panel = pp.GenePanel(list(rng.permutation(m.col_ids)[:2000]))
    out, peak = traced_peak(lambda: pp.panel_matrix(m, panel))
    gathered = m.n_rows * len(panel) * m.counts.itemsize
    assert peak <= out.nbytes + gathered + 128 * 1024, (peak, out.nbytes, gathered)


def test_panel_missing_gene_errors():
    m = make_matrix([[1, 2]], col_ids=["a", "b"])
    with pytest.raises(DataError, match="missing panel genes"):
        pp.subset_counts(m, pp.GenePanel(["a", "zz"]))
