"""Quality control, normalization, and highly-variable-gene selection.

The pipeline's preprocessing contract, in application order: drop cells
expressing fewer than 200 genes, drop genes expressed in fewer than 60
cells, drop cells dominated by mitochondrial/ribosomal counts, then
row-normalize to a fixed total and log1p. Gene panels (the 2000-gene and
shared 500-gene sets) are ranked by dispersion of the normalized values.

Filters are strict at the boundary: a cell expressing exactly ``min_genes``
genes stays, one expressing ``min_genes - 1`` goes, and symmetrically for
genes/cells.

A ``CountMatrix`` holds its counts in the narrowest unsigned integer dtype
that holds their largest value (uint8 for the synthetic corpora), so counts
stay compact until a stage normalizes them. Every sum over counts here is
taken in uint64 or over booleans, never in the counts' own dtype.

``panel_matrix`` builds every matrix that training and inference read
(``train``'s three, ``infer``'s query): ``normalize_log1p`` of the counts
cut to the panel by ``subset_counts``. ``train`` cuts each stage's counts
to its panels when it loads them (``panel_counts``, which refuses a row
without counts on the panel by the rule normalization applies), so its
matrices are normalized in place from counts already on their panel; an
``infer`` query is cut to its panel in its narrow dtype first.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger("latentmap.preprocess")

MITO_RIBO_PREFIXES = ("MT-", "MRP", "RPS", "RPL")  # mitochondrial, then ribosomal genes
TARGET_SUM = 1e4  # the default total each row is scaled to before log1p


def first_duplicate(ids):
    """The first id of ``ids`` (a list) that repeats an earlier one, or None."""
    if len(set(ids)) == len(ids):
        return None
    seen = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)
    return None


@dataclass
class CountMatrix:
    """Integer expression counts with row (cell/spot) and column (gene) ids.

    ``counts`` must have an integer dtype (a float array is refused, never
    truncated) and no negative value. They are stored, with their values
    exact, in the narrowest unsigned dtype that holds the largest one
    (``np.min_scalar_type``): uint8 when every count is below 256. A caller
    widens them before any arithmetic whose result can pass that dtype; a
    ``sum`` of small unsigned integers is already taken in uint64.
    """

    row_ids: list
    col_ids: list
    counts: np.ndarray

    def __post_init__(self):
        self.row_ids = list(self.row_ids)
        self.col_ids = list(self.col_ids)
        self.counts = np.asarray(self.counts)
        if self.counts.ndim != 2:
            raise DataError(f"counts must be 2-D, got shape {self.counts.shape}")
        if self.counts.shape != (len(self.row_ids), len(self.col_ids)):
            raise DataError(
                f"counts shape {self.counts.shape} does not match "
                f"{len(self.row_ids)} row ids x {len(self.col_ids)} col ids")
        for kind, ids in (("row", self.row_ids), ("col", self.col_ids)):
            dup = first_duplicate(ids)
            if dup is not None:
                raise DataError(f"duplicate {kind} id {dup!r}")
        if self.counts.dtype.kind not in "iu":
            raise DataError(f"counts must be integers, got dtype {self.counts.dtype}")
        if self.counts.size and self.counts.min() < 0:
            i, j = np.argwhere(self.counts < 0)[0]
            raise DataError(f"negative count {self.counts[i, j]} for row {self.row_ids[i]!r}, "
                            f"gene {self.col_ids[j]!r}")
        top = self.counts.max() if self.counts.size else 0
        self.counts = self.counts.astype(np.min_scalar_type(top), copy=False)

    @property
    def n_rows(self):
        return len(self.row_ids)

    @property
    def n_cols(self):
        return len(self.col_ids)

    # A take that keeps every row or column in order returns the matrix itself,
    # not a copy: nothing changes a CountMatrix in place.
    def take_rows(self, idx):
        if _keeps_all(idx, self.n_rows):
            return self
        return CountMatrix([self.row_ids[i] for i in idx], self.col_ids, self.counts[idx, :])

    def take_cols(self, idx):
        if _keeps_all(idx, self.n_cols):
            return self
        return CountMatrix(self.row_ids, [self.col_ids[i] for i in idx], self.counts[:, idx])


def _keeps_all(idx, n):
    """Whether the indices ``idx`` are exactly 0, 1, ..., n - 1."""
    return len(idx) == n and bool(np.array_equal(idx, np.arange(n)))


@dataclass
class SpatialDataset:
    """Spot-gene counts paired with 2-D spot coordinates (same row order)."""

    counts: CountMatrix
    coords: np.ndarray  # [n_spots, 2]

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.shape != (self.counts.n_rows, 2):
            raise DataError(
                f"coords shape {self.coords.shape} does not match {self.counts.n_rows} spots")


@dataclass
class GenePanel:
    """Ordered gene ids; the order is the canonical column order downstream."""

    gene_ids: list

    def __post_init__(self):
        self.gene_ids = list(self.gene_ids)
        dup = first_duplicate(self.gene_ids)
        if dup is not None:
            raise DataError(f"panel contains duplicate gene id {dup!r}")

    def __len__(self):
        return len(self.gene_ids)


def filter_cells(m: CountMatrix, min_genes: int) -> CountMatrix:
    """Drop cells expressing (count > 0) fewer than ``min_genes`` genes."""
    if min_genes < 0:
        raise DataError(f"min_genes must be >= 0, got {min_genes!r}")
    expressed = (m.counts > 0).sum(axis=1)
    keep = np.flatnonzero(expressed >= min_genes)
    if keep.size == 0:
        raise DataError("all cells filtered")
    return m.take_rows(keep)


def filter_genes(m: CountMatrix, min_cells: int) -> CountMatrix:
    """Drop genes expressed in fewer than ``min_cells`` cells."""
    if min_cells < 0:
        raise DataError(f"min_cells must be >= 0, got {min_cells!r}")
    expressed_in = (m.counts > 0).sum(axis=0)
    keep = np.flatnonzero(expressed_in >= min_cells)
    if keep.size == 0:
        raise DataError("all genes filtered")
    return m.take_cols(keep)


def filter_mito_ribo(m: CountMatrix, max_fraction: float) -> CountMatrix:
    """Drop cells whose mito+ribo fraction of total counts exceeds ``max_fraction``.

    The comparison is strict (a fraction of exactly ``max_fraction`` stays).
    Cells with zero total counts are removed with a warning rather than
    evaluating 0/0.
    """
    if not 0.0 <= max_fraction <= 1.0:
        raise DataError(f"max_fraction must be in [0, 1], got {max_fraction!r}")
    flagged = np.array([g.upper().startswith(MITO_RIBO_PREFIXES) for g in m.col_ids])
    totals = m.counts.sum(axis=1, dtype=np.uint64).astype(np.float64)
    flagged_counts = m.counts[:, flagged].sum(axis=1, dtype=np.uint64).astype(np.float64)
    zero_total = totals == 0
    if zero_total.any():
        log.warning("removing %d cell(s) with zero total counts", int(zero_total.sum()))
    with np.errstate(invalid="ignore"):
        frac = np.where(zero_total, np.inf, flagged_counts / np.where(zero_total, 1.0, totals))
    keep = np.flatnonzero(~zero_total & (frac <= max_fraction))
    if keep.size == 0:
        raise DataError("all cells filtered")
    return m.take_rows(keep)


def normalize_log1p(m: CountMatrix, target_sum: float = TARGET_SUM) -> np.ndarray:
    """Scale each row to ``target_sum`` total, then log1p. Returns float64 matrix.

    The row totals are summed exactly over the integers, and the counts are
    cast, scaled and log1p'd in place in the one float64 result. The result
    is in C order whatever the counts' layout (a panel's column gather
    leaves them in Fortran order).
    """
    if not (math.isfinite(target_sum) and target_sum > 0):
        raise DataError(f"target_sum must be a finite number > 0, got {target_sum!r}")
    scale = target_sum / _nonzero_totals(m).astype(np.float64)
    out = m.counts.astype(np.float64, order="C")
    out *= scale[:, None]
    return np.log1p(out, out=out)


def _nonzero_totals(m: CountMatrix) -> np.ndarray:
    """Each row's total count in uint64, refused with a DataError naming the first rows
    whose total is 0.

    Normalization cannot scale such a row: this is the one rule by which
    ``normalize_log1p``, ``panel_matrix`` and ``panel_counts`` refuse counts.
    """
    totals = m.counts.sum(axis=1, dtype=np.uint64)
    zero_rows = np.flatnonzero(totals == 0)
    if zero_rows.size:
        raise DataError(f"rows with zero total counts: {[m.row_ids[i] for i in zero_rows[:5]]}")
    return totals


def dispersion(normed: np.ndarray) -> np.ndarray:
    """Per-gene variance/mean of the normalized values (population variance).

    Genes with zero mean get dispersion -inf so they rank last.
    """
    mean = normed.mean(axis=0)
    var = normed.var(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        disp = np.where(mean > 0, var / np.where(mean > 0, mean, 1.0), -np.inf)
    return disp


def rank_genes(normed: np.ndarray, gene_ids) -> list:
    """All gene ids ordered by descending dispersion, ties broken lexicographically."""
    disp = dispersion(normed).tolist()
    order = sorted(range(len(gene_ids)), key=lambda i: (-disp[i], gene_ids[i]))
    return [gene_ids[i] for i in order]


def intersect_panel(sc: CountMatrix, st: CountMatrix, n: int, ranked=None) -> GenePanel:
    """Top ``n`` shared genes, ranked by HVG dispersion computed on the sc data.

    Ranking is rank-then-intersect: genes are ranked on the full normalized
    sc matrix, the ranking is restricted to genes present in both datasets,
    and the first ``n`` survivors are the panel. A caller that already holds
    that ranking (``rank_genes`` of ``normalize_log1p(sc, target_sum)``)
    passes it as ``ranked`` instead of having it computed again; without
    it, the sc matrix is normalized to the default total.
    """
    if n < 1:
        raise DataError(f"shared panel size must be >= 1, got {n!r}")
    if sc.n_rows == 0 or st.n_rows == 0:
        raise DataError("empty input matrix")
    shared = set(sc.col_ids) & set(st.col_ids)
    if len(shared) < n:
        raise DataError(f"only {len(shared)} genes shared between datasets, need {n}")
    if ranked is None:
        ranked = rank_genes(normalize_log1p(sc), sc.col_ids)
    panel = [g for g in ranked if g in shared][:n]
    return GenePanel(panel)


def _panel_columns(m: CountMatrix, panel: GenePanel) -> list:
    """Column indices of the panel's genes in ``m``, in panel order."""
    index = {g: i for i, g in enumerate(m.col_ids)}
    missing = [g for g in panel.gene_ids if g not in index]
    if missing:
        raise DataError(f"matrix is missing panel genes: {missing[:10]}")
    return [index[g] for g in panel.gene_ids]


def subset_counts(m: CountMatrix, panel: GenePanel) -> CountMatrix:
    """Restrict a count matrix to the panel's genes, in panel order."""
    return m.take_cols(_panel_columns(m, panel))


def drop_empty_rows(m: CountMatrix, *panels) -> tuple:
    """(``m`` without the rows that have no counts on one of ``panels``, the number dropped).

    ``normalize_log1p`` cannot scale such a row, so a matrix cut to a panel
    keeps only rows with counts on it.
    """
    keep = np.ones(m.n_rows, dtype=bool)
    for panel in panels:
        keep &= subset_counts(m, panel).counts.sum(axis=1, dtype=np.uint64) > 0
    if keep.all():
        return m, 0
    if not keep.any():
        raise DataError("no row has counts on every panel")
    return m.take_rows(np.flatnonzero(keep)), int(m.n_rows - keep.sum())


def panel_matrix(m: CountMatrix, panel: GenePanel, target_sum: float = TARGET_SUM) -> np.ndarray:
    """Counts restricted to the panel, then normalized+log1p.

    Restriction happens before normalization so that datasets measured on
    different gene sets become comparable on the shared panel.
    """
    return normalize_log1p(subset_counts(m, panel), target_sum)


def panel_counts(m: CountMatrix, panel: GenePanel) -> CountMatrix:
    """``subset_counts(m, panel)``, refused unless every row has counts on the panel.

    These are counts that ``panel_matrix`` normalizes without error: the
    refusal is its own, by the same rule and with the same message.
    """
    counts = subset_counts(m, panel)
    _nonzero_totals(counts)
    return counts


@dataclass
class QcSummary:
    """Row/column drop counts per rule, for the preprocessing report."""

    cells_low_genes: int = 0
    genes_low_cells: int = 0
    cells_mito_ribo: int = 0


def run_qc(m: CountMatrix, min_genes: int, min_cells: int, max_mito_ribo: float) -> tuple:
    """Cells -> genes -> mito/ribo, each applied exactly once, with drop counts."""
    summary = QcSummary()
    n0 = m.n_rows
    m = filter_cells(m, min_genes=min_genes)
    summary.cells_low_genes = n0 - m.n_rows
    g0 = m.n_cols
    m = filter_genes(m, min_cells=min_cells)
    summary.genes_low_cells = g0 - m.n_cols
    n1 = m.n_rows
    m = filter_mito_ribo(m, max_fraction=max_mito_ribo)
    summary.cells_mito_ribo = n1 - m.n_rows
    return m, summary
