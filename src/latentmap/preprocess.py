"""Quality control, normalization, and highly-variable-gene selection.

The pipeline's preprocessing contract, in application order: drop cells
expressing fewer than 200 genes, drop genes expressed in fewer than 60
cells, drop cells dominated by mitochondrial/ribosomal counts, then
row-normalize to a fixed total and log1p. Gene panels (the 2000-gene and
shared 500-gene sets) are ranked by dispersion of the normalized values.

Filters are strict at the boundary: a cell expressing exactly ``min_genes``
genes stays, one expressing ``min_genes - 1`` goes, and symmetrically for
genes/cells.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DataError

log = logging.getLogger("latentmap.preprocess")

MITO_PREFIXES = ("MT-",)
RIBO_PREFIXES = ("MRP", "RPS", "RPL")


@dataclass
class CountMatrix:
    """Integer expression counts with row (cell/spot) and column (gene) ids."""

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
        if len(set(self.row_ids)) != len(self.row_ids):
            raise DataError("duplicate row ids")
        if len(set(self.col_ids)) != len(self.col_ids):
            raise DataError("duplicate col ids")
        if np.any(self.counts < 0):
            raise DataError("negative counts")

    @property
    def n_rows(self):
        return len(self.row_ids)

    @property
    def n_cols(self):
        return len(self.col_ids)

    def take_rows(self, idx):
        return CountMatrix([self.row_ids[i] for i in idx], self.col_ids, self.counts[idx, :])

    def take_cols(self, idx):
        return CountMatrix(self.row_ids, [self.col_ids[i] for i in idx], self.counts[:, idx])


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
        if len(set(self.gene_ids)) != len(self.gene_ids):
            raise DataError("panel contains duplicate gene ids")

    def __len__(self):
        return len(self.gene_ids)


def filter_cells(m: CountMatrix, min_genes: int = 200) -> CountMatrix:
    """Drop cells expressing (count > 0) fewer than ``min_genes`` genes."""
    if min_genes < 0:
        raise ValueError("min_genes must be >= 0")
    expressed = (m.counts > 0).sum(axis=1)
    keep = np.flatnonzero(expressed >= min_genes)
    if keep.size == 0:
        raise DataError("all cells filtered")
    return m.take_rows(keep)


def filter_genes(m: CountMatrix, min_cells: int = 60) -> CountMatrix:
    """Drop genes expressed in fewer than ``min_cells`` cells."""
    if min_cells < 0:
        raise ValueError("min_cells must be >= 0")
    expressed_in = (m.counts > 0).sum(axis=0)
    keep = np.flatnonzero(expressed_in >= min_cells)
    if keep.size == 0:
        raise DataError("all genes filtered")
    return m.take_cols(keep)


def filter_mito_ribo(m: CountMatrix, mito_prefixes=MITO_PREFIXES,
                     ribo_prefixes=RIBO_PREFIXES, max_fraction: float = 0.2) -> CountMatrix:
    """Drop cells whose mito+ribo fraction of total counts exceeds ``max_fraction``.

    The comparison is strict (a fraction of exactly ``max_fraction`` stays).
    Cells with zero total counts are removed with a warning rather than
    evaluating 0/0.
    """
    if not 0.0 <= max_fraction <= 1.0:
        raise ValueError("max_fraction must be in [0, 1]")
    prefixes = tuple(p.upper() for p in tuple(mito_prefixes) + tuple(ribo_prefixes))
    flagged = np.array([g.upper().startswith(prefixes) for g in m.col_ids])
    totals = m.counts.sum(axis=1).astype(np.float64)
    flagged_counts = m.counts[:, flagged].sum(axis=1).astype(np.float64)
    zero_total = totals == 0
    if zero_total.any():
        log.warning("removing %d cell(s) with zero total counts", int(zero_total.sum()))
    with np.errstate(invalid="ignore"):
        frac = np.where(zero_total, np.inf, flagged_counts / np.where(zero_total, 1.0, totals))
    keep = np.flatnonzero(~zero_total & (frac <= max_fraction))
    if keep.size == 0:
        raise DataError("all cells filtered")
    return m.take_rows(keep)


def normalize_log1p(m: CountMatrix, target_sum: float = 1e4) -> np.ndarray:
    """Scale each row to ``target_sum`` total, then log1p. Returns float64 matrix."""
    totals = m.counts.sum(axis=1).astype(np.float64)
    if np.any(totals == 0):
        bad = [m.row_ids[i] for i in np.flatnonzero(totals == 0)[:5]]
        raise DataError(f"zero-total rows present (should have been filtered): {bad}")
    scaled = m.counts.astype(np.float64) * (target_sum / totals)[:, None]
    return np.log1p(scaled)


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
    disp = dispersion(normed)
    order = sorted(range(len(gene_ids)), key=lambda i: (-disp[i], gene_ids[i]))
    return [gene_ids[i] for i in order]


def select_hvg(normed: np.ndarray, gene_ids, n: int) -> GenePanel:
    """Top ``n`` genes by dispersion of the normalized values, in rank order."""
    if n > len(gene_ids):
        raise DataError(f"requested {n} genes but only {len(gene_ids)} available")
    ranked = rank_genes(normed, gene_ids)
    return GenePanel(ranked[:n])


def intersect_panel(sc: CountMatrix, st: CountMatrix, n: int = 500,
                    target_sum: float = 1e4) -> GenePanel:
    """Top ``n`` shared genes, ranked by HVG dispersion computed on the sc data.

    Ranking is rank-then-intersect: genes are ranked on the full normalized
    sc matrix, the ranking is restricted to genes present in both datasets,
    and the first ``n`` survivors are the panel.
    """
    if sc.n_rows == 0 or st.n_rows == 0:
        raise DataError("empty input matrix")
    shared = set(sc.col_ids) & set(st.col_ids)
    if len(shared) < n:
        raise DataError(f"only {len(shared)} genes shared between datasets, need {n}")
    normed = normalize_log1p(sc, target_sum=target_sum)
    ranked = rank_genes(normed, sc.col_ids)
    panel = [g for g in ranked if g in shared][:n]
    return GenePanel(panel)


def subset_counts(m: CountMatrix, panel: GenePanel) -> CountMatrix:
    """Restrict a count matrix to the panel's genes, in panel order."""
    index = {g: i for i, g in enumerate(m.col_ids)}
    missing = [g for g in panel.gene_ids if g not in index]
    if missing:
        raise DataError(f"matrix is missing panel genes: {missing[:10]}")
    return m.take_cols([index[g] for g in panel.gene_ids])


def panel_matrix(m: CountMatrix, panel: GenePanel, target_sum: float = 1e4) -> np.ndarray:
    """Counts restricted to the panel, then normalized+log1p.

    Restriction happens before normalization so that datasets measured on
    different gene sets become comparable on the shared panel.
    """
    return normalize_log1p(subset_counts(m, panel), target_sum=target_sum)


@dataclass
class QcSummary:
    """Row/column drop counts per rule, for the preprocessing report."""

    cells_low_genes: int = 0
    genes_low_cells: int = 0
    cells_mito_ribo: int = 0


def run_qc(m: CountMatrix, min_genes: int = 200, min_cells: int = 60,
           max_mito_ribo: float = 0.2) -> tuple:
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
