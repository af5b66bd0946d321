"""Ground-truth synthetic corpus: paired expression-only and spatial data.

Cells and spots share per-type Poisson rate profiles on the shared gene
panel, which makes the pipeline's core assumption (same expression
distribution for the same cell type on the shared genes) true by
construction. Spots live on a grid partitioned into typed regions
(quadrants or horizontal stripes); each spot takes the type of the one
region that holds it, and the region map is kept so inferred coordinates
can be scored against the truth.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .preprocess import CountMatrix, SpatialDataset

# subkeys for deriving independent streams from one corpus seed
_PROFILE_STREAM = 0
_SC_STREAM = 1
_ST_STREAM = 2
_QUERY_STREAM = 3

RATE_FLOOR = 0.5  # keeps every gene comfortably above the QC thresholds

LAYOUTS = ("quadrants", "stripes")


@dataclass
class SynthConfig:
    n_cells: int = 1000
    n_genes: int = 2000
    n_shared: int = 500
    n_types: int = 4
    grid_side: int = 16
    noise: float = 0.3
    layout: str = LAYOUTS[0]  # one of LAYOUTS
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.noise) and self.noise >= 0):
            raise DataError(f"noise must be a finite number >= 0, got {self.noise!r}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed!r}")
        for name, low in (("n_cells", 1), ("n_genes", 1), ("n_shared", 1), ("n_types", 1),
                          ("grid_side", 2)):
            if getattr(self, name) < low:
                raise DataError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if self.n_shared > self.n_genes:
            raise DataError("n_shared cannot exceed n_genes")
        if self.layout not in LAYOUTS:
            raise DataError(f"unknown layout {self.layout!r}")
        if self.layout == "quadrants" and self.n_types > 4:
            raise DataError("quadrant layout supports at most 4 types (use stripes)")
        if self.layout == "stripes" and self.n_types > self.grid_side:  # a band needs a grid row
            raise DataError(f"stripes layout: n_types {self.n_types} > grid_side {self.grid_side}")

    @property
    def n_spots(self):
        return self.grid_side ** 2


@dataclass
class TypeProfiles:
    """Per-type Poisson rates per gene, plus the shared-gene index set."""

    rates: np.ndarray  # [n_types, n_genes]
    gene_ids: list
    shared_idx: np.ndarray  # sorted indices into gene_ids

    @property
    def shared_gene_ids(self):
        return [self.gene_ids[i] for i in self.shared_idx]


@dataclass
class Region:
    label: str
    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def contains(self, x, y):
        """Elementwise: scalars give a bool, arrays a boolean array."""
        return (self.xmin <= x) & (x < self.xmax) & (self.ymin <= y) & (y < self.ymax)


def _rng(cfg, stream):
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, stream)))


def make_profiles(cfg: SynthConfig) -> TypeProfiles:
    rng = _rng(cfg, _PROFILE_STREAM)
    rates = np.maximum(np.exp(rng.normal(0.0, 1.0, size=(cfg.n_types, cfg.n_genes))),
                       RATE_FLOOR)
    shared_idx = np.sort(rng.choice(cfg.n_genes, size=cfg.n_shared, replace=False))
    gene_ids = [f"G{j:05d}" for j in range(cfg.n_genes)]
    return TypeProfiles(rates=rates, gene_ids=gene_ids, shared_idx=shared_idx)


def _noisy_counts(rng, rates, noise):
    """Poisson draws around the profile; lognormal jitter adds overdispersion.

    The -noise^2/2 shift keeps the jitter's mean at 1 so the expected rate
    stays equal to the profile. The jitter is built in one buffer, which
    then takes the rates in place.
    """
    if noise > 0:
        jitter = rng.normal(size=rates.shape)
        jitter *= noise
        jitter -= 0.5 * noise ** 2
        np.exp(jitter, out=jitter)
        rates = np.multiply(jitter, rates, out=jitter)
    return rng.poisson(rates).astype(np.int64, copy=False)


def _gen_cells(cfg, profiles, n, stream, prefix):
    """(counts [n, n_genes], labels) of cells ``prefix``00000...; cell i has type i % n_types."""
    types = np.arange(n) % cfg.n_types
    counts = _noisy_counts(_rng(cfg, stream), profiles.rates[types], cfg.noise)
    cells = [f"{prefix}{i:05d}" for i in range(n)]
    return CountMatrix(cells, profiles.gene_ids, counts), [f"type{t}" for t in types]


def gen_sc(cfg: SynthConfig):
    """(counts [n_cells, n_genes], labels, profiles) for the expression-only side."""
    profiles = make_profiles(cfg)
    return (*_gen_cells(cfg, profiles, cfg.n_cells, _SC_STREAM, "C"), profiles)


def gen_sc_query(cfg: SynthConfig, profiles: TypeProfiles, n_query: int):
    """Fresh held-out cells from the same type profiles (full gene set)."""
    return _gen_cells(cfg, profiles, n_query, _QUERY_STREAM, "Q")


def _grid_coords(side):
    return np.array([[float(x), float(y)] for y in range(side) for x in range(side)])


def spot_type_assignment(cfg: SynthConfig):
    """(type index per spot, region list, grid coordinates) for the configured layout.

    The regions partition the grid, and region i carries type i % n_types;
    each spot takes the type of the one region that holds it.
    """
    side = cfg.grid_side
    coords = _grid_coords(side)
    lo, hi = -0.5, side - 0.5
    if cfg.layout == "quadrants":
        mid = side / 2.0 - 0.5  # boundary between grid halves
        halves = [(lo, mid), (mid, hi)]
        boxes = [(*halves[q % 2], *halves[q // 2]) for q in range(4)]
    else:  # stripes
        band_height = side / cfg.n_types
        boxes = [(lo, hi, b * band_height - 0.5, (b + 1) * band_height - 0.5)
                 for b in range(cfg.n_types)]
    regions = [Region(f"type{i % cfg.n_types}", *box) for i, box in enumerate(boxes)]
    inside = np.array([r.contains(coords[:, 0], coords[:, 1]) for r in regions])
    types = inside.argmax(axis=0) % cfg.n_types
    return types, regions, coords


def gen_st(cfg: SynthConfig, profiles: TypeProfiles):
    """(SpatialDataset on the shared panel, labels, regions)."""
    rng = _rng(cfg, _ST_STREAM)
    types, regions, coords = spot_type_assignment(cfg)
    shared_rates = profiles.rates[:, profiles.shared_idx]
    counts = _noisy_counts(rng, shared_rates[types], cfg.noise)
    spots = [f"S{i:05d}" for i in range(cfg.n_spots)]
    matrix = CountMatrix(spots, profiles.shared_gene_ids, counts)
    labels = [f"type{t}" for t in types]
    return SpatialDataset(matrix, coords), labels, regions


def point_in_regions(regions, label, x, y):
    """True when (x, y) falls inside any region carrying ``label``."""
    return any(r.contains(x, y) for r in regions if r.label == label)

