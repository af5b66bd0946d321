"""Gaussian-latent variational autoencoder.

The same architecture serves three roles in the pipeline: the 2000-gene
expression model, the shared-500-gene expression model for cells, and the
shared-500-gene expression model for spots. Observation model is Gaussian
(mean squared error) on log1p-normalized expression; the latent prior is
standard normal.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import layers as nn
from .errors import DataError, ShapeError


@dataclass
class VaeConfig:
    n_genes: int
    latent_dim: int
    enc_hidden: tuple


class VaeParams:
    """Encoder stack, mu/logvar heads, mirrored decoder stack, output head."""

    def __init__(self, cfg: VaeConfig, rng):
        self.cfg = cfg
        widths = [cfg.n_genes, *cfg.enc_hidden]
        self.enc = nn.init_stack(rng, widths)
        self.mu_head = nn.init_dense(rng, widths[-1], cfg.latent_dim, gain=1.0)
        self.logvar_head = nn.init_dense(rng, widths[-1], cfg.latent_dim, gain=1.0)
        dwidths = [cfg.latent_dim, *reversed(cfg.enc_hidden)]
        self.dec = nn.init_stack(rng, dwidths)
        self.out_head = nn.init_dense(rng, dwidths[-1], cfg.n_genes, gain=1.0)

    def params(self):
        return nn.collect_params(("enc", self.enc), ("mu", self.mu_head),
                                 ("logvar", self.logvar_head), ("dec", self.dec),
                                 ("out", self.out_head))


def init_vae(cfg: VaeConfig, seed_or_rng) -> VaeParams:
    return VaeParams(cfg, np.random.default_rng(seed_or_rng))


def encode(p: VaeParams, x):
    """Forward pass to the posterior parameters: (mu, logvar), each [n, d]."""
    x = ad.as_tensor(x)
    if x.shape[1] != p.cfg.n_genes:
        raise ShapeError(f"encode: input has {x.shape[1]} genes, model expects {p.cfg.n_genes}")
    h = nn.mlp_forward(p.enc, x, final_linear=False)
    return p.mu_head(h), p.logvar_head(h)


def _decode_hidden(p: VaeParams, z):
    """The decoder up to its output head: the last hidden layer's activations."""
    z = ad.as_tensor(z)
    if z.shape[1] != p.cfg.latent_dim:
        raise ShapeError(f"decode: input width {z.shape[1]}, model expects {p.cfg.latent_dim}")
    return nn.mlp_forward(p.dec, z, final_linear=False)


def decode(p: VaeParams, z):
    """Latent codes back to expression space (linear output, log1p scale)."""
    return p.out_head(_decode_hidden(p, z))


def reparameterize(mu, logvar, noise):
    """z = mu + exp(logvar / 2) * noise, differentiable in mu and logvar."""
    noise = ad.as_tensor(noise)
    if noise.shape != mu.shape or logvar.shape != mu.shape:
        raise ShapeError("reparameterize: mu/logvar/noise shapes differ")
    return ad.add(mu, ad.mul(ad.exp(ad.scale(logvar, 0.5)), noise))


def kl_divergence(mu, logvar):
    """Mean over rows of KL(N(mu, diag exp(logvar)) || N(0, I)).

    Per row: 0.5 * sum_d(mu^2 + exp(logvar) - 1 - logvar), always >= 0.
    """
    if mu.shape != logvar.shape:
        raise ShapeError("kl_divergence: mu/logvar shapes differ")
    n = mu.shape[0]
    per_entry = ad.sub(ad.add(ad.square(mu), ad.exp(logvar)),
                       ad.add_scalar(logvar, 1.0))
    return ad.scale(ad.tsum(per_entry), 0.5 / n)


def vae_loss(p: VaeParams, x, noise):
    """The unweighted terms (recon, kl, mu); the caller weighs and sums them.

    recon is the MSE between the input and its reconstruction through the
    sampled latent; the output head runs inside ``affine_mse``, so the
    reconstruction itself is never built. ``mu`` is the posterior mean, so a
    caller can add terms on it without a second encoder pass.
    """
    x = ad.as_tensor(x)
    mu, logvar = encode(p, x)
    z = reparameterize(mu, logvar, noise)
    recon = ad.affine_mse(_decode_hidden(p, z), p.out_head.w, p.out_head.b, x)
    return recon, kl_divergence(mu, logvar), mu


def encode_mu(p: VaeParams, x) -> np.ndarray:
    """Noise-free encoding (the posterior mean), as a plain array."""
    mu, _ = encode(p, ad.as_tensor(x))
    return mu.data.copy()


# ---------------------------------------------------------------------------
# latent matrices
# ---------------------------------------------------------------------------

@dataclass
class LatentMatrix:
    """Rows of d-dimensional codes; ``fix()`` makes them a read-only training target."""

    codes: np.ndarray
    row_ids: list = field(default_factory=list)
    source: str = "custom"  # the latent file's stem (z_sc2000, z_st500, ...) or custom

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.float64)
        if self.codes.ndim != 2:
            raise DataError("latent codes must be 2-D")
        if self.row_ids and len(self.row_ids) != self.codes.shape[0]:
            raise DataError("row id count does not match latent rows")

    def fix(self):
        self.codes.setflags(write=False)
        return self


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_vae(path, p: VaeParams):
    nn.save_checkpoint(path, "vae", p)


def load_vae(path) -> VaeParams:
    return nn.load_checkpoint(path, "vae", VaeConfig, VaeParams)[0]
