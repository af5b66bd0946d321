"""Binary classifier over latent codes, driving the adversarial alignment.

Architecture: 3 hidden linear layers of 128 units with ReLU, then a single
logit. Cells (the expression-only dataset) carry label 1, spots label 0.
Its one loss is ``disc_loss``, the binary cross entropy of its logits:
``train_discriminator`` steps Adam on it, the generator's adversarial term
is it on the frozen discriminator against the other side's label, and
``latentmap gradcheck`` checks it.
"""

import copy

import numpy as np

from . import autodiff as ad
from . import layers as nn
from .errors import ShapeError


class DiscriminatorParams:
    def __init__(self, latent_dim, rng, hidden):
        self.latent_dim = latent_dim
        widths = [latent_dim, *hidden]
        self.layers = nn.init_stack(rng, widths)
        self.head = nn.init_dense(rng, widths[-1], 1, gain=1.0)

    def params(self):
        return nn.collect_params(("h", self.layers), ("head", self.head))

    def frozen(self):
        """This discriminator on constant tensors that share its weight arrays."""
        view = copy.copy(self)
        const = lambda l: nn.Dense(ad.tensor(l.w.data), ad.tensor(l.b.data))
        view.layers = [const(l) for l in self.layers]
        view.head = const(self.head)
        return view


def init_discriminator(latent_dim, seed_or_rng, hidden=(128, 128, 128)) -> DiscriminatorParams:
    return DiscriminatorParams(latent_dim, np.random.default_rng(seed_or_rng), hidden=hidden)


def disc_forward(p: DiscriminatorParams, z):
    """Logits [n, 1] for latent codes z [n, d]."""
    z = ad.as_tensor(z)
    if z.shape[1] != p.latent_dim:
        raise ShapeError(f"disc_forward: input width {z.shape[1]}, model expects {p.latent_dim}")
    return nn.mlp_forward(p.layers + [p.head], z)


def disc_loss(p: DiscriminatorParams, z, labels):
    """Binary cross entropy of the logits for ``z`` [n, d] against ``labels`` [n, 1]."""
    return ad.bce_with_logits(disc_forward(p, z), labels)


def disc_accuracy(p: DiscriminatorParams, z_sc, z_st) -> float:
    """Fraction correctly classified; cells are class 1, spots class 0.

    Predict class 1 iff logit > 0, so a zero logit deterministically means
    class 0.
    """
    logits_sc = disc_forward(p, np.asarray(z_sc, dtype=np.float64)).data
    logits_st = disc_forward(p, np.asarray(z_st, dtype=np.float64)).data
    correct = int((logits_sc > 0).sum()) + int((logits_st <= 0).sum())
    return correct / (logits_sc.size + logits_st.size)


def train_discriminator(p: DiscriminatorParams, z_sc, z_st, alpha: float, max_iters: int,
                        lr: float):
    """Full-batch Adam on ``disc_loss`` until accuracy >= alpha or ``max_iters`` steps.

    The latents are treated as constants (no gradient reaches whatever
    produced them). Returns (params, final_accuracy, steps_taken).
    """
    z_all = ad.tensor(np.vstack([z_sc, z_st]))
    labels = np.concatenate([np.ones((len(z_sc), 1)), np.zeros((len(z_st), 1))])
    opt = ad.Adam(p.params(), lr=lr)
    steps = 0
    acc = disc_accuracy(p, z_sc, z_st)
    while acc < alpha and steps < max_iters:
        ad.train_step(opt, lambda: {"total": disc_loss(p, z_all, labels)},
                      f"discriminator, step {steps}")
        steps += 1
        acc = disc_accuracy(p, z_sc, z_st)
    return p, acc, steps


def adversarial_generator_loss(p: DiscriminatorParams, z, target_label: float):
    """``disc_loss`` of the frozen discriminator against a flipped label.

    Non-saturating generator objective: gradients flow through the
    discriminator into ``z`` (and from there into the encoder that produced
    it). The discriminator runs frozen, so no gradient of its own weights is
    computed or kept.
    """
    return disc_loss(p.frozen(), z, np.full((z.shape[0], 1), float(target_label)))

