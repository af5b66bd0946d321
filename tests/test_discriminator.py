import numpy as np
import pytest

from latentmap import autodiff as ad
from latentmap import discriminator as disc
from latentmap.errors import ShapeError


def gaussian_clouds(rng, n, d=10, mean=3.0, sigma=0.5):
    z_sc = rng.normal(mean, sigma, size=(n, d))
    z_st = rng.normal(-mean, sigma, size=(n, d))
    return z_sc, z_st


def test_zero_params_gives_half_probability_and_st_prior_accuracy():
    p = disc.init_discriminator(4, 0)
    for t in p.params().values():
        t.data[...] = 0.0
    z_sc = np.ones((3, 4))
    z_st = np.zeros((5, 4))
    logits = disc.disc_forward(p, z_sc)
    assert np.array_equal(logits.data, np.zeros((3, 1)))
    # logit 0 -> class 0, so every row predicts "spot"
    assert disc.disc_accuracy(p, z_sc, z_st) == 5 / 8


def test_duplicated_rows_give_duplicated_logits():
    p = disc.init_discriminator(4, 1)
    row = np.random.default_rng(1).normal(size=4)
    logits = disc.disc_forward(p, np.vstack([row, row])).data
    assert logits.shape == (2, 1) and logits[0, 0] == logits[1, 0]


def test_forward_matches_numpy_reference():
    # ReLU after each hidden layer, a linear one-unit head
    p = disc.init_discriminator(4, 12)
    z = np.random.default_rng(12).normal(size=(6, 4))
    h = z
    for layer in p.layers:
        h = np.maximum(h @ layer.w.data + layer.b.data, 0.0)
    expected = h @ p.head.w.data + p.head.b.data  # [n, 1]
    assert np.array_equal(disc.disc_forward(p, z).data, expected)


def test_forward_width_mismatch():
    with pytest.raises(ShapeError):
        disc.disc_forward(disc.init_discriminator(4, 0), np.zeros((2, 3)))


def test_accuracy_matches_brute_force_counts():
    rng = np.random.default_rng(2)
    p = disc.init_discriminator(6, 2)
    z_sc = rng.normal(size=(17, 6))
    z_st = rng.normal(size=(23, 6))
    acc = disc.disc_accuracy(p, z_sc, z_st)
    correct = 0
    for row in z_sc:
        correct += disc.disc_forward(p, row[None, :]).data[0, 0] > 0
    for row in z_st:
        correct += disc.disc_forward(p, row[None, :]).data[0, 0] <= 0
    assert acc == correct / 40
    assert 0.0 <= acc <= 1.0


def test_perfectly_separated_clouds_reach_full_accuracy():
    rng = np.random.default_rng(3)
    z_sc, z_st = gaussian_clouds(rng, 100, d=1, mean=5.0, sigma=0.3)
    p = disc.init_discriminator(1, 3)
    p, acc, _ = disc.train_discriminator(p, z_sc, z_st, alpha=1.0, max_iters=300, lr=1e-2)
    assert acc == 1.0


def test_already_separating_params_return_in_zero_steps():
    rng = np.random.default_rng(4)
    z_sc, z_st = gaussian_clouds(rng, 50)
    p = disc.init_discriminator(10, 4)
    p, acc, _ = disc.train_discriminator(p, z_sc, z_st, alpha=0.95, max_iters=200,
                                         lr=1e-3)
    assert acc >= 0.95
    p, acc2, steps = disc.train_discriminator(p, z_sc, z_st, alpha=0.95, max_iters=200,
                                              lr=1e-3)
    assert steps == 0 and acc2 >= 0.95


def test_disjoint_clouds_reach_95pct_within_10_epochs():
    rng = np.random.default_rng(5)
    z_sc, z_st = gaussian_clouds(rng, 1000, d=10, mean=3.0, sigma=0.5)
    p = disc.init_discriminator(10, 5)
    p, acc, steps = disc.train_discriminator(p, z_sc, z_st, alpha=0.95, max_iters=10, lr=1e-3)
    assert acc >= 0.95
    assert steps <= 10


def test_identical_clouds_halt_at_max_iters_near_chance():
    rng = np.random.default_rng(6)
    n = 2000
    z_sc = rng.normal(size=(n, 10))
    z_st = rng.normal(size=(n, 10))
    p = disc.init_discriminator(10, 6)
    p, _, steps = disc.train_discriminator(p, z_sc, z_st, alpha=0.9, max_iters=50, lr=1e-3)
    assert steps == 50  # never reached alpha
    # statistical oracle: held-out draws from the same distribution
    held_sc = rng.normal(size=(n, 10))
    held_st = rng.normal(size=(n, 10))
    held_acc = disc.disc_accuracy(p, held_sc, held_st)
    assert 0.4 <= held_acc <= 0.6


def test_train_never_exceeds_max_iters():
    rng = np.random.default_rng(7)
    z_sc = rng.normal(size=(40, 4))
    z_st = rng.normal(size=(40, 4))
    p = disc.init_discriminator(4, 7)
    _, _, steps = disc.train_discriminator(p, z_sc, z_st, alpha=1.1, max_iters=13, lr=1e-3)
    assert steps == 13


def test_train_discriminator_matches_standalone_loop():
    # the training loop equals a hand-written tape/backward/Adam loop on BCE
    rng = np.random.default_rng(11)
    z_sc = rng.normal(0.5, 1.0, size=(30, 4))
    z_st = rng.normal(-0.5, 1.0, size=(20, 4))
    p, acc, steps = disc.train_discriminator(disc.init_discriminator(4, 11), z_sc, z_st,
                                             alpha=1.1, max_iters=7, lr=1e-2)
    assert steps == 7

    q = disc.init_discriminator(4, 11)
    z_all = ad.tensor(np.vstack([z_sc, z_st]))
    labels = np.concatenate([np.ones((30, 1)), np.zeros((20, 1))])
    opt = ad.Adam(q.params(), lr=1e-2)
    for _ in range(7):
        opt.zero_grad()
        with ad.Tape():
            ad.backward(ad.bce_with_logits(disc.disc_forward(q, z_all), labels))
        ad.adam_step(opt)
    for name, t in q.params().items():
        assert np.array_equal(p.params()[name].data, t.data), name
    assert acc == disc.disc_accuracy(q, z_sc, z_st)


def test_generator_loss_saturation_values():
    p = disc.init_discriminator(2, 8)
    # rig the head so every logit is +20: fooled discriminator, loss ~ 0
    for t in p.params().values():
        t.data[...] = 0.0
    p.head.b.data[...] = 20.0
    loss = disc.adversarial_generator_loss(p, np.zeros((4, 2)), target_label=1.0)
    assert loss.item() == pytest.approx(2.06e-9, rel=0.05)
    p.head.b.data[...] = 0.0
    loss = disc.adversarial_generator_loss(p, np.zeros((4, 2)), target_label=1.0)
    assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_generator_gradient_moves_latent_toward_fooling():
    # 1-D toy: after one ascent step on z, D(z) probability must increase
    rng = np.random.default_rng(9)
    z0 = rng.normal(-2.0, 0.1, size=(20, 1))
    z_sc = rng.normal(2.0, 0.1, size=(20, 1))
    p = disc.init_discriminator(1, 9)
    p, _, _ = disc.train_discriminator(p, z_sc, z0, alpha=1.0, max_iters=200, lr=1e-2)
    z = ad.tensor(z0, requires_grad=True)
    with ad.Tape():
        loss = disc.adversarial_generator_loss(p, z, target_label=1.0)
        ad.backward(loss)
    before = disc.disc_forward(p, z0).data.mean()
    after = disc.disc_forward(p, z0 - 0.1 * z.grad).data.mean()
    assert after > before


def test_generator_loss_leaves_discriminator_weights_without_grads():
    # the frozen forward shares the weight arrays: same loss and latent gradient
    # as the trainable one, and nothing computed for the discriminator itself
    rng = np.random.default_rng(12)
    p = disc.init_discriminator(3, 12, hidden=(8, 8))
    z0 = rng.normal(size=(6, 3))
    grads = []
    for forward in (lambda z: disc.adversarial_generator_loss(p, z, target_label=1.0),
                    lambda z: ad.bce_with_logits(disc.disc_forward(p, z), np.ones((6, 1)))):
        z = ad.tensor(z0, requires_grad=True)
        with ad.Tape():
            loss = forward(z)
            ad.backward(loss)
        grads.append((loss.item(), z.grad))
    (loss_f, grad_f), (loss_t, grad_t) = grads
    assert loss_f == loss_t and np.array_equal(grad_f, grad_t)
    for t in p.params().values():
        t.grad = None
    z = ad.tensor(z0, requires_grad=True)
    with ad.Tape():
        ad.backward(disc.adversarial_generator_loss(p, z, target_label=1.0))
    assert all(t.grad is None for t in p.params().values())
    assert all(np.shares_memory(f.w.data, l.w.data)
               for f, l in zip(p.frozen().layers, p.layers))

