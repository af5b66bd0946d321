import numpy as np
import pytest
from conftest import traced_peak

from latentmap import autodiff as ad
from latentmap import vae
from latentmap.errors import ShapeError


def tiny_vae(seed=0, n_genes=12, latent_dim=4, hidden=(8, 6)):
    return vae.init_vae(vae.VaeConfig(n_genes=n_genes, latent_dim=latent_dim,
                                      enc_hidden=hidden), seed)


def zero_params(p):
    for t in p.params().values():
        t.data[...] = 0.0
    return p


def test_encode_zero_params_gives_zero_posterior():
    p = zero_params(tiny_vae())
    mu, logvar = vae.encode(p, np.random.default_rng(0).normal(size=(5, 12)))
    assert np.array_equal(mu.data, np.zeros((5, 4)))
    assert np.array_equal(logvar.data, np.zeros((5, 4)))


def test_encode_is_deterministic_per_row():
    p = tiny_vae(seed=1)
    row = np.random.default_rng(1).normal(size=12)
    x = np.vstack([row, row, row])
    mu, logvar = vae.encode(p, x)
    assert np.array_equal(mu.data[0], mu.data[1])
    assert np.array_equal(logvar.data[0], logvar.data[2])


def test_encode_width_mismatch():
    with pytest.raises(ShapeError, match="genes"):
        vae.encode(tiny_vae(), np.zeros((2, 7)))


def test_decode_zero_params_and_determinism():
    p = zero_params(tiny_vae())
    out = vae.decode(p, np.ones((3, 4)))
    assert np.array_equal(out.data, np.zeros((3, 12)))
    p2 = tiny_vae(seed=2)
    z = np.random.default_rng(2).normal(size=(4, 4))
    assert np.array_equal(vae.decode(p2, z).data, vae.decode(p2, z).data)
    with pytest.raises(ShapeError, match="width"):
        vae.decode(p2, np.zeros((2, 3)))


def test_encode_decode_match_numpy_reference():
    # ReLU after every hidden layer; the posterior heads and the output head are linear
    p = tiny_vae(seed=12)
    x = np.random.default_rng(12).normal(size=(5, 12))
    h = x
    for layer in p.enc:
        h = np.maximum(h @ layer.w.data + layer.b.data, 0.0)
    mu, logvar = vae.encode(p, x)
    assert np.array_equal(mu.data, h @ p.mu_head.w.data + p.mu_head.b.data)
    assert np.array_equal(logvar.data, h @ p.logvar_head.w.data + p.logvar_head.b.data)
    h = mu.data
    for layer in p.dec:
        h = np.maximum(h @ layer.w.data + layer.b.data, 0.0)
    assert np.array_equal(vae.decode(p, mu.data).data, h @ p.out_head.w.data + p.out_head.b.data)


def test_reparameterize_zero_noise_returns_mu():
    mu = ad.tensor(np.arange(6.0).reshape(2, 3))
    logvar = ad.tensor(np.random.default_rng(3).normal(size=(2, 3)))
    z = vae.reparameterize(mu, logvar, np.zeros((2, 3)))
    assert np.array_equal(z.data, mu.data)


def test_reparameterize_unit_variance_adds_noise():
    mu = ad.tensor(np.ones((2, 2)))
    noise = np.array([[0.5, -0.5], [2.0, 0.0]])
    z = vae.reparameterize(mu, ad.tensor(np.zeros((2, 2))), noise)
    assert np.array_equal(z.data, 1.0 + noise)


def test_reparameterize_monte_carlo_mean():
    rng = np.random.default_rng(4)
    mu_val = np.array([[1.5, -2.0]])
    logvar_val = np.array([[0.4, -0.3]])
    n = 10 ** 5
    noise = rng.normal(size=(n, 2))
    mu = ad.tensor(np.repeat(mu_val, n, axis=0))
    logvar = ad.tensor(np.repeat(logvar_val, n, axis=0))
    z = vae.reparameterize(mu, logvar, noise)
    sigma = np.exp(0.5 * logvar_val)
    err = np.abs(z.data.mean(axis=0) - mu_val[0])
    assert np.all(err < 3 * sigma[0] / np.sqrt(n))


def test_kl_zero_at_prior():
    mu = ad.tensor(np.zeros((3, 2)))
    logvar = ad.tensor(np.zeros((3, 2)))
    assert vae.kl_divergence(mu, logvar).item() == 0.0


def test_kl_analytic_unit_mean():
    # d=1, mu=1, logvar=0: 0.5 * (1 + 1 - 1 - 0) = 0.5
    kl = vae.kl_divergence(ad.tensor([[1.0]]), ad.tensor([[0.0]]))
    assert abs(kl.item() - 0.5) < 1e-12


def test_kl_nonnegative_sweep():
    rng = np.random.default_rng(5)
    for _ in range(10 ** 4):
        mu = ad.tensor(rng.normal(scale=3, size=(1, 3)))
        logvar = ad.tensor(rng.normal(scale=2, size=(1, 3)))
        assert vae.kl_divergence(mu, logvar).item() >= 0.0


def test_vae_loss_returns_unweighted_recon_kl_and_posterior_mean():
    p = tiny_vae(seed=6)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, 12))
    noise = rng.normal(size=(5, 4))
    recon, kl, loss_mu = vae.vae_loss(p, x, noise)
    mu, logvar = vae.encode(p, x)
    assert np.array_equal(loss_mu.data, mu.data)  # the loss hands back the posterior mean
    z = mu.data + np.exp(logvar.data / 2) * noise
    manual = float(np.mean((vae.decode(p, z).data - x) ** 2))
    assert recon.item() == pytest.approx(manual, rel=1e-12)
    assert kl.item() == vae.kl_divergence(mu, logvar).item()  # no weight applied
    assert kl.item() > 0.0


def weighted_total(p, x, noise, beta):
    """recon + beta * KL, as the training stages form it."""
    recon, kl, _ = vae.vae_loss(p, x, noise)
    return ad.add(recon, ad.scale(kl, beta))


def test_vae_loss_training_decreases_30pct():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(50, 20))
    p = vae.init_vae(vae.VaeConfig(n_genes=20, latent_dim=4, enc_hidden=(16,)), 7)
    opt = ad.Adam(p.params(), lr=1e-2)
    first = None
    for step in range(200):
        noise = rng.normal(size=(50, 4))
        opt.zero_grad()
        with ad.Tape():
            total = weighted_total(p, x, noise, 1e-3)
            ad.backward(total)
        ad.adam_step(opt)
        if first is None:
            first = total.item()
    final = weighted_total(p, x, np.zeros((50, 4)), 1e-3)
    assert final.item() <= 0.7 * first


def test_vae_grad_check():
    p = tiny_vae(seed=8, n_genes=6, latent_dim=2, hidden=(5,))
    rng = np.random.default_rng(8)
    x = rng.uniform(0.1, 2.0, size=(4, 6))
    noise = rng.normal(size=(4, 2))
    err = ad.grad_check(lambda: weighted_total(p, x, noise, 1.0), p.params())
    assert err < 1e-4


def test_train_step_keeps_no_full_size_prediction():
    # A step holds the grads (one copy of the params) and, at genes width,
    # only the residual of the reconstruction loss. A prediction, its
    # residual and a full-size adjoint kept through backward would take it
    # past params + 3 x input; the bound is params + 2 x input.
    cfg = vae.VaeConfig(n_genes=2000, latent_dim=10, enc_hidden=(128, 64))
    p = vae.init_vae(cfg, 0)
    rng = np.random.default_rng(1)
    x = rng.uniform(0.0, 3.0, size=(400, cfg.n_genes))
    noise = rng.normal(size=(400, cfg.latent_dim))
    opt = ad.Adam(p.params(), lr=1e-3)
    param_bytes = sum(t.data.nbytes for t in p.params().values())
    _, peak = traced_peak(lambda: ad.train_step(
        opt, lambda: {"total": weighted_total(p, x, noise, 1.0)}, "memory test"))
    assert peak <= param_bytes + 2 * x.nbytes, (peak, param_bytes, x.nbytes)


def test_encoder_grad_check():
    p = tiny_vae(seed=9, n_genes=6, latent_dim=2, hidden=(5,))
    rng = np.random.default_rng(9)
    x = rng.uniform(0.1, 2.0, size=(3, 6))
    w = rng.normal(size=(3, 2))  # fixed projection so the loss is scalar

    def loss():
        mu, logvar = vae.encode(p, x)
        return ad.tsum(ad.add(ad.mul(mu, ad.tensor(w)), ad.square(logvar)))

    assert ad.grad_check(loss, p.params()) < 1e-4


def test_capacity_sanity_one_hot_rows():
    # recon alone, latent_dim >= n_genes: 10 one-hot rows reach recon < 1e-2
    x = np.eye(10)
    p = vae.init_vae(vae.VaeConfig(n_genes=10, latent_dim=10, enc_hidden=(32,)), 10)
    opt = ad.Adam(p.params(), lr=1e-2)
    recon_val = None
    for step in range(2000):
        opt.zero_grad()
        with ad.Tape():
            recon, _, _ = vae.vae_loss(p, x, np.zeros((10, 10)))
            ad.backward(recon)
        ad.adam_step(opt)
        recon_val = recon.item()
        if recon_val < 1e-2:
            break
    assert recon_val < 1e-2


def test_checkpoint_round_trip(tmp_path):
    p = tiny_vae(seed=11)
    path = tmp_path / "vae.json"
    vae.save_vae(path, p)
    q = vae.load_vae(path)
    x = np.random.default_rng(11).normal(size=(3, 12))
    assert np.array_equal(vae.encode_mu(p, x), vae.encode_mu(q, x))


def test_checkpoint_bytes_deterministic(tmp_path):
    p = tiny_vae(seed=12)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    vae.save_vae(a, p)
    vae.save_vae(b, p)
    assert a.read_bytes() == b.read_bytes()  # the header names no file
    assert (tmp_path / "a.f64").read_bytes() == (tmp_path / "b.f64").read_bytes()


def test_latent_matrix_fixed_is_immutable():
    lm = vae.LatentMatrix(np.ones((2, 3)), ["a", "b"], source="z_sc2000").fix()
    with pytest.raises(ValueError):
        lm.codes[0, 0] = 5.0
