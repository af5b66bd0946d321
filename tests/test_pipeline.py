import dataclasses
import os

import numpy as np
import pytest

from latentmap import autodiff as ad
from latentmap import pipeline as pl
from latentmap import preprocess as pp
from latentmap import synth
from latentmap.errors import DataError, DependencyError, ShapeError


@pytest.fixture(scope="module")
def corpus():
    """Tiny preprocessed corpus shared by the pipeline tests."""
    cfg_s = synth.SynthConfig(n_cells=60, n_genes=60, n_shared=25, n_types=4,
                              grid_side=8, noise=0.3, seed=5)
    sc, sc_labels, profiles = synth.gen_sc(cfg_s)
    st, st_labels, regions = synth.gen_st(cfg_s, profiles)
    panel_big = pp.select_hvg(pp.normalize_log1p(sc), sc.col_ids, 40)
    panel_shared = pp.intersect_panel(sc, st.counts, n=20)
    return dict(
        x_big=pp.panel_matrix(sc, panel_big),
        x_sc=pp.panel_matrix(sc, panel_shared),
        x_st=pp.panel_matrix(st.counts, panel_shared),
        sc_ids=sc.row_ids,
        st_ids=st.counts.row_ids,
        coords=st.coords,
        panel=panel_shared.gene_ids,
        labels=sc_labels,
    )


def tiny_cfg(**over):
    base = dict(s1_epochs=30, s2_epochs=4, s2b_epochs=2, s3_epochs=30,
                latent_dim=4, enc_hidden=(16, 8), kl_weight=0.01,
                disc_max_iters=10, seed=11)
    base.update(over)
    return pl.TrainConfig(**base)


# ---------------------------------------------------------------------------
# euclidean latent loss
# ---------------------------------------------------------------------------

def test_latent_loss_zero_for_identical():
    z = np.random.default_rng(0).normal(size=(5, 3))
    assert pl.euclidean_latent_loss(z, z.copy()).item() == 0.0


def test_latent_loss_squared_single_row():
    val = pl.euclidean_latent_loss(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
    assert val.item() == 25.0  # squared form; plain distance would be 5


def test_latent_loss_unsquared_single_row():
    val = pl.euclidean_latent_loss(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]),
                                   squared=False)
    assert val.item() == pytest.approx(5.0, abs=1e-12)


def test_latent_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    za = rng.normal(size=(5, 3))
    zb = rng.normal(size=(5, 3))
    expected_sq = 0.0
    expected_plain = 0.0
    for i in range(5):
        row = sum((za[i, j] - zb[i, j]) ** 2 for j in range(3))
        expected_sq += row
        expected_plain += row ** 0.5
    assert pl.euclidean_latent_loss(za, zb).item() == pytest.approx(expected_sq / 5, abs=1e-12)
    assert pl.euclidean_latent_loss(za, zb, squared=False).item() == \
        pytest.approx(expected_plain / 5, abs=1e-12)


def test_latent_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        pl.euclidean_latent_loss(np.zeros((2, 3)), np.zeros((3, 2)))


def test_latent_loss_zero_iff_equal():
    rng = np.random.default_rng(2)
    za = rng.normal(size=(4, 3))
    zb = za + 1e-5
    assert pl.euclidean_latent_loss(za, zb).item() > 1e-12
    assert pl.euclidean_latent_loss(za, za.copy()).item() <= 1e-12


def test_latent_loss_gradient_flows():
    za = ad.tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape():
        loss = pl.euclidean_latent_loss(za, np.zeros((2, 2)))
        ad.backward(loss)
    assert np.allclose(za.grad, np.ones((2, 2)))  # d/dza mean_rows|za|^2 = 2 za / n


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    cfg = tiny_cfg()
    path = tmp_path / "config.json"
    cfg.save(path)
    assert pl.TrainConfig.load(path) == cfg


def test_config_validation():
    with pytest.raises(DataError, match="s1_epochs"):
        tiny_cfg(s1_epochs=0)
    with pytest.raises(DataError, match="latent_dim"):
        tiny_cfg(latent_dim=5)
    with pytest.raises(DataError, match="w_adv"):
        tiny_cfg(w_adv=-1.0)
    with pytest.raises(DataError, match="unknown config keys"):
        pl.TrainConfig.from_dict({"nope": 1})


def test_read_history_non_numeric_value_names_file_and_line(tmp_path):
    path = tmp_path / "stage1.csv"
    path.write_text("epoch,total\n0,1.5\n1,abc\n")
    with pytest.raises(DataError, match=r"stage1.csv:3: could not convert"):
        pl.read_history(path)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def test_stage1_artifacts_and_shape(tmp_path, corpus):
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(tiny_cfg(), corpus["x_big"], corpus["sc_ids"], run)
    assert z1.codes.shape == (len(corpus["sc_ids"]), 4)
    assert z1.fixed
    assert run.stage_complete(1)
    header, rows = pl.read_history(run.path("history", "stage1.csv"))
    assert header == ["epoch", "total", "recon", "kl"]
    assert len(rows) == 30
    # training reduced the loss
    assert rows[-1][1] < rows[0][1]


def test_stage1_deterministic_rerun(tmp_path, corpus):
    cfg = tiny_cfg()
    runs = []
    for sub in ("a", "b"):
        run = pl.RunDir(tmp_path / sub)
        pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
        runs.append(run)
    for name in ("latents/z_sc2000.csv", "history/stage1.csv", "checkpoints/vae_sc2000.json",
                 "checkpoints/vae_sc2000.npz"):
        a = open(runs[0].path(*name.split("/")), "rb").read()
        b = open(runs[1].path(*name.split("/")), "rb").read()
        assert a == b, name


def test_stage1_history_matches_standalone_vae(tmp_path, corpus):
    # stage 1 is plain VAE training: its history, latent and weights equal a
    # hand-written tape/backward/Adam loop driven by the same seed streams
    from latentmap import vae
    cfg = tiny_cfg(s1_epochs=6)
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    _, rows = pl.read_history(run.path("history", "stage1.csv"))

    x = corpus["x_big"]
    model = vae.init_vae(vae.VaeConfig(n_genes=x.shape[1], latent_dim=4, enc_hidden=(16, 8)),
                         pl._rng(cfg.seed, pl._S1_INIT))
    noise_rng = pl._rng(cfg.seed, pl._S1_NOISE)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    standalone = []
    for epoch in range(6):
        noise = noise_rng.normal(size=(x.shape[0], 4))
        opt.zero_grad()
        with ad.Tape():
            total, recon, kl, _ = vae.vae_loss(model, x, noise, beta=cfg.kl_weight)
            ad.backward(total)
        ad.adam_step(opt)
        standalone.append([epoch, total.item(), recon.item(), kl.item()])
    assert rows == standalone  # bitwise identical floats
    assert np.array_equal(z1.codes, vae.encode_mu(model, x))
    saved = vae.load_vae(run.path("checkpoints", "vae_sc2000.json")).params()
    for name, t in model.params().items():
        assert np.array_equal(saved[name].data, t.data), name


def test_stage_gating(tmp_path, corpus):
    run = pl.RunDir(tmp_path / "run")
    run.ensure_layout()
    data = pl.PipelineData(
        sc2000=(corpus["sc_ids"], [], corpus["x_big"]),
        sc500=(corpus["sc_ids"], corpus["panel"], corpus["x_sc"]),
        st500=(corpus["st_ids"], corpus["panel"], corpus["x_st"]),
        st_coords=(corpus["st_ids"], corpus["coords"]),
        panel_shared=corpus["panel"])
    with pytest.raises(DependencyError, match="stage 1"):
        pl.run_stage(2, tiny_cfg(), data, run)
    with pytest.raises(DependencyError, match="stage 2"):
        pl.run_stage(3, tiny_cfg(), data, run)


def test_stage_refuses_overwrite_without_force(tmp_path, corpus):
    run = pl.RunDir(tmp_path / "run")
    cfg = tiny_cfg()
    pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    data = pl.PipelineData(
        sc2000=(corpus["sc_ids"], [], corpus["x_big"]),
        sc500=(corpus["sc_ids"], corpus["panel"], corpus["x_sc"]),
        st500=(corpus["st_ids"], corpus["panel"], corpus["x_st"]),
        st_coords=(corpus["st_ids"], corpus["coords"]),
        panel_shared=corpus["panel"])
    with pytest.raises(DependencyError, match="--force"):
        pl.run_stage(1, cfg, data, run)
    pl.run_stage(1, cfg, data, run, force=True)  # allowed explicitly


def test_full_pipeline_small(tmp_path, corpus):
    cfg = tiny_cfg()
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    z_sc, z_st = pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"],
                           corpus["x_st"], corpus["st_ids"], z1, run)
    assert z_sc.codes.shape == (len(corpus["sc_ids"]), 4)
    assert z_st.codes.shape == (len(corpus["st_ids"]), 4)
    z_merged = pl.stage3(cfg, corpus["x_st"], corpus["st_ids"], corpus["coords"], z_st, run)
    assert z_merged.codes.shape == (len(corpus["st_ids"]), 4)
    assert run.stage_complete(2) and run.stage_complete(3)

    # fixed latents are byte-identical before and after later stages
    z1_bytes = open(run.path("latents", "z_sc2000.csv"), "rb").read()
    x_hat, coords_norm, transform = pl.infer(
        run, corpus["x_sc"][:3], corpus["panel"], corpus["panel"])
    assert x_hat.shape == (3, len(corpus["panel"]))
    assert coords_norm.shape == (3, 2)
    assert open(run.path("latents", "z_sc2000.csv"), "rb").read() == z1_bytes

    # stage-2 history has the documented columns
    header, rows = pl.read_history(run.path("history", "stage2.csv"))
    assert header[:4] == ["outer", "inner", "disc_acc", "disc_steps"]
    assert len(rows) == cfg.s2_epochs * cfg.s2b_epochs


def test_stage2_l1_decreases(tmp_path, corpus):
    cfg = tiny_cfg(s2_epochs=10, s2b_epochs=2)
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"], corpus["x_st"], corpus["st_ids"], z1, run)
    header, rows = pl.read_history(run.path("history", "stage2.csv"))
    i = header.index("anchor_sc")
    assert rows[-1][i] < rows[0][i]


def test_stage2_ablation_reduces_to_independent_vaes(tmp_path, corpus):
    # with the anchor and adversarial weights at zero, the cell-side VAE's
    # loss history must match a standalone run (shared pretrained init plus
    # plain VAE steps) driven by the same seed streams
    cfg = tiny_cfg(w_anchor_sc=0.0, w_adv=0.0, s2_epochs=3, s2b_epochs=2)
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"], corpus["x_st"], corpus["st_ids"], z1, run)
    header, rows = pl.read_history(run.path("history", "stage2.csv"))

    from latentmap import layers as nn
    from latentmap import vae
    vae_cfg = vae.VaeConfig(n_genes=corpus["x_sc"].shape[1], latent_dim=4,
                            enc_hidden=(16, 8))
    pre = pl._pretrain_shared_init(cfg, vae_cfg, corpus["x_sc"], corpus["x_st"])
    model = vae.init_vae(vae_cfg, np.random.default_rng(0))
    nn.restore_params(model.params(), {k: t.data.copy() for k, t in pre.params().items()})
    noise_rng = pl._rng(cfg.seed, pl._S2_NOISE_SC)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    standalone = []
    for _ in range(6):
        noise = noise_rng.normal(size=(corpus["x_sc"].shape[0], 4))
        opt.zero_grad()
        with ad.Tape():
            total, recon, kl, _ = vae.vae_loss(model, corpus["x_sc"], noise, beta=cfg.kl_weight)
            ad.backward(total)
        ad.adam_step(opt)
        standalone.append(total.item())
    got = [row[header.index("total_sc")] for row in rows]
    assert got == pytest.approx(standalone, abs=0.0)  # bitwise identical


def test_stage3_ablation_matches_standalone_vgae(tmp_path, corpus):
    # with the anchor weight at zero the stage-3 history equals a standalone
    # VGAE run driven by the same seed streams
    cfg = tiny_cfg(w_anchor_st=0.0, s3_epochs=5)
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    _, z_st = pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"], corpus["x_st"],
                        corpus["st_ids"], z1, run)
    pl.stage3(cfg, corpus["x_st"], corpus["st_ids"], corpus["coords"], z_st, run)
    header, rows = pl.read_history(run.path("history", "stage3.csv"))

    from latentmap import vgae as vg
    transform = vg.fit_coord_transform(corpus["coords"])
    graph = vg.build_knn_graph(corpus["coords"], k=cfg.graph_k)
    model = vg.init_vgae(vg.VgaeConfig(n_genes=corpus["x_st"].shape[1], latent_dim=4,
                                       exp_hidden=(16, 8), dec_hidden=(8, 16)),
                         pl._rng(cfg.seed, pl._S3_INIT))
    noise_rng = pl._rng(cfg.seed, pl._S3_NOISE)
    neg_rng = pl._rng(cfg.seed, pl._S3_NEGATIVES)
    weights = vg.VgaeLossWeights(recon_exp=cfg.w_recon_exp, recon_sp=cfg.w_recon_sp,
                                 recon_adj=cfg.w_recon_adj, kl=cfg.kl_weight)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    standalone = []
    for _ in range(5):
        noise = noise_rng.normal(size=(corpus["x_st"].shape[0], 4))
        opt.zero_grad()
        with ad.Tape():
            total, *_, mu = vg.vgae_loss(model, graph, corpus["x_st"],
                                         transform.normalize(corpus["coords"]),
                                         noise, weights, neg_rng)
            anchor = pl.euclidean_latent_loss(mu, z_st.codes)
            total = ad.add(total, ad.scale(anchor, 0.0))
            ad.backward(total)
        ad.adam_step(opt)
        standalone.append(total.item())
    got = [row[header.index("total")] for row in rows]
    assert got == pytest.approx(standalone, abs=0.0)


def test_infer_empty_query(tmp_path, corpus):
    cfg = tiny_cfg()
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    _, z_st = pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"], corpus["x_st"],
                        corpus["st_ids"], z1, run)
    pl.stage3(cfg, corpus["x_st"], corpus["st_ids"], corpus["coords"], z_st, run)
    x_hat, coords_norm, _ = pl.infer(run, np.zeros((0, len(corpus["panel"]))),
                                     corpus["panel"], corpus["panel"])
    assert x_hat.shape == (0, len(corpus["panel"]))
    assert coords_norm.shape == (0, 2)


def test_infer_panel_mismatch_lists_genes(tmp_path, corpus):
    cfg = tiny_cfg()
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    _, z_st = pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"], corpus["x_st"],
                        corpus["st_ids"], z1, run)
    pl.stage3(cfg, corpus["x_st"], corpus["st_ids"], corpus["coords"], z_st, run)
    wrong = list(corpus["panel"][1:]) + ["BOGUS"]
    with pytest.raises(DataError, match="BOGUS"):
        pl.infer(run, corpus["x_sc"][:2], corpus["panel"], wrong)
    out_of_order = list(reversed(corpus["panel"]))
    with pytest.raises(DataError, match="order"):
        pl.infer(run, corpus["x_sc"][:2], corpus["panel"], out_of_order)


def test_stage2_id_mismatch_rejected(tmp_path, corpus):
    cfg = tiny_cfg()
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    bad_ids = list(corpus["sc_ids"])
    bad_ids[0] = "intruder"
    with pytest.raises(DataError, match="cell ids"):
        pl.stage2(cfg, corpus["x_sc"], bad_ids, corpus["x_st"], corpus["st_ids"], z1, run)
