import copy
import dataclasses
import json
import os
import re
import resource
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak

from latentmap import __version__
from latentmap import autodiff as ad
from latentmap import dataio
from latentmap import discriminator as disc
from latentmap import pipeline as pl
from latentmap import preprocess as pp
from latentmap import synth
from latentmap import vae
from latentmap.errors import DataError, DependencyError, ShapeError


@pytest.fixture(scope="module")
def corpus():
    """Tiny preprocessed corpus shared by the pipeline tests."""
    cfg_s = synth.SynthConfig(n_cells=60, n_genes=60, n_shared=25, n_types=4,
                              grid_side=8, noise=0.3, seed=5)
    sc, sc_labels, profiles = synth.gen_sc(cfg_s)
    st, st_labels, regions = synth.gen_st(cfg_s, profiles)
    panel_big = pp.GenePanel(pp.rank_genes(pp.normalize_log1p(sc), sc.col_ids)[:40])
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


def stage_inputs(corpus):
    """Each stage's inputs, shaped as ``load_pipeline_data`` returns them."""
    return {1: lambda: (corpus["x_big"], corpus["sc_ids"]),
            2: lambda: (corpus["x_sc"], corpus["sc_ids"], corpus["x_st"], corpus["st_ids"]),
            3: lambda: (corpus["x_st"], corpus["st_ids"], corpus["coords"])}


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


def test_latent_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    za = rng.normal(size=(5, 3))
    zb = rng.normal(size=(5, 3))
    expected = 0.0
    for i in range(5):
        expected += sum((za[i, j] - zb[i, j]) ** 2 for j in range(3))
    assert pl.euclidean_latent_loss(za, zb).item() == pytest.approx(expected / 5, abs=1e-12)


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
    for latent_dim in (5, 0, -2):
        with pytest.raises(DataError, match="latent_dim"):
            tiny_cfg(latent_dim=latent_dim)
    with pytest.raises(DataError, match="w_adv"):
        tiny_cfg(w_adv=-1.0)
    with pytest.raises(DataError, match="unknown config keys"):
        pl.TrainConfig.from_dict({"nope": 1})


def test_integer_given_for_a_float_field_is_saved_as_a_float(tmp_path):
    pl.TrainConfig(w_adv=6).save(tmp_path / "int.json")
    pl.TrainConfig(w_adv=6.0).save(tmp_path / "float.json")
    assert (tmp_path / "int.json").read_bytes() == (tmp_path / "float.json").read_bytes()
    cfg = pl.TrainConfig(w_adv=np.int64(6), seed=np.int64(3))
    assert type(cfg.w_adv) is float and type(cfg.seed) is int


def test_readme_config_table_lists_every_field_and_default():
    # a row `a` / `b` | 1 / 2 documents a = 1 and b = 2
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        readme = fh.read()
    table = readme.split("| key | default | meaning |\n| --- | --- | --- |\n")[1].split("\n\n")[0]
    documented = {}
    for row in table.splitlines():
        keys, defaults, _ = (cell.strip() for cell in row.strip("|").split("|"))
        keys, defaults = keys.split(" / "), defaults.split(" / ")
        assert len(keys) == len(defaults), row
        for key, default in zip(keys, defaults):
            assert key.strip("`") not in documented, key
            documented[key.strip("`")] = json.loads(default)
    assert documented == pl.TrainConfig().to_dict()


def test_read_history_non_numeric_value_names_file_and_line(tmp_path):
    path = tmp_path / "stage1.csv"
    path.write_text("epoch,total\n0,1.5\n1,abc\n")
    with pytest.raises(DataError, match=r"stage1.csv:3: could not convert"):
        pl.read_history(path)


# ---------------------------------------------------------------------------
# run directory
# ---------------------------------------------------------------------------

def test_run_dir_records_are_the_config_the_panel_and_the_manifest(tmp_path, corpus):
    run = pl.RunDir(tmp_path / "run")
    cfg = tiny_cfg(s1_epochs=2)
    pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    files = lambda: {os.path.relpath(os.path.join(d, f), run.root)
                     for d, _, names in os.walk(run.root) for f in names}
    before = files()
    digests = {"sc_counts_qc.csv": "ab" * 32}
    run.write_records(cfg, corpus["panel"], digests, 5000.0)
    assert files() - before == {"config.json", "panel_shared.txt", "manifest.json"}
    assert pl.TrainConfig.load(run.path("config.json")) == cfg
    assert dataio.read_id_list(run.path("panel_shared.txt")) == corpus["panel"]
    assert dataio.read_json(run.path("manifest.json")) == {
        "tool_version": __version__, "seed": cfg.seed, "target_sum": 5000.0,
        "config": cfg.to_dict(), "input_digests": digests,
        "artifacts": sorted(pl.CHECKPOINTS[1] + pl.LATENTS[1] + ["stage1.csv"])}
    panel, path = run.read_panel()
    assert panel.gene_ids == corpus["panel"] and path == run.path("panel_shared.txt")
    assert run.target_sum() == 5000.0


def test_run_dir_without_a_panel_is_a_dependency_error_naming_the_file(tmp_path):
    run = pl.RunDir(tmp_path / "run")
    with pytest.raises(DependencyError,
                       match=f"missing artifact: {re.escape(run.path('panel_shared.txt'))}"):
        run.read_panel()


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def test_stage1_artifacts_and_shape(tmp_path, corpus):
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(tiny_cfg(), corpus["x_big"], corpus["sc_ids"], run)
    assert z1.codes.shape == (len(corpus["sc_ids"]), 4)
    assert not z1.codes.flags.writeable  # frozen by fix()
    run.require_stage(1)
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
                 "checkpoints/vae_sc2000.f64"):
        a = Path(runs[0].path(*name.split("/"))).read_bytes()
        b = Path(runs[1].path(*name.split("/"))).read_bytes()
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
            recon, kl, _ = vae.vae_loss(model, x, noise)
            total = ad.add(recon, ad.scale(kl, cfg.kl_weight))
            ad.backward(total)
        ad.adam_step(opt)
        standalone.append([epoch, total.item(), recon.item(), kl.item()])
    assert rows == standalone  # bitwise identical floats
    assert np.array_equal(z1.codes, vae.encode_mu(model, x))
    saved = vae.load_vae(run.path("checkpoints", "vae_sc2000.json")).params()
    for name, t in model.params().items():
        assert np.array_equal(saved[name].data, t.data), name


def test_all_stages_deterministic_rerun(tmp_path, corpus):
    cfg = tiny_cfg(s2_init_epochs=20)
    roots = [tmp_path / "a", tmp_path / "b"]
    for root in roots:
        inputs = stage_inputs(corpus)
        for stage in (1, 2, 3):
            pl.run_stage(stage, cfg, inputs, pl.RunDir(root))
        assert inputs == {}  # each stage takes its entry out
    files = [sorted(p.relative_to(r) for p in r.rglob("*") if p.is_file()) for r in roots]
    assert files[0] == files[1]
    # exactly these files: a new artifact must be named here (and read somewhere)
    assert {str(p) for p in files[0]} == {
        "graph_edges.txt",
        "checkpoints/vae_sc2000.json", "checkpoints/vae_sc2000.f64",
        "checkpoints/vae_sc500.json", "checkpoints/vae_sc500.f64",
        "checkpoints/vae_st500.json", "checkpoints/vae_st500.f64",
        "checkpoints/vgae_st.json", "checkpoints/vgae_st.f64",
        "latents/z_sc2000.csv", "latents/z_sc500.csv", "latents/z_st500.csv",
        "latents/z_st_merged.csv",
        "history/stage1.csv", "history/stage2.csv", "history/stage3.csv"}
    for rel in files[0]:
        assert (roots[0] / rel).read_bytes() == (roots[1] / rel).read_bytes(), rel


def test_stage_gating(tmp_path, corpus):
    run = pl.RunDir(tmp_path / "run")
    run.ensure_layout()
    inputs = stage_inputs(corpus)
    with pytest.raises(DependencyError, match="stage 1"):
        pl.run_stage(2, tiny_cfg(), inputs, run)
    with pytest.raises(DependencyError, match="stage 2"):
        pl.run_stage(3, tiny_cfg(), inputs, run)
    assert sorted(inputs) == [1, 2, 3]  # a refused stage leaves its inputs unbuilt
    assert not any(p.is_file() for p in (tmp_path / "run").rglob("*"))


def test_stage_refuses_overwrite_without_force(tmp_path, corpus):
    run = pl.RunDir(tmp_path / "run")
    cfg = tiny_cfg()
    pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    inputs = stage_inputs(corpus)
    with pytest.raises(DependencyError, match="--force"):
        pl.run_stage(1, cfg, inputs, run)
    pl.run_stage(1, cfg, inputs, run, force=True)  # allowed explicitly


def test_training_logs_progress_and_each_stage_its_time_and_peak_rss(tmp_path, corpus, caplog):
    cfg = tiny_cfg(s1_epochs=2 * pl.LOG_EVERY + 1)
    run = pl.RunDir(tmp_path / "run")
    with caplog.at_level("INFO", logger="latentmap.pipeline"):
        pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    _, rows = pl.read_history(run.path("history", "stage1.csv"))
    lines = [rec.getMessage() for rec in caplog.records]
    # one line every LOG_EVERY steps: the step, its total as the history holds it, ms/step
    progress = [line for line in lines if line.startswith("stage 1: step")]
    assert [line.split(",")[0] for line in progress] == [
        f"stage 1: step {pl.LOG_EVERY} of {cfg.s1_epochs}",
        f"stage 1: step {2 * pl.LOG_EVERY} of {cfg.s1_epochs}"]
    for line, step in zip(progress, (pl.LOG_EVERY, 2 * pl.LOG_EVERY)):
        total, ms = re.fullmatch(r"stage 1: step \d+ of \d+, total (\S+), (\S+) ms/step",
                                 line).groups()
        assert total == f"{rows[step - 1][1]:.5f}" and float(ms) > 0
    # the stage's last line adds its wall time and the process's peak RSS
    done = [line for line in lines if line.startswith("stage 1 done")]
    assert len(done) == 1
    total, seconds, peak = re.fullmatch(
        rf"stage 1 done: {cfg.s1_epochs} steps, final total (\S+), (\S+) s, peak RSS (\S+) MiB",
        done[0]).groups()
    assert total == f"{rows[-1][1]:.5f}" and float(seconds) > 0
    assert 0 < float(peak) <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 + 0.1


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
    run.require_stage(2)
    run.require_stage(3)

    # fixed latents are byte-identical before and after later stages
    z1_bytes = Path(run.path("latents", "z_sc2000.csv")).read_bytes()
    x_hat, coords_norm, transform = pl.infer(run, corpus["x_sc"][:3])
    assert x_hat.shape == (3, len(corpus["panel"]))
    assert coords_norm.shape == (3, 2)
    assert Path(run.path("latents", "z_sc2000.csv")).read_bytes() == z1_bytes

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

    pre = pl._pretrain_shared_init(cfg, corpus["x_sc"], corpus["x_st"])
    model = copy.deepcopy(pre)
    noise_rng = pl._rng(cfg.seed, pl._S2_NOISE_SC)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    standalone = []
    for _ in range(6):
        noise = noise_rng.normal(size=(corpus["x_sc"].shape[0], 4))
        opt.zero_grad()
        with ad.Tape():
            recon, kl, _ = vae.vae_loss(model, corpus["x_sc"], noise)
            total = ad.add(recon, ad.scale(kl, cfg.kl_weight))
            ad.backward(total)
        ad.adam_step(opt)
        standalone.append(total.item())
    got = [row[header.index("total_sc")] for row in rows]
    assert got == pytest.approx(standalone, abs=0.0)  # bitwise identical


def test_stage2_joint_step_matches_two_per_side_steps_bitwise(corpus):
    # one Adam over both VAEs and one step of the summed objective update each
    # side exactly as a per-side Adam and step on that side's own terms would
    cfg = tiny_cfg()
    x_sc, x_st = corpus["x_sc"], corpus["x_st"]
    models = (vae.init_vae(vae.VaeConfig(n_genes=x_sc.shape[1], latent_dim=4,
                                         enc_hidden=(16, 8)), 3),
              vae.init_vae(vae.VaeConfig(n_genes=x_st.shape[1], latent_dim=4,
                                         enc_hidden=(16, 8)), 4))
    d_params = disc.init_discriminator(4, 5)
    anchor = np.random.default_rng(6).normal(size=(x_sc.shape[0], 4))

    def side_terms(model, x, noise, label, anchor=None):
        recon, kl, mu = vae.vae_loss(model, x, noise)
        terms = {"total": ad.add(recon, ad.scale(kl, cfg.kl_weight)), "recon": recon, "kl": kl}
        if anchor is not None:
            terms["anchor"] = pl.euclidean_latent_loss(mu, anchor)
            terms["total"] = ad.add(terms["total"], ad.scale(terms["anchor"], cfg.w_anchor_sc))
        terms["adv"] = disc.adversarial_generator_loss(d_params, mu, target_label=label)
        terms["total"] = ad.add(terms["total"], ad.scale(terms["adv"], cfg.w_adv))
        return terms

    ref = [copy.deepcopy(m) for m in models]
    ref_opts = [ad.Adam(m.params(), lr=cfg.learning_rate) for m in ref]
    ref_rngs = [pl._rng(cfg.seed, s) for s in (pl._S2_NOISE_SC, pl._S2_NOISE_ST)]
    joint = [copy.deepcopy(m) for m in models]
    opt = ad.Adam({f"{side}.{name}": t for side, m in zip(("sc", "st"), joint)
                   for name, t in m.params().items()}, lr=cfg.learning_rate)
    rngs = [pl._rng(cfg.seed, s) for s in (pl._S2_NOISE_SC, pl._S2_NOISE_ST)]
    for step in range(3):
        expected = {}
        for side, model, o, x, rng, label, a in zip(("sc", "st"), ref, ref_opts, (x_sc, x_st),
                                                    ref_rngs, (0.0, 1.0), (anchor, None)):
            terms = ad.train_step(o, lambda: side_terms(model, x, pl._noise(cfg, x, rng),
                                                        label, a), f"step {step}")
            expected.update({f"{name}_{side}": v for name, v in terms.items()})
        got = pl._generator_step(cfg, opt, joint, (x_sc, x_st), rngs, anchor, d_params,
                                 f"step {step}")
        assert list(got) == ["total", *expected]
        assert [got[name] for name in expected] == list(expected.values())
        assert got["total"] == expected["total_sc"] + expected["total_st"]
    for side, m, o in zip(("sc", "st"), ref, ref_opts):
        assert opt.t == o.t == 3
        for name, t in m.params().items():
            key = f"{side}.{name}"
            assert opt.params[key].data.tobytes() == t.data.tobytes(), key
            assert opt.m[key].tobytes() == o.m[name].tobytes(), key
            assert opt.v[key].tobytes() == o.v[name].tobytes(), key


def test_stage2_records_zero_weight_terms(tmp_path, corpus):
    # a zero weight drops a term from the total, not from the history: the
    # ablation's anchor and adversarial columns hold the terms, and row 0
    # (before any generator update) equals a default-weight run's
    histories = []
    for name, over in (("ablation", dict(w_anchor_sc=0.0, w_adv=0.0)), ("default", {})):
        cfg = tiny_cfg(s2_epochs=2, s2b_epochs=1, **over)
        run = pl.RunDir(tmp_path / name)
        z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
        pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"], corpus["x_st"], corpus["st_ids"],
                  z1, run)
        histories.append(pl.read_history(run.path("history", "stage2.csv")))
    (header, ablation), (_, default) = histories
    for column in ("anchor_sc", "adv_sc", "adv_st"):
        i = header.index(column)
        assert all(row[i] > 0 for row in ablation), column
        assert ablation[0][i] == default[0][i], column


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
                                       exp_hidden=(16, 8)),
                         pl._rng(cfg.seed, pl._S3_INIT))
    noise_rng = pl._rng(cfg.seed, pl._S3_NOISE)
    neg_rng = pl._rng(cfg.seed, pl._S3_NEGATIVES)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)
    standalone = []
    for _ in range(5):
        noise = noise_rng.normal(size=(corpus["x_st"].shape[0], 4))
        neg = vg.sample_negatives(graph.keys, graph.n, len(graph.keys), neg_rng)
        opt.zero_grad()
        with ad.Tape():
            exp, sp, adj, kl, mu = vg.vgae_loss(model, graph, corpus["x_st"],
                                                transform.normalize(corpus["coords"]), noise, neg)
            # the default weights are not 1, so this pins stage 3's association order
            total = ad.add(ad.add(ad.scale(exp, cfg.w_recon_exp), ad.scale(sp, cfg.w_recon_sp)),
                           ad.add(ad.scale(adj, cfg.w_recon_adj), ad.scale(kl, cfg.kl_weight)))
            anchor = pl.euclidean_latent_loss(mu, z_st.codes)
            total = ad.add(total, ad.scale(anchor, 0.0))
            ad.backward(total)
        ad.adam_step(opt)
        standalone.append(total.item())
    got = [row[header.index("total")] for row in rows]
    assert got == pytest.approx(standalone, abs=0.0)


def test_stage3_step_peak_memory():
    # one stage-3 step at the default sizes (500 genes, latent 10, hidden
    # 128 and 64) on a 32 x 32 grid, the loss built as stage 3 builds it.
    # Measured tracemalloc peak: 9.47 MB, against 11.86 MB while the tape
    # kept every op output; the bound leaves 10% above the measured value
    from latentmap import vgae as vg

    side = 32
    coords = np.array([[float(x), float(y)] for y in range(side) for x in range(side)])
    rng = np.random.default_rng(0)
    x = np.log1p(rng.poisson(1.0, size=(side * side, 500)).astype(float))
    cfg = pl.TrainConfig()
    anchor = rng.normal(size=(len(x), cfg.latent_dim))
    graph = vg.build_knn_graph(coords, k=cfg.graph_k)
    coords_n = vg.fit_coord_transform(coords).normalize(coords)
    model = vg.init_vgae(vg.VgaeConfig(n_genes=500, latent_dim=cfg.latent_dim,
                                       exp_hidden=cfg.enc_hidden), 0)
    opt = ad.Adam(model.params(), lr=cfg.learning_rate)

    def loss():
        noise = rng.normal(size=(len(x), cfg.latent_dim))
        neg = vg.sample_negatives(graph.keys, graph.n, len(graph.keys), rng)
        exp, sp, adj, kl, mu = vg.vgae_loss(model, graph, x, coords_n, noise, neg)
        total = ad.add(ad.add(ad.scale(exp, cfg.w_recon_exp), ad.scale(sp, cfg.w_recon_sp)),
                       ad.add(ad.scale(adj, cfg.w_recon_adj), ad.scale(kl, cfg.kl_weight)))
        return {"total": ad.add(total, ad.scale(pl.euclidean_latent_loss(mu, anchor),
                                                cfg.w_anchor_st))}

    _, peak = traced_peak(lambda: ad.train_step(opt, loss, "stage 3 memory test"))
    assert peak < 1.1 * 9.47e6, peak


def test_infer_empty_query(tmp_path, corpus):
    cfg = tiny_cfg()
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    _, z_st = pl.stage2(cfg, corpus["x_sc"], corpus["sc_ids"], corpus["x_st"],
                        corpus["st_ids"], z1, run)
    pl.stage3(cfg, corpus["x_st"], corpus["st_ids"], corpus["coords"], z_st, run)
    x_hat, coords_norm, _ = pl.infer(run, np.zeros((0, len(corpus["panel"]))))
    assert x_hat.shape == (0, len(corpus["panel"]))
    assert coords_norm.shape == (0, 2)


def test_stage2_id_mismatch_rejected(tmp_path, corpus):
    cfg = tiny_cfg()
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(cfg, corpus["x_big"], corpus["sc_ids"], run)
    bad_ids = list(corpus["sc_ids"])
    bad_ids[0] = "intruder"
    with pytest.raises(DataError, match="cell ids"):
        pl.stage2(cfg, corpus["x_sc"], bad_ids, corpus["x_st"], corpus["st_ids"], z1, run)


def test_stage2_names_the_frozen_latent_by_its_file(tmp_path, corpus):
    # the Python-API path names the latent as a reload from latents/ does
    run = pl.RunDir(tmp_path / "run")
    z1 = pl.stage1(tiny_cfg(s1_epochs=2), corpus["x_big"], corpus["sc_ids"], run)
    assert z1.source == run.load_latent("z_sc2000.csv").source == "z_sc2000"
    with pytest.raises(DataError, match="the fixed z_sc2000 latent is 4 wide, but latent_dim is 6"):
        pl.stage2(tiny_cfg(latent_dim=6), corpus["x_sc"], corpus["sc_ids"], corpus["x_st"],
                  corpus["st_ids"], z1, run)
    bad_ids = ["intruder", *corpus["sc_ids"][1:]]
    with pytest.raises(DataError, match="cell ids do not match the rows of the fixed z_sc2000"):
        pl.stage2(tiny_cfg(), corpus["x_sc"], bad_ids, corpus["x_st"], corpus["st_ids"], z1, run)
