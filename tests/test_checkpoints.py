import hashlib
import json

import numpy as np
import pytest

from latentmap import discriminator, layers as nn
from latentmap import vae, vgae
from latentmap.errors import DataError, DependencyError


def tiny_models(seed):
    p_vae = vae.init_vae(vae.VaeConfig(n_genes=12, latent_dim=4, enc_hidden=(8, 6)), seed)
    p_vgae = vgae.init_vgae(vgae.VgaeConfig(n_genes=12, latent_dim=4, exp_hidden=(8,),
                                            gcn_hidden=6, coord_hidden=(5,)),
                            seed)
    return p_vae, p_vgae


def assert_bit_equal(params, arrays):
    assert sorted(params) == sorted(arrays)
    for name, t in params.items():
        assert arrays[name].dtype == np.float64
        assert arrays[name].shape == t.data.shape
        assert arrays[name].tobytes() == t.data.tobytes(), name


def test_round_trip_is_bit_exact_for_every_kind(tmp_path, monkeypatch):
    p_vae, p_vgae = tiny_models(3)
    for p in (p_vae, p_vgae):
        first = next(iter(p.params().values()))
        first.data.flat[0] = -0.0
        first.data.flat[1] = 5e-324
    extra = {"coord_transform": {"center": [0.1, -2.5], "scale": 1e-300}}

    vae.save_vae(tmp_path / "vae.json", p_vae)
    vgae.save_vgae(tmp_path / "vgae.json", p_vgae, extra=extra)

    def no_rng(*args):
        raise AssertionError("a checkpoint load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    q_vae = vae.load_vae(tmp_path / "vae.json")
    q_vgae, q_extra = vgae.load_vgae(tmp_path / "vgae.json")
    for p, q in ((p_vae, q_vae), (p_vgae, q_vgae)):
        assert_bit_equal(p.params(), {k: t.data for k, t in q.params().items()})
        assert np.signbit(next(iter(q.params().values())).data.flat[0])
    assert q_extra == extra
    assert q_vgae.cfg == p_vgae.cfg


@pytest.mark.parametrize("key,value,error", [("enc_hidden", [8], DataError),
                                             ("n_genes", 13, DataError)])
def test_load_checks_names_and_shapes_against_the_arch(tmp_path, key, value, error):
    p_vae, _ = tiny_models(6)
    vae.save_vae(tmp_path / "m.json", p_vae)
    header = json.loads((tmp_path / "m.json").read_text())
    header["arch"][key] = value
    (tmp_path / "m.json").write_text(json.dumps(header))
    with pytest.raises(error, match="checkpoint parameter"):
        vae.load_vae(tmp_path / "m.json")


def test_header_is_small_json_and_arrays_sit_beside_it(tmp_path):
    p_vae, _ = tiny_models(4)
    vae.save_vae(tmp_path / "m.json", p_vae)
    header = json.loads((tmp_path / "m.json").read_text())
    assert set(header) == {"format_version", "kind", "arch", "extra", "params", "arrays_sha256"}
    assert header["format_version"] == 3 and header["kind"] == "vae"
    params = p_vae.params()
    assert header["params"] == [[name, list(t.shape)] for name, t in params.items()]
    model, extra = nn.load_checkpoint(tmp_path / "m.json", "vae", vae.VaeConfig, vae.VaeParams)
    assert extra is None
    loaded = model.params()
    assert [(name, t.shape) for name, t in loaded.items()] == [
        (name, t.shape) for name, t in params.items()]
    # the block is every parameter in params() order, little-endian float64, nothing else
    block = (tmp_path / "m.f64").read_bytes()
    assert block == b"".join(t.data.astype("<f8").tobytes() for t in params.values())
    assert b"".join(t.data.astype("<f8").tobytes() for t in loaded.values()) == block
    assert not list(tmp_path.glob("*.tmp"))


def test_wrong_kind_rejected(tmp_path):
    _, p_vgae = tiny_models(5)
    vgae.save_vgae(tmp_path / "g.json", p_vgae)
    with pytest.raises(DataError, match="kind 'vgae', expected 'vae'"):
        vae.load_vae(tmp_path / "g.json")


def test_version_2_checkpoint_rejected_naming_file(tmp_path):
    path = tmp_path / "npz.json"
    path.write_text(json.dumps({"format_version": 2, "kind": "vae", "arch": {}, "extra": None,
                                "arrays_sha256": "0" * 64}))
    with pytest.raises(DataError, match=r"npz\.json.*format_version 2.*retrain"):
        nn.load_checkpoint(path, "vae", vae.VaeConfig, vae.VaeParams)


def test_version_1_checkpoint_rejected_naming_file(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "vae", "arch": {},
                                "params": {"enc.0.w": {"shape": [1], "values": [0.5]}}}))
    with pytest.raises(DataError, match=r"old\.json.*format_version 1.*retrain"):
        nn.load_checkpoint(path, "vae", vae.VaeConfig, vae.VaeParams)


def test_arrays_of_another_model_fail_the_sha256_check(tmp_path):
    a, _ = tiny_models(6)
    b, _ = tiny_models(7)
    vae.save_vae(tmp_path / "a.json", a)
    vae.save_vae(tmp_path / "b.json", b)
    (tmp_path / "a.f64").write_bytes((tmp_path / "b.f64").read_bytes())
    with pytest.raises(DataError, match=r"a\.f64.*sha256.*a\.json"):
        vae.load_vae(tmp_path / "a.json")


def test_missing_arrays_file_is_a_dependency_error(tmp_path):
    a, _ = tiny_models(8)
    vae.save_vae(tmp_path / "a.json", a)
    (tmp_path / "a.f64").unlink()
    with pytest.raises(DependencyError, match=r"a\.f64"):
        vae.load_vae(tmp_path / "a.json")


def test_unreadable_arrays_file_is_a_data_error_naming_it(tmp_path):
    a, _ = tiny_models(8)
    vae.save_vae(tmp_path / "a.json", a)
    (tmp_path / "a.f64").unlink()
    (tmp_path / "a.f64").mkdir()
    with pytest.raises(DataError, match=r"a\.f64: cannot read"):
        vae.load_vae(tmp_path / "a.json")


def test_block_length_must_match_the_listed_shapes(tmp_path):
    # a block one value short, with a header whose sha256 matches it
    p_vae, _ = tiny_models(10)
    path = tmp_path / "short.json"
    vae.save_vae(path, p_vae)
    block = (tmp_path / "short.f64").read_bytes()[:-8]
    (tmp_path / "short.f64").write_bytes(block)
    header = json.loads(path.read_text())
    header["arrays_sha256"] = hashlib.sha256(block).hexdigest()
    path.write_text(json.dumps(header))
    expected = 8 * sum(t.size for t in p_vae.params().values())
    with pytest.raises(DataError, match=rf"short\.f64: {expected - 8} bytes.*short\.json.*{expected}"):
        nn.load_checkpoint(path, "vae", vae.VaeConfig, vae.VaeParams)


@pytest.mark.parametrize("change", ["swap", "rename", "reshape"])
def test_layout_other_than_the_models_is_refused_naming_the_header(tmp_path, change):
    # the block still holds exactly the values the header lists
    p_vae, _ = tiny_models(11)
    path = tmp_path / "m.json"
    vae.save_vae(path, p_vae)
    header = json.loads(path.read_text())
    params = header["params"]
    if change == "swap":
        params[0], params[1] = params[1], params[0]
    elif change == "rename":
        params[0][0] = "encoder0.w"
    else:
        params[0][1] = params[0][1][::-1]
    path.write_text(json.dumps(header))
    # every check of the header and the block comes before this one, so they all passed
    with pytest.raises(DataError, match=r"m\.json: checkpoint parameters do not match the vae"):
        nn.load_checkpoint(path, "vae", vae.VaeConfig, vae.VaeParams)
    with pytest.raises(DataError, match=r"m\.json: checkpoint parameters do not match the vae"):
        vae.load_vae(path)


def test_header_path_must_not_be_the_arrays_path(tmp_path):
    a, _ = tiny_models(9)
    with pytest.raises(DataError, match=r"\.f64"):
        vae.save_vae(tmp_path / "a.f64", a)


@pytest.mark.parametrize("field,value", [("kind", None), ("kind", 3), ("arch", None),
                                         ("arch", [4]), ("params", None), ("params", {}),
                                         ("arrays_sha256", None)])
def test_header_fields_are_type_checked(tmp_path, field, value):
    p_vae, _ = tiny_models(1)
    path = tmp_path / "vae.json"
    vae.save_vae(path, p_vae)
    header = json.loads(path.read_text())
    if value is None:
        del header[field]
    else:
        header[field] = value
    path.write_text(json.dumps(header))
    with pytest.raises(DataError, match=f"vae.json: checkpoint header field '{field}'"):
        vae.load_vae(path)


@pytest.mark.parametrize("kind", ["vae", "vgae"])
def test_missing_arch_key_names_the_header(tmp_path, kind):
    p_vae, p_vgae = tiny_models(2)
    path = tmp_path / f"{kind}.json"
    save, load, key = {"vae": (vae.save_vae, vae.load_vae, "n_genes"),
                       "vgae": (vgae.save_vgae, vgae.load_vgae, "gcn_hidden")}[kind]
    save(path, {"vae": p_vae, "vgae": p_vgae}[kind])
    header = json.loads(path.read_text())
    del header["arch"][key]
    path.write_text(json.dumps(header))
    with pytest.raises(DataError, match=f"{kind}.json: bad checkpoint header: KeyError: '{key}'"):
        load(path)


def test_params_entries_are_type_checked(tmp_path):
    p_vae, _ = tiny_models(1)
    path = tmp_path / "vae.json"
    vae.save_vae(path, p_vae)
    header = json.loads(path.read_text())
    header["params"][0][1] = [8.0, 8]
    path.write_text(json.dumps(header))
    with pytest.raises(DataError, match="vae.json: checkpoint header field 'params'"):
        vae.load_vae(path)


def test_models_without_hidden_layers_round_trip(tmp_path):
    p_vae = vae.init_vae(vae.VaeConfig(n_genes=12, latent_dim=4, enc_hidden=()), 5)
    p_vgae = vgae.init_vgae(vgae.VgaeConfig(n_genes=12, latent_dim=4, exp_hidden=(),
                                            gcn_hidden=6, coord_hidden=()), 5)
    assert "enc0.w" not in p_vae.params() and p_vae.mu_head.w.shape == (12, 4)
    vae.save_vae(tmp_path / "vae.json", p_vae)
    vgae.save_vgae(tmp_path / "vgae.json", p_vgae)
    q_vae = vae.load_vae(tmp_path / "vae.json")
    q_vgae, _ = vgae.load_vgae(tmp_path / "vgae.json")
    for p, q in ((p_vae, q_vae), (p_vgae, q_vgae)):
        assert q.cfg == p.cfg
        assert_bit_equal(p.params(), {k: t.data for k, t in q.params().items()})


def test_params_names_are_pinned():
    # checkpoints and optimizers key on these names, in this order
    p_vae, p_vgae = tiny_models(0)
    assert list(p_vae.params()) == [
        "enc0.w", "enc0.b", "enc1.w", "enc1.b", "mu.w", "mu.b", "logvar.w", "logvar.b",
        "dec0.w", "dec0.b", "dec1.w", "dec1.b", "out.w", "out.b"]
    assert list(p_vgae.params()) == [
        "exp0.w", "exp0.b", "exp1.w", "exp1.b", "merge.w", "merge.b", "mu.w", "mu.b",
        "logvar.w", "logvar.b", "dec0.w", "dec0.b", "out.w", "out.b", "coord0.w", "coord0.b",
        "coord_head.w", "coord_head.b", "gcn.w1", "gcn.w2"]
    p_disc = discriminator.init_discriminator(4, 0)
    assert list(p_disc.params()) == [
        "h0.w", "h0.b", "h1.w", "h1.b", "h2.w", "h2.b", "head.w", "head.b"]
