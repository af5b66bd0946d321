import hashlib
import io
import json

import numpy as np
import pytest

from latentmap import layers as nn
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
    assert set(header) == {"format_version", "kind", "arch", "extra", "arrays_sha256"}
    assert header["format_version"] == 2 and header["kind"] == "vae"
    arch, arrays, extra = nn.load_checkpoint(tmp_path / "m.json", expect_kind="vae")
    assert extra is None
    assert_bit_equal(p_vae.params(), arrays)
    with np.load(tmp_path / "m.npz", allow_pickle=False) as npz:
        assert sorted(npz.files) == sorted(p_vae.params())
    assert not list(tmp_path.glob("*.tmp"))


def test_wrong_kind_rejected(tmp_path):
    _, p_vgae = tiny_models(5)
    vgae.save_vgae(tmp_path / "g.json", p_vgae)
    with pytest.raises(DataError, match="kind 'vgae', expected 'vae'"):
        vae.load_vae(tmp_path / "g.json")


def test_version_1_checkpoint_rejected_naming_file(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "vae", "arch": {},
                                "params": {"enc.0.w": {"shape": [1], "values": [0.5]}}}))
    with pytest.raises(DataError, match=r"old\.json.*format_version 1.*retrain"):
        nn.load_checkpoint(path, expect_kind="vae")


def test_arrays_of_another_model_fail_the_sha256_check(tmp_path):
    a, _ = tiny_models(6)
    b, _ = tiny_models(7)
    vae.save_vae(tmp_path / "a.json", a)
    vae.save_vae(tmp_path / "b.json", b)
    (tmp_path / "a.npz").write_bytes((tmp_path / "b.npz").read_bytes())
    with pytest.raises(DataError, match=r"a\.npz.*sha256.*a\.json"):
        vae.load_vae(tmp_path / "a.json")


def test_missing_arrays_file_is_a_dependency_error(tmp_path):
    a, _ = tiny_models(8)
    vae.save_vae(tmp_path / "a.json", a)
    (tmp_path / "a.npz").unlink()
    with pytest.raises(DependencyError, match=r"a\.npz"):
        vae.load_vae(tmp_path / "a.json")


def _write_with_header(path, arrays):
    """An arrays file with a header whose sha256 matches it (bypassing save_checkpoint)."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    blob = buf.getvalue()
    path.with_suffix(".npz").write_bytes(blob)
    path.write_text(json.dumps({"format_version": 2, "kind": "vae", "arch": {}, "extra": None,
                                "arrays_sha256": hashlib.sha256(blob).hexdigest()}))


def test_object_dtype_arrays_refused(tmp_path):
    path = tmp_path / "obj.json"
    _write_with_header(path, {"enc.0.w": np.array([1.0, "x"], dtype=object)})
    with pytest.raises(DataError, match=r"obj\.npz.*allow_pickle"):
        nn.load_checkpoint(path)


def test_non_float64_arrays_refused(tmp_path):
    path = tmp_path / "f32.json"
    _write_with_header(path, {"enc.0.w": np.ones(3, dtype=np.float32)})
    with pytest.raises(DataError, match="float32"):
        nn.load_checkpoint(path)


def test_header_path_must_not_be_the_arrays_path(tmp_path):
    a, _ = tiny_models(9)
    with pytest.raises(DataError, match=r"\.npz"):
        vae.save_vae(tmp_path / "a.npz", a)


@pytest.mark.parametrize("field,value", [("kind", None), ("kind", 3), ("arch", None),
                                         ("arch", [4]), ("arrays_sha256", None)])
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
