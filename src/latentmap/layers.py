"""Linear layers, seeded initialization, and parameter checkpoints.

A checkpoint is two files: a small JSON header (format version, kind,
architecture, extra metadata, sha256 of the arrays) at the given path, and
a sibling ``.npz`` with one float64 array per parameter.
"""

import hashlib
import io
import os

import numpy as np

from . import autodiff as ad
from . import dataio
from .errors import DataError, DependencyError, ShapeError

CHECKPOINT_FORMAT_VERSION = 2


class Dense:
    """Affine map x @ w + b with trainable weight and bias tensors."""

    def __init__(self, w, b):
        self.w = w
        self.b = b

    def __call__(self, x):
        return ad.add(ad.matmul(x, self.w), self.b)

    @property
    def n_in(self):
        return self.w.shape[0]

    @property
    def n_out(self):
        return self.w.shape[1]


def init_dense(rng, n_in, n_out, gain=None):
    """He-style init: w ~ N(0, gain/n_in), zero bias. gain defaults to 2 (ReLU)."""
    if gain is None:
        gain = 2.0
    std = np.sqrt(gain / n_in)
    w = ad.tensor(rng.normal(0.0, std, size=(n_in, n_out)), requires_grad=True)
    b = ad.tensor(np.zeros(n_out), requires_grad=True)
    return Dense(w, b)


def mlp_forward(layers, x, final_linear=True):
    """Chain of Dense layers with ReLU between them; last layer linear by default."""
    h = x
    for i, layer in enumerate(layers):
        h = layer(h)
        if i < len(layers) - 1 or not final_linear:
            h = ad.relu(h)
    return h


def dense_params(prefix, layer):
    return {f"{prefix}.w": layer.w, f"{prefix}.b": layer.b}


def collect_params(named_layers):
    """Merge {prefix: Dense} into a flat name -> Tensor dict (stable order)."""
    out = {}
    for prefix, layer in named_layers:
        out.update(dense_params(prefix, layer))
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def arrays_path(path):
    """The ``.npz`` arrays file that belongs to the checkpoint header at ``path``."""
    root, ext = os.path.splitext(os.fspath(path))
    if ext == ".npz":
        raise DataError(f"{path}: a checkpoint header cannot end in .npz")
    return root + ".npz"


def save_checkpoint(path, kind, arch, params, extra=None):
    """Write a versioned checkpoint: a JSON header plus a sibling ``.npz``.

    The arrays go first; the header, which holds their sha256, is written
    last and is the commit point. ``np.savez`` stamps every zip entry with a
    fixed date, and the header names no file, so one model saved twice (under
    any name) gives identical bytes.
    """
    buf = io.BytesIO()
    np.savez(buf, **{name: np.asarray(t.data, dtype=np.float64) for name, t in params.items()})
    blob = buf.getvalue()
    dataio.atomic_write(arrays_path(path), blob)
    header = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "arch": arch,
        "extra": extra or None,
        "arrays_sha256": hashlib.sha256(blob).hexdigest(),
    }
    dataio.write_json(path, header)


def load_checkpoint(path, expect_kind=None):
    """Read a checkpoint back into (arch, {name: ndarray}, extra)."""
    header = dataio.read_json(path)
    version = header.get("format_version")
    if version == 1:
        raise DataError(f"{path}: checkpoint format_version 1 (float-list JSON) is no "
                        "longer read; retrain this run directory")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format_version {version!r}")
    if expect_kind is not None and header.get("kind") != expect_kind:
        raise DataError(f"{path}: checkpoint kind {header.get('kind')!r}, expected {expect_kind!r}")
    npz = arrays_path(path)
    try:
        with open(npz, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise DependencyError(f"missing checkpoint arrays file: {npz}") from None
    if hashlib.sha256(blob).hexdigest() != header.get("arrays_sha256"):
        raise DataError(f"{npz}: sha256 does not match the one recorded in {path}")
    try:
        with np.load(io.BytesIO(blob), allow_pickle=False) as arrays:
            params = {name: arrays[name] for name in arrays.files}
    except ValueError as exc:
        raise DataError(f"{npz}: {exc}") from None
    for name, arr in params.items():
        if arr.dtype != np.float64:
            raise DataError(f"{npz}: parameter '{name}' has dtype {arr.dtype}, expected float64")
    return header["arch"], params, header.get("extra")


def restore_params(params, arrays):
    """Copy checkpoint arrays into live tensors, validating names and shapes."""
    missing = sorted(set(params) - set(arrays))
    extra = sorted(set(arrays) - set(params))
    if missing or extra:
        raise DataError(f"checkpoint parameter mismatch: missing {missing}, unexpected {extra}")
    for name, t in params.items():
        arr = arrays[name]
        if tuple(arr.shape) != tuple(t.data.shape):
            raise ShapeError(f"checkpoint parameter '{name}': shape {arr.shape} vs {t.data.shape}")
        t.data[...] = arr
