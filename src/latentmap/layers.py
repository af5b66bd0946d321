"""Linear layers, seeded initialization, and JSON parameter checkpoints."""

import json

import numpy as np

from . import autodiff as ad
from . import dataio
from .errors import DataError, ShapeError

CHECKPOINT_FORMAT_VERSION = 1


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

def save_checkpoint(path, kind, arch, params, extra=None):
    """Write a versioned JSON checkpoint.

    Float values go through json's repr-based encoding, which round-trips
    float64 exactly; sort_keys keeps the field order deterministic.
    """
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "arch": arch,
        "params": {
            name: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in params.items()
        },
    }
    if extra:
        payload["extra"] = extra
    dataio.atomic_write(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def load_checkpoint(path, expect_kind=None):
    """Read a checkpoint back into (arch, {name: ndarray}, extra)."""
    with open(path) as fh:
        payload = json.load(fh)
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint format_version {version!r}")
    if expect_kind is not None and payload.get("kind") != expect_kind:
        raise DataError(f"{path}: checkpoint kind {payload.get('kind')!r}, expected {expect_kind!r}")
    params = {}
    for name, rec in payload["params"].items():
        arr = np.asarray(rec["values"], dtype=np.float64).reshape(rec["shape"])
        params[name] = arr
    return payload["arch"], params, payload.get("extra")


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
