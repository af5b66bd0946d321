"""Linear layers, seeded initialization, and parameter checkpoints.

A model is described by its ``params()``, an ordered name -> Tensor dict.
A checkpoint is a small JSON header (format version, kind, architecture,
extra metadata, the ``params()`` names and shapes, sha256 of the block) at
the given path, and a sibling ``.f64``: every parameter in ``params()``
order as one little-endian float64 block.
"""

import dataclasses
import hashlib
import math
import os

import numpy as np

from . import autodiff as ad
from . import dataio
from .errors import DataError

CHECKPOINT_FORMAT_VERSION = 3


class Dense:
    """Affine map x @ w + b with trainable weight and bias tensors."""

    def __init__(self, w, b):
        self.w = w
        self.b = b

    def __call__(self, x):
        return ad.matmul(x, self.w, bias=self.b)


def init_dense(rng, n_in, n_out, gain=2.0):
    """He-style init: w ~ N(0, gain/n_in), zero bias; the default gain suits ReLU."""
    std = np.sqrt(gain / n_in)
    w = ad.tensor(rng.normal(0.0, std, size=(n_in, n_out)), requires_grad=True)
    b = ad.tensor(np.zeros(n_out), requires_grad=True)
    return Dense(w, b)


def init_stack(rng, widths):
    """Dense layers widths[0] -> widths[1] -> ... -> widths[-1], drawn in order."""
    return [init_dense(rng, n_in, n_out) for n_in, n_out in zip(widths, widths[1:])]


class _Undrawn:
    """Stands in for a Generator when every parameter is about to be restored.

    ``normal`` returns zeros of the asked shape without drawing, so a model
    built for a checkpoint load costs no random numbers.
    """

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


UNDRAWN = _Undrawn()


def mlp_forward(layers, x, final_linear=True):
    """Chain of Dense layers with ReLU between them; last layer linear by default.

    Each ReLU runs in place on the product its layer just made, so a hidden
    layer holds one array; ``x`` itself is never written.
    """
    h = x
    for i, layer in enumerate(layers):
        h = layer(h)
        if i < len(layers) - 1 or not final_linear:
            h = ad.relu(h)
    return h


def collect_params(*named):
    """A flat name -> Tensor dict from (prefix, part) pairs, in order.

    A Tensor is named ``prefix``, a Dense ``prefix.w`` and ``prefix.b``, and
    the i-th Dense of a stack (a list) ``prefix{i}.w`` and ``prefix{i}.b``.
    """
    out = {}
    for prefix, part in named:
        if isinstance(part, ad.Tensor):
            out[prefix] = part
        elif isinstance(part, Dense):
            out.update({f"{prefix}.w": part.w, f"{prefix}.b": part.b})
        else:
            out.update(collect_params(*((f"{prefix}{i}", l) for i, l in enumerate(part))))
    return out


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def arrays_path(path):
    """The ``.f64`` arrays file that belongs to the checkpoint header at ``path``."""
    root, ext = os.path.splitext(os.fspath(path))
    if ext == ".f64":
        raise DataError(f"{path}: a checkpoint header cannot end in .f64")
    return root + ".f64"


def save_checkpoint(path, kind, model, extra=None):
    """Write ``model``'s versioned checkpoint: a JSON header plus the sibling ``.f64`` block.

    The header's arch is ``model.cfg``, a dataclass of ints and int tuples.
    The block goes first; the header, which holds its sha256, is written
    last and is the commit point. The header names no file, so one model
    saved twice (under any name) gives identical bytes.
    """
    params = model.params()
    blob = b"".join(np.asarray(t.data, dtype="<f8").tobytes() for t in params.values())
    dataio.atomic_write(arrays_path(path), blob)
    dataio.write_json(path, {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "arch": dataclasses.asdict(model.cfg),
        "extra": extra or None,
        "params": [[name, list(t.data.shape)] for name, t in params.items()],
        "arrays_sha256": hashlib.sha256(blob).hexdigest(),
    })


def load_checkpoint(path, kind, cfg_cls, model_cls):
    """(model, extra) from a ``save_checkpoint`` checkpoint of ``kind``, with no weight drawn.

    The model is ``model_cls`` built on the header's arch, read into
    ``cfg_cls``, and the float64 block, read in one call by
    ``dataio.read_bytes``, fills its ``params()`` in order. A missing block
    is a DependencyError. A block that cannot be read, a header of another
    kind, a block whose sha256 differs from the header's or that is not 8
    bytes per listed value, a missing arch key, or a parameter layout other
    than the one the arch builds is a DataError naming the file.
    """
    header = dataio.read_json(path)
    version = header.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(f"{path}: checkpoint format_version {version!r} is not read; "
                        "retrain this run directory")
    for key, type_ in (("kind", str), ("arch", dict), ("params", list), ("arrays_sha256", str)):
        if not isinstance(header.get(key), type_):
            raise DataError(f"{path}: checkpoint header field '{key}' is missing or not a "
                            f"JSON {({dict: 'object', list: 'array'}).get(type_, 'string')}")
    if header["kind"] != kind:
        raise DataError(f"{path}: checkpoint kind {header['kind']!r}, expected {kind!r}")
    layout = from_header(path, lambda ps: [(name, tuple(shape)) for name, shape in ps],
                         header["params"])
    if not all(isinstance(name, str) and all(type(d) is int and d >= 0 for d in shape)
               for name, shape in layout):
        raise DataError(f"{path}: checkpoint header field 'params' must list [name, shape] pairs")
    block = arrays_path(path)
    blob = dataio.read_bytes(block)
    if hashlib.sha256(blob).hexdigest() != header["arrays_sha256"]:
        raise DataError(f"{block}: sha256 does not match the one recorded in {path}")
    expected = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(blob) != expected:
        raise DataError(f"{block}: {len(blob)} bytes, but the parameters listed in {path} "
                        f"take {expected}")

    def build(arch):
        cfg = cfg_cls(**{f.name: (tuple if f.type is tuple else int)(arch[f.name])
                         for f in dataclasses.fields(cfg_cls)})
        return model_cls(cfg, UNDRAWN)

    model = from_header(path, build, header["arch"])
    params = model.params()
    if [(name, t.shape) for name, t in params.items()] != layout:
        raise DataError(f"{path}: checkpoint parameters do not match the {kind} model "
                        "its arch builds")
    ends = np.cumsum([t.size for t in params.values()])
    for t, values in zip(params.values(), np.split(np.frombuffer(blob, dtype="<f8"), ends[:-1])):
        t.data[...] = values.reshape(t.shape)
    return model, header.get("extra")


def from_header(path, build, value):
    """``build(value)`` for a ``value`` read from the checkpoint header at ``path``.

    A missing key, a value of the wrong kind or range, or a size too large
    to allocate becomes a DataError naming the header.
    """
    try:
        return build(value)
    except (KeyError, TypeError, ValueError, OverflowError, MemoryError) as exc:
        raise DataError(f"{path}: bad checkpoint header: {type(exc).__name__}: {exc}") from None
