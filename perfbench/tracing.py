"""Span and count recording around the public functions of latentmap's modules.

Every latentmap module calls its collaborators through module attributes
(``ad.backward``, ``vg.vgae_encode``, ``nn.save_checkpoint``, ``pl.stage1``
from ``run_stage``) or through its own module globals, so replacing the
attribute with a wrapper sees every call. Nothing under ``src/`` changes:
the wrappers are installed only for the traced run and removed afterwards.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the top). Spans and counts stay in memory until the
run writes them out.
"""

import functools
import inspect
import json
import os
import time
from collections import Counter

# Modules wrapped, by import name; each public function becomes a span
# named "<module>.<function>".
MODULES = ("autodiff", "vae", "vgae", "discriminator", "layers", "dataio",
           "preprocess", "synth", "pipeline", "cli")

# Private helpers that carry a per-layer metric of their own.
EXTRA_FUNCTIONS = {"pipeline": ("_pretrain_shared_init", "_generator_step")}

# Constructors called for nearly every array; wrapping them would only add overhead.
SKIP = {"autodiff.tensor", "autodiff.constant"}

# Spans that set the scope under which Tape.record calls and matmul shapes
# are counted.
SCOPES = ("pipeline.stage1", "pipeline._pretrain_shared_init", "pipeline.stage2",
          "pipeline.stage3")


class Tracer:
    """Records spans and counts while installed; restores every wrapped name on removal."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.scope = None
        self.op_start = 0
        self.setup_counts = Counter()
        self.matmul_shapes = {}  # scope -> [(a_shape, a_grad, b_shape, b_grad)] of its first step
        self._stack = []
        self._undo = []
        self._step_done = set()

    # -- installation -----------------------------------------------------

    def install(self, package):
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            names = [n for n, obj in vars(module).items()
                     if inspect.isfunction(obj) and obj.__module__ == module.__name__
                     and not n.startswith("_")]
            names += EXTRA_FUNCTIONS.get(mod_name, ())
            for name in names:
                span = f"{mod_name}.{name}"
                if span not in SKIP:
                    self._wrap(module, name, span)
        ad = package.autodiff
        self._wrap_record(ad.Tape)
        return self

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def _wrap(self, owner, attr, span_name):
        original = getattr(owner, attr)
        after = _AFTER.get(span_name) or _dataio_after(span_name)
        is_scope = span_name in SCOPES
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [span_name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            outer_scope = self.scope
            if is_scope:
                self.scope = span_name
            try:
                result = original(*args, **kwargs)
                span[2] = clock()
                if after is not None:
                    after(self, idx, args, kwargs, result)
                return result
            finally:
                if span[2] is None:
                    span[2] = clock()
                self.scope = outer_scope
                stack.pop()

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap_record(self, tape_cls):
        original = tape_cls.record
        tracer = self

        def record(tape, out, rules):
            tracer.counts[f"tape_records.{tracer.scope}"] += 1
            return original(tape, out, rules)

        tape_cls.record = record
        self._undo.append((tape_cls, "record", original))

    def start_ops(self):
        """Mark the end of set-up: later metrics use counts and shapes from here on."""
        self.op_start = len(self.spans)
        self.setup_counts = self.counts.copy()
        self.matmul_shapes.clear()
        self._step_done.clear()

    def op_counts(self):
        return self.counts - self.setup_counts

    # -- output -----------------------------------------------------------

    def dump(self, path):
        """Write spans (name, start, end, parent) and counts as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
            fh.write("\n")


# ---------------------------------------------------------------------------
# counts taken from arguments and results at the wrapped boundaries
# ---------------------------------------------------------------------------

OP_KINDS = ("matmul", "add", "sub", "mul", "scale", "add_scalar", "relu", "exp", "square",
            "sqrt", "transpose", "tsum", "tmean", "sum_cols", "concat_cols", "gather_pairs",
            "bce_with_logits")


def _file_bytes(key):
    def after(tracer, idx, args, kwargs, result):
        path = args[0] if args else kwargs.get("path")
        tracer.counts[key] += os.path.getsize(path)
    return after


def _dataio_after(span_name):
    """Bytes of the file a dataio reader or writer touched, for outermost dataio calls only."""
    module, _, func = span_name.partition(".")
    if module != "dataio" or not func.startswith(("read_", "write_")):
        return None
    key = "dataio_bytes." + func.split("_")[0]
    file_bytes = _file_bytes(key)

    def after(tracer, idx, args, kwargs, result):
        parent = tracer.spans[idx][3]
        if parent < 0 or not tracer.spans[parent][0].startswith("dataio."):
            file_bytes(tracer, idx, args, kwargs, result)
    return after


def _op_bytes(kind):
    key = f"op_bytes.{kind}"

    def after(tracer, idx, args, kwargs, result):
        tracer.counts[key] += result.data.nbytes
    return after


def _matmul_after(tracer, idx, args, kwargs, result):
    tracer.counts["op_bytes.matmul"] += result.data.nbytes
    scope = tracer.scope
    if scope is not None and scope not in tracer._step_done:
        a, b = args[0], args[1]
        tracer.matmul_shapes.setdefault(scope, []).append(
            (a.shape, a.requires_grad, b.shape, b.requires_grad))


def _adam_after(tracer, idx, args, kwargs, result):
    # the first optimizer step of a scope closes its shape capture
    if tracer.scope is not None:
        tracer._step_done.add(tracer.scope)


def _gather_after(tracer, idx, args, kwargs, result):
    tracer.counts["op_bytes.gather_pairs"] += result.data.nbytes
    tracer.counts["logits_gathered"] += result.data.size
    tracer.counts["logits_total"] += args[0].data.size


def _sample_negatives_after(tracer, idx, args, kwargs, result):
    tracer.counts["negatives_sampled"] += len(result)
    tracer.counts["negatives_enumerated"] += len(args[0])


def _knn_after(tracer, idx, args, kwargs, result):
    tracer.counts["edges"] += len(result.edges)


def _train_disc_after(tracer, idx, args, kwargs, result):
    _, acc, steps = result
    tracer.counts["disc_inner_steps"] += steps
    if acc >= kwargs.get("alpha", 0.9):
        tracer.counts["disc_target_reached"] += 1


_AFTER = {f"autodiff.{k}": _op_bytes(k) for k in OP_KINDS}
_AFTER.update({
    "autodiff.matmul": _matmul_after,
    "autodiff.gather_pairs": _gather_after,
    "autodiff.adam_step": _adam_after,
    "vgae.sample_negatives": _sample_negatives_after,
    "vgae.build_knn_graph": _knn_after,
    "discriminator.train_discriminator": _train_disc_after,
    "layers.save_checkpoint": _file_bytes("save_checkpoint_bytes"),
    "layers.load_checkpoint": _file_bytes("load_checkpoint_bytes"),
})
