"""Per-layer metrics derived from one traced run's spans and counts.

Conventions: ``*_s`` is a total in seconds over the traced part of the run,
``*_ms`` a median in milliseconds per call or per training step (a step runs
from the start of its loss span to the end of the Adam update that follows),
``*_calls``/``*_evals``/``*_steps`` are counts, ``*_mb`` is a total in MB
(10^6 bytes) of files or of op outputs computed from their shapes.
``autodiff.op.<kind>.fwd_ms`` is the exception: the total forward time of
that op kind, so that small ops stay readable. A metric whose layer the
workload does not reach reads 0.
"""

import bisect
import statistics
import time
from collections import defaultdict

import numpy as np

from tracing import OP_KINDS

MB = 1e6

PER_LAYER = [
    ("cli.file_digest_s", "s"),
    ("cli.infer_self_s", "s"),
    ("pipeline.load_data_s", "s"),
    ("pipeline.stage1_s", "s"),
    ("pipeline.stage2_s", "s"),
    ("pipeline.stage3_s", "s"),
    ("pipeline.stage1_step_ms", "ms"),
    ("pipeline.stage2_pretrain_step_ms", "ms"),
    ("pipeline.stage2_generator_step_ms", "ms"),
    ("pipeline.stage3_step_ms", "ms"),
    ("pipeline.infer_ms", "ms"),
    ("autodiff.forward_s", "s"),
    ("autodiff.backward_s", "s"),
    ("autodiff.backward_calls", "count"),
    ("autodiff.adam_s", "s"),
    ("autodiff.adam_calls", "count"),
    ("autodiff.tape_entries_per_step.stage1", "count"),
    ("autodiff.tape_entries_per_step.stage3", "count"),
    ("autodiff.matmul_floor_ms.stage1", "ms"),
    ("autodiff.matmul_floor_ms.stage3", "ms"),
    ("autodiff.floor_ratio.stage1", "ratio"),
    ("autodiff.floor_ratio.stage3", "ratio"),
]
for _kind in OP_KINDS:
    PER_LAYER += [(f"autodiff.op.{_kind}.calls", "count"),
                  (f"autodiff.op.{_kind}.fwd_ms", "ms"),
                  (f"autodiff.op.{_kind}.out_mb", "MB")]
PER_LAYER += [
    ("vae.loss_ms", "ms"),
    ("vae.encode_mu_calls", "count"),
    ("vae.encode_mu_s", "s"),
    ("discriminator.train_s", "s"),
    ("discriminator.train_calls", "count"),
    ("discriminator.inner_steps", "count"),
    ("discriminator.target_reached_ratio", "fraction"),
    ("discriminator.accuracy_evals", "count"),
    ("discriminator.accuracy_s", "s"),
    ("discriminator.adv_loss_s", "s"),
    ("vgae.knn_build_s", "s"),
    ("vgae.loss_ms", "ms"),
    ("vgae.encode_ms", "ms"),
    ("vgae.decode_ms", "ms"),
    ("vgae.encode_calls_per_step", "count"),
    ("vgae.negative_candidates_calls", "count"),
    ("vgae.negative_candidates_ms", "ms"),
    ("vgae.negatives_used_ratio", "ratio"),
    ("vgae.logits_used_ratio", "ratio"),
    ("vgae.edges", "count"),
    ("layers.save_checkpoint_s", "s"),
    ("layers.save_checkpoint_mb", "MB"),
    ("layers.load_checkpoint_s", "s"),
    ("layers.load_checkpoint_mb", "MB"),
    ("dataio.read_s", "s"),
    ("dataio.read_mb", "MB"),
    ("dataio.write_s", "s"),
    ("dataio.write_mb", "MB"),
    ("preprocess.panel_matrix_s", "s"),
    ("synth.s", "s"),
    ("trace.overhead_pct", "%"),
    ("quality.region_hit_rate", "fraction"),
    ("quality.edge_auc", "fraction"),
]
UNITS = dict(PER_LAYER)

# Counts that depend only on the workload and seed, never on timing; two
# traced runs of one program with one seed must agree on them exactly.
EXACT_COUNTS = sorted(
    {n for n, unit in PER_LAYER if unit == "count"}
    | {f"autodiff.op.{k}.out_mb" for k in OP_KINDS}
    | {"layers.save_checkpoint_mb", "layers.load_checkpoint_mb",
       "dataio.read_mb", "dataio.write_mb", "vgae.negatives_used_ratio",
       "vgae.logits_used_ratio", "discriminator.target_reached_ratio"})

# Stage scopes whose per-step numbers are reported, with the loss span that opens a step.
STEP_SCOPES = {
    "stage1": ("pipeline.stage1", "vae.vae_loss"),
    "stage2_pretrain": ("pipeline._pretrain_shared_init", "vae.vae_loss"),
    "stage3": ("pipeline.stage3", "vgae.vgae_loss"),
}


def matmul_floor_ms(shapes, repeats=5):
    """Bare numpy ``@`` time for one step's matmuls: forward plus the vjp
    product of each operand that requires a gradient (the products the
    engine computes). Median over ``repeats`` passes, in ms."""
    if not shapes:
        return 0.0
    rng = np.random.default_rng(0)
    jobs = []
    for a_shape, a_grad, b_shape, b_grad in shapes:
        a = rng.standard_normal(a_shape)
        b = rng.standard_normal(b_shape)
        g = rng.standard_normal((a_shape[0], b_shape[1]))
        jobs.append((a, b, g, a_grad, b_grad))
    passes = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b, g, a_grad, b_grad in jobs:
            a @ b
            if a_grad:
                g @ b.T
            if b_grad:
                a.T @ g
        passes.append(time.perf_counter() - t0)
    return statistics.median(passes) * 1e3


class _Spans:
    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[0]].append(i)

    def dur(self, i):
        s = self.spans[i]
        return s[2] - s[1]

    def calls(self, name):
        return len(self.by_name[name])

    def total_s(self, name):
        return sum(self.dur(i) for i in self.by_name[name])

    def median_ms(self, name):
        d = [self.dur(i) for i in self.by_name[name]]
        return statistics.median(d) * 1e3 if d else 0.0

    def outermost_total_s(self, prefix):
        """Total time of spans named ``prefix*`` not nested in another ``prefix*`` span."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0].startswith(prefix):
                p = s[3]
                if p < 0 or not self.spans[p][0].startswith(prefix):
                    total += s[2] - s[1]
        return total

    def self_s(self, name):
        children = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                children[s[3]] += s[2] - s[1]
        return sum(self.dur(i) - children[i] for i in self.by_name[name])

    def within(self, i, ancestor):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == ancestor:
                return True
            p = self.spans[p][3]
        return False

    def step_windows(self, scope, loss_name):
        """(start, end) of each training step: loss start to the next Adam update's end."""
        adam = [self.spans[i] for i in self.by_name["autodiff.adam_step"]]
        adam_starts = [s[1] for s in adam]
        windows = []
        for i in self.by_name[loss_name]:
            if self.within(i, scope):
                start = self.spans[i][1]
                k = bisect.bisect_right(adam_starts, start)
                if k < len(adam):
                    windows.append((start, adam[k][2]))
        return windows

    def count_in(self, name, windows):
        starts = sorted(self.spans[i][1] for i in self.by_name[name])
        return sum(bisect.bisect_left(starts, end) - bisect.bisect_left(starts, start)
                   for start, end in windows)

    def scoped_calls(self, name, scope):
        return sum(1 for i in self.by_name[name] if self.within(i, scope))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, overhead_pct, quality):
    """Every PER_LAYER metric from one traced run, as {name: value}.

    ``quality`` holds the run's checked quality numbers (``region_hit_rate``,
    ``edge_auc``), reported alongside the layers so that a change in results
    shows next to a change in speed.

    Spans before ``tracer.start_ops()`` belong to set-up: they count only
    towards ``synth.s`` and ``preprocess.panel_matrix_s``; every other metric
    covers the timed operations alone.
    """
    op_start = tracer.op_start
    setup = _Spans(tracer.spans[:op_start])
    sp = _Spans([[n, t0, t1, p - op_start if p >= 0 else -1]
                 for n, t0, t1, p in tracer.spans[op_start:]])
    counts = tracer.op_counts()
    m = {}
    m["cli.file_digest_s"] = sp.total_s("cli.file_digest")
    m["cli.infer_self_s"] = sp.self_s("cli.cmd_infer")
    m["pipeline.load_data_s"] = sp.total_s("pipeline.load_pipeline_data")
    for n in (1, 2, 3):
        m[f"pipeline.stage{n}_s"] = sp.total_s(f"pipeline.stage{n}")
    windows = {key: sp.step_windows(scope, loss) for key, (scope, loss) in STEP_SCOPES.items()}
    step_ms = {key: statistics.median(e - s for s, e in w) * 1e3 if w else 0.0
               for key, w in windows.items()}
    m["pipeline.stage1_step_ms"] = step_ms["stage1"]
    m["pipeline.stage2_pretrain_step_ms"] = step_ms["stage2_pretrain"]
    m["pipeline.stage2_generator_step_ms"] = sp.median_ms("pipeline._generator_step")
    m["pipeline.stage3_step_ms"] = step_ms["stage3"]
    m["pipeline.infer_ms"] = sp.median_ms("pipeline.infer")

    m["autodiff.forward_s"] = sum(sp.total_s(f"autodiff.{k}") for k in OP_KINDS)
    m["autodiff.backward_s"] = sp.total_s("autodiff.backward")
    m["autodiff.backward_calls"] = sp.calls("autodiff.backward")
    m["autodiff.adam_s"] = sp.total_s("autodiff.adam_step")
    m["autodiff.adam_calls"] = sp.calls("autodiff.adam_step")
    for n in (1, 3):
        scope = f"pipeline.stage{n}"
        m[f"autodiff.tape_entries_per_step.stage{n}"] = _ratio(
            counts[f"tape_records.{scope}"], sp.scoped_calls("autodiff.backward", scope))
        floor = matmul_floor_ms(tracer.matmul_shapes.get(scope))
        m[f"autodiff.matmul_floor_ms.stage{n}"] = floor
        m[f"autodiff.floor_ratio.stage{n}"] = _ratio(step_ms[f"stage{n}"], floor)
    for k in OP_KINDS:
        m[f"autodiff.op.{k}.calls"] = sp.calls(f"autodiff.{k}")
        m[f"autodiff.op.{k}.fwd_ms"] = sp.total_s(f"autodiff.{k}") * 1e3
        m[f"autodiff.op.{k}.out_mb"] = counts[f"op_bytes.{k}"] / MB

    m["vae.loss_ms"] = sp.median_ms("vae.vae_loss")
    m["vae.encode_mu_calls"] = sp.calls("vae.encode_mu")
    m["vae.encode_mu_s"] = sp.total_s("vae.encode_mu")

    m["discriminator.train_s"] = sp.total_s("discriminator.train_discriminator")
    m["discriminator.train_calls"] = sp.calls("discriminator.train_discriminator")
    m["discriminator.inner_steps"] = counts["disc_inner_steps"]
    m["discriminator.target_reached_ratio"] = _ratio(counts["disc_target_reached"],
                                                     m["discriminator.train_calls"])
    m["discriminator.accuracy_evals"] = sp.calls("discriminator.disc_accuracy")
    m["discriminator.accuracy_s"] = sp.total_s("discriminator.disc_accuracy")
    m["discriminator.adv_loss_s"] = sp.total_s("discriminator.adversarial_generator_loss")

    m["vgae.knn_build_s"] = sp.total_s("vgae.build_knn_graph")
    m["vgae.loss_ms"] = sp.median_ms("vgae.vgae_loss")
    m["vgae.encode_ms"] = sp.median_ms("vgae.vgae_encode")
    m["vgae.decode_ms"] = sp.median_ms("vgae.vgae_decode")
    m["vgae.encode_calls_per_step"] = _ratio(sp.count_in("vgae.vgae_encode", windows["stage3"]),
                                             len(windows["stage3"]))
    m["vgae.negative_candidates_calls"] = sp.calls("vgae.negative_candidates")
    m["vgae.negative_candidates_ms"] = sp.median_ms("vgae.negative_candidates")
    m["vgae.negatives_used_ratio"] = _ratio(counts["negatives_sampled"],
                                            counts["negatives_enumerated"])
    m["vgae.logits_used_ratio"] = _ratio(counts["logits_gathered"], counts["logits_total"])
    m["vgae.edges"] = _ratio(counts["edges"], sp.calls("vgae.build_knn_graph"))

    m["layers.save_checkpoint_s"] = sp.total_s("layers.save_checkpoint")
    m["layers.save_checkpoint_mb"] = counts["save_checkpoint_bytes"] / MB
    m["layers.load_checkpoint_s"] = sp.total_s("layers.load_checkpoint")
    m["layers.load_checkpoint_mb"] = counts["load_checkpoint_bytes"] / MB

    m["dataio.read_s"] = sp.outermost_total_s("dataio.read_")
    m["dataio.read_mb"] = counts["dataio_bytes.read"] / MB
    m["dataio.write_s"] = sp.outermost_total_s("dataio.write_")
    m["dataio.write_mb"] = counts["dataio_bytes.write"] / MB
    m["preprocess.panel_matrix_s"] = (setup.total_s("preprocess.panel_matrix")
                                      + sp.total_s("preprocess.panel_matrix"))
    m["synth.s"] = setup.outermost_total_s("synth.")
    m["trace.overhead_pct"] = overhead_pct
    for name in ("region_hit_rate", "edge_auc"):
        m[f"quality.{name}"] = quality.get(name, 0.0)
    return {name: m[name] for name, _ in PER_LAYER}
