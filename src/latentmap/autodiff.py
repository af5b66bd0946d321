"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every network in the package is built from the primitives here. Design
constraints, in rough order of importance:

* 64-bit everywhere, so central-difference gradient checks are meaningful.
* A linear tape: ops append in execution order, which is automatically a
  topological order, and the backward pass walks it once in reverse. With a
  fixed op sequence the accumulation order is fixed, so gradients are
  bitwise reproducible run to run.
* The tape holds only what backward reads. An entry names the op's output
  by a serial id, not by the tensor, and each vjp closes over the arrays it
  reads and no tensor, so an output that no vjp reads (the product fed to
  ``spmm``, say) is freed as soon as the forward drops it. ``backward``
  pops each entry as it passes it, freeing its arrays as the pass moves
  back, so a tape serves one ``backward``.
* No broadcasting: a layer's bias row vector enters through ``matmul``'s
  ``bias`` operand, so an affine map is one tape entry, and an output layer
  scored by mean squared error against data is one ``affine_mse`` entry.
  That entry forms the residual r a block of rows at a time, the block
  sized by an entry budget so that it stays the same size however wide the
  output is, and keeps only the products its vjps read (r W^T, as wide as
  its input, and two small ones), never the [rows, outputs] residual.
* Only leaves keep gradients. ``backward`` passes adjoints of intermediate
  tensors along and drops them; parameters and other leaves accumulate
  theirs in ``.grad``.
* One buffer per hidden activation: ``relu`` overwrites the fresh
  ``matmul`` or ``spmm`` output it is given, and its vjp masks by the
  output's sign, so a hidden layer keeps one array and no mask.
* Sparse data enters only as a constant operand: ``spmm`` multiplies a
  fixed scipy sparse matrix into a tensor, and ``pair_dot`` scores chosen
  row pairs, so graph work costs O(nonzeros), never O(n^2). scipy.sparse is
  imported only when one of them runs, which keeps it off the inference path.
* Bounded optimizer scratch: ``adam_step`` walks each parameter in flat
  chunks of at most ``ADAM_CHUNK`` entries, so Adam holds its moments plus
  two rows of that width, however wide the largest parameter is.

Ops only record onto a tape while one is active (``with Tape(): ...``);
outside a tape they just compute values, which is what inference and
finite-difference probing use.
"""

import itertools

import numpy as np

from .errors import NumericError, ShapeError

_TAPE_STACK = []
_SERIALS = itertools.count()  # ids of taped op outputs, unique across tapes


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float64 array plus an optional gradient of the same shape.

    ``node`` is the serial id a tape gave the op that made it, or None.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, values, requires_grad=False):
        # asarray keeps 0-d scalars 0-d and adopts float64 arrays without copying
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def _accumulate(self, g):
        # g is kept, not copied: no vjp, backward or adam_step writes into a grad
        if self.grad is None:
            self.grad = g
        else:
            self.grad = self.grad + g

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"


def tensor(values, requires_grad=False):
    return Tensor(values, requires_grad=requires_grad)


def as_tensor(x):
    """``x`` itself if it is a Tensor, else a float64 constant of it."""
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Ordered record of executed ops, consumed by one ``backward``.

    Each entry is ``(serial, [(input, vjp), ...])``: ``serial`` is the id
    the op's output got when recorded, ``input`` is the serial of an input
    this tape produced or else the input tensor itself (a leaf), and ``vjp``
    maps the output adjoint to that input's adjoint contribution. No op
    output is kept. Entries are appended in execution order, so inputs
    always precede their consumers.
    """

    def __init__(self):
        self.entries = []
        self.produced = set()  # serials of the outputs recorded here
        self.spent = False  # set by backward, which consumes the entries

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def record(self, out, rules):
        out.node = next(_SERIALS)
        self.produced.add(out.node)
        self.entries.append((out.node, rules))


def _make_out(values, inputs, vjps):
    """Build the op output, recording on the active tape when needed."""
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=needs)
    tape = _active_tape()
    if needs and tape is not None:
        rules = [(t.node if t.node in tape.produced else t, v)
                 for t, v in zip(inputs, vjps) if t.requires_grad]
        tape.record(out, rules)
    return out


def backward(loss):
    """Accumulate d loss / d t into ``t.grad`` for every leaf ``t`` reachable from ``loss``.

    A leaf is a requires_grad tensor that no entry of the active tape
    produced (a parameter, or an input made outside the tape). Adjoints of
    op outputs live only in this pass's adjoint map and are dropped once
    passed on; their ``.grad`` stays None. The pass pops each tape entry as
    it passes it, so the tape's arrays are freed on the way back and a
    second call on the same tape raises RuntimeError. Grads accumulate into
    the leaves until cleared, so passes over tapes recorded one after the
    other add up.
    """
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {tuple(loss.shape)}")
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")
    if tape.spent:
        raise RuntimeError("backward: the tape was consumed by an earlier backward; "
                           "record the loss again on a new Tape")
    tape.spent = True

    entries = tape.entries
    adjoint = {loss.node if loss.node in tape.produced else loss: np.ones_like(loss.data)}
    while entries:
        serial, rules = entries.pop()
        g = adjoint.pop(serial, None)
        if g is None:
            continue
        for inp, vjp in rules:
            gi = vjp(g)
            prev = adjoint.get(inp)
            adjoint[inp] = gi if prev is None else prev + gi
    # every serial was popped with its entry; what is left are leaf tensors
    for t, g in adjoint.items():
        if t.requires_grad:
            t._accumulate(g)


def _check_same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes {tuple(a.shape)} and {tuple(b.shape)} differ")


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def matmul(a, b, bias=None):
    """Matrix product [n, k] @ [k, m], plus a [m] ``bias`` added to every row if given.

    One tape entry either way; the bias vjp is the column sum of the adjoint.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: cannot multiply {tuple(a.shape)} by {tuple(b.shape)}")
    a_data, b_data = a.data, b.data
    out = a_data @ b_data
    vjp_a, vjp_b = (lambda g: g @ b_data.T), (lambda g: a_data.T @ g)
    if bias is None:
        return _make_out(out, (a, b), (vjp_a, vjp_b))
    if bias.shape != (b.shape[1],):
        raise ShapeError(f"matmul: bias {tuple(bias.shape)} does not fit output columns "
                         f"of {tuple(a.shape)} @ {tuple(b.shape)}")
    out += bias.data
    return _make_out(out, (a, b, bias), (vjp_a, vjp_b, lambda g: g.sum(axis=0)))


def spmm(a, h):
    """Constant sparse matrix times a dense tensor: [n, m] @ [m, d] -> [n, d].

    ``a`` is a scipy sparse matrix and never receives a gradient; the vjp
    is ``a^T g``, which is ``a g`` for the symmetric graph adjacencies this
    is used with.
    """
    import scipy.sparse as sp

    if not sp.issparse(a):
        raise TypeError(f"spmm: expected a scipy sparse matrix, got {type(a).__name__}")
    if h.data.ndim != 2 or a.shape[1] != h.shape[0]:
        raise ShapeError(f"spmm: cannot multiply {tuple(a.shape)} by {tuple(h.shape)}")
    return _make_out(a @ h.data, (h,), (lambda g: a.T @ g,))


def pair_dot(z, rows, cols):
    """Row-wise dot products of chosen row pairs: out[k] = z[rows[k]] . z[cols[k]].

    The vjp scatters through a sparse [n, n] matrix M with M[rows[k], cols[k]]
    = g[k] (repeated pairs summed), giving (M + M^T) z.
    """
    import scipy.sparse as sp

    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if z.data.ndim != 2:
        raise ShapeError(f"pair_dot expects a matrix, got shape {tuple(z.shape)}")
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError(f"pair_dot: rows {rows.shape} and cols {cols.shape} must be equal 1-D")
    zd = z.data
    n = zd.shape[0]

    def vjp(g):
        m = sp.coo_matrix((g, (rows, cols)), shape=(n, n))
        return m @ zd + m.T @ zd

    out = (zd[rows] * zd[cols]).sum(axis=1)
    return _make_out(out, (z,), (vjp,))


def add(a, b):
    _check_same_shape(a, b, "add")
    return _make_out(a.data + b.data, (a, b), (lambda g: g, lambda g: g))


def sub(a, b):
    _check_same_shape(a, b, "sub")
    return _make_out(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b):
    _check_same_shape(a, b, "mul")
    a_data, b_data = a.data, b.data
    return _make_out(a_data * b_data, (a, b), (lambda g: g * b_data, lambda g: g * a_data))


def scale(a, c):
    c = float(c)
    return _make_out(a.data * c, (a,), (lambda g: g * c,))


def add_scalar(a, c):
    c = float(c)
    return _make_out(a.data + c, (a,), (lambda g: g,))


def relu(a):
    """max(a, 0) written over ``a``'s own buffer, which the output then shares.

    ``a`` must be an op output that no other op reads and whose producer's
    vjps never read it (``matmul``, ``spmm``), so a hidden layer holds one
    array. The vjp masks by ``out > 0``, true exactly where ``a > 0`` was
    (NaN included): subgradient 0 at 0, and no mask is kept.
    """
    out = np.maximum(a.data, 0.0, out=a.data)
    return _make_out(out, (a,), (lambda g: g * (out > 0),))


def _stable_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def exp(a):
    out = np.exp(a.data)
    return _make_out(out, (a,), (lambda g: g * out,))


def square(a):
    x = a.data
    return _make_out(x * x, (a,), (lambda g: g * 2.0 * x,))


def tsum(a):
    """Sum of all entries, as a scalar tensor."""
    shape = a.shape
    return _make_out(np.asarray(a.data.sum()), (a,), (lambda g: np.broadcast_to(g, shape).copy(),))


def tmean(a):
    n, shape = a.size, a.shape
    return _make_out(np.asarray(a.data.mean()), (a,), (lambda g: np.broadcast_to(g / n, shape).copy(),))


# entries of the residual that affine_mse holds at once: 512 rows of a 500-gene panel
AFFINE_MSE_ENTRIES = 512 * 500


def affine_mse(h, w, b, target):
    """Mean over all entries of (h @ w + b - target)^2, as a scalar tensor.

    A network's output layer and its squared error against constant data
    (a target that requires a gradient is refused) as one tape entry that
    never holds the whole residual. It walks the rows in blocks of
    ``max(1, AFFINE_MSE_ENTRIES // outputs)`` rows, so a block holds at most
    that many entries whatever the output width (512 rows at 500 outputs,
    128 at 2000): each block forms its residual r, adds r . r to the
    loss and, when a tape records, adds to the three products the vjps read:
    r @ w^T (written block by block into one array shaped like h), h^T r and
    colsum(r). With c = 2 g / n each vjp scales its product by c in place,
    which holds because ``backward`` runs each vjp once. Against
    ``tmean(square(sub(matmul(h, w, bias=b), target)))`` values and gradients
    differ in their last bits: the scaling comes after the products, and the
    sum of squares is a dot product (and, past one block, a sum over blocks).
    """
    if h.data.ndim != 2 or w.data.ndim != 2 or h.shape[1] != w.shape[0]:
        raise ShapeError(f"affine_mse: cannot multiply {tuple(h.shape)} by {tuple(w.shape)}")
    if b.shape != (w.shape[1],):
        raise ShapeError(f"affine_mse: bias {tuple(b.shape)} does not fit output columns "
                         f"of {tuple(h.shape)} @ {tuple(w.shape)}")
    out_shape = (h.shape[0], w.shape[1])
    if target.shape != out_shape:
        raise ShapeError(f"affine_mse: target {tuple(target.shape)} differs from output "
                         f"{out_shape} of {tuple(h.shape)} @ {tuple(w.shape)}")
    if target.requires_grad:
        raise ValueError("affine_mse: the target must be constant, not require a gradient")
    taped = _active_tape() is not None and any(t.requires_grad for t in (h, w, b))
    rw = np.empty((h.shape[0], w.shape[0])) if taped else None
    hr = colsum = None
    step = max(1, AFFINE_MSE_ENTRIES // max(w.shape[1], 1))
    block = np.empty((min(h.shape[0], step), w.shape[1]))  # each r in turn
    total = np.float64(0.0)
    for i in range(0, h.shape[0], step):
        rows = slice(i, min(i + step, h.shape[0]))
        r = np.matmul(h.data[rows], w.data, out=block[:rows.stop - i])
        r += b.data
        r -= target.data[rows]
        flat = r.reshape(-1)
        total += flat @ flat
        if taped:
            np.matmul(r, w.data.T, out=rw[rows])
            part = h.data[rows].T @ r
            hr = part if hr is None else np.add(hr, part, out=hr)
            part = r.sum(axis=0)
            colsum = part if colsum is None else np.add(colsum, part, out=colsum)
    n = out_shape[0] * out_shape[1]
    c = lambda g: g / n * 2.0
    return _make_out(np.asarray(total / n), (h, w, b),
                     (lambda g: np.multiply(rw, c(g), out=rw),
                      lambda g: np.multiply(hr, c(g), out=hr),
                      lambda g: np.multiply(colsum, c(g), out=colsum)))


def concat_cols(a, b):
    """Concatenate two matrices with the same row count along columns."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[0] != b.shape[0]:
        raise ShapeError(f"concat_cols: shapes {tuple(a.shape)} and {tuple(b.shape)} do not align")
    na = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)
    return _make_out(out, (a, b), (lambda g: g[:, :na], lambda g: g[:, na:]))


def bce_with_logits(logits, labels):
    """Mean binary cross entropy in the numerically stable logits form.

    value = mean( max(z, 0) - z*y + log(1 + exp(-|z|)) ), labels y in {0, 1}.
    Differentiable in the logits only.
    """
    y = labels.data if isinstance(labels, Tensor) else np.asarray(labels, dtype=np.float64)
    z = logits.data
    if z.shape != y.shape:
        raise ShapeError(f"bce_with_logits: logits {tuple(z.shape)} vs labels {tuple(y.shape)}")
    if z.size == 0:
        raise ValueError("bce_with_logits: empty input")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("bce_with_logits: labels must be 0 or 1")
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    n = z.size
    return _make_out(np.asarray(per.mean()), (logits,),
                     (lambda g: g * (_stable_sigmoid(z) - y) / n,))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

# Adam's moment decays and denominator floor: the paper's defaults
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8
ADAM_CHUNK = 1 << 15  # entries of a parameter that adam_step updates at once


class Adam:
    """Adam state (Kingma & Ba, arXiv:1412.6980) for named parameter tensors.

    Holds the parameters, their first and second moment estimates and the
    shared step count; ``adam_step`` applies one update.
    """

    def __init__(self, params, lr):
        self.params = dict(params)
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        # two work rows shared by every chunk of every parameter's update
        widest = max((p.size for p in self.params.values()), default=0)
        self.scratch = np.empty((2, min(widest, ADAM_CHUNK)))

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def adam_step(opt):
    """One bias-corrected Adam update from the grads on ``opt.params``, in place.

    A parameter without a grad gets a zero gradient. A non-finite gradient
    aborts, naming the offending parameter, before any parameter, moment or
    ``opt.t`` changes. Each parameter is updated in flat chunks of at most
    ``ADAM_CHUNK`` entries, and every temporary of a chunk lives in
    ``opt.scratch``. On each chunk the operations are those of

        m = BETA1 * m + (1 - BETA1) * g
        v = BETA2 * v + (1 - BETA2) * (g * g)
        p -= lr * (m / bc1) / (sqrt(v / bc2) + EPSILON)

    in the same order; every one is elementwise, so the result is that of
    the whole-array update to the bit. The finite check runs chunk by chunk
    too, into a bool view of the first scratch row.
    """
    row1, row2 = opt.scratch
    finite = row1.view(np.bool_)
    for name, p in opt.params.items():
        if p.grad is None:
            continue
        g_all = p.grad.reshape(-1)
        for i in range(0, g_all.size, ADAM_CHUNK):
            g = g_all[i:i + ADAM_CHUNK]
            if not np.isfinite(g, out=finite[:g.size]).all():
                raise NumericError(f"non-finite gradient for parameter '{name}'")
    opt.t += 1
    bc1 = 1.0 - BETA1 ** opt.t
    bc2 = 1.0 - BETA2 ** opt.t
    for name, p in opt.params.items():
        # flat views; a zero gradient is a read-only broadcast, not an array
        g_all = p.grad.reshape(-1) if p.grad is not None else np.broadcast_to(0.0, p.size)
        p_all, m_all, v_all = (a.reshape(-1) for a in (p.data, opt.m[name], opt.v[name]))
        for i in range(0, p.size, ADAM_CHUNK):
            part = slice(i, i + ADAM_CHUNK)
            g, m, v, x = g_all[part], m_all[part], v_all[part], p_all[part]
            s1, s2 = row1[:x.size], row2[:x.size]
            np.multiply(g, 1.0 - BETA1, out=s1)
            m *= BETA1
            m += s1
            np.multiply(g, g, out=s1)
            s1 *= 1.0 - BETA2
            v *= BETA2
            v += s1
            np.divide(m, bc1, out=s1)
            s1 *= opt.lr
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += EPSILON
            s1 /= s2
            x -= s1


def train_step(opt, loss_fn, where):
    """One full-batch step: clear grads, tape ``loss_fn()``, backpropagate, update.

    ``loss_fn`` takes no arguments and returns its scalar terms by name,
    ``"total"`` (the one trained on) first. A non-finite total raises
    NumericError naming ``where`` before anything is updated. Returns the
    terms as floats, by the same names in the same order.
    """
    opt.zero_grad()
    with Tape():
        terms = loss_fn()
        total = terms["total"].item()
        if not np.isfinite(total):
            raise NumericError(f"{where}: non-finite loss ({total})")
        backward(terms["total"])
    adam_step(opt)
    return {name: t.item() for name, t in terms.items()}


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(loss_fn, params):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` takes no arguments and returns a scalar Tensor computed from
    the current values of ``params`` (name -> Tensor). The numeric probe
    re-evaluates ``loss_fn`` outside any tape, so it is independent of the
    backward rules it is checking.

    relative error = |analytic - numeric| / max(|analytic|, |numeric|, 1e-8),
    with central differences of step h = 1e-5.
    """
    h = 1e-5
    for p in params.values():
        p.grad = None
    with Tape():
        loss = loss_fn()
        backward(loss)
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}

    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        ana = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(loss_fn().data)
            flat[i] = orig - h
            f_minus = float(loss_fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            rel = abs(ana[i] - numeric) / max(abs(ana[i]), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
