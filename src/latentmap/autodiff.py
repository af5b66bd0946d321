"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

Every network in the package is built from the primitives here. Design
constraints, in rough order of importance:

* 64-bit everywhere, so central-difference gradient checks are meaningful.
* A linear tape: ops append in execution order, which is automatically a
  topological order, and the backward pass walks it once in reverse. With a
  fixed op sequence the accumulation order is fixed, so gradients are
  bitwise reproducible run to run.
* No broadcasting except adding a row vector (bias) to a matrix.
* Sparse data enters only as a constant operand: ``spmm`` multiplies a
  fixed scipy sparse matrix into a tensor, and ``pair_dot`` scores chosen
  row pairs, so graph work costs O(nonzeros), never O(n^2).

Ops only record onto a tape while one is active (``with Tape(): ...``);
outside a tape they just compute values, which is what inference and
finite-difference probing use.
"""

import numpy as np
import scipy.sparse as sp

from .errors import NumericError, ShapeError

_TAPE_STACK = []


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    """A dense float64 array plus an optional gradient of the same shape."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, requires_grad=False):
        # asarray keeps 0-d scalars 0-d and adopts float64 arrays without copying
        arr = np.asarray(values, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

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
    """Ordered record of executed ops.

    Each entry is ``(out, [(input, vjp), ...])`` where ``vjp`` maps the
    output adjoint to that input's adjoint contribution. Entries are
    appended in execution order, so inputs always precede their consumers.
    """

    def __init__(self):
        self.entries = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def record(self, out, rules):
        self.entries.append((out, rules))


def _make_out(values, inputs, vjps):
    """Build the op output, recording on the active tape when needed."""
    needs = any(t.requires_grad for t in inputs)
    out = Tensor(values, requires_grad=needs)
    tape = _active_tape()
    if needs and tape is not None:
        rules = [(t, v) for t, v in zip(inputs, vjps) if t.requires_grad]
        tape.record(out, rules)
    return out


def backward(loss):
    """Populate ``grad`` for every requires_grad tensor reachable from ``loss``.

    Repeated calls without clearing grads accumulate into leaf and
    intermediate grads alike; each pass keeps its own adjoint map so the
    passes stay independent.
    """
    if loss.size != 1:
        raise ShapeError(f"backward expects a scalar loss, got shape {tuple(loss.shape)}")
    tape = _active_tape()
    if tape is None:
        raise RuntimeError("backward called with no active tape")

    adjoint = {id(loss): (loss, np.ones_like(loss.data))}
    for out, rules in reversed(tape.entries):
        rec = adjoint.pop(id(out), None)
        if rec is None:
            continue
        g = rec[1]
        if out.requires_grad:
            out._accumulate(g)
        for inp, vjp in rules:
            gi = vjp(g)
            prev = adjoint.get(id(inp))
            adjoint[id(inp)] = (inp, gi if prev is None else prev[1] + gi)
    # whatever is left never appeared as an op output on this tape: leaves
    for t, g in adjoint.values():
        if t.requires_grad:
            t._accumulate(g)


def _check_same_shape(a, b, op):
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes {tuple(a.shape)} and {tuple(b.shape)} differ")


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: cannot multiply {tuple(a.shape)} by {tuple(b.shape)}")
    out = a.data @ b.data
    return _make_out(out, (a, b), (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def spmm(a, h):
    """Constant sparse matrix times a dense tensor: [n, m] @ [m, d] -> [n, d].

    ``a`` is a scipy sparse matrix and never receives a gradient; the vjp
    is ``a^T g``, which is ``a g`` for the symmetric graph adjacencies this
    is used with.
    """
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
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    if z.data.ndim != 2:
        raise ShapeError(f"pair_dot expects a matrix, got shape {tuple(z.shape)}")
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ShapeError(f"pair_dot: rows {rows.shape} and cols {cols.shape} must be equal 1-D")
    n = z.shape[0]

    def vjp(g):
        m = sp.coo_matrix((g, (rows, cols)), shape=(n, n))
        return m @ z.data + m.T @ z.data

    out = (z.data[rows] * z.data[cols]).sum(axis=1)
    return _make_out(out, (z,), (vjp,))


def add(a, b):
    """Elementwise add; also accepts a [d] bias added to every row of [n, d]."""
    if a.shape == b.shape:
        return _make_out(a.data + b.data, (a, b), (lambda g: g, lambda g: g))
    if a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        return _make_out(a.data + b.data, (a, b), (lambda g: g, lambda g: g.sum(axis=0)))
    raise ShapeError(f"add: operand shapes {tuple(a.shape)} and {tuple(b.shape)} differ")


def sub(a, b):
    _check_same_shape(a, b, "sub")
    return _make_out(a.data - b.data, (a, b), (lambda g: g, lambda g: -g))


def mul(a, b):
    _check_same_shape(a, b, "mul")
    return _make_out(a.data * b.data, (a, b), (lambda g: g * b.data, lambda g: g * a.data))


def scale(a, c):
    c = float(c)
    return _make_out(a.data * c, (a,), (lambda g: g * c,))


def add_scalar(a, c):
    c = float(c)
    return _make_out(a.data + c, (a,), (lambda g: g,))


def relu(a):
    mask = a.data > 0  # subgradient 0 at 0
    return _make_out(np.where(mask, a.data, 0.0), (a,), (lambda g: g * mask,))


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
    return _make_out(a.data * a.data, (a,), (lambda g: g * 2.0 * a.data,))


def sqrt(a):
    if np.any(a.data < 0.0):
        raise ValueError("sqrt: domain error, negative input")
    out = np.sqrt(a.data)
    return _make_out(out, (a,), (lambda g: g * 0.5 / out,))


def tsum(a):
    """Sum of all entries, as a scalar tensor."""
    return _make_out(np.asarray(a.data.sum()), (a,), (lambda g: np.broadcast_to(g, a.shape).copy(),))


def tmean(a):
    n = a.size
    return _make_out(np.asarray(a.data.mean()), (a,), (lambda g: np.broadcast_to(g / n, a.shape).copy(),))


def sum_cols(a):
    """Row sums of a matrix: [n, m] -> [n]."""
    if a.data.ndim != 2:
        raise ShapeError(f"sum_cols expects a matrix, got shape {tuple(a.shape)}")
    return _make_out(a.data.sum(axis=1), (a,), (lambda g: np.repeat(g[:, None], a.shape[1], axis=1),))


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

class Adam:
    """Adam state (Kingma & Ba, arXiv:1412.6980) for named parameter tensors.

    Holds the parameters, their first and second moment estimates and the
    shared step count; ``adam_step`` applies one update.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def adam_step(opt):
    """One bias-corrected Adam update from the grads on ``opt.params``, in place.

    A parameter without a grad gets a zero gradient. A non-finite gradient
    aborts, naming the offending parameter.
    """
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for name, p in opt.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
        m = opt.m[name]
        v = opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        p.data -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.epsilon)


def train_step(opt, loss_fn, where):
    """One full-batch step: clear grads, tape ``loss_fn()``, backpropagate, update.

    ``loss_fn`` takes no arguments and returns scalar tensors, the total
    first. A non-finite total raises NumericError naming ``where`` before
    anything is updated. Returns the terms as floats.
    """
    opt.zero_grad()
    with Tape():
        terms = loss_fn()
        total = terms[0].item()
        if not np.isfinite(total):
            raise NumericError(f"{where}: non-finite loss ({total})")
        backward(terms[0])
    adam_step(opt)
    return [t.item() for t in terms]


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(loss_fn, params, h=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``loss_fn`` takes no arguments and returns a scalar Tensor computed from
    the current values of ``params`` (name -> Tensor). The numeric probe
    re-evaluates ``loss_fn`` outside any tape, so it is independent of the
    backward rules it is checking.

    relative error = |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)
    """
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
