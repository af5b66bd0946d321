import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import traced_peak

from latentmap import autodiff as ad
from latentmap import layers as nn
from latentmap.errors import NumericError, ShapeError


def central_diff(f, x, h=1e-5):
    """Independent numeric gradient of a scalar function of one flat array."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8))


def test_matmul_values():
    a = ad.tensor([[1.0, 2.0], [3.0, 4.0]])
    b = ad.tensor([[1.0], [1.0]])
    out = ad.matmul(a, b)
    assert out.data.tolist() == [[3.0], [7.0]]


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = ad.tensor(rng.normal(size=(3, 3)))
    eye = ad.tensor(np.eye(3))
    assert np.array_equal(ad.matmul(a, eye).data, a.data)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((2, 3))))


def test_matmul_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    a0 = rng.uniform(0.1, 10, size=(3, 4)) * rng.choice([-1, 1], size=(3, 4))
    b0 = rng.uniform(0.1, 10, size=(4, 2)) * rng.choice([-1, 1], size=(4, 2))
    w = rng.normal(size=(3, 2))  # fixed weighting so the loss is scalar

    a = ad.tensor(a0, requires_grad=True)
    b = ad.tensor(b0, requires_grad=True)
    with ad.Tape():
        loss = ad.tsum(ad.mul(ad.matmul(a, b), ad.tensor(w)))
        ad.backward(loss)

    ga = central_diff(lambda x: float((x @ b0 * w).sum()), a0)
    gb = central_diff(lambda x: float((a0 @ x * w).sum()), b0)
    assert rel_err(a.grad, ga) < 1e-6
    assert rel_err(b.grad, gb) < 1e-6


def test_matmul_associativity():
    rng = np.random.default_rng(2)
    A, B, C = (ad.tensor(rng.normal(size=(4, 4))) for _ in range(3))
    left = ad.matmul(ad.matmul(A, B), C).data
    right = ad.matmul(A, ad.matmul(B, C)).data
    assert np.max(np.abs(left - right)) < 1e-9


def test_relu_values():
    out = ad.relu(ad.tensor([-1.0, 0.0, 2.0]))
    assert out.data.tolist() == [0.0, 0.0, 2.0]


def test_exp_backward_at_one():
    x = ad.tensor([1.0], requires_grad=True)
    with ad.Tape():
        loss = ad.tsum(ad.exp(x))
        ad.backward(loss)
    numeric = central_diff(lambda v: float(np.exp(v).sum()), np.array([1.0]))
    assert abs(x.grad[0] - math.e) < 1e-9
    assert rel_err(x.grad, numeric) < 1e-8


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        ad.add(ad.tensor([1.0, 2.0]), ad.tensor([1.0, 2.0, 3.0]))


def _zeros(*shape):
    return ad.tensor(np.zeros(shape))


@pytest.mark.parametrize("call,message", [
    (lambda: ad.add(_zeros(3, 2), _zeros(2)), r"add: .*\(3, 2\).*\(2,\)"),
    (lambda: ad.affine_mse(_zeros(3, 2), _zeros(2, 4), _zeros(4), _zeros(4, 3)),
     r"affine_mse: target \(4, 3\).*\(3, 4\)"),
    (lambda: ad.matmul(_zeros(3, 2), _zeros(2, 4), bias=_zeros(3)),
     r"matmul: bias \(3,\).*\(3, 2\) @ \(2, 4\)"),
], ids=["add", "affine_mse", "matmul-bias"])
def test_shape_errors_name_both_shapes(call, message):
    with pytest.raises(ShapeError, match=message):
        call()


def test_bias_add_broadcast_backward():
    x = ad.tensor(np.ones((3, 2)), requires_grad=True)
    b = ad.tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape():
        out = ad.matmul(x, ad.tensor(np.eye(2)), bias=b)
        assert out.data.tolist() == [[2.0, 3.0]] * 3
        loss = ad.tsum(out)
        ad.backward(loss)
    assert np.array_equal(b.grad, [3.0, 3.0])
    assert np.array_equal(x.grad, np.ones((3, 2)))


def test_matmul_bias_matches_finite_differences():
    rng = np.random.default_rng(11)
    a0, w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
    weight = rng.normal(size=(4, 2))

    def f(a, w, b):
        return float(((a @ w + b) * weight).sum())

    a, w, b = (ad.tensor(v, requires_grad=True) for v in (a0, w0, b0))
    with ad.Tape():
        ad.backward(ad.tsum(ad.mul(ad.matmul(a, w, bias=b), ad.tensor(weight))))
    assert rel_err(a.grad, central_diff(lambda v: f(v, w0, b0), a0)) < 1e-6
    assert rel_err(w.grad, central_diff(lambda v: f(a0, v, b0), w0)) < 1e-6
    assert rel_err(b.grad, central_diff(lambda v: f(a0, w0, v), b0)) < 1e-6


def test_affine_mse_matches_finite_differences():
    rng = np.random.default_rng(12)
    h0, w0, b0 = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
    t0 = rng.normal(size=(5, 4))

    def f(h, w, b, t):
        return float(np.mean((h @ w + b - t) ** 2))

    h, w, b = (ad.tensor(v, requires_grad=True) for v in (h0, w0, b0))
    with ad.Tape():
        loss = ad.affine_mse(h, w, b, ad.tensor(t0))
        ad.backward(loss)
    assert loss.item() == pytest.approx(f(h0, w0, b0, t0), rel=1e-14)
    assert rel_err(h.grad, central_diff(lambda v: f(v, w0, b0, t0), h0)) < 1e-6
    assert rel_err(w.grad, central_diff(lambda v: f(h0, v, b0, t0), w0)) < 1e-6
    assert rel_err(b.grad, central_diff(lambda v: f(h0, w0, v, t0), b0)) < 1e-6


def _composite_bias_add(h, b):
    """A bias added to every row as its own tape entry: the reference for ``matmul(bias=)``."""
    return ad._make_out(h.data + b.data, (h, b), (lambda g: g, lambda g: g.sum(axis=0)))


def _composite_mse(a, b):
    return ad.tmean(ad.square(ad.sub(a, b)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_ops_match_composite_chains_bitwise(seed):
    # matmul(bias=) against add(matmul), inside one small network so
    # adjoints reach it through real chains
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(7, 5))
    w1_0, b1_0 = rng.normal(size=(5, 6)), rng.normal(size=6)
    w2_0, b2_0 = rng.normal(size=(6, 4)), rng.normal(size=4)
    y0 = rng.normal(size=(7, 4))

    def run(fused):
        leaves = [ad.tensor(v, requires_grad=True) for v in (x0, w1_0, b1_0, w2_0, b2_0, y0)]
        x, w1, b1, w2, b2, y = leaves
        affine = (lambda h, w, b: ad.matmul(h, w, bias=b)) if fused else (
            lambda h, w, b: _composite_bias_add(ad.matmul(h, w), b))
        with ad.Tape():
            h = ad.relu(affine(x, w1, b1))
            out = affine(h, w2, b2)
            loss = ad.add(_composite_mse(out, y), _composite_mse(h, ad.matmul(x, w1)))
            ad.backward(loss)
        return [loss.data, out.data] + [t.grad for t in leaves]

    for got, want in zip(run(True), run(False)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("final_linear", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mlp_forward_matches_allocating_relu_chain_bitwise(seed, final_linear):
    # mlp_forward's in-place ReLUs against matmul(bias=) + a ReLU that
    # allocates its output and keeps a boolean mask, as ad.relu once did;
    # one pre-activation is exactly 0, where both must take the subgradient 0
    rng = np.random.default_rng(seed)
    widths = [5, 6, 4, 3]
    x0 = rng.normal(size=(7, 5))
    x0[0] = 0.0
    init = [(rng.normal(size=(a, b)), rng.normal(size=b)) for a, b in zip(widths, widths[1:])]
    init[0][1][0] = 0.0
    y0 = rng.normal(size=(7, 3))

    def reference(layers, x):
        h = x
        for i, layer in enumerate(layers):
            h = ad.matmul(h, layer.w, bias=layer.b)
            if i < len(layers) - 1 or not final_linear:
                mask = h.data > 0
                h = ad._make_out(np.maximum(h.data, 0.0), (h,), (lambda g, m=mask: g * m,))
        return h

    def run(forward):
        x = ad.tensor(x0.copy(), requires_grad=True)
        layers = [nn.Dense(ad.tensor(w, requires_grad=True), ad.tensor(b, requires_grad=True))
                  for w, b in init]
        with ad.Tape():
            out = forward(layers, x)
            loss = ad.tsum(ad.mul(out, ad.tensor(y0)))
            ad.backward(loss)
        assert np.array_equal(x.data, x0)
        return [out.data, loss.data, x.grad] + [t.grad for l in layers for t in (l.w, l.b)]

    got = run(lambda layers, x: nn.mlp_forward(layers, x, final_linear=final_linear))
    for a, b in zip(got, run(reference)):
        assert np.array_equal(a, b)


def test_mlp_forward_leaves_a_constant_input_unchanged():
    x0 = np.array([[-1.0, 2.0], [0.5, -3.0]])
    x = ad.tensor(x0.copy())
    identity = nn.Dense(ad.tensor(np.eye(2)), ad.tensor(np.zeros(2)))
    out = nn.mlp_forward([identity], x, final_linear=False)
    assert np.array_equal(x.data, x0)
    assert out.data.tolist() == [[0.0, 2.0], [0.5, 0.0]]


def test_relu_shares_the_input_buffer():
    a = ad.tensor([-1.0, 0.0, 2.0])
    out = ad.relu(a)
    assert out.data is a.data and out.data.tolist() == [0.0, 0.0, 2.0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_mse_matches_composite_chain(seed):
    # affine_mse scales its vjps after the products and sums squares with a
    # dot product, so it agrees with tmean(square(sub(matmul(bias=)))) to
    # rounding, not to the bit; 1e-12 is a few thousand float64 ulps
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(7, 5))
    w1_0, b1_0 = rng.normal(size=(5, 6)), rng.normal(size=6)
    w2_0, b2_0 = rng.normal(size=(6, 4)), rng.normal(size=4)
    y0 = rng.normal(size=(7, 4))

    def run(fused):
        leaves = [ad.tensor(v, requires_grad=True) for v in (x0, w1_0, b1_0, w2_0, b2_0)]
        x, w1, b1, w2, b2 = leaves
        y = ad.tensor(y0)
        with ad.Tape():
            h = ad.relu(ad.matmul(x, w1, bias=b1))
            if fused:
                loss = ad.affine_mse(h, w2, b2, y)
            else:
                loss = _composite_mse(ad.matmul(h, w2, bias=b2), y)
            ad.backward(loss)
        return [loss.data] + [t.grad for t in leaves]

    for got, want in zip(run(True), run(False)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _affine_mse_leaves(rows, target_grad, outputs=500, seed=3):
    rng = np.random.default_rng(seed)
    values = (rng.normal(size=(rows, 6)), rng.normal(size=(6, outputs)),
              rng.normal(size=outputs), rng.normal(size=(rows, outputs)))
    return [ad.tensor(v, requires_grad=i < 3 or target_grad) for i, v in enumerate(values)]


def _assert_affine_mse_matches_composite_chain(rows, outputs):
    # past one block the block sums move the last bits, so the error is
    # taken relative to each array's largest entry
    def run(fused):
        leaves = _affine_mse_leaves(rows, False, outputs)
        h, w, b, y = leaves
        with ad.Tape():
            loss = (ad.affine_mse(h, w, b, y) if fused
                    else _composite_mse(ad.matmul(h, w, bias=b), y))
            ad.backward(loss)
        return [loss.data] + [t.grad for t in leaves]

    got, want = run(True), run(False)
    assert got[-1] is None and want[-1] is None
    for a, b in zip(got[:-1], want[:-1]):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("target_grad", [False, True])
@pytest.mark.parametrize("rows", [511, 512, 513, 1100, 4096])
def test_affine_mse_blocks_match_composite_chain(rows, target_grad):
    # around and past one block, against the unfused chain: at 500 outputs
    # the entry budget makes a block 512 rows. The target is data, so the
    # op keeps no product for a target vjp: a target that requires a
    # gradient is refused before anything is taped
    assert ad.AFFINE_MSE_ENTRIES // 500 == 512
    if target_grad:
        h, w, b, y = _affine_mse_leaves(rows, target_grad)
        with ad.Tape() as tape:
            with pytest.raises(ValueError, match="affine_mse: the target must be constant"):
                ad.affine_mse(h, w, b, y)
            assert tape.entries == []
        return
    _assert_affine_mse_matches_composite_chain(rows, 500)


def test_affine_mse_wide_output_blocks_match_composite_chain():
    # at 2000 outputs a block is 128 rows, so 300 rows cross two blocks
    assert ad.AFFINE_MSE_ENTRIES // 2000 == 128
    _assert_affine_mse_matches_composite_chain(300, 2000)


def test_affine_mse_backward_twice_on_one_tape():
    # the vjps scale the kept products in place, so a tape serves one pass:
    # a second backward on it raises and leaves the grads as they were, and
    # the forward recorded again on a new tape adds the same gradients again
    h, w, b, y = _affine_mse_leaves(1100, target_grad=False)
    with ad.Tape():
        loss = ad.affine_mse(h, w, b, y)
        ad.backward(loss)
        first = [t.grad.copy() for t in (h, w, b)]
        with pytest.raises(RuntimeError, match="consumed by an earlier backward"):
            ad.backward(loss)
    for t, g in zip((h, w, b), first):
        assert np.array_equal(t.grad, g)
    with ad.Tape():
        ad.backward(ad.affine_mse(h, w, b, y))
    for t, g in zip((h, w, b), first):
        assert np.array_equal(t.grad, 2.0 * g)


def test_affine_mse_keeps_well_under_the_residual():
    # a stage-3 expression head: 4096 spots, 128 hidden units, 500 genes;
    # the residual alone would be 4096 * 500 * 8 bytes = 16.4 MB
    rng = np.random.default_rng(0)
    h = ad.tensor(rng.normal(size=(4096, 128)), requires_grad=True)
    w = ad.tensor(rng.normal(size=(128, 500)), requires_grad=True)
    b = ad.tensor(rng.normal(size=500), requires_grad=True)
    y = ad.tensor(rng.normal(size=(4096, 500)))
    with ad.Tape() as tape:
        _, peak = traced_peak(lambda: ad.affine_mse(h, w, b, y))
        assert len(tape.entries) == 1
    # kept: r w^T (4.2 MB), h^T r and colsum(r); transient: one block of r (2 MB)
    assert peak < 8e6


def test_affine_mse_block_does_not_grow_with_the_output_width():
    # 4000 outputs: a block of 512 rows would be 16.4 MB on its own; the
    # entry budget holds it to 64 rows. Kept: r w^T, h^T r and colsum(r);
    # transient: one block of r and one block's h^T r before it is added
    rng = np.random.default_rng(1)
    h = ad.tensor(rng.normal(size=(1024, 128)), requires_grad=True)
    w = ad.tensor(rng.normal(size=(128, 4000)), requires_grad=True)
    b = ad.tensor(rng.normal(size=4000), requires_grad=True)
    y = ad.tensor(rng.normal(size=(1024, 4000)))
    with ad.Tape() as tape:
        _, peak = traced_peak(lambda: ad.affine_mse(h, w, b, y))
        assert len(tape.entries) == 1
    kept = h.data.nbytes + 2 * w.data.nbytes + b.data.nbytes
    assert peak < 1.05 * (ad.AFFINE_MSE_ENTRIES * 8 + kept)


@pytest.mark.parametrize("op,fn", [
    ("relu", lambda v: max(v, 0.0)),
    ("exp", math.exp),
    ("square", lambda v: v * v),
])
def test_unary_backward_random_sweep(op, fn):
    # analytic gradient vs a pointwise central difference at 100 random
    # points with magnitudes in [0.1, 10]; relu overwrites its input, so
    # the tensor gets a copy of the points
    rng = np.random.default_rng(3)
    x0 = rng.uniform(0.1, 10.0, size=100) * rng.choice([-1.0, 1.0], size=100)
    x = ad.tensor(x0.copy(), requires_grad=True)
    with ad.Tape():
        loss = ad.tsum(getattr(ad, op)(x))
        ad.backward(loss)
    h = 1e-5
    numeric = np.array([(fn(v + h) - fn(v - h)) / (2 * h) for v in x0])
    assert rel_err(x.grad, numeric) < 1e-4


def test_bce_with_logits_analytic_values():
    z = ad.tensor([0.0])
    assert abs(ad.bce_with_logits(z, np.array([1.0])).item() - math.log(2)) < 1e-12
    z = ad.tensor([20.0])
    val = ad.bce_with_logits(z, np.array([1.0])).item()
    assert val == pytest.approx(2.06e-9, rel=0.05)


def test_bce_with_logits_matches_naive_formula():
    # oracle: -mean(y*log(sig(z)) + (1-y)*log(1-sig(z))) and its gradient
    z0 = np.array([1.5, -0.3])
    y = np.array([1.0, 0.0])

    def naive(z):
        s = 1 / (1 + np.exp(-z))
        return float(-np.mean(y * np.log(s) + (1 - y) * np.log(1 - s)))

    z = ad.tensor(z0, requires_grad=True)
    with ad.Tape():
        loss = ad.bce_with_logits(z, y)
        ad.backward(loss)
    assert abs(loss.item() - naive(z0)) < 1e-12
    assert rel_err(z.grad, central_diff(naive, z0)) < 1e-6


def test_bce_with_logits_nonnegative_random():
    rng = np.random.default_rng(4)
    for _ in range(200):
        z = ad.tensor(rng.normal(scale=4, size=5))
        y = rng.integers(0, 2, size=5).astype(float)
        assert ad.bce_with_logits(z, y).item() >= 0.0


def test_bce_empty_error():
    with pytest.raises(ValueError, match="empty"):
        ad.bce_with_logits(ad.tensor(np.zeros(0)), np.zeros(0))


def test_bce_label_validation():
    with pytest.raises(ValueError, match="labels"):
        ad.bce_with_logits(ad.tensor([1.0]), np.array([0.5]))


def test_backward_sum_gives_ones():
    x = ad.tensor([1.0, 2.0, 3.0], requires_grad=True)
    with ad.Tape():
        ad.backward(ad.tsum(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape():
        ad.backward(ad.tsum(ad.square(x)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_non_scalar_rejected():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape():
        y = ad.square(x)
        with pytest.raises(ShapeError, match="scalar"):
            ad.backward(y)


def test_backward_accumulates_across_calls():
    # each call consumes its tape, so the calls run on two tapes
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    for _ in range(2):
        with ad.Tape():
            ad.backward(ad.tsum(ad.square(x)))
    assert np.array_equal(x.grad, [4.0, 8.0])


def test_backward_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(5)
    x0 = rng.uniform(0.1, 2.0, size=(4, 3))
    w1_0 = rng.normal(size=(3, 5))
    b1_0 = rng.normal(size=5)
    w2_0 = rng.normal(size=(5, 2))
    b2_0 = rng.normal(size=2)

    def run(w1, b1, w2, b2):
        h = np.maximum(x0 @ w1 + b1, 0.0)
        return float(np.square(h @ w2 + b2).sum())

    params = {
        "w1": ad.tensor(w1_0, requires_grad=True),
        "b1": ad.tensor(b1_0, requires_grad=True),
        "w2": ad.tensor(w2_0, requires_grad=True),
        "b2": ad.tensor(b2_0, requires_grad=True),
    }
    with ad.Tape():
        h = ad.relu(ad.matmul(ad.tensor(x0), params["w1"], bias=params["b1"]))
        out = ad.matmul(h, params["w2"], bias=params["b2"])
        ad.backward(ad.tsum(ad.square(out)))

    oracles = {
        "w1": central_diff(lambda v: run(v, b1_0, w2_0, b2_0), w1_0),
        "b1": central_diff(lambda v: run(w1_0, v, w2_0, b2_0), b1_0),
        "w2": central_diff(lambda v: run(w1_0, b1_0, v, b2_0), w2_0),
        "b2": central_diff(lambda v: run(w1_0, b1_0, w2_0, v), b2_0),
    }
    for name, oracle in oracles.items():
        assert rel_err(params[name].grad, oracle) < 1e-4, name


def test_backward_keeps_grads_on_leaves_only():
    x = ad.tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
    w = ad.tensor([[1.0, 0.5], [-1.0, 2.0]], requires_grad=True)
    b = ad.tensor([0.1, -0.2], requires_grad=True)
    leaves = (("x", x), ("w", w), ("b", b))
    first = None
    for _ in range(2):
        with ad.Tape():
            outputs = [ad.matmul(x, w, bias=b)]  # every op output the tape records
            outputs.append(ad.relu(outputs[-1]))
            outputs.append(ad.affine_mse(outputs[-1], w, b, ad.tensor(np.ones((2, 2)))))
            ad.backward(outputs[-1])
        for out in outputs:
            assert out.grad is None
        if first is None:
            first = {name: t.grad.copy() for name, t in leaves}
    for name, t in leaves:
        assert np.array_equal(t.grad, 2.0 * first[name]), name


def test_backward_deterministic_bitwise():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(5, 4))
    w0 = rng.normal(size=(4, 3))

    def one_pass():
        x = ad.tensor(x0, requires_grad=True)
        w = ad.tensor(w0, requires_grad=True)
        with ad.Tape():
            h = ad.relu(ad.matmul(x, w))
            ad.backward(ad.tmean(ad.square(h)))
        return x.grad.copy(), w.grad.copy()

    gx1, gw1 = one_pass()
    gx2, gw2 = one_pass()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


def test_pair_dot_and_concat_backward():
    rng = np.random.default_rng(7)
    z0 = rng.normal(size=(4, 3))
    rows = np.array([0, 1, 3, 0])
    cols = np.array([1, 2, 0, 1])  # repeated pair accumulates

    z = ad.tensor(z0, requires_grad=True)
    with ad.Tape():
        picked = ad.pair_dot(ad.concat_cols(z, z), rows, cols)
        ad.backward(ad.tsum(picked))

    def f(v):
        m = np.concatenate([v, v], axis=1)
        return float((m[rows] * m[cols]).sum())

    assert rel_err(z.grad, central_diff(f, z0)) < 1e-8


def test_spmm_matches_dense_product_and_grad_check():
    rng = np.random.default_rng(9)
    dense = rng.normal(size=(5, 4)) * (rng.uniform(size=(5, 4)) < 0.5)  # not symmetric
    a = sp.csr_matrix(dense)
    h = ad.tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = ad.tensor(rng.normal(size=(5, 3)))
    assert np.allclose(ad.spmm(a, h).data, dense @ h.data, atol=1e-12)
    assert ad.grad_check(lambda: ad.tsum(ad.mul(ad.spmm(a, h), w)), {"h": h}) < 1e-6


def test_tape_frees_a_product_no_vjp_reads():
    # spmm's vjp reads only its adjoint and matmul's w-vjp only x, so once
    # the forward has passed the matmul product nothing holds it: of the
    # two [2000, 64] arrays made, only the spmm output stays
    rng = np.random.default_rng(12)
    a = sp.random(2000, 2000, density=0.002, format="csr", random_state=12)
    x = ad.tensor(rng.normal(size=(2000, 32)))
    w = ad.tensor(rng.normal(size=(32, 64)), requires_grad=True)
    with ad.Tape():
        tracemalloc.start()
        try:
            out = ad.spmm(a, ad.matmul(x, w))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        ad.backward(ad.tsum(out))
    assert out.data.nbytes <= held < 1.25 * out.data.nbytes, held
    assert np.allclose(w.grad, x.data.T @ (a.T @ np.ones((2000, 64))))


def test_spmm_rejects_dense_and_misaligned_operands():
    h = ad.tensor(np.ones((3, 2)))
    with pytest.raises(TypeError, match="sparse"):
        ad.spmm(np.eye(3), h)
    with pytest.raises(ShapeError, match=r"\(4, 4\)"):
        ad.spmm(sp.identity(4, format="csr"), h)


def test_pair_dot_values_and_grad_check():
    rng = np.random.default_rng(10)
    z = ad.tensor(rng.normal(size=(5, 3)), requires_grad=True)
    rows = np.array([0, 1, 3, 0, 2, 4])
    cols = np.array([1, 1, 0, 1, 4, 2])  # a self pair, a repeated pair, both orders of one pair
    assert np.allclose(ad.pair_dot(z, rows, cols).data, (z.data @ z.data.T)[rows, cols],
                       atol=1e-12)
    w = ad.tensor(rng.normal(size=6))
    assert ad.grad_check(lambda: ad.tsum(ad.mul(ad.pair_dot(z, rows, cols), w)),
                         {"z": z}) < 1e-6


def test_no_tape_means_no_recording():
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    _ = ad.square(x)  # outside any tape: computed, never recorded
    with ad.Tape() as tape:
        loss = ad.tmean(ad.square(x))
        assert len(tape.entries) == 2
        ad.backward(loss)
    assert np.array_equal(x.grad, [1.0, 2.0])


def test_backward_without_tape_rejected():
    x = ad.tensor([1.0], requires_grad=True)
    loss = ad.tsum(x)
    with pytest.raises(RuntimeError, match="tape"):
        ad.backward(loss)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def scalar_adam_oracle(x0, grad_fn, steps, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam recurrence on a plain float, used as the oracle."""
    x, m, v = x0, 0.0, 0.0
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    return x


def test_adam_first_step_size():
    p = {"x": ad.tensor([1.0], requires_grad=True)}
    opt = ad.Adam(p, lr=1e-3)
    p["x"].grad = np.array([2.0])
    ad.adam_step(opt)
    delta = 1.0 - p["x"].data[0]
    assert delta == pytest.approx(1e-3, rel=1e-6)
    assert opt.t == 1


def test_adam_zero_gradient_keeps_params():
    p = {"x": ad.tensor([3.0, -1.0], requires_grad=True),
         "y": ad.tensor([2.0], requires_grad=True)}  # no grad at all counts as zero
    opt = ad.Adam(p, lr=1e-3)
    p["x"].grad = np.zeros(2)
    ad.adam_step(opt)
    assert np.array_equal(p["x"].data, [3.0, -1.0])
    assert np.array_equal(p["y"].data, [2.0])
    assert opt.t == 1


def test_adam_quadratic_matches_scalar_recurrence():
    p = {"x": ad.tensor([5.0], requires_grad=True)}
    opt = ad.Adam(p, lr=0.1)
    for _ in range(100):
        opt.zero_grad()
        with ad.Tape():
            ad.backward(ad.tsum(ad.square(p["x"])))
        ad.adam_step(opt)
    oracle = scalar_adam_oracle(5.0, lambda x: 2 * x, 100, lr=0.1)
    assert p["x"].data[0] == pytest.approx(oracle, abs=1e-12)
    assert oracle ** 2 <= 0.5 * 25.0
    assert p["x"].data[0] ** 2 <= 0.5 * 25.0


def test_adam_matches_textbook_expression_bitwise():
    # the in-place update against the allocating one-line formula it replaces
    rng = np.random.default_rng(13)
    shapes = {"w": (4, 3), "b": (3,), "s": ()}
    p = {k: ad.tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in p.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = ad.Adam(p, lr=0.01)
    for t in range(1, 6):
        grads = {k: rng.normal(size=s) for k, s in shapes.items()}
        for k in p:
            p[k].grad = grads[k]
        ad.adam_step(opt)
        bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
            ref[k] = ref[k] - 0.01 * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)
    for k in p:
        assert np.array_equal(p[k].data, ref[k]), k
        assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), k


def test_adam_scratch_does_not_grow_with_the_parameter():
    # a [4000, 128] parameter: Adam keeps m and v and two rows of one chunk
    # (plus 4 KiB for the Python objects), not two rows of 512,000 entries
    p = {"w": ad.tensor(np.ones((4000, 128)), requires_grad=True)}
    opt, peak = traced_peak(lambda: ad.Adam(p, lr=1e-3))
    assert opt.scratch.shape == (2, ad.ADAM_CHUNK)
    assert peak <= opt.m["w"].nbytes + opt.v["w"].nbytes + 2 * ad.ADAM_CHUNK * 8 + 4096


def test_adam_step_allocates_nothing_that_grows_with_the_parameter():
    # the finite check and the update both work in opt.scratch: one step on a
    # [4000, 128] parameter allocates a few views, not a 512,000-entry bool mask
    p = {"w": ad.tensor(np.ones((4000, 128)), requires_grad=True)}
    opt = ad.Adam(p, lr=1e-3)
    p["w"].grad = np.full((4000, 128), 0.5)
    _, peak = traced_peak(lambda: ad.adam_step(opt))
    assert opt.t == 1 and peak <= 16 * 1024, peak


def test_adam_chunks_match_the_whole_array_update_bitwise():
    # a parameter of two and a half chunks and one that has a grad on the
    # first step only, against the in-place sequence run on whole arrays
    rng = np.random.default_rng(17)
    shapes = {"w": (ad.ADAM_CHUNK * 5 // 8, 4), "b": (3, 5)}
    p = {k: ad.tensor(rng.normal(size=s), requires_grad=True) for k, s in shapes.items()}
    ref = {k: t.data.copy() for k, t in p.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    opt = ad.Adam(p, lr=0.01)
    for t in range(1, 4):
        grads = {"w": rng.normal(size=shapes["w"]),
                 "b": rng.normal(size=shapes["b"]) if t == 1 else np.zeros(shapes["b"])}
        p["w"].grad = grads["w"]
        p["b"].grad = grads["b"] if t == 1 else None
        ad.adam_step(opt)
        bc1, bc2 = 1.0 - ad.BETA1 ** t, 1.0 - ad.BETA2 ** t
        for k, g in grads.items():
            s1 = np.multiply(g, 1.0 - ad.BETA1)
            m[k] *= ad.BETA1
            m[k] += s1
            s1 = np.multiply(g, g)
            s1 *= 1.0 - ad.BETA2
            v[k] *= ad.BETA2
            v[k] += s1
            s1 = np.divide(m[k], bc1)
            s1 *= 0.01
            s2 = np.sqrt(np.divide(v[k], bc2))
            s2 += ad.EPSILON
            s1 /= s2
            ref[k] -= s1
    assert p["w"].size == ad.ADAM_CHUNK * 5 // 2
    for k in p:
        assert np.array_equal(p[k].data, ref[k]), k
        assert np.array_equal(opt.m[k], m[k]) and np.array_equal(opt.v[k], v[k]), k


def test_adam_nan_gradient_names_parameter():
    p = {"theta": ad.tensor([1.0], requires_grad=True)}
    opt = ad.Adam(p, lr=1e-3)
    p["theta"].grad = np.array([np.nan])
    with pytest.raises(NumericError, match="theta"):
        ad.adam_step(opt)


def test_adam_non_finite_later_gradient_updates_nothing():
    # the bad gradient sits on the last parameter: the earlier ones must not move
    p = {name: ad.tensor([1.0, -2.0], requires_grad=True) for name in ("a", "b", "c")}
    opt = ad.Adam(p, lr=0.1)
    for t in p.values():
        t.grad = np.array([0.5, -1.0])
    ad.adam_step(opt)
    before = {k: (p[k].data.copy(), opt.m[k].copy(), opt.v[k].copy()) for k in p}
    p["a"].grad = np.array([0.25, 1.0])
    p["b"].grad = None  # a zero gradient still decays the moments
    p["c"].grad = np.array([1.0, np.inf])
    with pytest.raises(NumericError, match="parameter 'c'"):
        ad.adam_step(opt)
    assert opt.t == 1
    for k, (data, m, v) in before.items():
        assert np.array_equal(p[k].data, data), k
        assert np.array_equal(opt.m[k], m) and np.array_equal(opt.v[k], v), k


def test_train_step_matches_hand_written_step():
    x = ad.tensor([[1.0, 2.0], [-1.0, 0.5]])
    p = {"w": ad.tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)}
    q = {"w": ad.tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)}
    opt_p, opt_q = ad.Adam(p, lr=0.1), ad.Adam(q, lr=0.1)

    def loss(params):
        return ad.tsum(ad.square(ad.matmul(x, params["w"])))

    for _ in range(3):
        # extra terms are reported, not trained on
        terms = ad.train_step(opt_p, lambda: {"total": loss(p), "mean": ad.tmean(p["w"])},
                              "toy")
        mean_before = float(q["w"].data.mean())
        opt_q.zero_grad()
        with ad.Tape():
            total = loss(q)
            ad.backward(total)
        ad.adam_step(opt_q)
        assert list(terms.items()) == [("total", total.item()), ("mean", mean_before)]
        assert all(type(t) is float for t in terms.values())
    assert np.array_equal(p["w"].data, q["w"].data)
    assert opt_p.t == opt_q.t == 3


def test_train_step_nan_total_raises_before_update():
    p = {"w": ad.tensor([1.0, 2.0], requires_grad=True)}
    opt = ad.Adam(p, lr=0.1)
    ad.train_step(opt, lambda: {"total": ad.tsum(ad.square(p["w"]))}, "warm-up")
    before = (p["w"].data.copy(), opt.m["w"].copy(), opt.v["w"].copy(), opt.t)
    with pytest.raises(NumericError, match=r"stage 9, step 4: non-finite loss"):
        ad.train_step(opt, lambda: {"total": ad.scale(ad.tsum(ad.square(p["w"])), float("nan"))},
                      "stage 9, step 4")
    assert np.array_equal(p["w"].data, before[0])
    assert np.array_equal(opt.m["w"], before[1])
    assert np.array_equal(opt.v["w"], before[2])
    assert opt.t == before[3] == 1


# ---------------------------------------------------------------------------
# grad_check
# ---------------------------------------------------------------------------

def test_grad_check_linear_layer_is_exact():
    rng = np.random.default_rng(8)
    x = ad.tensor(rng.uniform(0.1, 2.0, size=(4, 3)))
    w = ad.tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b = ad.tensor(rng.normal(size=2), requires_grad=True)
    err = ad.grad_check(lambda: ad.tsum(ad.matmul(x, w, bias=b)), {"w": w, "b": b})
    assert err < 1e-8


def test_grad_check_flags_a_wrong_rule():
    # sanity: the checker must notice a deliberately broken gradient
    x = ad.tensor([2.0], requires_grad=True)

    def bad_loss():
        out = ad.square(x)
        out2 = ad._make_out(out.data * 1.0, (out,), (lambda g: g * 0.5,))  # wrong vjp
        return ad.tsum(out2)

    assert ad.grad_check(bad_loss, {"x": x}) > 0.4
