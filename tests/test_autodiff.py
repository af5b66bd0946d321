import math

import numpy as np
import pytest
import scipy.sparse as sp

from latentmap import autodiff as ad
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


def test_bias_add_broadcast_backward():
    x = ad.tensor(np.ones((3, 2)), requires_grad=True)
    b = ad.tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape():
        loss = ad.tsum(ad.add(x, b))
        ad.backward(loss)
    assert np.array_equal(b.grad, [3.0, 3.0])
    assert np.array_equal(x.grad, np.ones((3, 2)))


@pytest.mark.parametrize("op,fn", [
    ("relu", lambda v: max(v, 0.0)),
    ("exp", math.exp),
    ("square", lambda v: v * v),
    ("sqrt", math.sqrt),
])
def test_unary_backward_random_sweep(op, fn):
    # analytic gradient vs a pointwise central difference at 100 random
    # points with magnitudes in [0.1, 10]
    rng = np.random.default_rng(3)
    x0 = rng.uniform(0.1, 10.0, size=100)
    if op != "sqrt":
        x0 = x0 * rng.choice([-1.0, 1.0], size=100)
    x = ad.tensor(x0, requires_grad=True)
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
    x = ad.tensor([1.0, 2.0], requires_grad=True)
    with ad.Tape():
        loss = ad.tsum(ad.square(x))
        ad.backward(loss)
        ad.backward(loss)
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
        h = ad.relu(ad.add(ad.matmul(ad.tensor(x0), params["w1"]), params["b1"]))
        out = ad.add(ad.matmul(h, params["w2"]), params["b2"])
        ad.backward(ad.tsum(ad.square(out)))

    oracles = {
        "w1": central_diff(lambda v: run(v, b1_0, w2_0, b2_0), w1_0),
        "b1": central_diff(lambda v: run(w1_0, v, w2_0, b2_0), b1_0),
        "w2": central_diff(lambda v: run(w1_0, b1_0, v, b2_0), w2_0),
        "b2": central_diff(lambda v: run(w1_0, b1_0, w2_0, v), b2_0),
    }
    for name, oracle in oracles.items():
        assert rel_err(params[name].grad, oracle) < 1e-4, name


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
    opt = ad.Adam(p)
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


def test_adam_nan_gradient_names_parameter():
    p = {"theta": ad.tensor([1.0], requires_grad=True)}
    opt = ad.Adam(p)
    p["theta"].grad = np.array([np.nan])
    with pytest.raises(NumericError, match="theta"):
        ad.adam_step(opt)


def test_train_step_matches_hand_written_step():
    x = ad.tensor([[1.0, 2.0], [-1.0, 0.5]])
    p = {"w": ad.tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)}
    q = {"w": ad.tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)}
    opt_p, opt_q = ad.Adam(p, lr=0.1), ad.Adam(q, lr=0.1)

    def loss(params):
        return ad.tsum(ad.square(ad.matmul(x, params["w"])))

    for _ in range(3):
        # extra terms are reported, not trained on
        terms = ad.train_step(opt_p, lambda: (loss(p), ad.tmean(p["w"])), "toy")
        mean_before = float(q["w"].data.mean())
        opt_q.zero_grad()
        with ad.Tape():
            total = loss(q)
            ad.backward(total)
        ad.adam_step(opt_q)
        assert terms == [total.item(), mean_before]
        assert all(type(t) is float for t in terms)
    assert np.array_equal(p["w"].data, q["w"].data)
    assert opt_p.t == opt_q.t == 3


def test_train_step_nan_total_raises_before_update():
    p = {"w": ad.tensor([1.0, 2.0], requires_grad=True)}
    opt = ad.Adam(p, lr=0.1)
    ad.train_step(opt, lambda: (ad.tsum(ad.square(p["w"])),), "warm-up")
    before = (p["w"].data.copy(), opt.m["w"].copy(), opt.v["w"].copy(), opt.t)
    with pytest.raises(NumericError, match=r"stage 9, step 4: non-finite loss"):
        ad.train_step(opt, lambda: (ad.scale(ad.tsum(ad.square(p["w"])), float("nan")),),
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
    err = ad.grad_check(lambda: ad.tsum(ad.add(ad.matmul(x, w), b)), {"w": w, "b": b})
    assert err < 1e-8


def test_grad_check_flags_a_wrong_rule():
    # sanity: the checker must notice a deliberately broken gradient
    x = ad.tensor([2.0], requires_grad=True)

    def bad_loss():
        out = ad.square(x)
        out2 = ad._make_out(out.data * 1.0, (out,), (lambda g: g * 0.5,))  # wrong vjp
        return ad.tsum(out2)

    assert ad.grad_check(bad_loss, {"x": x}) > 0.4
