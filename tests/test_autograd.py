import numpy as np
import pytest

import paragen.autograd as ag
from paragen.autograd import Tensor, backward
from paragen.errors import DimensionError, NumericalError
from paragen.gradcheck import grad_check

from conftest import model_part
from oracles import matmul_triple_loop, softmax_highprec


def test_matmul_identity():
    out = ag.matmul(Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[3.0], [4.0]]


def test_matmul_direct():
    out = ag.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.tolist() == [[11.0]]


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    got = ag.matmul(Tensor(a), Tensor(b)).data
    np.testing.assert_allclose(got, matmul_triple_loop(a, b), rtol=1e-13, atol=1e-13)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = Tensor(rng.normal(size=(3, 5)))
        b = Tensor(rng.normal(size=(5, 4)))
        c = Tensor(rng.normal(size=(4, 2)))
        left = ag.matmul(ag.matmul(a, b), c).data
        right = ag.matmul(a, ag.matmul(b, c)).data
        np.testing.assert_allclose(left, right, rtol=1e-9)


def test_softmax_symmetry():
    assert ag.softmax(Tensor([0.0, 0.0])).data.tolist() == [0.5, 0.5]


def test_softmax_huge_inputs_stable():
    out = ag.softmax(Tensor([1000.0, 1000.0, 1000.0])).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_frozen_values():
    got = ag.softmax(Tensor([1.0, 2.0, 3.0])).data
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
    np.testing.assert_allclose(got, expected, rtol=0, atol=5e-16)


def test_softmax_matches_highprec_oracle():
    rng = np.random.default_rng(2)
    for scale in (1.0, 10.0, 1e3):
        x = rng.normal(size=7) * scale
        np.testing.assert_allclose(ag.softmax(Tensor(x)).data, softmax_highprec(x),
                                   rtol=0, atol=1e-14)


def test_softmax_sums_to_one_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        scale = 10 ** rng.uniform(-2, 3)
        y = ag.softmax(Tensor(rng.normal(size=n) * scale)).data
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y >= 0)


def test_softmax_argmax_shift_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        e = rng.normal(size=6)
        c = rng.uniform(-100, 100)
        a1 = int(np.argmax(ag.softmax(Tensor(e)).data))
        a2 = int(np.argmax(ag.softmax(Tensor(e + c)).data))
        assert a1 == a2


def test_softmax_empty_error():
    with pytest.raises(DimensionError):
        ag.softmax(Tensor(np.zeros(0)))


def test_tanh_sigmoid_zero():
    assert ag.tanh(Tensor(0.0)).item() == 0.0
    assert ag.sigmoid(Tensor(0.0)).item() == 0.5


def test_sigmoid_saturation():
    hi = ag.sigmoid(Tensor(40.0)).item()
    lo = ag.sigmoid(Tensor(-40.0)).item()
    assert np.isfinite(hi) and np.isfinite(lo)
    assert abs(hi - 1.0) < 1e-12
    assert abs(lo) < 1e-12 and lo > 0.0
    assert lo == pytest.approx(4.248354255291589e-18, rel=1e-12)


def test_elementwise_shape_errors():
    with pytest.raises(DimensionError):
        ag.mul(Tensor([1.0]), Tensor([1.0, 2.0]))
    with pytest.raises(DimensionError):  # a rank-0 operand does not broadcast
        ag.mul(Tensor(2.0), Tensor([1.0, 3.0]))


def test_rank_limit():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 2, 2, 2)))


def test_backward_needs_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DimensionError):
        backward(ag.tanh(x))


def test_backward_nonfinite_loss():
    x = Tensor(np.nan, requires_grad=True)
    with pytest.raises(NumericalError):
        backward(ag.tanh(x))


def test_gradient_accumulates_when_reused():
    x = Tensor(3.0, requires_grad=True)
    loss = ag.mul(ag.mul(x, x), x)  # x^3 -> grad 3x^2
    backward(loss)
    assert x.grad == pytest.approx(27.0, abs=1e-12)


def test_unreachable_parameter_keeps_zero_grad():
    used = Tensor([1.0, 2.0], requires_grad=True)
    unused = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    backward(ag.tanh(used).sum())
    assert unused.grad.shape == unused.data.shape
    assert np.all(unused.grad == 0.0)
    assert np.any(used.grad != 0.0)


def _check(f, named, tol=1e-6):
    report = grad_check(f, named, h=1e-5, probe_dtype=np.float64)
    assert report.max_rel_err <= tol, repr(report)


def test_every_op_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    v = Tensor(rng.normal(size=4), requires_grad=True)
    u = Tensor(rng.normal(size=4), requires_grad=True)
    s = Tensor(rng.normal(), requires_grad=True)
    pos = Tensor(rng.uniform(0.5, 2.0, size=4), requires_grad=True)
    wm = Tensor(rng.normal(size=(3, 2)))
    w4 = Tensor(rng.normal(size=4))

    cases = {
        "matmul_mm": (lambda: ag.mul(ag.matmul(a, b), wm).sum(), [("a", a), ("b", b)]),
        "matmul_mv": (lambda: ag.mul(ag.matmul(a, v), Tensor([1.0, -2.0, 0.5])).sum(),
                      [("a", a), ("v", v)]),
        "matmul_vv": (lambda: ag.matmul(v, u), [("v", v), ("u", u)]),
        "mul": (lambda: ag.mul(ag.mul(v, u), w4).sum(), [("v", v), ("u", u)]),
        "tanh": (lambda: ag.mul(ag.tanh(v), w4).sum(), [("v", v)]),
        "sigmoid": (lambda: ag.mul(ag.sigmoid(v), w4).sum(), [("v", v)]),
        "softmax": (lambda: ag.mul(ag.softmax(v), w4).sum(), [("v", v)]),
        "log": (lambda: ag.mul(ag.log(pos), w4).sum(), [("pos", pos)]),
        "sum": (lambda: ag.mul(v.sum(), s), [("v", v), ("s", s)]),
    }
    for name, (f, named) in cases.items():
        try:
            _check(f, named)
        except AssertionError as exc:
            raise AssertionError(f"op {name}: {exc}") from exc


def test_lstm_backward_matches_finite_differences():
    # two rows, so the weight gradients sum over rows
    rng = np.random.default_rng(8)
    cell = model_part("encoder_fwd", seed=8, d_emb=3, d_h=4)
    z = Tensor(rng.normal(size=(2, 7)), requires_grad=True)
    c0 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
    wh, wc = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))

    def f():
        W, b = ag.stack_gates(cell)
        h, c, cache = ag.lstm_cell(z.data @ W.T + b, c0.data)

        def back(g):
            d_pre, g_c = ag.lstm_cell_backward(cache, g * wh, g * wc)
            ag.accumulate_gates(cell, d_pre, z.data)
            z.grad += d_pre @ W
            c0.grad += g_c

        return ag._node((h * wh).sum() + (c * wc).sum(),
                        [z, c0] + [p for _, p in cell.named_parameters()], back)

    named = cell.named_parameters() + [("z", z), ("c0", c0)]
    _check(f, named, tol=1e-6)


def test_all_outputs_finite_on_reasonable_inputs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = Tensor(rng.normal(size=8) * 100)
        for out in (ag.tanh(x), ag.sigmoid(x), ag.softmax(x), ag.log(ag.softmax(x))):
            assert np.all(np.isfinite(out.data))
