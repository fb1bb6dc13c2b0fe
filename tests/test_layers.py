import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paragen.autograd as ag
from paragen.autograd import backward
from paragen.errors import DimensionError, NumericalError
from paragen.gradcheck import grad_check
from paragen.layers import (LOG_FLOOR, accumulate_gates, lstm_cell, lstm_cell_backward, sigmoid,
                            softmax_rows, stack_gates)

from conftest import leaf, model_part
from oracles import softmax_highprec, two_branch_sigmoid


def test_softmax_symmetry():
    assert softmax_rows(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]


def test_softmax_huge_inputs_stable():
    out = softmax_rows(np.array([1000.0, 1000.0, 1000.0]))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_frozen_values():
    got = softmax_rows(np.array([1.0, 2.0, 3.0]))
    expected = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]
    np.testing.assert_allclose(got, expected, rtol=0, atol=5e-16)


def test_softmax_matches_highprec_oracle():
    rng = np.random.default_rng(2)
    for scale in (1.0, 10.0, 1e3):
        x = rng.normal(size=7) * scale
        np.testing.assert_allclose(softmax_rows(x), softmax_highprec(x), rtol=0, atol=1e-14)


def test_softmax_sums_to_one_property():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        scale = 10 ** rng.uniform(-2, 3)
        y = softmax_rows(rng.normal(size=n) * scale)
        assert abs(y.sum() - 1.0) <= 1e-12
        assert np.all(y >= 0)


def test_softmax_argmax_shift_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        e = rng.normal(size=6)
        c = rng.uniform(-100, 100)
        assert int(np.argmax(softmax_rows(e))) == int(np.argmax(softmax_rows(e + c)))


def test_sigmoid_zero():
    assert float(sigmoid(np.array(0.0))) == 0.5


def test_sigmoid_saturation():
    hi = float(sigmoid(np.array(40.0)))
    lo = float(sigmoid(np.array(-40.0)))
    assert np.isfinite(hi) and np.isfinite(lo)
    assert abs(hi - 1.0) < 1e-12
    assert abs(lo) < 1e-12 and lo > 0.0
    assert lo == pytest.approx(4.248354255291589e-18, rel=1e-12)


SIGMOID_EDGES = [0.0, -0.0, 40.0, -40.0, 1e308, -1e308, np.inf, -np.inf, 5e-324, -5e-324, np.nan]


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1.0, 800.0), st.integers(1, 8),
       st.lists(st.sampled_from(SIGMOID_EDGES), max_size=len(SIGMOID_EDGES)))
def test_sigmoid_equals_two_branch_oracle_bit_for_bit(seed, sigma, rows, edges):
    """One division over the selected numerator gives the same bits as a
    division in each branch, on normal draws and on zeros, saturating
    values, the extremes of the doubles, infinities and NaN."""
    x = np.random.default_rng(seed).normal(scale=sigma, size=(rows, 256))
    x.flat[:len(edges)] = edges
    assert sigmoid(x).tobytes() == two_branch_sigmoid(x).tobytes()


def _never_called(g):
    raise AssertionError("backward ran the closure of a loss it should reject")


def test_backward_needs_scalar():
    with pytest.raises(DimensionError):
        backward(ag._node(np.array([1.0, 2.0]), _never_called))


def test_backward_nonfinite_loss():
    with pytest.raises(NumericalError):
        backward(ag._node(np.nan, _never_called))


def test_lstm_backward_matches_finite_differences():
    # two rows, so the weight gradients sum over rows
    rng = np.random.default_rng(8)
    cell = model_part("encoder_fwd", seed=8, d_emb=3, d_h=4)
    z = leaf(rng.normal(size=(2, 7)))
    c0 = leaf(rng.normal(size=(2, 4)))
    wh, wc = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))

    def f():
        W, b = stack_gates(cell)
        h, c, cache = lstm_cell(z.data @ W.T + b, c0.data)

        def back(g):
            d_pre, g_c = lstm_cell_backward(cache, g * wh, g * wc)
            accumulate_gates(cell, d_pre, z.data)
            z.grad += d_pre @ W
            c0.grad += g_c

        return ag._node((h * wh).sum() + (c * wc).sum(), back)

    named = cell.named_parameters() + [("z", z), ("c0", c0)]
    report = grad_check(f, named, h=1e-5, probe_dtype=np.float64)
    assert report.max_rel_err <= 1e-6, repr(report)


def test_all_outputs_finite_on_reasonable_inputs():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.normal(size=8) * 100
        for out in (sigmoid(x), softmax_rows(x), np.log(np.maximum(softmax_rows(x), LOG_FLOOR))):
            assert np.all(np.isfinite(out))
