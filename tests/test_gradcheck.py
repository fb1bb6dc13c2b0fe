import numpy as np
import pytest

import paragen.autograd as ag
from paragen.errors import NumericalError
from paragen.gradcheck import grad_check, relative_error
from paragen.layers import softmax_rows
from paragen.training import sequence_loss

from conftest import gold_step_backward, leaf, tiny_model


def square_loss(x):
    """sum(x * x) as one loss, whose backward adds 2 g x."""
    def back(g):
        x.grad += 2.0 * g * x.data

    return ag._node((x.data * x.data).sum(), back)


def test_square_function():
    x = leaf(3.0)
    report = grad_check(lambda: square_loss(x), [("x", x)], h=1e-5)
    row = report.rows[0]
    assert row.analytic == pytest.approx(6.0, abs=1e-12)
    assert row.numeric == pytest.approx(6.0, abs=1e-9)
    assert report.max_rel_err < 1e-10


def test_softmax_sum_has_zero_gradient():
    x = leaf([0.3, -1.2, 2.0, 0.0])

    def f():  # sum(softmax(x)), with softmax's backward y * (g - g . y)
        y = softmax_rows(x.data)

        def back(g):
            g_y = np.broadcast_to(g, y.shape)
            x.grad += y * (g_y - np.dot(g_y, y))

        return ag._node(y.sum(), back)

    report = grad_check(f, [("x", x)], h=1e-5)
    for row in report.rows:
        assert abs(row.analytic) <= 1e-12  # conservation: output always sums to 1
        assert abs(row.numeric) <= 1e-9


def test_report_names_worst_element_with_plain_ints():
    w = leaf([[1.0, 2.0], [3.0, 4.0]])

    def f():
        def back(g):
            w.grad += 2.0 * g * w.data
            w.grad[0, 1] += 1.0  # a wrong gradient at one element

        return ag._node((w.data * w.data).sum(), back)

    report = grad_check(f, [("w", w)], h=1e-5)
    assert report.worst.index == (0, 1)
    assert all(type(i) is int for row in report.rows for i in row.index)
    assert "(worst w[0, 1])" in repr(report)


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(2.0, 1.0) == 0.5
    assert relative_error(0.0, 1e-9) == pytest.approx(0.1)


def test_nonfinite_loss_reports_parameter_name():
    w = leaf([3.0, 1.0])

    def f():
        if w.data[0] > 3.0:  # only true once the checker perturbs w[0] upward
            return ag._node(np.inf, lambda g: None)
        return square_loss(w)

    with pytest.raises(NumericalError) as err:
        grad_check(f, [("w", w)], h=1e-5)
    assert "w" in str(err.value)


def test_nonfinite_loss_at_start():
    w = leaf(np.nan)
    with pytest.raises(NumericalError):
        grad_check(lambda: square_loss(w), [("w", w)], h=1e-5)


def test_params_restored_after_check():
    x = leaf([1.0, 2.0])
    before = x.data.copy()
    grad_check(lambda: square_loss(x), [("x", x)], h=1e-5)
    assert x.data.dtype == np.float64
    np.testing.assert_array_equal(x.data, before)


def test_single_step_oov_loss_gradient_flows_only_through_copy_branch():
    # target exists only in the source: final probability has no vocabulary
    # component, so projection weights must get exactly zero gradient while
    # attention and gate parameters get real ones.
    params, vocab = tiny_model(seed=5)
    pair = ("alpha zyxxy beta", "zyxxy")

    def f():
        return sequence_loss(pair, params, vocab)

    report = grad_check(f, params.named_parameters(), h=1e-5)
    assert report.max_rel_err <= 1e-4
    by_param = report.max_by_param()
    assert by_param["projection.weight"] <= 1e-4

    params.zero_grad()
    loss = f()
    ag.backward(loss)
    # the first decoded step targets the OOV; the second targets EOS, which
    # does reach the projection. Check the OOV step in isolation instead.
    params.zero_grad()
    from paragen.model import prepare_source
    from paragen.pointer import step_forward
    from paragen.vocab import BOS

    ev, states, state, _ = prepare_source(["alpha", "zyxxy", "beta"], params, vocab)
    oov = ev.lookup("zyxxy")
    out, caches = step_forward([BOS], ev, states, state, params)
    # the gradient of -log p(zyxxy), and none through the next state
    gold_step_backward(params, ev, states, out, caches, [oov], -1.0 / out.p[:, oov],
                       np.zeros_like(out.state))
    assert np.all(params.projection.weight.grad == 0.0)
    assert np.all(params.projection.bias.grad == 0.0)
    assert np.any(params.attention.weight.grad != 0.0)
    assert np.any(params.copy_gate.weight.grad != 0.0)
    assert np.any(params.embedding.grad != 0.0)
