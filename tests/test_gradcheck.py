import numpy as np
import pytest

import paragen.autograd as ag
from paragen.autograd import Tensor
from paragen.errors import NumericalError
from paragen.gradcheck import grad_check, relative_error
from paragen.training import sequence_loss

from conftest import tiny_model


def test_square_function():
    x = Tensor(3.0, requires_grad=True)
    report = grad_check(lambda: ag.mul(x, x), [("x", x)], h=1e-5)
    row = report.rows[0]
    assert row.analytic == pytest.approx(6.0, abs=1e-12)
    assert row.numeric == pytest.approx(6.0, abs=1e-9)
    assert report.max_rel_err < 1e-10


def test_softmax_sum_has_zero_gradient():
    x = Tensor(np.array([0.3, -1.2, 2.0, 0.0]), requires_grad=True)
    report = grad_check(lambda: ag.softmax(x).sum(), [("x", x)], h=1e-5)
    for row in report.rows:
        assert abs(row.analytic) <= 1e-12  # conservation: output always sums to 1
        assert abs(row.numeric) <= 1e-9


def test_relative_error_floor():
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(2.0, 1.0) == 0.5
    assert relative_error(0.0, 1e-9) == pytest.approx(0.1)


def test_nonfinite_loss_reports_parameter_name():
    w = Tensor(np.array([3.0, 1.0]), requires_grad=True)

    def f():
        if w.data[0] > 3.0:  # only true once the checker perturbs w[0] upward
            return Tensor(np.inf).sum()
        return ag.mul(w, w).sum()

    with pytest.raises(NumericalError) as err:
        grad_check(f, [("w", w)], h=1e-5)
    assert "w" in str(err.value)


def test_nonfinite_loss_at_start():
    w = Tensor(np.nan, requires_grad=True)
    with pytest.raises(NumericalError):
        grad_check(lambda: ag.mul(w, w), [("w", w)], h=1e-5)


def test_params_restored_after_check():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    before = x.data.copy()
    grad_check(lambda: ag.mul(x, x).sum(), [("x", x)], h=1e-5)
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
    from paragen.pointer import prepare_source, step_backward, step_forward
    from paragen.vocab import BOS

    ev, states, state = prepare_source(["alpha", "zyxxy", "beta"], params, vocab)
    oov = ev.lookup("zyxxy")
    out, cache = step_forward([BOS], ev, states, state, params)
    g_p = np.zeros((1, ev.size))
    g_p[0, oov] = -1.0 / out.p[0, oov]  # the gradient of -log p(zyxxy)
    step_backward(cache, g_p, np.zeros_like(state))
    assert np.all(params.projection.weight.grad == 0.0)
    assert np.all(params.projection.bias.grad == 0.0)
    assert np.any(params.attention.weight.grad != 0.0)
    assert np.any(params.copy_gate.weight.grad != 0.0)
    assert np.any(params.embedding.grad != 0.0)
