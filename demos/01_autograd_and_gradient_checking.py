"""Finite-difference checks of the numpy layers: one LSTM cell step written as
a loss whose backward closure is hand-written numpy, checked element by
element against central differences; then the layers' stability corners.

Run: python demos/01_autograd_and_gradient_checking.py
"""

import numpy as np

import paragen.autograd as ag
from paragen.autograd import Tensor
from paragen.gradcheck import grad_check
from paragen.layers import (LOG_FLOOR, accumulate_gates, lstm_cell, lstm_cell_backward, sigmoid,
                            softmax_rows, stack_gates)
from paragen.model import ModelDims, ModelParams

print("== one LSTM cell step, as a loss with a hand-written backward ==")
rng = np.random.default_rng(0)
cell = ModelParams(ModelDims(vocab_size=6, d_emb=3, d_h=4), seed=0).encoder_fwd
z_data, c_data = rng.normal(size=(2, 7)), rng.normal(size=(2, 4))  # two rows of [x, h], and c
z, c0 = Tensor(z_data, np.zeros_like(z_data)), Tensor(c_data, np.zeros_like(c_data))
w_h, w_c = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))


def loss():
    """sum(w_h * h' + w_c * c') of the step, recomputed from the live .data."""
    W, b = stack_gates(cell)
    h, c, cache = lstm_cell(z.data @ W.T + b, c0.data)

    def back(g):
        d_pre, g_c = lstm_cell_backward(cache, g * w_h, g * w_c)
        accumulate_gates(cell, d_pre, z.data)  # gate weight and bias gradients
        z.grad += d_pre @ W
        c0.grad += g_c

    return ag._node((h * w_h).sum() + (c * w_c).sum(), back)


print("loss =", float(loss().data))
report = grad_check(loss, cell.named_parameters() + [("z", z), ("c0", c0)], h=1e-5)
for row in report.rows[:4]:
    print(f"  {row.name}{list(row.index)}: analytic {row.analytic:+.6f} "
          f"numeric {row.numeric:+.6f} rel {row.rel_err:.1e}")
print(f"{len(report.rows)} elements, max relative error: {report.max_rel_err:.3e}")

print()
print("== stability corners ==")
print("softmax([1000,1000,1000]) =", softmax_rows(np.array([1000.0] * 3)))
print("sigmoid(+40) =", float(sigmoid(np.array(40.0))))
print("sigmoid(-40) =", float(sigmoid(np.array(-40.0))))
print(f"log(0) clamps at {LOG_FLOOR:g} ->", np.log(np.maximum(np.array([0.0]), LOG_FLOOR)))
