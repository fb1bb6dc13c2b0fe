"""The numpy LSTM cell, softmax and sigmoid that the encoder, the decoder step
and decoding share: one product of a cell's stacked gates per step, and a
backward that leaves the gate weight gradients to one product over every
step."""

import numpy as np

from .errors import DimensionError

LOG_FLOOR = 1e-12  # probabilities are clamped here before log

GATES = "ifgo"  # the block order of stacked gate weights and of every (B x 4*d_h) array


def stack_gates(cell):
    """A cell's gate weights (4*d_h x d_z) and biases (4*d_h), stacked from its tensors' .data."""
    return tuple(np.concatenate([getattr(cell, f"{kind}_{gate}").data for gate in GATES])
                 for kind in "wb")


def lstm_cell(pre, c):
    """The LSTM cell on B rows of gate pre-activations pre = W [x, h] + b
    (B x 4*d_h) and cell states c (B x d_h): i,f,o = sigmoid, g = tanh,
    c' = f*c + i*g, h' = o*tanh(c'). Returns (h', c', cache)."""
    d_h = c.shape[1]
    if pre.shape != (c.shape[0], 4 * d_h):
        raise DimensionError(f"lstm: gate pre-activations {pre.shape} do not fit cell "
                             f"state {c.shape}")
    act = sigmoid(pre)
    act[:, 2 * d_h:3 * d_h] = np.tanh(pre[:, 2 * d_h:3 * d_h])
    gi, gf, gg, go = act.reshape(-1, 4, d_h).swapaxes(0, 1)
    c_new = gf * c + gi * gg
    tc = np.tanh(c_new)
    return go * tc, c_new, (c, gi, gf, gg, go, tc)


def lstm_cell_backward(cache, g_h, g_c):
    """Gradients of ``lstm_cell`` for d h' and d c' (B x d_h): returns
    (d pre, d c) and accumulates nothing (see ``accumulate_gates``)."""
    c, gi, gf, gg, go, tc = cache
    d_c = g_h * go * (1.0 - tc * tc) + g_c
    d_pre = np.concatenate([d_c * gg * gi * (1.0 - gi), d_c * c * gf * (1.0 - gf),
                            d_c * gi * (1.0 - gg * gg), g_h * tc * go * (1.0 - go)], axis=1)
    return d_pre, d_c * gf


def accumulate_gates(cell, D, Z):
    """Add D.T @ Z and D.sum(0), for the d pre rows D (R x 4*d_h) of the cell
    inputs Z (R x d_z), into the cell's gate weight and bias gradients."""
    d_h = D.shape[1] // 4
    for gate, g_w, g_b in zip(GATES, (D.T @ Z).reshape(4, d_h, -1), D.sum(axis=0).reshape(4, d_h)):
        getattr(cell, f"w_{gate}").grad += g_w
        getattr(cell, f"b_{gate}").grad += g_b


def row_product(a, b):
    """a @ b, a one-row ``a`` computed as a row of a two-row product: numpy
    sends one row to gemv, which rounds apart from gemm's rows."""
    return a @ b if a.shape[-2] != 1 else (np.concatenate([a, a], axis=-2) @ b)[..., :1, :]


def softmax_rows(x, out=None):
    """Stable softmax along the last axis, into ``out`` (which may be x) if given."""
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def sigmoid(x):
    # exp only ever sees a non-positive argument, so no overflow; one division
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e)
