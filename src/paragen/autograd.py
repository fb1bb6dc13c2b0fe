"""Dense float64 tensors with reverse-mode automatic differentiation, and the
numpy LSTM cell: one product of its stacked gates per step, and a backward
that leaves the gate weight gradients to one product over every step.

Every operation builds a node in a computation graph; ``backward`` walks the
graph in reverse topological order and accumulates gradients into every
tensor created with ``requires_grad=True``. The graph is rebuilt from scratch
on every forward pass, so there is no state to reset between examples beyond
zeroing parameter gradients.

Training builds one node per example, whose backward is hand-written numpy
(training.sequence_loss); the ops here build small graphs, as in demo 01.

All storage is 64-bit, row-major, rank <= 3.
"""

import numpy as np

from .errors import DimensionError, NumericalError

LOG_FLOOR = 1e-12  # probabilities are clamped here before log


class Tensor:
    """A dense float64 array plus a gradient accumulator.

    Parameters (leaves created with ``requires_grad=True``) get a
    pre-allocated zero gradient so that parameters unreachable from a loss
    report an exactly-zero gradient after ``backward``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim > 3:
            raise DimensionError(f"rank {arr.ndim} tensors unsupported (max rank 3)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._backward = None

    def item(self):
        return float(self.data)

    def zero_grad(self):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        else:
            self.grad.fill(0.0)

    def sum(self):
        return _node(self.data.sum(), (self,),
                     lambda g, a=self: _accum(a, np.broadcast_to(g, a.data.shape)))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _node(data, parents, backward):
    """Build a graph node; drop the edges when no parent needs gradients.

    The dtype follows the inputs: normally float64, but the gradient checker
    probes the forward pass at extended precision by seeding longdouble leaf
    data, and every op promotes naturally.
    """
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data)
    out.grad = None
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _toposort(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, emitted = stack.pop()
        if emitted:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss):
    """Accumulate d(loss)/d(tensor) into ``.grad`` of every reachable tensor."""
    if loss.data.shape != ():
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NumericalError("backward called on a non-finite loss")
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(_toposort(loss)):
        if node._backward is not None:
            node._backward(node.grad)


# ---------------------------------------------------------------------------
# products


def mul(a, b):
    """Elementwise product of two tensors of one shape."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")

    def back(g, a=a, b=b):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _node(a.data * b.data, (a, b), back)


def matmul(a, b):
    """Matrix/vector product for rank-1 and rank-2 operands."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise DimensionError(f"matmul: ranks {ad.ndim} and {bd.ndim} unsupported")
    if ad.shape[-1] != bd.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for {ad.shape} x {bd.shape}")

    def back(g, a=a, b=b):
        # as (m x k) @ (k x n), a vector a being one row and a vector b one column
        A = a.data.reshape(-1, a.data.shape[-1])
        B = b.data.reshape(b.data.shape[0], -1)
        G = np.reshape(g, (A.shape[0], B.shape[1]))
        _accum(a, (G @ B.T).reshape(a.data.shape))
        _accum(b, (A.T @ G).reshape(b.data.shape))

    return _node(ad @ bd, (a, b), back)


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a):
    y = np.tanh(a.data)
    return _node(y, (a,), lambda g, a=a, y=y: _accum(a, g * (1.0 - y * y)))


def sigmoid(a):
    y = _sig(a.data)
    return _node(y, (a,), lambda g, a=a, y=y: _accum(a, g * y * (1.0 - y)))


def softmax(v):
    """Stable softmax of a vector (``softmax_rows``)."""
    if v.data.ndim != 1 or v.data.shape[0] == 0:
        raise DimensionError(f"softmax: need a nonempty vector, got shape {v.data.shape}")
    y = softmax_rows(v.data)
    return _node(y, (v,), lambda g, v=v, y=y: _accum(v, y * (g - np.dot(g, y))))


def log(a, floor=LOG_FLOOR):
    """log(max(x, floor)); the clamp keeps exact-zero probabilities finite."""
    clamped = np.maximum(a.data, floor)
    return _node(np.log(clamped), (a,), lambda g, a=a, c=clamped, floor=floor:
                 _accum(a, np.where(a.data > floor, g / c, 0.0)))


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
    act = _sig(pre)
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


def softmax_rows(x):
    """Stable softmax along the last axis (max-subtracted exp-normalize)."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _sig(x):
    # exp only ever sees a non-positive argument, so no overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
