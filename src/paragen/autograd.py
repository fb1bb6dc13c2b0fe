"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation builds a node in a computation graph; ``backward`` walks the
graph in reverse topological order and accumulates gradients into every
tensor created with ``requires_grad=True``. The graph is rebuilt from scratch
on every forward pass, so there is no state to reset between examples beyond
zeroing parameter gradients.

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

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

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
# elementwise and shape operations


def add(a, b):
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape} differ")

    def back(g, a=a, b=b):
        _accum(a, g)
        _accum(b, g)

    return _node(a.data + b.data, (a, b), back)


def neg(a):
    return _node(-a.data, (a,), lambda g, a=a: _accum(a, -g))


def mul(a, b):
    """Elementwise product; one operand may be a scalar (rank 0)."""
    if a.data.shape != b.data.shape and a.data.ndim != 0 and b.data.ndim != 0:
        raise DimensionError(f"mul: shapes {a.data.shape} and {b.data.shape} differ")

    def back(g, a=a, b=b):
        ga = g * b.data
        gb = g * a.data
        _accum(a, ga.sum() if a.data.ndim == 0 and ga.ndim != 0 else ga)
        _accum(b, gb.sum() if b.data.ndim == 0 and gb.ndim != 0 else gb)

    return _node(a.data * b.data, (a, b), back)


def matmul(a, b):
    """Matrix/vector product for rank-1 and rank-2 operands."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise DimensionError(f"matmul: ranks {ad.ndim} and {bd.ndim} unsupported")
    if ad.shape[-1] != bd.shape[0]:
        raise DimensionError(f"matmul: inner dimensions disagree for {ad.shape} x {bd.shape}")

    def back(g, a=a, b=b):
        ad, bd = a.data, b.data
        if ad.ndim == 2 and bd.ndim == 2:
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            _accum(a, np.outer(g, bd))
            _accum(b, ad.T @ g)
        elif ad.ndim == 1 and bd.ndim == 2:
            _accum(a, bd @ g)
            _accum(b, np.outer(ad, g))
        else:
            _accum(a, g * bd)
            _accum(b, g * ad)

    return _node(ad @ bd, (a, b), back)


def transpose(a):
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: need rank 2, got shape {a.data.shape}")
    return _node(a.data.T.copy(), (a,), lambda g, a=a: _accum(a, g.T))


def concat(a, b, axis=0):
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim or ad.ndim == 0:
        raise DimensionError(f"concat: shapes {ad.shape} and {bd.shape} incompatible")
    for ax in range(ad.ndim):
        if ax != axis and ad.shape[ax] != bd.shape[ax]:
            raise DimensionError(f"concat: shapes {ad.shape} and {bd.shape} disagree off axis {axis}")
    split = ad.shape[axis]

    def back(g, a=a, b=b, axis=axis, split=split):
        idx_a = tuple(slice(None) if ax != axis else slice(0, split) for ax in range(g.ndim))
        idx_b = tuple(slice(None) if ax != axis else slice(split, None) for ax in range(g.ndim))
        _accum(a, g[idx_a])
        _accum(b, g[idx_b])

    return _node(np.concatenate([ad, bd], axis=axis), (a, b), back)


def stack(rows):
    """Stack rank-1 tensors of equal length into a rank-2 tensor."""
    rows = list(rows)
    if not rows:
        raise DimensionError("stack: empty row list")

    def back(g, rows=rows):
        for i, r in enumerate(rows):
            _accum(r, g[i])

    return _node(np.stack([r.data for r in rows]), rows, back)


def tile_rows(v, n):
    """Repeat a vector as the rows of an (n, len(v)) matrix."""
    if v.data.ndim != 1:
        raise DimensionError(f"tile_rows: need rank 1, got shape {v.data.shape}")
    return _node(np.tile(v.data, (n, 1)), (v,), lambda g, v=v: _accum(v, g.sum(axis=0)))


def take(t, index):
    """Gather along the first axis: an int picks one row (one element of a
    vector); a list or array of ints stacks rows, summing repeated ids' gradients."""
    n = t.data.shape[0] if t.data.ndim else 0
    if isinstance(index, (int, np.integer)):
        if not 0 <= index < n:  # no numpy reduction: this path runs per token
            raise DimensionError(f"take: index {index} out of range for shape {t.data.shape}")
        out = t.data[index].copy()
    else:
        index = np.asarray(index, dtype=np.intp)
        if t.data.ndim == 0 or index.size and (index.min() < 0 or index.max() >= n):
            raise DimensionError(f"take: index out of range for shape {t.data.shape}")
        out = t.data[index]

    def back(g, t=t, index=index):
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        if isinstance(index, np.ndarray):
            np.add.at(t.grad, index, g)
        else:
            t.grad[index] += g

    return _node(out, (t,), back)


def pad_to(v, size):
    """Zero-pad a vector at the end up to ``size`` elements."""
    if v.data.ndim != 1:
        raise DimensionError(f"pad_to: need rank 1, got shape {v.data.shape}")
    n = v.data.shape[0]
    if size < n:
        raise DimensionError(f"pad_to: target {size} smaller than length {n}")
    out = np.zeros(size, dtype=v.data.dtype)
    out[:n] = v.data
    return _node(out, (v,), lambda g, v=v, n=n: _accum(v, g[:n]))


def scatter_add(v, ids, size):
    """Scatter vector entries into a zero vector of ``size``, summing collisions."""
    ids = np.asarray(ids, dtype=np.intp)
    if v.data.ndim != 1 or ids.shape != v.data.shape:
        raise DimensionError(f"scatter_add: values {v.data.shape} and ids {ids.shape} disagree")
    if ids.size and (ids.min() < 0 or ids.max() >= size):
        raise DimensionError(f"scatter_add: id out of range [0, {size})")
    out = np.zeros(size, dtype=v.data.dtype)
    np.add.at(out, ids, v.data)
    return _node(out, (v,), lambda g, v=v, ids=ids: _accum(v, g[ids]))


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a):
    y = np.tanh(a.data)
    return _node(y, (a,), lambda g, a=a, y=y: _accum(a, g * (1.0 - y * y)))


def sigmoid(a):
    y = _sig(a.data)
    return _node(y, (a,), lambda g, a=a, y=y: _accum(a, g * y * (1.0 - y)))


def softmax(v):
    """Stable softmax of a vector (max-subtracted exp-normalize)."""
    if v.data.ndim != 1 or v.data.shape[0] == 0:
        raise DimensionError(f"softmax: need a nonempty vector, got shape {v.data.shape}")
    shifted = v.data - v.data.max()
    e = np.exp(shifted)
    y = e / e.sum()

    def back(g, v=v, y=y):
        _accum(v, y * (g - np.dot(g, y)))

    return _node(y, (v,), back)


def log(a, floor=LOG_FLOOR):
    """log(max(x, floor)); the clamp keeps exact-zero probabilities finite."""
    clamped = np.maximum(a.data, floor)
    y = np.log(clamped)

    def back(g, a=a, clamped=clamped, floor=floor):
        _accum(a, np.where(a.data > floor, g / clamped, 0.0))

    return _node(y, (a,), back)


def lstm_step(cell, x, state):
    """One LSTM cell step as a single fused graph node.

    ``cell`` carries gate weights w_i/w_f/w_g/w_o (each d_h x (d_in + d_h))
    and biases b_i/b_f/b_g/b_o. Returns (hidden, cell_state):
    i,f,o = sigmoid(W [x,h] + b), g = tanh(W_g [x,h] + b_g),
    c' = f*c + i*g, h' = o*tanh(c').

    Fused because the cell is the inner loop of everything here; the manual
    backward is checked against finite differences and a scalar-loop oracle.
    """
    h_prev, c_prev = state
    if x.data.ndim != 1 or h_prev.data.ndim != 1:
        raise DimensionError("lstm_step: inputs must be vectors")
    d_h, d_z = cell.w_i.data.shape
    if x.data.shape[0] + d_h != d_z or h_prev.data.shape[0] != d_h:
        raise DimensionError(
            f"lstm_step: input {x.data.shape}/state {h_prev.data.shape} do not match "
            f"cell widths (d_in={d_z - d_h}, d_h={d_h})")
    z = concat(x, h_prev)
    zd, cd = z.data, c_prev.data

    gi = _sig(cell.w_i.data @ zd + cell.b_i.data)
    gf = _sig(cell.w_f.data @ zd + cell.b_f.data)
    gg = np.tanh(cell.w_g.data @ zd + cell.b_g.data)
    go = _sig(cell.w_o.data @ zd + cell.b_o.data)
    c_new = gf * cd + gi * gg
    tc = np.tanh(c_new)
    h_new = go * tc

    parents = (z, c_prev, cell.w_i, cell.b_i, cell.w_f, cell.b_f,
               cell.w_g, cell.b_g, cell.w_o, cell.b_o)

    def back(g, z=z, c_prev=c_prev, cell=cell, zd=zd, cd=cd,
             gi=gi, gf=gf, gg=gg, go=go, tc=tc):
        gh, gc = g[0], g[1]
        d_c = gh * go * (1.0 - tc * tc) + gc
        d_pre_o = gh * tc * go * (1.0 - go)
        d_pre_i = d_c * gg * gi * (1.0 - gi)
        d_pre_f = d_c * cd * gf * (1.0 - gf)
        d_pre_g = d_c * gi * (1.0 - gg * gg)
        _accum(cell.w_i, np.outer(d_pre_i, zd))
        _accum(cell.b_i, d_pre_i)
        _accum(cell.w_f, np.outer(d_pre_f, zd))
        _accum(cell.b_f, d_pre_f)
        _accum(cell.w_g, np.outer(d_pre_g, zd))
        _accum(cell.b_g, d_pre_g)
        _accum(cell.w_o, np.outer(d_pre_o, zd))
        _accum(cell.b_o, d_pre_o)
        _accum(z, cell.w_i.data.T @ d_pre_i + cell.w_f.data.T @ d_pre_f
               + cell.w_g.data.T @ d_pre_g + cell.w_o.data.T @ d_pre_o)
        _accum(c_prev, d_c * gf)

    out = _node(np.stack([h_new, c_new]), parents, back)
    return take(out, 0), take(out, 1)


def _sig(x):
    # exp only ever sees a non-positive argument, so no overflow
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
