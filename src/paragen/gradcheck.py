"""Finite-difference verification of analytic gradients.

The checker perturbs every element of every named parameter by +-h, evaluates
the loss function twice, and compares the central difference against the
gradient that the loss's backward closure adds. The loss function must
recompute its loss from the live parameter tensors' .data on every call.

The two probe evaluations run at extended precision (numpy longdouble) by
default. A float64 loss value is quantized to about 2e-16 relative, which
turns into ~1e-11 of absolute noise on the difference quotient at h=1e-5 and
would drown the comparison for parameters whose true gradient is tiny;
longdouble probes push that noise three orders of magnitude down while the
model under test stays float64. Pass probe_dtype=np.float64 to probe at
storage precision instead.
"""

from dataclasses import dataclass

import numpy as np

from .autograd import backward
from .errors import NumericalError


@dataclass
class GradCheckRow:
    name: str
    index: tuple
    analytic: float
    numeric: float
    rel_err: float


class GradCheckReport:
    def __init__(self, rows):
        self.rows = rows

    @property
    def max_rel_err(self):
        return max((r.rel_err for r in self.rows), default=0.0)

    @property
    def worst(self):
        return max(self.rows, key=lambda r: r.rel_err) if self.rows else None

    def max_by_param(self):
        out = {}
        for r in self.rows:
            out[r.name] = max(out.get(r.name, 0.0), r.rel_err)
        return out

    def __repr__(self):
        w = self.worst
        where = f" (worst {w.name}{list(w.index)})" if w else ""
        return (f"GradCheckReport(elements={len(self.rows)}, "
                f"max_rel_err={self.max_rel_err:.3e}{where})")


def relative_error(analytic, numeric, floor=1e-8):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), floor)


def grad_check(f, params, h=1e-5, probe_dtype=np.longdouble):
    """Compare analytic and central-difference gradients element by element.

    f: zero-argument callable returning a loss built by autograd._node,
       recomputed from the current contents of the parameter tensors.
    params: iterable of (name, Tensor) pairs, each with a .grad array that
       the loss's backward adds into; the checker zeroes it first.
    h: finite-difference step, sensible range [1e-6, 1e-4].

    Returns a GradCheckReport; rel err per element is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    params = list(params)
    for _, p in params:
        p.grad.fill(0.0)
    loss = f()
    if not np.isfinite(loss.data):
        raise NumericalError("loss is non-finite at the evaluation point")
    backward(loss)
    analytic = {name: p.grad.copy() for name, p in params}

    originals = [p.data for _, p in params]
    for _, p in params:
        p.data = p.data.astype(probe_dtype)
    try:
        rows = []
        two_h = probe_dtype(2.0) * probe_dtype(h)
        for name, p in params:
            flat = p.data.reshape(-1)
            a_flat = analytic[name].reshape(-1)
            for j in range(flat.shape[0]):
                saved = flat[j]
                flat[j] = saved + probe_dtype(h)
                up = f().data
                flat[j] = saved - probe_dtype(h)
                down = f().data
                flat[j] = saved
                if not (np.isfinite(up) and np.isfinite(down)):
                    raise NumericalError(f"non-finite loss while perturbing {name}[{j}]")
                numeric = float((up - down) / two_h)
                a = float(a_flat[j])
                rows.append(GradCheckRow(
                    name=name,
                    index=tuple(int(i) for i in np.unravel_index(j, p.data.shape)),
                    analytic=a,
                    numeric=numeric,
                    rel_err=relative_error(a, numeric),
                ))
    finally:
        for (_, p), original in zip(params, originals):
            p.data = original
    return GradCheckReport(rows)
