"""The scalar loss of one training example, and the named (data, grad) pair
that holds each parameter.

A loss is one node: its value and a closure that adds its gradient into the
``.grad`` of every tensor it reads. The closure is hand-written numpy
(training.sequence_loss); ``backward`` checks the loss and calls it once.
"""

import numpy as np

from .errors import DimensionError, NumericalError


class Tensor:
    """A named (data, grad) pair of arrays, used as given: ModelParams passes
    views of its flat vectors straight in. A loss built by ``_node`` also
    keeps the closure that ``backward`` calls."""

    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data, grad=None):
        self.data, self.grad, self._backward = data, grad, None

    def __repr__(self):
        return f"Tensor(shape={np.shape(self.data)})"


def _node(data, backward):
    """A loss of value ``data`` whose ``backward(g)`` adds g times the loss's
    gradient into the ``.grad`` of every tensor it reads.

    The dtype follows ``data``: normally float64, but the gradient checker
    probes the forward pass at extended precision by seeding longdouble
    parameter data.
    """
    loss = Tensor(np.asarray(data))
    loss._backward = backward
    return loss


def backward(loss):
    """Add d(loss)/d(tensor) into the ``.grad`` of every tensor the loss reads."""
    if loss.data.shape != ():
        raise DimensionError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NumericalError("backward called on a non-finite loss")
    loss._backward(np.ones((), dtype=np.float64))
