"""Adam optimiser over the engine's leaf tensors."""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ContractError, StateError
from .tensor import Tensor


class Adam:
    """Standard Adam with bias correction; one writer per parameter.

    The optimiser copies its parameters into one flat ``data`` array, and
    each parameter's ``data`` becomes a view into it; the moments live in
    one flat ``m`` and one flat ``v``. A step is one pass of array
    expressions written into those arrays in place. Parameters without a
    gradient after backward keep their values and moments, so frozen or
    unused tensors can sit in the list harmlessly. A parameter whose
    ``data`` was replaced by another array would lose its updates, so the
    step raises StateError instead. Checkpoints and ``copy.deepcopy`` copy
    the arrays, so nothing they make shares the buffer.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real):
            raise ContractError(f"learning rate must be a real number, got {lr!r}")
        if not np.isfinite(lr) or lr <= 0:
            raise ContractError(f"learning rate must be positive and finite, got {lr}")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("the same parameter was registered twice")
        self.lr = lr
        self.t = 0
        self._sizes = [p.data.size for p in self.params]
        self._ends = np.cumsum([0] + self._sizes).tolist()
        self.data = np.zeros(self._ends[-1])
        for p, lo, hi in zip(self.params, self._ends, self._ends[1:]):
            self.data[lo:hi] = p.data.reshape(-1)
            p.data = self.data[lo:hi].reshape(p.data.shape)
        self._views = [p.data for p in self.params]
        self.m = np.zeros(self._ends[-1])
        self.v = np.zeros(self._ends[-1])
        # Each step's gradient, new moments, a temporary and the new values:
        # written in place, so a step allocates no array of the buffer's size.
        self._scratch = np.zeros((5, self._ends[-1]))

    def step(self) -> None:
        if any(p.data is not view for p, view in zip(self.params, self._views)):
            raise StateError("a parameter's data was replaced after the optimiser took it; "
                             "its updates would be lost")
        self.t += 1
        grads = [p.grad for p in self.params]
        live = [g is not None for g in grads]
        if not any(live):
            return
        g, m, v, tmp, new = self._scratch
        # A parameter without a gradient keeps stale rows of g; the masked
        # copies below leave its values and moments as they were.
        for gp, lo, hi in zip(grads, self._ends, self._ends[1:]):
            if gp is not None:
                g[lo:hi] = gp.reshape(-1)
        # m = beta1 * m + (1 - beta1) * g, v = beta2 * v + (1 - beta2) * (g * g),
        # new = data - lr * m_hat / (sqrt(v_hat) + eps), one operation at a time.
        np.add(np.multiply(self.m, self.beta1, out=m),
               np.multiply(g, 1 - self.beta1, out=tmp), out=m)
        np.multiply(np.multiply(g, g, out=tmp), 1 - self.beta2, out=tmp)
        np.add(np.multiply(self.v, self.beta2, out=v), tmp, out=v)
        np.add(np.sqrt(np.divide(v, 1 - self.beta2 ** self.t, out=tmp), out=tmp), self.eps,
               out=tmp)
        np.multiply(np.divide(m, 1 - self.beta1 ** self.t, out=new), self.lr, out=new)
        np.subtract(self.data, np.divide(new, tmp, out=new), out=new)
        where = True if all(live) else np.repeat(live, self._sizes)
        np.copyto(self.m, m, where=where)
        np.copyto(self.v, v, where=where)
        np.copyto(self.data, new, where=where)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
