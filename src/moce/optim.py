"""Adam optimiser over the engine's leaf tensors."""

from __future__ import annotations

import numpy as np

from .errors import ContractError
from .tensor import Tensor


class Adam:
    """Standard Adam with bias correction; one writer per parameter.

    All moments live in one flat ``m`` and one flat ``v``, so a step is one
    pass of array expressions. Parameters without a gradient after backward
    keep their values and moments, so frozen or unused tensors can sit in
    the list harmlessly.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        if lr <= 0:
            raise ContractError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        if len({id(p) for p in self.params}) != len(self.params):
            raise ContractError("the same parameter was registered twice")
        self.lr = lr
        self.t = 0
        self._ends = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.m = np.zeros(self._ends[-1])
        self.v = np.zeros(self._ends[-1])

    def step(self) -> None:
        self.t += 1
        grads = [p.grad for p in self.params]
        if all(g is None for g in grads):
            return
        live = np.repeat([g is not None for g in grads], np.diff(self._ends))
        g = np.concatenate([np.zeros(p.data.size) if gp is None else gp.reshape(-1)
                            for p, gp in zip(self.params, grads)])
        data = np.concatenate([p.data.reshape(-1) for p in self.params])
        m = self.beta1 * self.m + (1 - self.beta1) * g
        v = self.beta2 * self.v + (1 - self.beta2) * (g * g)
        m_hat = m / (1 - self.beta1 ** self.t)
        v_hat = v / (1 - self.beta2 ** self.t)
        new = data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        self.m = np.where(live, m, self.m)
        self.v = np.where(live, v, self.v)
        for p, gp, lo, hi in zip(self.params, grads, self._ends, self._ends[1:]):
            if gp is not None:
                p.data = new[lo:hi].reshape(p.data.shape)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
