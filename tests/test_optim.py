"""Adam over one flat moment buffer against a per-tensor reference."""

import numpy as np

from moce.optim import Adam
from moce.tensor import Tensor


class ReferenceAdam:
    """Adam one tensor at a time, skipping tensors without a gradient."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.data = [a.copy() for a in arrays]
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.lr, self.beta1, self.beta2, self.eps, self.t = lr, beta1, beta2, eps, 0

    def step(self, grads):
        self.t += 1
        for i, g in enumerate(grads):
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * (g * g)
            m_hat = self.m[i] / (1 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1 - self.beta2 ** self.t)
            self.data[i] = self.data[i] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def test_flat_adam_is_bit_exact_against_per_tensor_reference():
    """200 steps with a fifth of the gradients None at seeded random steps:
    parameters and moments equal the reference's bit for bit, and a tensor
    that never gets a gradient keeps its data bytes."""
    rng = np.random.default_rng(0)
    shapes = [(3, 4), (5,), (2, 3), (4, 1), (1,), (6, 2)]
    params = [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    frozen = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    before = frozen.data.tobytes()
    order = params[:3] + [frozen] + params[3:]
    opt = Adam(order, lr=1e-2)
    ref = ReferenceAdam([p.data for p in params], lr=1e-2)
    ends = np.cumsum([0] + [p.data.size for p in order])
    spans = [(lo, hi) for p, lo, hi in zip(order, ends, ends[1:]) if p is not frozen]
    for _ in range(200):
        grads = [None if rng.random() < 0.2 else rng.standard_normal(s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        ref.step(grads)
        opt.zero_grad()
        for p, (lo, hi), want, m, v in zip(params, spans, ref.data, ref.m, ref.v):
            assert p.data.shape == want.shape
            assert p.data.tobytes() == want.tobytes()
            assert opt.m[lo:hi].tobytes() == m.reshape(-1).tobytes()
            assert opt.v[lo:hi].tobytes() == v.reshape(-1).tobytes()
    assert frozen.data.tobytes() == before
    lo, hi = ends[3], ends[4]
    assert not opt.m[lo:hi].any() and not opt.v[lo:hi].any()
    assert not any(np.shares_memory(p.data, opt.m) or np.shares_memory(p.data, opt.v)
                   for p in params)
