"""Adam over one flat parameter buffer and flat moments: bit-exact against a
per-tensor reference, and never aliased by what copies the parameters."""

import numpy as np
import pytest

from moce.errors import ContractError, StateError
from moce.layer import RoutingRecord, load_balance_loss
from moce.model import (DenseBaseModel, KVCache, ModelConfig, lm_loss, load_checkpoint,
                        save_checkpoint, upcycle_init)
from moce.optim import Adam
from moce.tensor import Tensor, add, backward, mul, no_grad


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


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf"), 0.0, -1e-3])
def test_a_learning_rate_that_is_not_positive_and_finite_raises(lr):
    """NaN and inf passed the old ``lr <= 0`` test, and one step then wrote
    NaN or -inf into every parameter. Now the optimiser refuses them before
    it moves any parameter into its flat buffer."""
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    original = p.data
    with pytest.raises(ContractError, match="learning rate must be positive and finite"):
        Adam([p], lr=lr)
    assert p.data is original
    assert np.array_equal(original, np.arange(6.0).reshape(2, 3))


def test_empty_parameter_list_steps():
    opt = Adam([], lr=1e-2)
    opt.step()
    opt.zero_grad()
    assert opt.t == 1 and opt.data.size == 0


def test_replaced_parameter_data_raises_state_error():
    """A parameter whose data is no longer its view into the buffer would
    lose its updates silently."""
    params = [Tensor(np.ones((2, 3)), requires_grad=True), Tensor(np.ones(4), requires_grad=True)]
    opt = Adam(params, lr=1e-2)
    assert all(np.shares_memory(p.data, opt.data) for p in params)
    params[1].data = params[1].data + 1.0
    params[1].grad = np.ones(4)
    with pytest.raises(StateError, match="replaced"):
        opt.step()
    assert opt.t == 0


def _pretrained(steps=3):
    cfg = ModelConfig(vocab_size=11, d_model=8, n_layers=2, n_heads=2, max_seq_len=10, d_ff=12,
                      n_groups=2, n_experts=2, adapter_rank=3, top_k=1)
    dense = DenseBaseModel.build(cfg, seed=0)
    opt = Adam(dense.trainable_parameters(), lr=1e-2)
    for _ in range(steps):
        backward(lm_loss(dense.forward([1, 2, 3, 4]), [2, 3, 4, 5], [1.0] * 4))
        opt.step()
        opt.zero_grad()
    return cfg, dense, opt


def _adapter_steps(model, opt, n):
    for _ in range(n):
        record = RoutingRecord()
        loss = add(lm_loss(model.forward([1, 2, 3, 4], 0, record), [2, 3, 4, 5], [1.0] * 4),
                   mul(load_balance_loss(record), 0.01))
        backward(loss)
        opt.step()
        opt.zero_grad()


def test_upcycled_backbone_never_aliases_the_pretraining_buffer():
    cfg, dense, opt = _pretrained()
    assert all(np.shares_memory(p.data, opt.data) for p in dense.trainable_parameters())
    moce = upcycle_init(dense, cfg, seed=0)
    assert not any(np.shares_memory(p.data, opt.data) for _, p in moce.named_parameters())
    before = [p.data.tobytes() for _, p in moce.backbone.named_parameters()]
    for p in dense.trainable_parameters():
        p.grad = np.ones_like(p.data)
    opt.step()
    assert [p.data.tobytes() for _, p in moce.backbone.named_parameters()] == before


def test_checkpoint_and_kv_cache_keep_their_bytes_after_further_steps(tmp_path):
    cfg, dense, _ = _pretrained()
    moce = upcycle_init(dense, cfg, seed=0)
    opt = Adam(moce.trainable_parameters(), lr=5e-2)
    _adapter_steps(moce, opt, 2)
    save_checkpoint(str(tmp_path), moce, seed=0, step=2)
    blob = (tmp_path / "params.bin").read_bytes()
    loaded, _ = load_checkpoint(str(tmp_path))
    assert not any(np.shares_memory(p.data, opt.data) for _, p in loaded.named_parameters())
    kept = [p.data.tobytes() for _, p in loaded.named_parameters()]
    cache = KVCache(cfg)
    with no_grad():
        moce.forward([1, 2, 3], 0, cache=cache)
    keys = [k.tobytes() for k, _ in cache.blocks]
    assert not any(np.shares_memory(a, opt.data) for block in cache.blocks for a in block)
    _adapter_steps(moce, opt, 2)
    assert (tmp_path / "params.bin").read_bytes() == blob
    assert [p.data.tobytes() for _, p in loaded.named_parameters()] == kept
    assert [k.tobytes() for k, _ in cache.blocks] == keys
    assert [p.data.tobytes() for p in moce.trainable_parameters()] != \
        [p.data.tobytes() for p in loaded.trainable_parameters()]
