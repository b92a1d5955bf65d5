"""The fused ops against the op chains they replace: ``attention`` against
one matmul-softmax-matmul chain per head, ``adapter_bank`` against one
gather-matmul-activation-matmul chain per expert."""

import numpy as np
import pytest

from moce.errors import ContractError, NumericError, ShapeError
from moce.tensor import (
    Tensor,
    activation,
    adapter_bank,
    add,
    attention,
    backward,
    concat_rows,
    matmul,
    mul,
    softmax,
    take_rows,
    tensor_sum,
)

NEG = -1.0e30


def per_head_attention(arrays, mask, weight, n_heads):
    """Reference: each head on its own leaves q_h, k_h^T and v_h, sliced in
    numpy. Yields each head's columns, its output, and the gradients of
    sum(out_h * weight_h) with respect to q_h, k_h and v_h."""
    q, k, v = arrays
    d_head = q.shape[1] // n_heads
    for h in range(n_heads):
        cols = slice(h * d_head, (h + 1) * d_head)
        q_h, k_ht, v_h = (Tensor(a, requires_grad=True) for a in (q[:, cols], k[:, cols].T, v[:, cols]))
        scores = add(mul(matmul(q_h, k_ht), d_head ** -0.5), Tensor(mask))
        out = matmul(softmax(scores, axis=-1), v_h)
        backward(tensor_sum(mul(out, Tensor(weight[:, cols]))))
        yield cols, out.data, [q_h.grad, k_ht.grad.T, v_h.grad]


def per_expert_chain(base, rows, bounds, w_downs, w_ups, act):
    """Reference: each expert with rows gathers them and runs its own chain."""
    outputs = []
    for e, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        if hi > lo:
            h = activation(matmul(take_rows(base, rows[lo:hi]), w_downs[e]), act)
            outputs.append(matmul(h, w_ups[e]))
    return concat_rows(outputs)


def packed_mask(lengths):
    """Block-diagonal causal mask of sequences laid end to end."""
    n = sum(lengths)
    segment = np.repeat(np.arange(len(lengths)), lengths)
    allowed = np.tri(n, n, 0, dtype=bool) & (segment[:, None] == segment[None, :])
    return np.where(allowed, 0.0, NEG)


def cached_mask(rows, cached):
    """Causal mask of ``rows`` new rows after ``cached`` rows already read."""
    return np.where(np.tri(rows, cached + rows, cached, dtype=bool), 0.0, NEG)


def run(fn, arrays, weight):
    """Forward ``fn`` on fresh leaves, back-propagate sum(out * weight), and
    return the output with every leaf's gradient."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(leaves)
    backward(tensor_sum(mul(out, Tensor(weight))))
    return out.data, [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("n_heads", [1, 2, 3])
@pytest.mark.parametrize("shape", ["packed", "cached"])
def test_attention_matches_per_head_reference(n_heads, shape):
    rng = np.random.default_rng(10 * n_heads + len(shape))
    d = 4 * n_heads
    for _ in range(5):
        if shape == "packed":
            lengths = rng.integers(1, 6, size=3)
            mask = packed_mask(lengths)
            rows = keys = int(lengths.sum())
        else:
            rows, cached = int(rng.integers(1, 4)), int(rng.integers(1, 8))
            mask = cached_mask(rows, cached)
            keys = rows + cached
        arrays = [rng.standard_normal((rows, d)), rng.standard_normal((keys, d)),
                  rng.standard_normal((keys, d))]
        weight = rng.standard_normal((rows, d))
        fused, fused_grads = run(lambda p: attention(p[0], p[1], p[2], mask, n_heads), arrays, weight)
        for cols, ref, ref_grads in per_head_attention(arrays, mask, weight, n_heads):
            assert np.max(np.abs(fused[:, cols] - ref)) < 1e-12
            for got, want in zip(fused_grads, ref_grads):
                assert np.max(np.abs(got[:, cols] - want)) < 1e-12


@pytest.mark.parametrize("act", ["gelu", "relu", "silu"])
def test_adapter_bank_matches_per_expert_chain(act):
    rng = np.random.default_rng(len(act))
    n_experts, d, rank = 4, 6, 3
    for _ in range(5):
        counts = rng.integers(0, 4, size=n_experts)
        idle = int(rng.integers(n_experts))
        counts[idle] = 0
        counts[(idle + 1) % n_experts] += 1
        bounds = np.concatenate([[0], np.cumsum(counts)])
        rows = rng.integers(0, 5, size=int(bounds[-1]))
        arrays = ([rng.standard_normal((5, d))]
                  + [rng.standard_normal((d, rank)) for _ in range(n_experts)]
                  + [rng.standard_normal((rank, d)) for _ in range(n_experts)])
        weight = rng.standard_normal((rows.size, d))

        def bank(p):
            return adapter_bank(p[0], rows, bounds, p[1:1 + n_experts], p[1 + n_experts:], act)

        def chain(p):
            return per_expert_chain(p[0], rows, bounds, p[1:1 + n_experts], p[1 + n_experts:], act)

        fused, fused_grads = run(bank, arrays, weight)
        ref, ref_grads = run(chain, arrays, weight)
        assert np.array_equal(fused, ref)
        for got, want in zip(fused_grads, ref_grads):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.max(np.abs(got - want)) < 1e-12


def test_attention_checks_its_inputs():
    rng = np.random.default_rng(0)
    q, kv = Tensor(rng.standard_normal((2, 4))), Tensor(rng.standard_normal((3, 4)))
    mask = cached_mask(2, 1)
    with pytest.raises(ShapeError, match="mask must have shape"):
        attention(q, kv, kv, mask[:, :2], 2)
    with pytest.raises(ShapeError, match="equal"):
        attention(q, kv, Tensor(rng.standard_normal((2, 4))), mask, 2)
    with pytest.raises(ContractError, match="head count"):
        attention(q, kv, kv, mask, 3)
    with pytest.raises(NumericError, match="non-finite"):
        attention(q, kv, kv, np.where(mask < 0, -np.inf, 0.0), 2)


def test_adapter_bank_checks_its_inputs():
    rng = np.random.default_rng(0)
    base = Tensor(rng.standard_normal((3, 4)))
    downs = [Tensor(rng.standard_normal((4, 2))) for _ in range(2)]
    ups = [Tensor(rng.standard_normal((2, 4))) for _ in range(2)]
    with pytest.raises(ContractError, match="out of range"):
        adapter_bank(base, [0, 3], [0, 1, 2], downs, ups)
    with pytest.raises(ContractError, match="bounds"):
        adapter_bank(base, [0, 1], [0, 2, 1], downs, ups)
    with pytest.raises(ContractError, match="one up projection"):
        adapter_bank(base, [0, 1], [0, 1, 2], downs, ups[:1])
    with pytest.raises(ShapeError, match="projections"):
        adapter_bank(base, [0, 1], [0, 1, 2], downs, [ups[0], Tensor(np.zeros((2, 3)))])
    with pytest.raises(ContractError, match="unknown activation"):
        adapter_bank(base, [0, 1], [0, 1, 2], downs, ups, "tanh")
