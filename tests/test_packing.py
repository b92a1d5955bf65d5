"""Packed-batch execution: a block of sequences must compute what the same
sequences compute one at a time, and one packed step must stay small."""

import numpy as np
import pytest

from conftest import packed_batch, reset_instrumentation
from moce import tensor
from moce.data import make_two_dialect_corpus, prompt_ids
from moce.errors import ContractError
from moce.harness import RunConfig, _training_example, model_config_from
from moce.layer import RoutingRecord, load_balance_loss
from moce.model import DenseBaseModel, ModelConfig, greedy_decode, lm_loss, upcycle_init
from moce.tensor import add, backward, mul


def micro_cfg(**overrides):
    base = dict(vocab_size=11, d_model=8, n_layers=2, n_heads=2, max_seq_len=10,
                d_ff=12, n_groups=3, n_experts=3, adapter_rank=3, top_k=2)
    base.update(overrides)
    return ModelConfig(**base)


def trained_like(cfg, seed):
    """An upcycled model whose adapters and routers have left their init."""
    model = upcycle_init(DenseBaseModel.build(cfg, seed=seed), cfg, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.trainable_parameters():
        p.data = p.data + rng.normal(0.0, 0.5, size=p.data.shape)
    return model


def random_batch(cfg, rng):
    n = int(rng.integers(1, 7))
    seqs, targets, masks = [], [], []
    for _ in range(n):
        length = int(rng.integers(1, cfg.max_seq_len + 1))
        seqs.append(rng.integers(0, cfg.vocab_size, size=length).tolist())
        targets.append(rng.integers(0, cfg.vocab_size, size=length))
        mask = (rng.random(length) < 0.6).astype(float)
        mask[int(rng.integers(length))] = 1.0
        masks.append(mask)
    groups = rng.integers(0, cfg.n_groups, size=n).tolist()
    return seqs, groups, targets, masks


def experts(model):
    for layer in model.layers:
        for group in layer.groups + ([layer.general_group] if layer.general_group else []):
            yield from group.experts


def grads(model):
    return {name: (None if p.grad is None else p.grad.copy())
            for name, p in model.named_parameters()}


def zero_grads(model):
    for _, p in model.named_parameters():
        p.grad = None


def one_at_a_time(model, seqs, groups, targets, masks):
    """Reference: one forward per sequence, the mean of their mean NLLs."""
    record = RoutingRecord()
    logits, losses = [], []
    for ids, g, t, m in zip(seqs, groups, targets, masks):
        out = model.forward(ids, g, record)
        logits.append(out.data)
        losses.append(lm_loss(out, t, m))
    total = losses[0]
    for extra in losses[1:]:
        total = add(total, extra)
    loss = add(mul(total, 1.0 / len(losses)), mul(load_balance_loss(record), 0.01))
    return np.concatenate(logits), loss, record


def packed(model, seqs, groups, targets, masks):
    record = RoutingRecord()
    out = model.forward(seqs, groups, record)
    weights = np.concatenate([m / m.sum() for m in masks])
    loss = add(lm_loss(out, np.concatenate(targets), weights),
               mul(load_balance_loss(record), 0.01))
    return out.data, loss, record


@pytest.mark.parametrize("overrides", [
    dict(mode="topk", top_k=1),
    dict(mode="topk", top_k=2),
    dict(mode="soft", top_k=3),
    dict(mode="topk", top_k=2, variant=True),
    dict(mode="topk", top_k=2, renormalize=True, moe_scale=0.5),
])
def test_packed_matches_one_sequence_at_a_time(overrides):
    cfg = micro_cfg(**overrides)
    rng = np.random.default_rng(len(str(overrides)))
    for trial in range(6):
        model = trained_like(cfg, seed=trial)
        batch = random_batch(cfg, rng)

        reset_instrumentation(model)
        ref_logits, ref_loss, _ = one_at_a_time(model, *batch)
        backward(ref_loss)
        ref_grads = grads(model)
        ref_rows = [e.rows_processed for e in experts(model)]
        ref_used = [e.forward_calls > 0 for e in experts(model)]
        zero_grads(model)

        reset_instrumentation(model)
        logits, loss, _ = packed(model, *batch)
        backward(loss)
        got = grads(model)

        assert np.max(np.abs(logits - ref_logits)) < 1e-12
        assert abs(loss.item() - ref_loss.item()) < 1e-12
        assert {n for n, g in got.items() if g is not None} == \
            {n for n, g in ref_grads.items() if g is not None}
        for name, g in got.items():
            if g is not None:
                assert np.max(np.abs(g - ref_grads[name])) < 1e-12, name
        assert [e.rows_processed for e in experts(model)] == ref_rows
        # one call per expert that won rows, none for the rest
        assert [e.forward_calls for e in experts(model)] == [int(u) for u in ref_used]


def test_dense_packed_matches_one_sequence_at_a_time():
    cfg = micro_cfg()
    rng = np.random.default_rng(3)
    for trial in range(6):
        dense = DenseBaseModel.build(cfg, seed=trial)
        seqs, _, targets, masks = random_batch(cfg, rng)
        losses, ref_logits = [], []
        for ids, t, m in zip(seqs, targets, masks):
            out = dense.forward(ids)
            ref_logits.append(out.data)
            losses.append(lm_loss(out, t, m))
        total = losses[0]
        for extra in losses[1:]:
            total = add(total, extra)
        ref_loss = mul(total, 1.0 / len(losses))
        backward(ref_loss)
        ref_grads = {id(p): p.grad for p in dense.trainable_parameters()}
        for p in dense.trainable_parameters():
            p.grad = None

        out = dense.forward(seqs)
        loss = lm_loss(out, np.concatenate(targets), np.concatenate([m / m.sum() for m in masks]))
        backward(loss)
        assert np.max(np.abs(out.data - np.concatenate(ref_logits))) < 1e-12
        assert abs(loss.item() - ref_loss.item()) < 1e-12
        for p in dense.trainable_parameters():
            assert np.max(np.abs(p.grad - ref_grads[id(p)])) < 1e-12


def test_upcycled_packed_logits_equal_dense():
    """At init the packed mixture model reproduces the dense base per sequence."""
    cfg = micro_cfg()
    dense = DenseBaseModel.build(cfg, seed=5)
    moce = upcycle_init(dense, cfg, seed=5)
    seqs, groups, _, _ = random_batch(cfg, np.random.default_rng(9))
    expected = np.concatenate([dense.forward(ids).data for ids in seqs])
    assert np.max(np.abs(moce.forward(seqs, groups).data - expected)) < 1e-12


def test_routing_rows_keep_sequence_order():
    """Packed blocks record the same token-level routes, in the same order,
    as routing the sequences one at a time."""
    cfg = micro_cfg(variant=True)
    model = trained_like(cfg, seed=4)
    seqs, groups, targets, masks = random_batch(cfg, np.random.default_rng(11))
    seqs, groups = seqs * 2, groups * 2
    reference = RoutingRecord()
    for ids, g in zip(seqs, groups):
        model.forward(ids, g, reference)
    record = RoutingRecord()
    half = len(seqs) // 2
    model.forward(seqs[:half], groups[:half], record)
    model.forward(seqs[half:], groups[half:], record)
    assert record.tokens_seen == reference.tokens_seen == sum(len(s) for s in seqs)
    # sequence, then layer, group router before general router, then token
    expected, offset = [], 0
    for ids, g in zip(seqs, groups):
        for layer in range(cfg.n_layers):
            for key in (f"L{layer}.{g}", f"L{layer}.general"):
                expected += [(offset + t, key) for t in range(len(ids)) for _ in range(cfg.top_k)]
        offset += len(ids)
    assert [r[:2] for r in reference.rows] == expected
    assert [r[:3] for r in record.rows] == [r[:3] for r in reference.rows]
    assert np.max(np.abs(np.array([r[3] for r in record.rows])
                         - np.array([r[3] for r in reference.rows]))) < 1e-12


def test_group_ids_checked_per_sequence():
    model = trained_like(micro_cfg(), seed=0)
    with pytest.raises(ContractError, match="one group id per sequence"):
        model.forward([[1, 2], [3]], [0])
    with pytest.raises(ContractError, match="out of range"):
        model.forward([[1, 2], [3]], [0, 3])


def _tape_nodes(root):
    """Recorded operations below ``root``, walking the edges backward replays."""
    seen, stack, count = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        count += node._backward_fn is not None
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def test_adapter_step_stays_small():
    """One adapter step of the criterion-8 cell (d_model 24, 2 layers, 2
    groups, N=4, top-2, batch 8) records at most 250 tape nodes and makes
    at most 16 expert calls: one per layer, group and selected expert."""
    cfg = RunConfig(seed=0, n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48,
                    n_experts=4, adapter_rank=4, top_k=2, batch_size=8)
    mcfg = model_config_from(cfg, 2)
    model = upcycle_init(DenseBaseModel.build(mcfg, seed=0), mcfg, seed=0)
    examples = [_training_example(r) for r in make_two_dialect_corpus(100, seed=0)]
    indices = list(range(0, 200, 25))
    inputs, targets, weights = packed_batch(examples, indices)
    record = RoutingRecord()
    logits = model.forward(inputs, [i % 2 for i in range(8)], record)
    loss = add(lm_loss(logits, targets, weights), mul(load_balance_loss(record), 0.01))
    nodes = _tape_nodes(loss)
    calls = sum(e.forward_calls for e in experts(model))
    rows = sum(e.rows_processed for e in experts(model))
    assert nodes <= 250, nodes
    assert calls <= 16, calls
    assert rows == sum(len(ids) for ids in inputs) * mcfg.n_layers * mcfg.top_k


def test_fused_ops_keep_decode_and_step_small(monkeypatch):
    """On the criterion-8 shapes a decoded token costs at most 50 engine ops
    (about 43 with all heads in one attention op and one adapter-bank op per
    router call; 95 with per-head and per-expert chains), and one adapter
    step records at most 70 tape nodes (58; 125 with the chains)."""
    cfg = RunConfig(seed=0, n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48,
                    n_experts=4, adapter_rank=4, top_k=2, batch_size=8)
    mcfg = model_config_from(cfg, 2)
    model = upcycle_init(DenseBaseModel.build(mcfg, seed=0), mcfg, seed=0)
    records = make_two_dialect_corpus(100, seed=0)
    examples = [_training_example(r) for r in records]
    inputs, targets, weights = packed_batch(examples, list(range(0, 200, 25)))
    record = RoutingRecord()
    logits = model.forward(inputs, [i % 2 for i in range(8)], record)
    loss = add(lm_loss(logits, targets, weights), mul(load_balance_loss(record), 0.01))
    assert _tape_nodes(loss) <= 70

    ops = []
    result = tensor._result

    def counted(data, parents, backward_fn, op):
        ops.append(op)
        return result(data, parents, backward_fn, op)

    monkeypatch.setattr(tensor, "_result", counted)
    generated = 0
    for r in records[:5]:
        prompt = prompt_ids(r)
        generated += len(greedy_decode(model, prompt, 0, mcfg.max_seq_len, eos_id=-1)) - len(prompt)
    assert generated > 0
    assert len(ops) / generated <= 50, len(ops) / generated


def test_one_mixture_op_per_router_call(monkeypatch):
    """On the criterion-8 shapes a decoded token costs at most 37 engine ops
    (about 36.9 with one ``adapter_mixture`` per router call; 42.9 with the
    gather, weighting and scatter as separate ops), and one adapter step
    records at most 48 tape nodes (58 with the separate ops)."""
    cfg = RunConfig(seed=0, n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48,
                    n_experts=4, adapter_rank=4, top_k=2, batch_size=8)
    mcfg = model_config_from(cfg, 2)
    model = upcycle_init(DenseBaseModel.build(mcfg, seed=0), mcfg, seed=0)
    records = make_two_dialect_corpus(100, seed=0)
    examples = [_training_example(r) for r in records]
    inputs, targets, weights = packed_batch(examples, list(range(0, 200, 25)))
    record = RoutingRecord()
    logits = model.forward(inputs, [i % 2 for i in range(8)], record)
    loss = add(lm_loss(logits, targets, weights), mul(load_balance_loss(record), 0.01))
    assert _tape_nodes(loss) <= 48, _tape_nodes(loss)

    ops = []
    result = tensor._result

    def counted(data, parents, backward_fn, op):
        ops.append(op)
        return result(data, parents, backward_fn, op)

    monkeypatch.setattr(tensor, "_result", counted)
    generated = 0
    for r in records[:5]:
        prompt = prompt_ids(r)
        generated += len(greedy_decode(model, prompt, 0, mcfg.max_seq_len, eos_id=-1)) - len(prompt)
    assert generated > 0
    assert len(ops) / generated <= 37, len(ops) / generated


def test_one_router_call_per_layer(monkeypatch):
    """On the criterion-8 shapes one adapter step over a block of both
    groups makes one ``router_gates`` and one ``adapter_mixture`` op per
    layer and records at most 22 tape nodes (48 with a router call per
    group and the balance loss op by op), and a decoded token costs at most
    35 engine ops (about 36.9 with ``matmul`` and ``softmax`` per router)."""
    cfg = RunConfig(seed=0, n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48,
                    n_experts=4, adapter_rank=4, top_k=2, batch_size=8)
    mcfg = model_config_from(cfg, 2)
    model = upcycle_init(DenseBaseModel.build(mcfg, seed=0), mcfg, seed=0)
    records = make_two_dialect_corpus(100, seed=0)
    examples = [_training_example(r) for r in records]
    inputs, targets, weights = packed_batch(examples, list(range(0, 200, 25)))
    ops = []
    result = tensor._result

    def counted(data, parents, backward_fn, op):
        ops.append(op)
        return result(data, parents, backward_fn, op)

    monkeypatch.setattr(tensor, "_result", counted)
    record = RoutingRecord()
    logits = model.forward(inputs, [i % 2 for i in range(8)], record)
    assert ops.count("router_gates") == ops.count("adapter_mixture[gelu]") == mcfg.n_layers
    loss = add(lm_loss(logits, targets, weights), mul(load_balance_loss(record), 0.01))
    assert ops.count("gate_balance") == 1
    assert _tape_nodes(loss) <= 22, _tape_nodes(loss)

    ops.clear()
    generated = 0
    for r in records[:5]:
        prompt = prompt_ids(r)
        generated += len(greedy_decode(model, prompt, 0, mcfg.max_seq_len, eos_id=-1)) - len(prompt)
    assert generated > 0
    assert len(ops) / generated <= 35, len(ops) / generated


def test_one_op_per_sublayer(monkeypatch):
    """On the criterion-8 shapes a decoded token costs at most 15 engine ops
    (3 to embed; per block ``attention_block``, ``feed_forward``,
    ``router_gates``, ``adapter_mixture`` and ``add``; ``rmsnorm`` and the
    head's ``matmul``; 34.9 with the attention and feed-forward op chains),
    and one adapter step records at most 14 tape nodes (22 with the
    chains)."""
    cfg = RunConfig(seed=0, n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48,
                    n_experts=4, adapter_rank=4, top_k=2, batch_size=8)
    mcfg = model_config_from(cfg, 2)
    model = upcycle_init(DenseBaseModel.build(mcfg, seed=0), mcfg, seed=0)
    records = make_two_dialect_corpus(100, seed=0)
    examples = [_training_example(r) for r in records]
    inputs, targets, weights = packed_batch(examples, list(range(0, 200, 25)))
    record = RoutingRecord()
    logits = model.forward(inputs, [i % 2 for i in range(8)], record)
    loss = add(lm_loss(logits, targets, weights), mul(load_balance_loss(record), 0.01))
    assert _tape_nodes(loss) <= 14, _tape_nodes(loss)

    ops = []
    result = tensor._result

    def counted(data, parents, backward_fn, op):
        ops.append(op)
        return result(data, parents, backward_fn, op)

    monkeypatch.setattr(tensor, "_result", counted)
    generated = 0
    for r in records[:5]:
        prompt = prompt_ids(r)
        generated += len(greedy_decode(model, prompt, 0, mcfg.max_seq_len, eos_id=-1)) - len(prompt)
    assert generated > 0
    assert ops.count("attention_block") == ops.count("feed_forward[gelu]") == mcfg.n_layers * generated
    assert len(ops) / generated <= 15, len(ops) / generated


def test_ten_ops_per_decoded_token(monkeypatch):
    """On the criterion-8 shapes a decoded token costs at most 10 engine ops
    (``embed_tokens``; per block ``attention_block``, ``feed_forward``,
    ``router_gates`` and ``adapter_mixture``, which adds the residual;
    ``output_head``; 15 with the gathers, the residual ``add``, ``rmsnorm``
    and the head's ``matmul`` as ops), and one adapter step records at most
    11 tape nodes (14 with them)."""
    cfg = RunConfig(seed=0, n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48,
                    n_experts=4, adapter_rank=4, top_k=2, batch_size=8)
    mcfg = model_config_from(cfg, 2)
    model = upcycle_init(DenseBaseModel.build(mcfg, seed=0), mcfg, seed=0)
    records = make_two_dialect_corpus(100, seed=0)
    examples = [_training_example(r) for r in records]
    inputs, targets, weights = packed_batch(examples, list(range(0, 200, 25)))
    record = RoutingRecord()
    logits = model.forward(inputs, [i % 2 for i in range(8)], record)
    loss = add(lm_loss(logits, targets, weights), mul(load_balance_loss(record), 0.01))
    assert _tape_nodes(loss) <= 11, _tape_nodes(loss)

    ops = []
    result = tensor._result

    def counted(data, parents, backward_fn, op):
        ops.append(op)
        return result(data, parents, backward_fn, op)

    monkeypatch.setattr(tensor, "_result", counted)
    generated = 0
    for r in records[:5]:
        prompt = prompt_ids(r)
        generated += len(greedy_decode(model, prompt, 0, mcfg.max_seq_len, eos_id=-1)) - len(prompt)
    assert generated > 0
    assert "add" not in ops
    assert ops.count("embed_tokens") == ops.count("output_head") == generated
    assert len(ops) / generated <= 10, len(ops) / generated
