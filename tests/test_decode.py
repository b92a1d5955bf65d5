"""Incremental, tape-free greedy decoding: one forward reads the prompt into
a K/V cache, then each new token is one forward over its own row, with
nothing recorded for a backward pass."""

import numpy as np
import pytest

from conftest import (attention_chain, cached_mask, feed_forward_chain, matmul, packed_mask,
                      reset_instrumentation)
from moce import layer as layer_module
from moce import model as model_module
from moce.errors import ContractError, NumericError, ShapeError
from moce.layer import RoutingRecord
from moce.model import DenseBaseModel, KVCache, ModelConfig, greedy_decode, upcycle_init
from moce.tensor import Tensor, add, backward, no_grad, tensor_sum

CONFIGS = [
    dict(mode="topk", top_k=1),
    dict(mode="topk", top_k=2),
    dict(mode="soft", top_k=3),
    dict(mode="topk", top_k=2, variant=True),
    dict(mode="topk", top_k=2, renormalize=True, moe_scale=0.5),
]


def micro_cfg(**overrides):
    base = dict(vocab_size=11, d_model=8, n_layers=2, n_heads=2, max_seq_len=12,
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


def full_prefix_decode(model, prompt, group, max_new_tokens, eos_id):
    """Reference: every new token reruns the whole prefix through the model."""
    ids = list(prompt)
    for _ in range(max_new_tokens):
        if len(ids) >= model.cfg.max_seq_len:
            break
        next_id = int(np.argmax(model.forward(ids, group).data[-1]))
        ids.append(next_id)
        if next_id == eos_id:
            break
    return ids


def adapters(layer):
    for group in layer.groups + ([layer.general_group] if layer.general_group else []):
        yield from group.experts


@pytest.mark.parametrize("overrides", CONFIGS)
def test_cached_steps_match_the_whole_prefix(overrides):
    cfg = micro_cfg(**overrides)
    rng = np.random.default_rng(len(str(overrides)))
    for trial in range(3):
        model = trained_like(cfg, seed=trial)
        ids = rng.integers(0, cfg.vocab_size, size=cfg.max_seq_len).tolist()
        group = int(rng.integers(cfg.n_groups))
        prompt_len = int(rng.integers(1, cfg.max_seq_len))
        cache = KVCache(cfg)
        with no_grad():
            step = model.forward(ids[:prompt_len], group, cache=cache).data
            assert np.max(np.abs(step - model.forward(ids[:prompt_len], group).data)) < 1e-12
            for t in range(prompt_len, cfg.max_seq_len):
                step = model.forward([ids[t]], group, cache=cache).data
                assert step.shape == (1, cfg.vocab_size)
                whole = model.forward(ids[:t + 1], group).data
                assert np.max(np.abs(step[0] - whole[-1])) < 1e-12
        assert cache.length == cfg.max_seq_len


@pytest.mark.parametrize("overrides", CONFIGS)
def test_greedy_decode_matches_full_prefix_reference(overrides):
    cfg = micro_cfg(**overrides)
    rng = np.random.default_rng(7 + len(str(overrides)))
    for trial in range(4):
        model = trained_like(cfg, seed=10 + trial)
        prompt = rng.integers(0, cfg.vocab_size, size=int(rng.integers(1, 6))).tolist()
        group = int(rng.integers(cfg.n_groups))
        for max_new, eos in ((cfg.max_seq_len, -1), (4, -1), (cfg.max_seq_len, prompt[-1]), (0, -1)):
            assert greedy_decode(model, prompt, group, max_new, eos) == \
                full_prefix_decode(model, prompt, group, max_new, eos)


def test_decode_records_no_tape():
    cfg = micro_cfg(variant=True)
    model = trained_like(cfg, seed=3)
    forward = model.forward
    outputs = []

    def spy(*args, **kwargs):
        outputs.append(forward(*args, **kwargs))
        return outputs[-1]

    model.forward = spy
    greedy_decode(model, [1, 2, 3], 1, max_new_tokens=cfg.max_seq_len, eos_id=-1)
    assert len(outputs) == cfg.max_seq_len - 3
    for logits in outputs:
        assert logits._parents == () and logits._backward_fn is None
        assert not logits.requires_grad
    assert all(p.grad is None for p in model.trainable_parameters())
    # Outside the decode the same model records again.
    assert forward([1, 2], 0)._parents != ()


def test_no_grad_nests_and_restores_on_error():
    w = Tensor(np.ones((2, 2)), requires_grad=True)

    def recorded():
        return matmul(w, w)._backward_fn is not None

    assert recorded()
    with no_grad():
        assert not recorded()
        with no_grad():
            assert not recorded()
        assert not recorded()
    assert recorded()
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert recorded()
    with no_grad():
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert not recorded()
    assert recorded()


def test_no_grad_keeps_every_check():
    with no_grad():
        with pytest.raises(ShapeError):
            add(Tensor(np.ones(2)), Tensor(np.ones(3)))
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            matmul(Tensor([[1e200]]), Tensor([[1e200]]))


def test_cache_misuse_raises():
    cfg = micro_cfg()
    model = trained_like(cfg, seed=5)
    with pytest.raises(ContractError, match="one sequence"):
        model.forward([[1, 2], [3]], [0, 1], cache=KVCache(cfg))
    with pytest.raises(ContractError, match="routing record"):
        model.forward([1, 2], 0, RoutingRecord(), cache=KVCache(cfg))
    cache = KVCache(cfg)
    with no_grad():
        model.forward([1] * (cfg.max_seq_len - 1), 0, cache=cache)
        with pytest.raises(ContractError, match="exceeds max_seq_len"):
            model.forward([1, 2], 0, cache=cache)
        # The rejected rows left the cache as it was.
        assert cache.length == cfg.max_seq_len - 1
        model.forward([1], 0, cache=cache)
        with pytest.raises(ContractError, match="exceeds max_seq_len"):
            model.forward([1], 0, cache=cache)


def unforwarded(cfg):
    """A model whose forwards are counted, and the list that counts them."""
    model = trained_like(cfg, seed=6)
    calls = []
    forward = model.forward

    def spy(*args, **kwargs):
        calls.append(args)
        return forward(*args, **kwargs)

    model.forward = spy
    return model, calls


@pytest.mark.parametrize("prompt", [[1.5, 2], [1.0, 2.0], [True, False]],
                         ids=["fraction", "float", "bool"])
def test_decode_rejects_non_integer_token_ids(prompt):
    """Float or boolean prompt ids raise before any forward, instead of
    being truncated to integers; so does a forward given such ids."""
    model, calls = unforwarded(micro_cfg())
    with pytest.raises(ContractError, match="token ids must be integers"):
        greedy_decode(model, prompt, 1, 3, 99)
    assert calls == []
    with pytest.raises(ContractError, match="token ids must be integers"):
        model.forward([[1, 2], prompt], [0, 1])
    with pytest.raises(ContractError, match="token ids must be integers"):
        DenseBaseModel.build(micro_cfg(), seed=0).forward(prompt)


@pytest.mark.parametrize("group", [1.7, 1.0, True, np.bool_(False)],
                         ids=["fraction", "float", "bool", "numpy-bool"])
def test_decode_rejects_non_integer_group_ids(group):
    """A float or boolean group raises before any forward, in a decode and
    in a forward, alone or as per-sequence groups."""
    model, calls = unforwarded(micro_cfg())
    with pytest.raises(ContractError, match="group ids must be integers"):
        greedy_decode(model, [1, 2], group, 3, 99)
    assert calls == []
    with pytest.raises(ContractError, match="group ids must be integers"):
        model.forward([1, 2], group)
    with pytest.raises(ContractError, match="group ids must be integers"):
        model.forward([[1, 2], [3]], [group, group])


@pytest.mark.parametrize("flag", [True, np.bool_(True)], ids=["bool", "numpy-bool"])
def test_a_boolean_among_integer_ids_raises(flag):
    """numpy reads [1, True] as an integer array; a boolean in a list of
    token ids or of per-sequence group ids still raises before any
    forward, where it would have decoded as token or group 1."""
    model, calls = unforwarded(micro_cfg())
    with pytest.raises(ContractError, match="token ids must be integers, got a boolean"):
        greedy_decode(model, [1, flag], 0, 3, 99)
    with pytest.raises(ContractError, match="token ids must be integers, got a boolean"):
        greedy_decode(model, (flag, 2), 0, 3, 99)
    assert calls == []
    with pytest.raises(ContractError, match="token ids must be integers, got a boolean"):
        model.forward([[1, 2], [3, flag]], [0, 1])
    with pytest.raises(ContractError, match="group ids must be integers, got a boolean"):
        model.forward([[1, 2], [3]], [0, flag])
    with pytest.raises(ContractError, match="token ids must be integers, got a boolean"):
        DenseBaseModel.build(micro_cfg(), seed=0).forward([flag, 2])
    # Integer lists and arrays pass, their values read as they are.
    with no_grad():
        want = model.forward([[1, 1], [3]], [0, 1]).data
        assert model.forward([np.array([1, 1]), [3]], np.array([0, 1])).data.tobytes() == want.tobytes()


def test_decode_rejects_a_prompt_longer_than_max_seq_len():
    """A prompt past the context raises before any forward; one that fills
    it exactly is returned as it is."""
    cfg = micro_cfg()
    model, calls = unforwarded(cfg)
    with pytest.raises(ContractError, match="prompt length 13 exceeds max_seq_len 12"):
        greedy_decode(model, [1] * (cfg.max_seq_len + 1), 0, 3, 99)
    assert calls == []
    assert greedy_decode(model, [1] * cfg.max_seq_len, 0, 3, 99) == [1] * cfg.max_seq_len
    assert calls == []


def test_decode_rejects_negative_max_new_tokens():
    """A negative token budget raises before any forward; zero decodes
    nothing."""
    model, calls = unforwarded(micro_cfg())
    with pytest.raises(ContractError, match="max_new_tokens must be >= 0, got -1"):
        greedy_decode(model, [1, 2], 0, -1, 99)
    assert calls == []
    assert greedy_decode(model, [1, 2], 0, 0, 99) == [1, 2]
    assert calls == []


@pytest.mark.parametrize("budget", [2.5, 2.0, True, np.bool_(True), "2", None],
                         ids=["fraction", "float", "bool", "numpy-bool", "str", "none"])
def test_decode_rejects_a_budget_that_is_not_an_integer(budget):
    """A fractional, float, boolean or other non-integer token budget
    raises before any forward, where 2.5 raised a bare TypeError and True
    decoded one token; numpy integers are budgets like ints."""
    model, calls = unforwarded(micro_cfg())
    with pytest.raises(ContractError, match="max_new_tokens must be an integer"):
        greedy_decode(model, [1, 2], 0, budget, 99)
    assert calls == []
    for n in (2, np.int64(2), np.uint8(2)):
        assert len(greedy_decode(model, [1, 2], 0, n, 99)) == 4


@pytest.mark.parametrize("top_k", [1, 2])
def test_no_prefix_is_recomputed(top_k):
    """Each layer's adapters see the prompt once and every generated token
    but the last once: k rows per token routed."""
    cfg = micro_cfg(top_k=top_k, max_seq_len=16)
    model = trained_like(cfg, seed=9)
    prompt = [4, 2, 7, 1, 3]
    reset_instrumentation(model)
    out = greedy_decode(model, prompt, 2, max_new_tokens=cfg.max_seq_len, eos_id=-1)
    generated = len(out) - len(prompt)
    assert generated == cfg.max_seq_len - len(prompt)
    for layer in model.layers:
        rows = sum(e.rows_processed for e in adapters(layer))
        assert rows == top_k * (len(prompt) + generated - 1)


def cached_logits(model, ids, prompt_len, group):
    """Every step's logits, as bytes, of a cached decode that reads the
    prompt in one forward and then feeds ``ids`` one row at a time."""
    cache = KVCache(model.cfg)
    with no_grad():
        steps = [model.forward(ids[:prompt_len], group, cache=cache).data.tobytes()]
        steps += [model.forward([i], group, cache=cache).data.tobytes() for i in ids[prompt_len:]]
    return steps


@pytest.mark.parametrize("overrides", CONFIGS)
def test_in_place_cache_matches_the_concat_cache(overrides, monkeypatch):
    """Whole decodes through the fused ops with K/V written in place give
    logits byte-equal to the op chains with K/V joined by ``concat_rows``."""
    cfg = micro_cfg(**overrides)
    rng = np.random.default_rng(3 + len(str(overrides)))
    runs = []
    for trial in range(3):
        ids = rng.integers(0, cfg.vocab_size, size=cfg.max_seq_len).tolist()
        runs.append((trained_like(cfg, seed=20 + trial), ids, int(rng.integers(1, 6)),
                     int(rng.integers(cfg.n_groups))))
    fused = [cached_logits(*run) for run in runs]

    stores = {}

    def chain_attend(block, x, lengths, cache=None):
        store = None if cache is None else stores.setdefault(id(cache[0]), {})
        mask = packed_mask(lengths) if cache is None else cached_mask(x.shape[0], cache[2])
        return attention_chain(x, block.norm, block.wq, block.wk, block.wv, block.wo, mask,
                               block.n_heads, store)

    monkeypatch.setattr(model_module._Block, "attend", chain_attend)
    monkeypatch.setattr(layer_module.FeedForward, "forward",
                        lambda ffn, x: feed_forward_chain(x, ffn.w1, ffn.w2, ffn.act))
    for run, want in zip(runs, fused):
        stores.clear()
        assert cached_logits(*run) == want
        assert len(stores) == cfg.n_layers


def test_cached_forward_has_no_gradient():
    """A cached forward outside ``no_grad`` gives the same logits as one
    inside it, and a backward through it raises: no gradient reaches the
    cached rows."""
    cfg = micro_cfg()
    model = trained_like(cfg, seed=6)
    quiet, recorded = KVCache(cfg), KVCache(cfg)
    with no_grad():
        model.forward([1, 2, 3], 0, cache=quiet)
        want = model.forward([4], 0, cache=quiet).data
    model.forward([1, 2, 3], 0, cache=recorded)
    logits = model.forward([4], 0, cache=recorded)
    assert logits.data.tobytes() == want.tobytes() and recorded.length == 4
    with pytest.raises(ContractError, match="K/V cache"):
        backward(tensor_sum(logits))
