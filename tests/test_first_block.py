"""Block 0's rows computed once per example: the adapter step that enters at
layer 0's mixture from cached rows computes what the full forward does, runs
no block-0 op, and refuses to serve rows of a block 0 that could train."""

import numpy as np
import pytest

import moce.harness
import moce.layer
import moce.model
from conftest import packed_batch
from moce.data import make_two_dialect_corpus, split_dataset
from moce.errors import StateError
from moce.harness import RunConfig, _batch_indices, _training_example, model_config_from
from moce.layer import RoutingRecord, load_balance_loss
from moce.model import DenseBaseModel, lm_loss, upcycle_init
from moce.optim import Adam
from moce.seeding import substream
from moce.tensor import add, backward, mul

# The criterion-8 cell's shapes.
CELL = dict(n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48, n_experts=4,
            adapter_rank=4, top_k=2, batch_size=8)


def trained_like(variant: bool, seed: int = 0):
    """The criterion-8 model with adapters and routers away from their init."""
    mcfg = model_config_from(RunConfig(seed=seed, variant=variant, **CELL), 2)
    model = upcycle_init(DenseBaseModel.build(mcfg, seed=seed), mcfg, seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.trainable_parameters():
        p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
    return model


def step(model, logits, record, targets, weights):
    """Logits bytes, the loss and every trainable tensor's gradient of one
    adapter step's loss."""
    loss = add(lm_loss(logits, targets, weights), mul(load_balance_loss(record), 0.01))
    backward(loss)
    grads = [None if p.grad is None else p.grad.copy() for p in model.trainable_parameters()]
    for p in model.trainable_parameters():
        p.grad = None
    return logits.data, loss.item(), grads


def both_paths(model, inputs, groups, targets, weights):
    record = RoutingRecord()
    full = step(model, model.forward(inputs, groups, record), record, targets, weights)
    record = RoutingRecord()
    rows = [model.first_block(ids)[0] for ids in inputs]  # each made in a block of its own
    cached = step(model, model.forward_first_block(rows, groups, record), record, targets,
                  weights)
    return full, cached


@pytest.mark.parametrize("variant", [False, True], ids=["cell", "variant"])
def test_cached_rows_are_bit_equal_on_one_length_blocks(variant):
    """Every two-dialect record encodes to one length, so a batch of eight is
    one length: logits, loss and each trainable gradient keep their bits,
    and rows made in one packed block equal rows made one at a time."""
    model = trained_like(variant)
    examples = [_training_example(r) for r in make_two_dialect_corpus(100, seed=0)]
    for start in range(3):
        indices = list(range(start, 200, 25))
        inputs, targets, weights = packed_batch(examples, indices)
        assert len({ids.size for ids in inputs}) == 1
        groups = [i % 2 for i in indices]
        (logits, loss, grads), (c_logits, c_loss, c_grads) = both_paths(
            model, inputs, groups, targets, weights)
        assert c_logits.tobytes() == logits.tobytes()
        assert c_loss == loss
        assert [g is None for g in c_grads] == [g is None for g in grads]
        assert any(g is not None for g in grads)
        for got, want in zip(c_grads, grads):
            assert got is None or got.tobytes() == want.tobytes()
        for (x, base), ids in zip(model.first_block(inputs), inputs):
            (x_alone, base_alone), = model.first_block(ids)
            assert x.tobytes() == x_alone.tobytes() and base.tobytes() == base_alone.tobytes()


@pytest.mark.parametrize("variant", [False, True], ids=["cell", "variant"])
def test_cached_rows_on_mixed_lengths_are_within_1e_12(variant):
    """A block of mixed lengths attends under the block-diagonal mask, the
    cached rows one sequence at a time: they agree within 1e-12."""
    model = trained_like(variant, seed=1)
    rng = np.random.default_rng(5)
    vocab = model.cfg.vocab_size
    for _ in range(4):
        lengths = rng.integers(3, 16, size=6)
        inputs = [rng.integers(0, vocab, size=n) for n in lengths]
        targets = rng.integers(0, vocab, size=int(lengths.sum()))
        weights = np.concatenate([np.full(n, 1.0 / n) for n in lengths])
        groups = rng.integers(0, 2, size=6)
        (logits, loss, grads), (c_logits, c_loss, c_grads) = both_paths(
            model, inputs, groups, targets, weights)
        assert np.max(np.abs(c_logits - logits)) < 1e-12
        assert abs(c_loss - loss) < 1e-12
        assert [g is None for g in c_grads] == [g is None for g in grads]
        for got, want in zip(c_grads, grads):
            assert got is None or np.max(np.abs(got - want)) < 1e-12


def test_cached_adapter_step_runs_no_block_0_op(monkeypatch, tmp_path):
    """In ``pipeline_train``'s adapter phase a step runs ``n_layers - 1`` each
    of ``attention_block`` and ``feed_forward`` from layer 0's mixture on,
    plus one ``embed_tokens``, ``attention_block`` and ``feed_forward`` over
    the examples it draws for the first time, packed together; once its
    examples are cached it runs no ``embed_tokens``."""
    counts = {"embed": 0, "attention": 0, "ffn": 0}
    snapshots = []

    def counting(name, op):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return op(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(moce.model, "embed_tokens", counting("embed", moce.model.embed_tokens))
    monkeypatch.setattr(moce.model, "attention_block",
                        counting("attention", moce.model.attention_block))
    monkeypatch.setattr(moce.layer, "feed_forward", counting("ffn", moce.layer.feed_forward))
    adam_step = Adam.step

    def snapshot_step(self):
        snapshots.append(dict(counts))
        adam_step(self)

    monkeypatch.setattr(Adam, "step", snapshot_step)
    cfg = RunConfig(seed=0, **dict(CELL, n_layers=3, max_seq_len=16), pretrain_steps=2,
                    train_steps=12)
    records = make_two_dialect_corpus(20, seed=0)
    moce.harness.pipeline_train(cfg, records, str(tmp_path))

    n_train = len(split_dataset(records, cfg.holdout_fraction, cfg.seed)[0])
    order = substream(cfg.seed, "data_order", "train")
    seen: set = set()
    steps_with_fresh = 0
    previous = snapshots[cfg.pretrain_steps - 1]
    for now in snapshots[cfg.pretrain_steps:]:
        batch = set(_batch_indices(order, n_train, cfg.batch_size))
        fresh = int(not batch <= seen)
        seen |= batch
        steps_with_fresh += fresh
        rest = cfg.n_layers - 1
        assert {k: now[k] - previous[k] for k in counts} == \
            {"embed": fresh, "attention": fresh + rest, "ffn": fresh + rest}
        previous = now
    assert len(snapshots) == cfg.pretrain_steps + cfg.train_steps
    assert 0 < steps_with_fresh < cfg.train_steps  # some steps ran from cached rows alone


@pytest.mark.parametrize("name", ["tok_emb", "pos_emb", "layer0.wq", "layer0.base_ffn.w2"])
def test_trainable_block_0_is_never_served_cached_rows(name):
    model = trained_like(False)
    ids = np.array([1, 2, 3, 4])
    rows = model.first_block(ids)
    dict(model.named_parameters())[name].requires_grad = True
    with pytest.raises(StateError, match="frozen"):
        model.first_block(ids)
    with pytest.raises(StateError, match="frozen"):
        model.forward_first_block(rows, 0)
