"""Dense base vs upcycled model: function preservation, freezing,
causality, decoding, and bit-exact checkpoints."""

import builtins
import struct

import numpy as np
import pytest

from moce import fileio
from moce.cli import main
from moce.data import make_two_dialect_corpus, save_dataset
from moce.errors import ConfigError, ContractError, FormatError, NumericError
from moce.layer import RoutingRecord, load_balance_loss
from moce.model import (
    DenseBaseModel,
    ModelConfig,
    MoCEModel,
    _parameter_count,
    greedy_decode,
    lm_loss,
    load_checkpoint,
    save_checkpoint,
    upcycle_init,
)
from moce.optim import Adam
from moce.tensor import add, backward, mul


def micro_cfg(**overrides):
    base = dict(
        vocab_size=11, d_model=8, n_layers=2, n_heads=2, max_seq_len=10,
        d_ff=12, n_groups=2, n_experts=2, adapter_rank=3, top_k=1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_sequences(cfg, n, rng, min_len=2):
    out = []
    for _ in range(n):
        length = int(rng.integers(min_len, cfg.max_seq_len + 1))
        out.append(rng.integers(0, cfg.vocab_size, size=length).tolist())
    return out


class TestUpcycling:
    def test_function_preserved_at_init(self):
        """Upcycled logits equal the dense base's on 50 random sequences."""
        cfg = micro_cfg()
        dense = DenseBaseModel.build(cfg, seed=3)
        moce = upcycle_init(dense, cfg, seed=3)
        rng = np.random.default_rng(0)
        worst = 0.0
        for ids in random_sequences(cfg, 50, rng):
            a = dense.forward(ids).data
            b = moce.forward(ids, group_id=int(rng.integers(cfg.n_groups))).data
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst < 1e-9, f"max logit deviation {worst:.3e}"

    def test_function_preserved_for_any_top_k(self):
        for k in (1, 2):
            cfg = micro_cfg(top_k=k)
            dense = DenseBaseModel.build(cfg, seed=5)
            moce = upcycle_init(dense, cfg, seed=5)
            ids = [1, 4, 2, 9]
            assert np.array_equal(dense.forward(ids).data, moce.forward(ids, 0).data)

    @pytest.mark.parametrize("routing", [
        dict(top_k=1), dict(top_k=2), dict(mode="soft"),
        dict(top_k=2, renormalize=True, moe_scale=0.5, activation="relu", n_layers=3),
    ], ids=["top1", "top2", "soft", "renorm-relu-3-layers"])
    def test_variant_function_preserved_at_init(self, routing):
        """With the general path on, upcycled logits equal the dense base's
        bit for bit on 50 random sequences, at k < N and in soft mode."""
        cfg = micro_cfg(n_experts=3, variant=True, **routing)
        dense = DenseBaseModel.build(cfg, seed=0)
        moce = upcycle_init(dense, cfg, seed=0)
        rng = np.random.default_rng(0)
        for ids in random_sequences(cfg, 50, rng):
            group = int(rng.integers(cfg.n_groups))
            assert np.array_equal(dense.forward(ids).data, moce.forward(ids, group).data)

    def test_backbone_is_a_frozen_copy_of_the_dense_base(self):
        """The backbone shares no array with the dense base, so writes to the
        base after upcycling leave the mixture model as it was."""
        for cfg in (micro_cfg(), micro_cfg(variant=True)):
            dense = DenseBaseModel.build(cfg, seed=2)
            moce = upcycle_init(dense, cfg, seed=2)
            names = [name for name, _ in moce.named_parameters()]
            assert len(names) == len(set(names))
            before = {name: p.data.copy() for name, p in moce.named_parameters()}
            backbone = moce.backbone.named_parameters()
            for (name, p), (_, q) in zip(dense.named_parameters(), backbone):
                assert not np.shares_memory(p.data, q.data), name
                assert not q.requires_grad, name
                p.data += 1.0
            for name, p in moce.named_parameters():
                assert np.array_equal(p.data, before[name]), name

    def test_upcycling_builds_no_second_backbone(self, monkeypatch):
        """The backbone is copied from the dense base given, not drawn at
        random and then overwritten."""
        cfg = micro_cfg(top_k=2)
        dense = DenseBaseModel.build(cfg, seed=4)

        def refuse(*args, **kwargs):
            raise AssertionError("upcycle_init built a dense base")

        monkeypatch.setattr(DenseBaseModel, "build", refuse)
        moce = upcycle_init(dense, cfg, seed=4)
        ids = [3, 1, 4, 1, 5]
        assert np.array_equal(dense.forward(ids).data, moce.forward(ids, 1).data)

    def test_trainable_parameters_are_pinned(self):
        """The dense base's feed-forward weights are frozen from the start,
        so both models' optimiser lists are their ``requires_grad`` tensors."""
        cfg = micro_cfg()
        dense = DenseBaseModel.build(cfg, seed=1)
        for block in dense.blocks:
            assert not block.base_ffn.w1.requires_grad and not block.base_ffn.w2.requires_grad

        def trainable_names(model):
            names = {id(p): name for name, p in model.named_parameters()}
            return [names[id(p)] for p in model.trainable_parameters()]

        attention = ["attn_norm", "wq", "wk", "wv", "wo"]
        assert trainable_names(dense) == [
            "tok_emb", "pos_emb", *(f"layer{i}.{w}" for i in range(2) for w in attention),
            "final_norm", "head"]
        experts = ["router", "expert0.w_down", "expert0.w_up", "expert1.w_down", "expert1.w_up"]
        assert trainable_names(upcycle_init(dense, cfg, seed=1)) == [
            f"layer{i}.group{g}.{w}" for i in range(2) for g in range(2) for w in experts]

    def test_parameter_count_matches_the_model(self):
        """The count a checkpoint's size is checked against equals the
        values the model holds, over varied configs."""
        for overrides in ({}, dict(variant=True), dict(n_layers=3), dict(adapter_rank=5, d_ff=7),
                          dict(n_groups=3, n_experts=3, adapter_rank=1, variant=True, n_layers=3)):
            cfg = micro_cfg(**overrides)
            model = upcycle_init(DenseBaseModel.build(cfg, seed=0), cfg, seed=0)
            assert _parameter_count(cfg) == sum(p.data.size for _, p in model.named_parameters())

    def test_backbone_frozen_adapters_trainable(self):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=1), cfg, seed=1)
        names = dict(moce.named_parameters())
        assert not names["tok_emb"].requires_grad
        assert not names["layer0.wq"].requires_grad
        assert not names["layer1.base_ffn.w1"].requires_grad
        assert names["layer0.group0.router"].requires_grad
        assert names["layer1.group1.expert0.w_up"].requires_grad

    def test_one_step_changes_the_function(self):
        """After a single update the upcycled model leaves the dense function.

        k equals N here so every expert trains; with k < N a single step can
        re-route onto a still-zero expert and land back on the base function.
        """
        cfg = micro_cfg(top_k=2)
        dense = DenseBaseModel.build(cfg, seed=7)
        moce = upcycle_init(dense, cfg, seed=7)
        ids = [1, 2, 3, 4, 5]
        targets = [2, 3, 4, 5, 6]
        mask = [1.0] * 5
        opt = Adam(moce.trainable_parameters(), lr=0.05)
        record = RoutingRecord()
        loss = add(lm_loss(moce.forward(ids, 0, record), targets, mask),
                   mul(load_balance_loss(record), 0.01))
        backward(loss)
        opt.step()
        assert np.max(np.abs(moce.forward(ids, 0).data - dense.forward(ids).data)) > 1e-6

    def test_upcycle_determinism(self):
        cfg = micro_cfg()
        dense = DenseBaseModel.build(cfg, seed=9)
        a = upcycle_init(dense, cfg, seed=11)
        b = upcycle_init(dense, cfg, seed=11)
        for (name_a, pa), (name_b, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert name_a == name_b and pa.data.tobytes() == pb.data.tobytes()

    def test_backbone_mismatch_rejected(self):
        cfg = micro_cfg()
        dense = DenseBaseModel.build(micro_cfg(d_model=16, n_heads=2), seed=0)
        with pytest.raises(ConfigError):
            upcycle_init(dense, cfg, seed=0)


class TestForwardContracts:
    def test_causality(self):
        """Changing a future token never moves earlier logits."""
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=2), cfg, seed=2)
        a = moce.forward([1, 2, 3, 4, 5], 0).data
        b = moce.forward([1, 2, 3, 4, 9], 0).data
        assert np.array_equal(a[:4], b[:4])

    def test_forward_determinism(self):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=4), cfg, seed=4)
        ids = [3, 1, 4, 1, 5]
        assert moce.forward(ids, 1).data.tobytes() == moce.forward(ids, 1).data.tobytes()

    def test_input_contracts(self):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=6), cfg, seed=6)
        with pytest.raises(ContractError):
            moce.forward([], 0)
        with pytest.raises(ContractError):
            moce.forward(list(range(cfg.max_seq_len + 1)), 0)
        with pytest.raises(ContractError):
            moce.forward([1, 99], 0)
        with pytest.raises(ContractError):
            moce.forward([1, 2], 5)

    def test_routing_record_spans_layers(self):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=8), cfg, seed=8)
        record = RoutingRecord()
        moce.forward([1, 2, 3], 1, record)
        assert set(record.routers) == {"L0.1", "L1.1"}
        assert record.tokens_seen == 3
        for key in ("L0.1", "L1.1"):
            tokens = [token for token, group, _, _ in record.rows if group == key]
            assert sorted(tokens) == [t for t in range(3) for _ in range(cfg.top_k)]

    def test_selections_count_each_routers_rows(self):
        """One packed block of two groups in a variant model: each router's
        selection counts are the per-expert counts of its entries in
        ``record.rows``, and sum to top_k times the router's tokens."""
        cfg = micro_cfg(n_experts=3, top_k=2, variant=True)
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=9), cfg, seed=9)
        record = RoutingRecord()
        moce.forward([[1, 2, 3], [4, 5], [6, 7, 8, 9]], [0, 1, 0], record)
        tokens = {"0": 7, "1": 2, "general": 9}
        assert sorted(record.routers) == [f"L{i}.{g}" for i in range(2) for g in sorted(tokens)]
        for key in record.routers:
            experts = [expert for _, group, expert, _ in record.rows if group == key]
            counts = record.selections(key)
            assert counts.tolist() == np.bincount(experts, minlength=3).tolist()
            assert counts.sum() == cfg.top_k * tokens[key.partition(".")[2]]

    def test_frozen_backbone_receives_no_gradient(self):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=12), cfg, seed=12)
        loss = lm_loss(moce.forward([1, 2, 3, 4], 0), [2, 3, 4, 5], [1.0] * 4)
        backward(loss)
        for name, p in moce.named_parameters():
            if not p.requires_grad:
                assert p.grad is None, f"frozen parameter {name} accumulated gradient"


class TestDecoding:
    def test_greedy_decode_is_deterministic_and_stops_at_eos(self):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=10), cfg, seed=10)
        a = greedy_decode(moce, [1, 2], 0, max_new_tokens=6, eos_id=0)
        b = greedy_decode(moce, [1, 2], 0, max_new_tokens=6, eos_id=0)
        assert a == b and len(a) <= cfg.max_seq_len
        if 0 in a[2:]:
            assert a[-1] == 0

    def test_decode_respects_context_limit(self):
        cfg = micro_cfg(max_seq_len=5)
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=10), cfg, seed=10)
        out = greedy_decode(moce, [1, 2, 3], 0, max_new_tokens=50, eos_id=0)
        assert len(out) <= 5


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=13), cfg, seed=13)
        save_checkpoint(str(tmp_path / "ck"), moce, seed=13, step=42, kmeans_path="kmeans.txt")
        loaded, manifest = load_checkpoint(str(tmp_path / "ck"))
        assert manifest["step"] == 42 and manifest["kmeans_path"] == "kmeans.txt"
        for (name_a, pa), (name_b, pb) in zip(moce.named_parameters(), loaded.named_parameters()):
            assert name_a == name_b
            assert pa.data.tobytes() == pb.data.tobytes(), f"parameter {name_a} drifted"
        ids = [1, 2, 3, 4]
        assert np.array_equal(moce.forward(ids, 0).data, loaded.forward(ids, 0).data)

    def test_save_twice_identical_bytes(self, tmp_path):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=14), cfg, seed=14)
        save_checkpoint(str(tmp_path / "a"), moce, seed=14, step=0)
        save_checkpoint(str(tmp_path / "b"), moce, seed=14, step=0)
        assert (tmp_path / "a" / "params.bin").read_bytes() == (tmp_path / "b" / "params.bin").read_bytes()
        assert (tmp_path / "a" / "manifest.txt").read_text() == (tmp_path / "b" / "manifest.txt").read_text()

    def test_truncated_blob_rejected(self, tmp_path):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=15), cfg, seed=15)
        save_checkpoint(str(tmp_path / "ck"), moce, seed=15, step=0)
        blob = tmp_path / "ck" / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_checkpoint(str(tmp_path / "ck"))

    def test_garbled_parameter_name_rejected(self, tmp_path):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=15), cfg, seed=15)
        save_checkpoint(str(tmp_path / "ck"), moce, seed=15, step=0)
        blob = tmp_path / "ck" / "params.bin"
        raw = bytearray(blob.read_bytes())
        raw[8] = 0xFF  # the first byte of the first parameter's name: not UTF-8
        blob.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="parameter"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_parameter_given_twice_rejected(self, tmp_path):
        """A second ``tok_emb`` blob, with an edited value, is not loaded over the first."""
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=15), cfg, seed=15)
        save_checkpoint(str(tmp_path / "ck"), moce, seed=15, step=0)
        blob = tmp_path / "ck" / "params.bin"
        raw = blob.read_bytes()
        (count,) = struct.unpack("<I", raw[:4])
        tok = moce.backbone.tok_emb.data
        first = 4 + 4 + len(b"tok_emb") + 4 + 4 * tok.ndim + tok.size * 8
        again = bytearray(raw[4:first])
        again[-8:] = struct.pack("<d", 0.25)
        blob.write_bytes(struct.pack("<I", count + 1) + raw[4:] + bytes(again))
        with pytest.raises(FormatError, match="'tok_emb' twice"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_overflowing_shape_rejected(self, tmp_path, capsys):
        """A declared shape whose size overflows int64 reads as a truncated
        blob, not as a negative size, and ``moce eval`` exits 3."""
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=15), cfg, seed=15)
        ck = tmp_path / "run" / "checkpoint"
        save_checkpoint(str(ck), moce, seed=15, step=0, kmeans_path="../kmeans.txt")
        blob = ck / "params.bin"
        raw = bytearray(blob.read_bytes())
        dims = 4 + 4 + len(b"tok_emb") + 4  # tok_emb's two dimensions follow its ndim
        raw[dims:dims + 8] = struct.pack("<II", 2**32 - 1, 2**32 - 1)
        blob.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(str(ck))
        data = str(tmp_path / "d.jsonl")
        save_dataset(data, make_two_dialect_corpus(2, seed=0))
        assert main(["eval", "--run-dir", str(tmp_path / "run"), "--data", data]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_manifest_header_checked(self, tmp_path):
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=16), cfg, seed=16)
        save_checkpoint(str(tmp_path / "ck"), moce, seed=16, step=0)
        manifest = tmp_path / "ck" / "manifest.txt"
        manifest.write_text("WRONG v9\n" + "\n".join(manifest.read_text().splitlines()[1:]))
        with pytest.raises(FormatError, match="header"):
            load_checkpoint(str(tmp_path / "ck"))

    def test_failed_write_keeps_the_previous_files(self, tmp_path, monkeypatch):
        """A write that fails part way leaves the old manifest and blob whole."""
        cfg = micro_cfg()
        moce = upcycle_init(DenseBaseModel.build(cfg, seed=17), cfg, seed=17)
        ck = tmp_path / "ck"
        save_checkpoint(str(ck), moce, seed=17, step=1)
        before = {p.name: p.read_bytes() for p in ck.iterdir()}

        class HalfWriter:
            def __init__(self, path, mode):
                self.fh = builtins.open(path, mode)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("disk full")

        monkeypatch.setattr(fileio, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(str(ck), moce, seed=17, step=2)
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in ck.iterdir()} == before
        assert load_checkpoint(str(ck))[1]["step"] == 1

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            micro_cfg(d_model=9, n_heads=2)
        with pytest.raises(ConfigError):
            micro_cfg(top_k=5, n_experts=2)
        with pytest.raises(ConfigError):
            micro_cfg(mode="dense")
        with pytest.raises(ConfigError, match="n_heads must be >= 1"):
            micro_cfg(n_heads=0)


def _set(key, value):
    return lambda lines: [f"{key}={value}" if line.startswith(f"{key}=") else line for line in lines]


MANIFEST_FAULTS = {
    "variant-yes": (_set("config.variant", "yes"), FormatError, 3),
    "renormalize-true": (_set("config.renormalize", "true"), FormatError, 3),
    "missing-seed": (lambda lines: [line for line in lines if not line.startswith("seed=")],
                     FormatError, 3),
    "d_model-abc": (_set("config.d_model", "abc"), FormatError, 3),
    "seed-x1": (_set("seed", "x1"), FormatError, 3),
    "n_heads-0": (_set("config.n_heads", "0"), ConfigError, 2),
    "duplicate-top_k": (lambda lines: lines + ["config.top_k=2"], FormatError, 3),
    # Numerals that int() and float() would read as the saved values.
    "d_model-underscore": (_set("config.d_model", "0_8"), FormatError, 3),
    "seed-full-width": (_set("seed", "\uff11\uff18"), FormatError, 3),
    "moe_scale-underscore": (_set("config.moe_scale", "1_0e-1"), FormatError, 3),
    # Sizes that pass their rules but describe a model far larger than the blob.
    "vocab_size-huge": (_set("config.vocab_size", "99999999999999999999"), ConfigError, 2),
    "d_model-huge": (_set("config.d_model", "100000000"), ConfigError, 2),
    "n_experts-huge": (_set("config.n_experts", "99999999999999999999"), ConfigError, 2),
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_edited_manifest_is_rejected(tmp_path, fault, capsys):
    """The manifest is parsed strictly: a bad edit raises FormatError or
    ConfigError from load_checkpoint, and ``moce eval`` exits 3 or 2."""
    edit, error, code = MANIFEST_FAULTS[fault]
    cfg = micro_cfg()
    moce = upcycle_init(DenseBaseModel.build(cfg, seed=18), cfg, seed=18)
    ck = tmp_path / "run" / "checkpoint"
    save_checkpoint(str(ck), moce, seed=18, step=0, kmeans_path="../kmeans.txt")
    manifest = ck / "manifest.txt"
    manifest.write_text("\n".join(edit(manifest.read_text().splitlines())) + "\n")
    with pytest.raises(error, match="manifest.txt"):
        load_checkpoint(str(ck))
    data = str(tmp_path / "d.jsonl")
    save_dataset(data, make_two_dialect_corpus(2, seed=0))
    assert main(["eval", "--run-dir", str(tmp_path / "run"), "--data", data]) == code
    assert "manifest.txt" in capsys.readouterr().err


def _resave(change):
    """Change the saved model, then save it again over its checkpoint."""
    def edit(ck, model):
        change(model)
        save_checkpoint(str(ck), model, seed=18, step=0, kmeans_path="../kmeans.txt")
    return edit


def _transpose_head(model):
    model.backbone.head.data = model.backbone.head.data.T.copy()


def _poison(model):
    model.layers[0].groups[0].router.data[0, 0] = np.nan


def _append_empty_parameter(ck, model):
    """One more parameter under an unknown name, holding no values, with the
    blob's count raised to match, so the size check still passes."""
    blob = ck / "params.bin"
    raw = blob.read_bytes()
    (count,) = struct.unpack("<I", raw[:4])
    name = b"stray"
    blob.write_bytes(struct.pack("<I", count + 1) + raw[4:]
                     + struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 0))


BLOB_FAULTS = {
    "missing-manifest": (lambda ck, model: (ck / "manifest.txt").unlink(), FormatError, 3,
                         "missing checkpoint manifest"),
    "missing-params": (lambda ck, model: (ck / "params.bin").unlink(), FormatError, 3,
                       "missing parameter blob"),
    "trailing-bytes": (lambda ck, model: (ck / "params.bin").write_bytes(
        (ck / "params.bin").read_bytes() + b"\0"), FormatError, 3, "trailing bytes"),
    "head-transposed": (_resave(_transpose_head), ConfigError, 2, "parameter 'head' has shape"),
    "unknown-empty-parameter": (_append_empty_parameter, FormatError, 3, "unknown parameters"),
    "nan-value": (_resave(_poison), NumericError, 4, "non-finite"),
}


@pytest.mark.parametrize("fault", sorted(BLOB_FAULTS))
def test_damaged_checkpoint_is_rejected(tmp_path, fault, capsys):
    """A missing file, a blob that does not match the model, or a non-finite
    value raises its class from load_checkpoint, and ``moce eval`` exits with
    that class's code: 3 for a format fault, 2 for a config fault, 4 for a
    numeric one."""
    edit, error, code, message = BLOB_FAULTS[fault]
    cfg = micro_cfg()
    moce = upcycle_init(DenseBaseModel.build(cfg, seed=18), cfg, seed=18)
    ck = tmp_path / "run" / "checkpoint"
    save_checkpoint(str(ck), moce, seed=18, step=0, kmeans_path="../kmeans.txt")
    edit(ck, moce)
    with pytest.raises(error, match=message):
        load_checkpoint(str(ck))
    data = str(tmp_path / "d.jsonl")
    save_dataset(data, make_two_dialect_corpus(2, seed=0))
    assert main(["eval", "--run-dir", str(tmp_path / "run"), "--data", data]) == code
    assert message in capsys.readouterr().err
