"""The toy decoder-only transformer in dense and mixture form.

The dense base is attention-only in its residual stream: each block is
attention plus residual, while the block's feed-forward weights exist
solely to feed adapter bottlenecks after upcycling. Upcycling copies and
freezes the whole backbone and drops a fresh mixture layer (zero-init
adapters) into every block, so the upcycled model computes bit-for-bit
the dense base's function until training moves the adapters.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (KeyValueFormat, build, check_fields, format_lines, read_values, schema,
                     setting)
from .errors import ConfigError, ContractError, FormatError, NumericError
from .fileio import write_atomic
from .layer import ROUTING_MODES, ExpertGroup, FeedForward, MoCELayer, RoutingRecord
from .seeding import substream
from .tensor import (
    ACTIVATIONS,
    Tensor,
    add,
    attention,
    concat_rows,
    masked_cross_entropy,
    matmul,
    no_grad,
    rmsnorm,
    take_rows,
)

CKPT_MAGIC = "MOCE-CKPT"
CKPT_VERSION = "v1"
MANIFEST_NAME = "manifest.txt"
PARAMS_NAME = "params.bin"

_NEG_MASK = -1.0e30


@dataclass
class ModelConfig:
    """Dimensions and routing switches shared by the dense and mixture models.

    This is the one declaration of every model field: ``RunConfig`` takes
    its model fields from here, and checkpoint manifests are typed and
    checked from here. Field rules run first, then the cross-field rules.
    """

    vocab_size: int = setting(low=2)
    d_model: int = setting(32, low=1)
    n_layers: int = setting(2, low=1)
    n_heads: int = setting(2, low=1)
    max_seq_len: int = setting(64, low=1)
    d_ff: int = setting(64, low=1)
    n_groups: int = setting(2, low=1)
    n_experts: int = setting(4, low=1)
    adapter_rank: int = setting(64, low=1)
    top_k: int = setting(2, low=1)
    mode: str = setting("topk", choices=ROUTING_MODES)
    renormalize: bool = False
    moe_scale: float = 1.0
    variant: bool = False
    activation: str = setting("gelu", choices=ACTIVATIONS)

    def __post_init__(self):
        check_fields(self)
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} is not divisible by n_heads={self.n_heads}")
        if self.top_k > self.n_experts:
            raise ConfigError(f"top_k={self.top_k} exceeds n_experts={self.n_experts}")


# The fields a dense base and the mixture model upcycled from it must share.
_BACKBONE_FIELDS = ("vocab_size", "d_model", "n_layers", "n_heads", "max_seq_len", "d_ff",
                   "activation")


class _Block:
    """One transformer block: pre-norm causal attention with residual."""

    def __init__(self, norm: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor,
                 base_ffn: FeedForward, n_heads: int):
        self.norm = norm
        self.wq = wq
        self.wk = wk
        self.wv = wv
        self.wo = wo
        self.base_ffn = base_ffn
        self.n_heads = n_heads

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator, requires_grad: bool) -> "_Block":
        d = cfg.d_model
        scale = d ** -0.5

        def mat():
            return Tensor(rng.normal(0.0, scale, size=(d, d)), requires_grad)

        norm = Tensor(np.ones(d), requires_grad)
        base = FeedForward.init(d, cfg.d_ff, rng, cfg.activation, requires_grad=requires_grad)
        return cls(norm, mat(), mat(), mat(), mat(), base, cfg.n_heads)

    def attend(self, x: Tensor, mask: np.ndarray, cache: _BlockCache | None = None) -> Tensor:
        """Causal self-attention over a packed block, all heads in one op;
        ``mask`` holds 0 where a row may attend and a large negative score
        where it may not. With a ``cache``, the rows' keys and values are
        appended to the cached ones and the rows attend over all of them."""
        z = rmsnorm(x, self.norm)
        q = matmul(z, self.wq)
        k = matmul(z, self.wk)
        v = matmul(z, self.wv)
        if cache is not None:
            if cache.k is not None:
                k, v = concat_rows([cache.k, k]), concat_rows([cache.v, v])
            cache.k, cache.v = k, v
        return add(x, matmul(attention(q, k, v, mask, self.n_heads), self.wo))

    def named_parameters(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.attn_norm", self.norm),
            (f"{prefix}.wq", self.wq),
            (f"{prefix}.wk", self.wk),
            (f"{prefix}.wv", self.wv),
            (f"{prefix}.wo", self.wo),
            (f"{prefix}.base_ffn.w1", self.base_ffn.w1),
            (f"{prefix}.base_ffn.w2", self.base_ffn.w2),
        ]


class _BlockCache:
    """One block's keys and values for the rows a sequence has read so far."""

    def __init__(self):
        self.k: Tensor | None = None
        self.v: Tensor | None = None


class KVCache:
    """What an incremental forward keeps between calls over one sequence:
    how many rows it has read, and every block's keys and values for them.
    A forward that raises part way through leaves the cache unusable."""

    def __init__(self, n_blocks: int):
        self.length = 0
        self.blocks = [_BlockCache() for _ in range(n_blocks)]


class _Packed:
    """One sequence of token ids, or a list of sequences, laid end to end as
    one block of rows, with each row's position in its own sequence and an
    attention mask that keeps every row to the earlier rows of its sequence.

    ``start`` is the number of rows a cache already holds before these: the
    rows take positions ``start..start+n`` and the mask, of shape
    ``(n, start+n)``, also lets them attend to every cached row.
    """

    def __init__(self, token_ids, cfg: ModelConfig, start: int = 0):
        if len(token_ids) > 0 and np.ndim(token_ids[0]) == 0:
            token_ids = [token_ids]
        if len(token_ids) == 0:
            raise ContractError("token_ids must hold at least one sequence")
        seqs = [np.asarray(s, dtype=np.int64) for s in token_ids]
        for ids in seqs:
            if ids.ndim != 1 or ids.size == 0:
                raise ContractError("every sequence of token ids must be non-empty and 1-D")
            if start + ids.size > cfg.max_seq_len:
                raise ContractError(
                    f"sequence length {start + ids.size} exceeds max_seq_len {cfg.max_seq_len}"
                )
            if ids.min() < 0 or ids.max() >= cfg.vocab_size:
                raise ContractError(f"token id out of range for vocab size {cfg.vocab_size}")
        self.lengths = np.array([ids.size for ids in seqs])
        self.ids = np.concatenate(seqs)
        self.positions = np.concatenate([np.arange(start, start + n) for n in self.lengths])
        n = self.ids.size
        allowed = np.tri(n, start + n, start, dtype=bool)
        if len(seqs) > 1:
            segment = np.repeat(np.arange(len(seqs)), self.lengths)
            allowed[:, start:] &= segment[:, None] == segment[None, :]
        self.mask = np.where(allowed, 0.0, _NEG_MASK)


class _Backbone:
    """Embeddings, blocks and head shared by both model classes."""

    def __init__(self, cfg: ModelConfig, tok_emb: Tensor, pos_emb: Tensor,
                 blocks: list[_Block], final_norm: Tensor, head: Tensor):
        self.cfg = cfg
        self.tok_emb = tok_emb
        self.pos_emb = pos_emb
        self.blocks = blocks
        self.final_norm = final_norm
        self.head = head

    @classmethod
    def init(cls, cfg: ModelConfig, rng: np.random.Generator, requires_grad: bool) -> "_Backbone":
        d = cfg.d_model
        tok = Tensor(rng.normal(0.0, 0.5, size=(cfg.vocab_size, d)), requires_grad)
        pos = Tensor(rng.normal(0.0, 0.5, size=(cfg.max_seq_len, d)), requires_grad)
        blocks = [_Block.init(cfg, rng, requires_grad) for _ in range(cfg.n_layers)]
        final = Tensor(np.ones(d), requires_grad)
        head = Tensor(rng.normal(0.0, d ** -0.5, size=(d, cfg.vocab_size)), requires_grad)
        return cls(cfg, tok, pos, blocks, final, head)

    def embed(self, batch: "_Packed") -> Tensor:
        return add(take_rows(self.tok_emb, batch.ids), take_rows(self.pos_emb, batch.positions))

    def project(self, x: Tensor) -> Tensor:
        return matmul(rmsnorm(x, self.final_norm), self.head)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("tok_emb", self.tok_emb), ("pos_emb", self.pos_emb)]
        for i, b in enumerate(self.blocks):
            out.extend(b.named_parameters(f"layer{i}"))
        out.extend([("final_norm", self.final_norm), ("head", self.head)])
        return out


class DenseBaseModel:
    """The upcycling source: causal attention blocks, no stream-side FFN.

    Each block still carries feed-forward weights; they ride along frozen
    into the mixture model, where adapters read their features. Keeping
    them out of the residual stream here is what lets zero-initialised
    adapters reproduce this model exactly.
    """

    def __init__(self, backbone: _Backbone):
        self.backbone = backbone
        self.cfg = backbone.cfg

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "DenseBaseModel":
        rng = substream(seed, "init", "dense")
        return cls(_Backbone.init(cfg, rng, requires_grad=True))

    def forward(self, token_ids) -> Tensor:
        """Logits for one sequence, or for a list of sequences packed into one block."""
        batch = _Packed(token_ids, self.cfg)
        x = self.backbone.embed(batch)
        for block in self.backbone.blocks:
            x = block.attend(x, batch.mask)
        return self.backbone.project(x)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return self.backbone.named_parameters()

    def trainable_parameters(self) -> list[Tensor]:
        # The feed-forward stacks have no path to the loss here; they are
        # excluded so the optimiser state covers only live parameters.
        skip = {id(b.base_ffn.w1) for b in self.backbone.blocks}
        skip |= {id(b.base_ffn.w2) for b in self.backbone.blocks}
        return [p for _, p in self.named_parameters() if id(p) not in skip]


class MoCEModel:
    """The upcycled model: the frozen backbone plus one mixture layer per block."""

    def __init__(self, backbone: _Backbone, layers: list[MoCELayer]):
        if len(layers) != len(backbone.blocks):
            raise ConfigError(
                f"{len(backbone.blocks)} blocks but {len(layers)} mixture layers"
            )
        self.backbone = backbone
        self.cfg = backbone.cfg
        self.layers = layers
        for i, layer in enumerate(layers):
            layer.layer_key = i

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "MoCEModel":
        """A fresh model with a random frozen backbone; used by loading."""
        backbone = _Backbone.init(cfg, substream(seed, "init", "dense"), requires_grad=False)
        return cls(backbone, _make_moce_layers(backbone, cfg, seed))

    def forward(self, token_ids, group_id, record: RoutingRecord | None = None,
                cache: KVCache | None = None) -> Tensor:
        """Logits for one sequence, or for a list of sequences packed into one block.

        ``group_id`` is the expert group of every sequence, or one group per
        sequence. The rows of the result follow the sequences in order.
        With a ``cache``, ``token_ids`` continue the one sequence the cache
        has read so far; their keys and values are added to it.
        """
        if cache is not None and record is not None:
            raise ContractError("a K/V cache cannot be combined with a routing record")
        batch = _Packed(token_ids, self.cfg, 0 if cache is None else cache.length)
        if cache is not None and batch.lengths.size != 1:
            raise ContractError(f"a K/V cache holds one sequence, got {batch.lengths.size}")
        groups = np.asarray(group_id, dtype=np.int64)
        if groups.ndim == 0:
            groups = np.full(batch.lengths.size, groups)
        if groups.shape != batch.lengths.shape:
            raise ContractError(f"need one group id per sequence, got {groups.shape[0]} "
                                f"for {batch.lengths.size} sequences")
        row_groups = np.repeat(groups, batch.lengths)
        x = self.backbone.embed(batch)
        block_caches = [None] * len(self.layers) if cache is None else cache.blocks
        for block, layer, block_cache in zip(self.backbone.blocks, self.layers, block_caches):
            x = block.attend(x, batch.mask, block_cache)
            if self.cfg.variant:
                x = layer.variant_forward(x, row_groups, record)
            else:
                x = layer.forward(x, row_groups, record)
        if record is not None:
            for n in batch.lengths:
                record.advance(int(n))
            record.active_experts_per_token = (2 if self.cfg.variant else 1) * (
                self.cfg.n_experts if self.cfg.mode == "soft" else self.cfg.top_k
            )
        if cache is not None:
            cache.length += int(batch.lengths[0])
        return self.backbone.project(x)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = self.backbone.named_parameters()
        for i, layer in enumerate(self.layers):
            for g, group in enumerate(layer.groups):
                out.extend(_group_parameters(f"layer{i}.group{g}", group))
            if layer.general_group is not None:
                out.extend(_group_parameters(f"layer{i}.general", layer.general_group))
        return out

    def trainable_parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters() if p.requires_grad]

    def reset_instrumentation(self) -> None:
        for layer in self.layers:
            layer.reset_instrumentation()


def _group_parameters(prefix: str, group: ExpertGroup) -> list[tuple[str, Tensor]]:
    out = [(f"{prefix}.router", group.router)]
    for e, expert in enumerate(group.experts):
        out.append((f"{prefix}.expert{e}.w_down", expert.w_down))
        out.append((f"{prefix}.expert{e}.w_up", expert.w_up))
    return out


def _make_moce_layers(backbone: _Backbone, cfg: ModelConfig, seed: int) -> list[MoCELayer]:
    layers = []
    for i, block in enumerate(backbone.blocks):
        rng = substream(seed, "init", "moce", i)
        groups = [
            ExpertGroup.init(cfg.d_model, cfg.n_experts, cfg.adapter_rank, rng, cfg.activation)
            for _ in range(cfg.n_groups)
        ]
        general = None
        if cfg.variant:
            general = ExpertGroup.init(cfg.d_model, cfg.n_experts, cfg.adapter_rank, rng, cfg.activation)
        layers.append(MoCELayer(
            groups=groups,
            base_ffn=block.base_ffn,
            k=cfg.top_k,
            mode=cfg.mode,
            renormalize=cfg.renormalize,
            moe_scale=cfg.moe_scale,
            general_group=general,
        ))
    return layers


def upcycle_init(dense_base: DenseBaseModel, cfg: ModelConfig, seed: int) -> MoCEModel:
    """Create the mixture model on top of a trained (or fresh) dense base.

    The backbone (embeddings, attention, feed-forward stacks, head) is
    copied and frozen; adapters start with W_up = 0 and routers small
    random, so the new model's function equals the dense base's exactly.
    """
    differ = [f"{name} {getattr(dense_base.cfg, name)} vs {getattr(cfg, name)}"
              for name in _BACKBONE_FIELDS if getattr(dense_base.cfg, name) != getattr(cfg, name)]
    if differ:
        raise ConfigError(f"dense base and target config disagree on {', '.join(differ)}")
    src = dense_base.backbone
    frozen = _Backbone(
        cfg,
        _frozen_copy(src.tok_emb),
        _frozen_copy(src.pos_emb),
        [
            _Block(
                _frozen_copy(b.norm),
                _frozen_copy(b.wq),
                _frozen_copy(b.wk),
                _frozen_copy(b.wv),
                _frozen_copy(b.wo),
                FeedForward(_frozen_copy(b.base_ffn.w1), _frozen_copy(b.base_ffn.w2), cfg.activation),
                cfg.n_heads,
            )
            for b in src.blocks
        ],
        _frozen_copy(src.final_norm),
        _frozen_copy(src.head),
    )
    return MoCEModel(frozen, _make_moce_layers(frozen, cfg, seed))


def _frozen_copy(p: Tensor) -> Tensor:
    return Tensor(p.data.copy(), requires_grad=False)


def lm_loss(logits: Tensor, targets, weights) -> Tensor:
    """Next-token NLL averaged with per-row weights (see ``masked_cross_entropy``)."""
    return masked_cross_entropy(logits, targets, weights)


def greedy_decode(model: MoCEModel, prompt_ids, group_id: int, max_new_tokens: int,
                  eos_id: int) -> list[int]:
    """Deterministic argmax decoding with the expert group fixed per prompt.

    One forward reads the prompt into a K/V cache; each new token is then
    one forward over its own row. Nothing is recorded for a backward pass.
    """
    ids = list(int(i) for i in prompt_ids)
    if not ids:
        raise ContractError("cannot decode from an empty prompt")
    cache = KVCache(model.cfg.n_layers)
    rows = list(ids)
    with no_grad():
        for _ in range(max_new_tokens):
            if len(ids) >= model.cfg.max_seq_len:
                break
            logits = model.forward(rows, group_id, cache=cache)
            next_id = int(np.argmax(logits.data[-1]))
            ids.append(next_id)
            if next_id == eos_id:
                break
            rows = [next_id]
    return ids


# -- checkpointing ------------------------------------------------------

MANIFEST = KeyValueFormat(FormatError, ("False", "True"), comments=False, defaults=False)


@dataclass
class _CheckpointInfo:
    """What a manifest records beside the model config."""

    seed: int
    step: int
    kmeans_path: str

    def __post_init__(self):
        check_fields(self)


_MANIFEST_KEYS = {**schema(ModelConfig, "config."), **schema(_CheckpointInfo)}


def save_checkpoint(directory: str, model: MoCEModel, seed: int, step: int,
                    kmeans_path: str = "") -> None:
    """Write a versioned manifest plus one little-endian float64 blob per parameter."""
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{CKPT_MAGIC} {CKPT_VERSION}",
             *format_lines(model.cfg, MANIFEST, "config."),
             *format_lines(_CheckpointInfo(seed, step, kmeans_path), MANIFEST)]
    write_atomic(out / MANIFEST_NAME, "\n".join(lines) + "\n")

    params = model.named_parameters()
    chunks = [struct.pack("<I", len(params))]
    for name, tensor in params:
        encoded = name.encode("utf-8")
        shape = tensor.data.shape
        chunks += [struct.pack("<I", len(encoded)), encoded, struct.pack("<I", len(shape)),
                   *(struct.pack("<I", dim) for dim in shape),
                   tensor.data.astype("<f8", copy=False).tobytes(order="C")]
    write_atomic(out / PARAMS_NAME, b"".join(chunks))


def read_manifest(path) -> tuple[ModelConfig, dict[str, object]]:
    """A manifest's model config and typed values by key. Malformed text
    raises FormatError; a value that breaks a config rule, ConfigError."""
    entries = read_values(path, _MANIFEST_KEYS, MANIFEST, header=f"{CKPT_MAGIC} {CKPT_VERSION}")
    return build(ModelConfig, {key.removeprefix("config."): value for key, value in entries.items()
                               if key.startswith("config.")}, path), entries


def load_checkpoint(directory: str) -> tuple[MoCEModel, dict[str, object]]:
    """Rebuild a model from ``save_checkpoint`` output, bit-exact; also returns
    the manifest's typed values by key (see ``read_manifest``)."""
    root = Path(directory)
    if not (root / MANIFEST_NAME).exists():
        raise FormatError(f"missing checkpoint manifest at {root / MANIFEST_NAME}")
    cfg, entries = read_manifest(root / MANIFEST_NAME)
    model = MoCEModel.build(cfg, entries["seed"])

    blob_path = root / PARAMS_NAME
    if not blob_path.exists():
        raise FormatError(f"missing parameter blob at {blob_path}")
    raw = blob_path.read_bytes()
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise FormatError("parameter blob truncated")
        chunk = raw[offset:offset + n]
        offset += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    loaded: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8", "replace")  # a garbled name matches no parameter
        (ndim,) = struct.unpack("<I", take(4))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        size = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(size * 8), dtype="<f8").reshape(shape)
        loaded[name] = np.array(data, dtype=np.float64)
    if offset != len(raw):
        raise FormatError("trailing bytes after the last parameter blob")

    for name, tensor in model.named_parameters():
        if name not in loaded:
            raise FormatError(f"checkpoint is missing parameter '{name}'")
        if loaded[name].shape != tensor.data.shape:
            raise ConfigError(
                f"parameter '{name}' has shape {loaded[name].shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data = loaded[name]
    extra = set(loaded) - {name for name, _ in model.named_parameters()}
    if extra:
        raise FormatError(f"checkpoint holds unknown parameters: {sorted(extra)}")
    if not all(np.all(np.isfinite(v)) for v in loaded.values()):
        raise NumericError("checkpoint contains non-finite parameter values")
    return model, entries
