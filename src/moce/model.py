"""The toy decoder-only transformer in dense and mixture form.

The dense base is attention-only in its residual stream: each block is
attention plus residual, while the block's feed-forward weights exist
solely to feed adapter bottlenecks after upcycling. The mixture model's
backbone is a frozen ``DenseBaseModel``: upcycling freezes a copy of the
dense base and puts a fresh mixture layer (zero-init adapters) over every
block, so the upcycled model computes bit-for-bit the dense base's
function until training moves the adapters, with ``variant`` on or off:
every expert of both paths contributes only its update.

A packed block carries its sequences' lengths, and the attention op
keeps each sequence to its own rows; no block builds a mask. The
embedding is one ``embed_tokens`` engine op, each block's attention
sublayer one ``attention_block`` op, its frozen feed-forward one
``feed_forward`` op, and the head one ``output_head`` op; the mixture
layer adds one ``router_gates`` and one ``adapter_mixture`` op per block.
Greedy decoding reads the prompt once into a ``KVCache``, allocated when
the decode starts, whose per-block arrays the attention op fills in
place, then runs one forward per new token: 10 engine ops on the
criterion-8 shapes.

``MoCEModel.forward`` runs block 0, then every layer from layer 0's
mixture on. Adapter training computes block 0's rows once per example
(``first_block``) and enters at layer 0's mixture (``forward_first_block``).
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import (KeyValueFormat, build, check_fields, format_lines, read_values, schema,
                     setting)
from .errors import ConfigError, ContractError, FormatError, NumericError, StateError, integer
from .fileio import write_atomic
from .layer import ROUTING_MODES, ExpertGroup, FeedForward, MoCELayer, RoutingRecord
from .seeding import substream
from .tensor import (
    ACTIVATIONS,
    Tensor,
    attention_block,
    embed_tokens,
    from_checked,
    integers,
    masked_cross_entropy,
    no_grad,
    output_head,
)

CKPT_MAGIC = "MOCE-CKPT"
CKPT_VERSION = "v1"
MANIFEST_NAME = "manifest.txt"
PARAMS_NAME = "params.bin"


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
        if _parameter_count(self) > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"the config describes {_parameter_count(self)} parameter values, "
                              f"more than one float64 array can address")


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
    def init(cls, cfg: ModelConfig, rng: np.random.Generator) -> "_Block":
        d = cfg.d_model
        scale = d ** -0.5

        def mat():
            return Tensor(rng.normal(0.0, scale, size=(d, d)), requires_grad=True)

        norm = Tensor(np.ones(d), requires_grad=True)
        base = FeedForward.init(d, cfg.d_ff, rng, cfg.activation)
        return cls(norm, mat(), mat(), mat(), mat(), base, cfg.n_heads)

    def attend(self, x: Tensor, lengths, cache: tuple | None = None) -> Tensor:
        """Causal self-attention of each packed sequence of ``lengths`` over
        its own rows, plus the residual, in one ``attention_block`` op. With a
        ``cache`` (see ``KVCache``) the rows also attend over the cached rows."""
        return attention_block(x, self.norm, self.wq, self.wk, self.wv, self.wo, lengths,
                               self.n_heads, cache)

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


class KVCache:
    """What an incremental forward keeps between calls over one sequence:
    how many rows it has read, and each block's keys and values for them,
    two (max_seq_len, d_model) arrays allocated here and filled in place.
    A forward that raises leaves ``length`` as it was; the next forward
    overwrites whatever rows the failed one wrote after it."""

    def __init__(self, cfg: ModelConfig):
        self.length = 0
        shape = (cfg.max_seq_len, cfg.d_model)
        self.blocks = [(np.zeros(shape), np.zeros(shape)) for _ in range(cfg.n_layers)]


def _row_groups(group_id, lengths: np.ndarray) -> np.ndarray:
    """Each row's expert group, from one group for every sequence of
    ``lengths`` or one group per sequence. One group for every row stays a
    scalar, so no layer searches the rows for groups."""
    groups = integers(group_id, "group ids must be integers")
    if groups.ndim != 0 and groups.shape != lengths.shape:
        raise ContractError(f"need one group id per sequence, got {groups.shape[0]} "
                            f"for {lengths.size} sequences")
    return groups.reshape(()) if groups.size == 1 else np.repeat(groups, lengths)


class _Packed:
    """One sequence of token ids, or a list of sequences, laid end to end as
    one block of rows, with each sequence's length and each row's position
    in its own sequence.

    ``start`` is the number of rows a cache already holds before these: the
    rows take positions ``start..start+n``.
    """

    def __init__(self, token_ids, cfg: ModelConfig, start: int = 0):
        if len(token_ids) > 0 and np.ndim(token_ids[0]) == 0:
            token_ids = [token_ids]
        if len(token_ids) == 0:
            raise ContractError("token_ids must hold at least one sequence")
        seqs = [integers(s, "token ids must be integers") for s in token_ids]
        if any(ids.ndim != 1 or ids.size == 0 for ids in seqs):
            raise ContractError("every sequence of token ids must be non-empty and 1-D")
        lengths = [ids.size for ids in seqs]
        self.lengths = np.array(lengths)
        longest = max(lengths)
        if start + longest > cfg.max_seq_len:
            raise ContractError(
                f"sequence length {start + longest} exceeds max_seq_len {cfg.max_seq_len}"
            )
        # ``embed_tokens`` checks the ids against the vocabulary.
        self.ids = seqs[0] if len(seqs) == 1 else np.concatenate(seqs)
        n = self.ids.size
        self.positions = (np.arange(start, start + n) if len(seqs) == 1
                          else np.concatenate([np.arange(start, start + k) for k in lengths]))


class DenseBaseModel:
    """The upcycling source: causal attention blocks, no stream-side FFN.

    Each block still carries feed-forward weights; they ride along frozen
    into the mixture model, where adapters read their features. Keeping
    them out of the residual stream here is what lets zero-initialised
    adapters reproduce this model exactly. A frozen copy of this model is
    the mixture model's backbone.
    """

    def __init__(self, cfg: ModelConfig, tok_emb: Tensor, pos_emb: Tensor,
                 blocks: list[_Block], final_norm: Tensor, head: Tensor):
        self.cfg = cfg
        self.tok_emb = tok_emb
        self.pos_emb = pos_emb
        self.blocks = blocks
        self.final_norm = final_norm
        self.head = head

    @classmethod
    def build(cls, cfg: ModelConfig, seed: int) -> "DenseBaseModel":
        rng = substream(seed, "init", "dense")
        d = cfg.d_model
        tok = Tensor(rng.normal(0.0, 0.5, size=(cfg.vocab_size, d)), requires_grad=True)
        pos = Tensor(rng.normal(0.0, 0.5, size=(cfg.max_seq_len, d)), requires_grad=True)
        blocks = [_Block.init(cfg, rng) for _ in range(cfg.n_layers)]
        final = Tensor(np.ones(d), requires_grad=True)
        head = Tensor(rng.normal(0.0, d ** -0.5, size=(d, cfg.vocab_size)), requires_grad=True)
        return cls(cfg, tok, pos, blocks, final, head)

    def embed(self, batch: _Packed) -> Tensor:
        return embed_tokens(self.tok_emb, self.pos_emb, batch.ids, batch.positions)

    def project(self, x: Tensor) -> Tensor:
        return output_head(x, self.final_norm, self.head)

    def forward(self, token_ids) -> Tensor:
        """Logits for one sequence, or for a list of sequences packed into one block."""
        batch = _Packed(token_ids, self.cfg)
        x = self.embed(batch)
        for block in self.blocks:
            x = block.attend(x, batch.lengths)
        return self.project(x)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("tok_emb", self.tok_emb), ("pos_emb", self.pos_emb)]
        for i, b in enumerate(self.blocks):
            out.extend(b.named_parameters(f"layer{i}"))
        out.extend([("final_norm", self.final_norm), ("head", self.head)])
        return out

    def trainable_parameters(self) -> list[Tensor]:
        return [p for _, p in self.named_parameters() if p.requires_grad]


class MoCEModel:
    """The upcycled model: a frozen dense base as backbone plus one mixture
    layer per block."""

    def __init__(self, backbone: DenseBaseModel, layers: list[MoCELayer]):
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
    def build(cls, backbone: DenseBaseModel,
              experts: list[tuple[list[ExpertGroup], ExpertGroup | None]]) -> "MoCEModel":
        """A mixture layer over every block of ``backbone``, which is frozen
        in place and owned by the new model from then on, holding that
        layer's groups from ``experts`` (see ``mixture_experts``). The
        routing settings come from ``backbone.cfg``."""
        cfg = backbone.cfg
        for _, p in backbone.named_parameters():
            p.requires_grad = False
        layers = [MoCELayer(groups, block.base_ffn, cfg.top_k, mode=cfg.mode,
                            renormalize=cfg.renormalize, moe_scale=cfg.moe_scale,
                            general_group=general)
                  for block, (groups, general) in zip(backbone.blocks, experts)]
        return cls(backbone, layers)

    def forward(self, token_ids, group_id, record: RoutingRecord | None = None,
                cache: KVCache | None = None) -> Tensor:
        """Logits for one sequence, or for a list of sequences packed into one block.

        ``group_id`` is the expert group of every sequence, or one group per
        sequence. The rows of the result follow the sequences in order.
        With a ``cache``, ``token_ids`` continue the one sequence the cache
        has read so far; their keys and values are added to it. A cached
        forward has no gradient: run it under ``no_grad``.
        """
        if cache is not None and record is not None:
            raise ContractError("a K/V cache cannot be combined with a routing record")
        batch = _Packed(token_ids, self.cfg, 0 if cache is None else cache.length)
        row_groups = _row_groups(group_id, batch.lengths)
        x, base = self._block_rows(0, self.backbone.embed(batch), batch.lengths, cache)
        logits = self._mixture(x, base, batch.lengths, row_groups, record, cache)
        if cache is not None:
            cache.length += int(batch.lengths[0])
        return logits

    def first_block(self, token_ids) -> list[tuple[np.ndarray, np.ndarray]]:
        """Block 0's attention output rows and its frozen feed-forward's rows
        over them, for one sequence or each of a list of sequences, computed
        over one packed block. They are a fixed function of each sequence,
        which a caller may keep, while the embedding and block 0 are frozen."""
        self._check_first_block_frozen()
        batch = _Packed(token_ids, self.cfg)
        with no_grad():
            x, base = self._block_rows(0, self.backbone.embed(batch), batch.lengths)
        ends = np.cumsum(batch.lengths).tolist()
        return [(x.data[lo:hi], base.data[lo:hi]) for lo, hi in zip([0] + ends, ends)]

    def forward_first_block(self, rows: list[tuple[np.ndarray, np.ndarray]], group_id,
                            record: RoutingRecord | None = None) -> Tensor:
        """``forward`` of the sequences whose ``first_block`` rows are
        ``rows``, packed into one block, from layer 0's mixture on. Like
        ``first_block`` it raises StateError unless block 0 is frozen, so a
        trainable block 0 is never served stale rows."""
        self._check_first_block_frozen()
        lengths = np.array([x.shape[0] for x, _ in rows])
        x, base = (from_checked(np.concatenate(part)) for part in zip(*rows))
        return self._mixture(x, base, lengths, _row_groups(group_id, lengths), record)

    def _block_rows(self, i: int, x: Tensor, lengths, cache: KVCache | None = None
                    ) -> tuple[Tensor, Tensor]:
        """Block i's attention output rows over ``x`` and its frozen
        feed-forward's rows over them, attending over ``cache`` when given."""
        block = self.backbone.blocks[i]
        x = block.attend(x, lengths, None if cache is None else (*cache.blocks[i], cache.length))
        return x, block.base_ffn.forward(x)

    def _check_first_block_frozen(self) -> None:
        frozen = [self.backbone.tok_emb, self.backbone.pos_emb,
                  *(p for _, p in self.backbone.blocks[0].named_parameters("layer0"))]
        if any(p.requires_grad for p in frozen):
            raise StateError("block 0's rows are fixed only while the embedding and block 0 "
                             "are frozen, but one of their tensors requires a gradient")

    def _mixture(self, x: Tensor, base: Tensor, lengths: np.ndarray, row_groups: np.ndarray,
                 record: RoutingRecord | None, cache: KVCache | None = None) -> Tensor:
        """Logits from layer 0's mixture on, given block 0's output rows ``x``
        and its frozen feed-forward's rows ``base`` over them."""
        for i, layer in enumerate(self.layers):
            if i:
                x, base = self._block_rows(i, x, lengths, cache)
            x = layer.forward(x, row_groups, record, base)
        if record is not None:
            for n in lengths:
                record.advance(int(n))
        return self.backbone.project(x)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = self.backbone.named_parameters()
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_parameters(f"layer{i}"))
        return out

    trainable_parameters = DenseBaseModel.trainable_parameters


def mixture_experts(cfg: ModelConfig, seed: int
                    ) -> list[tuple[list[ExpertGroup], ExpertGroup | None]]:
    """Fresh adapters and routers for every mixture layer under ``cfg``:
    each layer's ``n_groups`` expert groups and, with ``cfg.variant``, its
    general group (else None), drawn from the layer's own stream. They
    read no backbone array, so a run can allocate them before it trains
    the dense base they will sit on."""
    out = []
    for i in range(cfg.n_layers):
        rng = substream(seed, "init", "moce", i)
        groups = [ExpertGroup.init(cfg.d_model, cfg.n_experts, cfg.adapter_rank, rng)
                  for _ in range(cfg.n_groups)]
        general = (ExpertGroup.init(cfg.d_model, cfg.n_experts, cfg.adapter_rank, rng)
                   if cfg.variant else None)
        out.append((groups, general))
    return out


def upcycle_init(dense_base: DenseBaseModel, cfg: ModelConfig, seed: int) -> MoCEModel:
    """Create the mixture model on top of a trained (or fresh) dense base.

    The backbone is a frozen copy of ``dense_base`` under ``cfg``: new
    tensors holding copies of its arrays, so later writes to the dense
    base leave the mixture model as it was. Adapters start with W_up = 0
    and routers small random, so the new model's function equals the
    dense base's exactly, for every routing setting and with or without
    ``cfg.variant``.
    """
    differ = [f"{name} {getattr(dense_base.cfg, name)} vs {getattr(cfg, name)}"
              for name in _BACKBONE_FIELDS if getattr(dense_base.cfg, name) != getattr(cfg, name)]
    if differ:
        raise ConfigError(f"dense base and target config disagree on {', '.join(differ)}")
    backbone = copy.deepcopy(dense_base)
    backbone.cfg = cfg
    return MoCEModel.build(backbone, mixture_experts(cfg, seed))


# Next-token NLL averaged with per-row weights.
lm_loss = masked_cross_entropy


def greedy_decode(model: MoCEModel, prompt_ids, group_id: int, max_new_tokens: int,
                  eos_id: int) -> list[int]:
    """Deterministic argmax decoding with the expert group fixed per prompt.

    One forward reads the prompt into a K/V cache; each new token is then
    one forward over its own row. Nothing is recorded for a backward pass.
    Non-integer or boolean token or group ids, a prompt longer than
    ``max_seq_len`` and a ``max_new_tokens`` that is negative, boolean or
    not an integer raise ContractError before any forward.
    """
    prompt = integers(prompt_ids, "token ids must be integers")
    if prompt.size == 0:
        raise ContractError("cannot decode from an empty prompt")
    if prompt.ndim != 1:
        raise ContractError(f"a prompt is one 1-D sequence of token ids, got shape {prompt.shape}")
    integers(group_id, "group ids must be integers")
    if prompt.size > model.cfg.max_seq_len:
        raise ContractError(f"prompt length {prompt.size} exceeds max_seq_len {model.cfg.max_seq_len}")
    max_new_tokens = integer(max_new_tokens, "max_new_tokens", 0)
    ids = prompt.tolist()
    cache = KVCache(model.cfg)
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


def _parameter_count(cfg: ModelConfig) -> int:
    """How many values ``MoCEModel.named_parameters`` holds under ``cfg``,
    in Python integers and without building anything."""
    d = cfg.d_model
    block = d + 4 * d * d + 2 * d * cfg.d_ff
    mixture = (cfg.n_groups + cfg.variant) * cfg.n_experts * (d + 2 * d * cfg.adapter_rank)
    return (2 * cfg.vocab_size + cfg.max_seq_len + 1) * d + cfg.n_layers * (block + mixture)


def load_checkpoint(directory: str) -> tuple[MoCEModel, dict[str, object]]:
    """Rebuild a model from ``save_checkpoint`` output, bit-exact; also returns
    the manifest's typed values by key (see ``read_manifest``). No model is
    built before the blob's size matches the manifest's config."""
    root = Path(directory)
    if not (root / MANIFEST_NAME).exists():
        raise FormatError(f"missing checkpoint manifest at {root / MANIFEST_NAME}")
    cfg, entries = read_manifest(root / MANIFEST_NAME)

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
        data = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8").reshape(shape)
        if name in loaded:
            raise FormatError(f"checkpoint holds parameter '{name}' twice")
        loaded[name] = np.array(data, dtype=np.float64)
    if offset != len(raw):
        raise FormatError("trailing bytes after the last parameter blob")
    held = sum(v.size for v in loaded.values())
    if held != _parameter_count(cfg):
        raise ConfigError(f"{root / MANIFEST_NAME}: its config describes {_parameter_count(cfg)} parameter "
                          f"values, but {blob_path} holds {held}")
    model = MoCEModel.build(DenseBaseModel.build(cfg, entries["seed"]),
                            mixture_experts(cfg, entries["seed"]))

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
