"""End-to-end pipeline: embed, cluster, pretrain the dense base, upcycle,
train adapters and routers, then evaluate and export routing statistics.

Every run is a pure function of its config file and dataset: the metrics
stream carries no timestamps, so identical runs produce identical bytes.
Training examples become arrays once. The adapter phase keeps each
example's block-0 rows, made by the frozen backbone in one packed block
for all of a step's first draws, and starts every adapter forward at
layer 0's mixture, so it gains as far as its steps draw examples again.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from .clustering import (
    KMeansModel,
    elbow_select,
    kmeans_fit,
    kmeans_predict,
    load_kmeans,
    save_kmeans,
)
from .config import KeyValueFormat, build, check_fields, field_types, read_values, schema, setting
from .data import (
    EOS_ID,
    VOCAB_SIZE,
    InstructionRecord,
    completed_response,
    encode_example,
    prompt_ids,
    split_dataset,
    training_pair,
)
from .embedding import embed_dataset, embed_sequence, save_embeddings
from .errors import ConfigError, ContractError, NumericError
from .fileio import write_csv, write_json
from .layer import RoutingRecord, load_balance_loss
from .model import (
    DenseBaseModel,
    ModelConfig,
    MoCEModel,
    greedy_decode,
    lm_loss,
    load_checkpoint,
    mixture_experts,
    save_checkpoint,
)
from .optim import Adam
from .seeding import substream
from .tensor import add, backward, mul, no_grad

CHECKPOINT_DIR = "checkpoint"
KMEANS_FILE = "kmeans.txt"
EMBEDDINGS_FILE = "embeddings.txt"
ELBOW_FILE = "elbow.csv"
METRICS_FILE = "metrics.jsonl"
SUMMARY_FILE = "summary.json"

# Evaluation and route-stats pack consecutive records into blocks of at
# most this many tokens. The packing decides which records share a block,
# and so the last bits of the evaluation NLL. A block of mixed lengths is
# scored as one (T, T) attention, so the budget also bounds that square.
PACK_TOKENS = 64


def _check_run(cfg) -> None:
    check_fields(cfg)
    if (cfg.n_groups is None) == (cfg.k_max is None):
        raise ConfigError("set exactly one of n_groups and k_max")
    model_config_from(cfg, cfg.n_groups or 1)  # for every model rule; n_groups is checked above


def _model_field(name: str):
    """A model field for RunConfig, with ModelConfig's type, default and rule."""
    f = next(f for f in dataclasses.fields(ModelConfig) if f.name == name)
    return name, field_types(ModelConfig)[name], setting(f.default, **f.metadata)


# The model fields a run file sets, in file order. vocab_size is fixed by
# the byte tokenizer, and n_groups is the run's own: it may be left unset
# for the elbow sweep to choose.
_MODEL_KEYS = ("d_model", "n_layers", "n_heads", "d_ff", "max_seq_len", "n_experts",
               "adapter_rank", "top_k", "mode", "renormalize", "moe_scale", "variant",
               "activation")

RunConfig = dataclasses.make_dataclass("RunConfig", [
    ("seed", int, setting(0, low=0)),
    ("d_embed", int, setting(64, low=1)),
    ("n_groups", int | None, setting(None, low=1)),
    ("k_max", int | None, setting(None, low=3)),
    *map(_model_field, _MODEL_KEYS),
    ("pretrain_steps", int, setting(100, low=0)),
    ("train_steps", int, setting(300, low=1)),
    ("lr", float, setting(2e-4, above=0.0)),
    ("balance_weight", float, setting(0.01, low=0.0)),
    ("batch_size", int, setting(8, low=1)),
    ("holdout_fraction", float, setting(0.2, low=0.0, below=1.0)),
], namespace={
    "__module__": __name__,
    "__doc__": """Flat description of one training run.

    Exactly one of ``n_groups`` (fixed group count) or ``k_max`` (select
    the count with the elbow sweep) must be set. Construction checks every
    field and every model rule, so a bad run fails before any stage runs.
    """,
    "__post_init__": _check_run,
})

RUN_FILE = KeyValueFormat(ConfigError, ("false", "true"), comments=True, defaults=True)


def parse_run_config(path: str) -> RunConfig:
    """Read a flat key=value file; '#' starts a comment, blank lines skip.

    Unknown, duplicate and unparsable keys and values that break a rule
    are rejected, naming the file, the line and the key, so typos cannot
    silently fall back to defaults.
    """
    return build(RunConfig, read_values(path, schema(RunConfig), RUN_FILE), path)


def model_config_from(cfg: RunConfig, n_groups: int) -> ModelConfig:
    return ModelConfig(vocab_size=VOCAB_SIZE, n_groups=n_groups,
                       **{name: getattr(cfg, name) for name in _MODEL_KEYS})


def _training_example(record: InstructionRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A record's training inputs, targets and per-row loss weights, as arrays.

    The weights are the response mask over the mask's sum, so the
    weighted NLL over a packed block is the mean over sequences of each
    sequence's mean NLL.
    """
    inputs, targets, mask = training_pair(encode_example(record))
    return np.array(inputs), np.array(targets), np.asarray(mask) / sum(mask)


def _loss_rows(examples, indices) -> tuple[np.ndarray, np.ndarray]:
    """Targets and per-row loss weights of the examples at ``indices``, packed."""
    return (np.concatenate([examples[i][1] for i in indices]),
            np.concatenate([examples[i][2] for i in indices]))


def _pack_chunks(lengths: list[int]) -> list[list[int]]:
    """Consecutive index runs whose lengths sum to at most ``PACK_TOKENS`` (at least one each)."""
    chunks: list[list[int]] = []
    total = 0
    for i, n in enumerate(lengths):
        if not chunks or total + n > PACK_TOKENS:
            chunks.append([])
            total = 0
        chunks[-1].append(i)
        total += n
    return chunks


def _check_lengths(records: list[InstructionRecord], max_seq_len: int) -> None:
    """Reject every record whose encoded example does not fit the context.

    A training pair feeds all but the last token of ``encode_example``.
    """
    too_long = [r.record_id for r in records if len(encode_example(r)) - 1 > max_seq_len]
    if too_long:
        raise ContractError(
            f"{len(too_long)} record(s) exceed max_seq_len {max_seq_len}: {', '.join(too_long)}"
        )


def _check_finite(value: float, phase: str, step: int) -> None:
    if not np.isfinite(value):
        raise NumericError(f"non-finite loss {value!r} at {phase} step {step}")


def _batch_indices(rng: np.random.Generator, n: int, size: int) -> list[int]:
    return [int(i) for i in rng.integers(0, n, size=size)]


def pipeline_train(cfg: RunConfig, records: list[InstructionRecord], out_dir: str) -> dict:
    """Run the full training pipeline and write all artifacts under out_dir.

    Stages: split, embed instructions, pick and fit the sequence clusters,
    pretrain the dense base, upcycle it, then train adapters and routers
    with the balance penalty. Returns a summary dict (also saved as JSON).
    """
    _check_lengths(records, cfg.max_seq_len)
    train, holdout = split_dataset(records, cfg.holdout_fraction, cfg.seed)
    for name in ("n_groups", "k_max"):
        value = getattr(cfg, name)
        if value is not None and value > len(train):
            raise ConfigError(f"{name}={value} exceeds the {len(train)} training records")
    # The sequence stage runs in memory first: it fixes the group count, so
    # the whole model is allocated before anything is written, and a model
    # too large to allocate leaves no files.
    emb = embed_dataset(
        [(r.record_id, r.instruction) for r in train], d_e=cfg.d_embed, seed=cfg.seed
    )
    report = elbow_select(emb, k_max=cfg.k_max, seed=cfg.seed) if cfg.k_max is not None else None
    km = kmeans_fit(emb, cfg.n_groups, seed=cfg.seed) if report is None else report.fit
    n_groups = km.k
    group_labels = kmeans_predict(km, emb).labels
    mcfg = model_config_from(cfg, n_groups)
    dense = DenseBaseModel.build(mcfg, cfg.seed)
    experts = mixture_experts(mcfg, cfg.seed)

    os.makedirs(out_dir, exist_ok=True)
    save_embeddings(os.path.join(out_dir, EMBEDDINGS_FILE), emb)
    if report is not None:
        report.write_csv(os.path.join(out_dir, ELBOW_FILE))
    else:
        Path(out_dir, ELBOW_FILE).unlink(missing_ok=True)  # another run's sweep
    save_kmeans(os.path.join(out_dir, KMEANS_FILE), km)

    examples = [_training_example(r) for r in train]
    # Block 0's rows of each example over the frozen backbone, made the
    # first time the adapter phase draws the example.
    first_rows: list = [None] * len(examples)

    def dense_loss(indices):
        logits = dense.forward([examples[i][0] for i in indices])
        loss = lm_loss(logits, *_loss_rows(examples, indices))
        return loss, {"lm_loss": loss.item()}

    def adapter_loss(indices):
        # The batch's examples not drawn before, in batch order, go through
        # block 0 together in one packed block, as the whole batch would.
        fresh = list(dict.fromkeys(i for i in indices if first_rows[i] is None))
        if fresh:
            for i, rows in zip(fresh, moce.first_block([examples[i][0] for i in fresh])):
                first_rows[i] = rows
        record = RoutingRecord()
        logits = moce.forward_first_block([first_rows[i] for i in indices],
                                          group_labels[indices], record)
        loss = lm_loss(logits, *_loss_rows(examples, indices))
        fields = {"lm_loss": loss.item()}
        if cfg.balance_weight != 0.0:
            balance = load_balance_loss(record)
            fields["balance_loss"] = balance.item()
            loss = add(loss, mul(balance, cfg.balance_weight))
        fields["total_loss"] = loss.item()
        return loss, fields

    metrics_path = os.path.join(out_dir, METRICS_FILE)
    with open(metrics_path, "w", encoding="utf-8") as metrics:
        _train(cfg, "pretrain", dense, cfg.pretrain_steps, len(examples), dense_loss, metrics)
        # The upcycle: nothing reads the dense base after pretraining, so it
        # is frozen in place as the backbone, under the experts built above.
        moce = MoCEModel.build(dense, experts)
        losses = _train(cfg, "train", moce, cfg.train_steps, len(examples), adapter_loss, metrics)

    ckpt_dir = os.path.join(out_dir, CHECKPOINT_DIR)
    save_checkpoint(ckpt_dir, moce, seed=cfg.seed, step=cfg.train_steps,
                    kmeans_path=os.path.join("..", KMEANS_FILE))

    summary = {
        "n_train": len(train),
        "n_holdout": len(holdout),
        "n_groups": n_groups,
        "initial_lm_loss": losses[0],
        "final_lm_loss": losses[-1],
        "checkpoint": ckpt_dir,
        "kmeans": os.path.join(out_dir, KMEANS_FILE),
        "metrics": metrics_path,
    }
    write_json(os.path.join(out_dir, SUMMARY_FILE), summary)
    return summary


def _train(cfg: RunConfig, phase: str, model: DenseBaseModel | MoCEModel, steps: int,
           n_examples: int, step_loss, metrics) -> list[float]:
    """Run ``steps`` Adam steps over ``model``'s trainable parameters, one
    metrics row each, and return each step's ``lm_loss``.

    ``step_loss(indices)`` returns the loss of the batch at ``indices`` and
    the row's fields. Each phase draws its batches from its own stream.
    """
    opt = Adam(model.trainable_parameters(), lr=cfg.lr)
    order = substream(cfg.seed, "data_order", phase)
    losses = []
    for step in range(steps):
        loss, fields = step_loss(_batch_indices(order, n_examples, cfg.batch_size))
        _check_finite(loss.item(), phase, step)
        backward(loss)
        opt.step()
        opt.zero_grad()
        metrics.write(json.dumps({"phase": phase, "step": step, **fields}, sort_keys=True) + "\n")
        losses.append(fields["lm_loss"])
    return losses


def _open_run(run_dir: str, records: list[InstructionRecord]) -> tuple[MoCEModel, KMeansModel, int]:
    """A run's model, k-means fit and seed, once the fit's k matches the
    checkpoint and every one of ``records`` fits its context."""
    ckpt_dir = os.path.join(run_dir, CHECKPOINT_DIR)
    model, entries = load_checkpoint(ckpt_dir)
    if not entries["kmeans_path"]:
        raise ConfigError(f"{ckpt_dir}: checkpoint records no k-means artifact")
    km_path = os.path.normpath(os.path.join(ckpt_dir, entries["kmeans_path"]))
    km = load_kmeans(km_path)
    if km.k != model.cfg.n_groups:
        raise ConfigError(f"{km_path}: k-means fit has {km.k} clusters, but the checkpoint "
                          f"{ckpt_dir} has {model.cfg.n_groups} expert groups")
    _check_lengths(records, model.cfg.max_seq_len)
    return model, km, entries["seed"]


def assign_group(km: KMeansModel, instruction: str, d_embed: int, seed: int) -> int:
    vec = embed_sequence(instruction, d_e=d_embed, seed=seed)
    return int(kmeans_predict(km, vec).labels[0])


def _score_packed(model: MoCEModel, records: list[InstructionRecord], groups: list[int],
                  record: RoutingRecord | None = None) -> tuple[float, int]:
    """Teacher-forced NLL sum and token count of ``records`` under ``groups``,
    forwarded without a tape in ``_pack_chunks`` blocks and routed into
    ``record`` when given. Each block adds its mean NLL times its token
    count, in block order."""
    pairs = [training_pair(encode_example(r)) for r in records]
    nll_sum, n_tokens = 0.0, 0
    with no_grad():
        for chunk in _pack_chunks([len(inputs) for inputs, _, _ in pairs]):
            mask = np.concatenate([pairs[i][2] for i in chunk])
            logits = model.forward([pairs[i][0] for i in chunk], [groups[i] for i in chunk], record)
            targets = np.concatenate([pairs[i][1] for i in chunk])
            nll_sum += lm_loss(logits, targets, mask).item() * mask.sum()
            n_tokens += int(mask.sum())
    return nll_sum, n_tokens


def evaluate_records(model: MoCEModel, km: KMeansModel, seed: int,
                     records: list[InstructionRecord]) -> dict:
    """Greedy-decode every record with its cluster-chosen group.

    Reports exact match, teacher-forced NLL (``_score_packed``) and
    perplexity, and exact match broken out per source tag. No records
    raise ContractError: none of these means is defined.
    """
    if not records:
        raise ContractError("evaluation needs at least one record")
    groups = [assign_group(km, r.instruction, km.dimension, seed) for r in records]
    nll_sum, n_tokens = _score_packed(model, records, groups)
    by_source: dict[str, list[bool]] = {}
    for r, group in zip(records, groups):
        prompt = prompt_ids(r)
        decoded = greedy_decode(model, prompt, group, model.cfg.max_seq_len - len(prompt), EOS_ID)
        by_source.setdefault(r.source or "unknown", []).append(
            completed_response(decoded[len(prompt):]) == r.response)
    mean_nll = nll_sum / n_tokens
    return {
        "n_records": len(records),
        "exact_match": sum(map(sum, by_source.values())) / len(records),
        "mean_nll": mean_nll,
        "perplexity": float(np.exp(mean_nll)),
        "by_source": {src: {"exact_match": sum(matches) / len(matches), "n_records": len(matches)}
                      for src, matches in sorted(by_source.items())},
    }


def pipeline_eval(run_dir: str, records: list[InstructionRecord],
                  output_path: str | None = None) -> dict:
    result = evaluate_records(*_open_run(run_dir, records), records)
    if output_path:
        write_json(output_path, result)
    return result


def route_statistics(run_dir: str, records: list[InstructionRecord],
                     out_dir: str) -> dict:
    """Score the corpus once with ``_score_packed`` and export routing histograms.

    Writes groups.csv (sequences per expert group), routers.csv (per
    router and expert: top-1 load fraction, mean gate probability,
    selection count), routes.csv (every token-level assignment), and
    stats.json with the aggregate balance loss.
    """
    model, km, seed = _open_run(run_dir, records)
    os.makedirs(out_dir, exist_ok=True)
    record = RoutingRecord()
    groups = [assign_group(km, r.instruction, km.dimension, seed) for r in records]
    _score_packed(model, records, groups, record)
    group_counts = np.bincount(np.array(groups, dtype=np.int64), minlength=km.k).tolist()
    write_csv(os.path.join(out_dir, "groups.csv"), ["group", "sequences"],
              list(enumerate(group_counts)))

    router_rows = []
    for key in sorted(record.routers):
        experts = zip(record.load_fractions(key), record.mean_gate_probs(key), record.selections(key))
        router_rows += [[key, i, load, prob, int(n)] for i, (load, prob, n) in enumerate(experts)]
    write_csv(os.path.join(out_dir, "routers.csv"),
              ["router", "expert", "load_fraction", "mean_gate_prob", "selections"], router_rows)

    record.write_csv(os.path.join(out_dir, "routes.csv"))

    stats = {
        "n_records": len(records),
        "tokens_seen": record.tokens_seen,
        "group_counts": {str(g): c for g, c in enumerate(group_counts) if c},
        "balance_loss": load_balance_loss(record).item(),
        "max_load_fraction": float(max((row[2] for row in router_rows), default=0.0)),
    }
    write_json(os.path.join(out_dir, "stats.json"), stats)
    return stats


def ablation_grid(cfg: RunConfig) -> list[tuple[str, RunConfig]]:
    """The comparison matrix: three routing modes crossed with three
    structures, plus an expert-count scaling sweep.

    The no-token-routing column has a single expert, so top-2 there
    collapses to top-1; the row is kept with its effective settings so
    the table stays complete.
    """
    if cfg.n_groups is None:
        raise ConfigError("ablation needs a fixed n_groups, not k_max")
    rows: list[tuple[str, RunConfig]] = []

    def derive(label: str, **overrides) -> None:
        merged = dataclasses.replace(cfg, **overrides)
        rows.append((label, merged))

    for mode_label, mode_over in (
        ("top1", {"mode": "topk", "top_k": 1}),
        ("top2", {"mode": "topk", "top_k": min(2, cfg.n_experts)}),
        ("soft", {"mode": "soft", "top_k": cfg.n_experts}),
    ):
        derive(f"{mode_label}-dual", **mode_over)
        derive(f"{mode_label}-noclust", n_groups=1, **mode_over)
        notok = dict(mode_over, n_experts=1, top_k=1)
        derive(f"{mode_label}-notok", **notok)
    for n in (1, 2, 4):
        derive(f"scale-n{n}", mode="topk", n_experts=n, top_k=min(2, n))
    return rows


def ablation_run(cfg: RunConfig, records: list[InstructionRecord],
                 out_dir: str) -> list[dict]:
    """Train and evaluate every grid cell; writes ablation.csv and returns rows."""
    # Every cell shares the seed and holdout fraction, so one split serves them all.
    _, holdout = split_dataset(records, cfg.holdout_fraction, cfg.seed)
    if not holdout:
        raise ConfigError(f"ablation scores each cell on the holdout, but holdout_fraction="
                          f"{cfg.holdout_fraction} leaves none of the {len(records)} records")
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for label, row_cfg in ablation_grid(cfg):
        row_dir = os.path.join(out_dir, label)
        summary = pipeline_train(row_cfg, records, row_dir)
        eval_result = pipeline_eval(row_dir, holdout)
        results.append({
            "label": label,
            "mode": row_cfg.mode,
            "n_groups": summary["n_groups"],
            "n_experts": row_cfg.n_experts,
            "top_k": row_cfg.top_k,
            "final_lm_loss": summary["final_lm_loss"],
            "exact_match": eval_result["exact_match"],
            "perplexity": eval_result["perplexity"],
        })
    write_csv(os.path.join(out_dir, "ablation.csv"), list(results[0]),
              [list(row.values()) for row in results])
    return results
