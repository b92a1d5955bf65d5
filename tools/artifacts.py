"""Write a fixed set of pipeline artifacts, to compare two checkouts byte for byte.

    python tools/artifacts.py OUT_DIR

Runs the ``moce`` package of the checkout this file sits in. Under
OUT_DIR it writes, on the two-dialect corpus (100 per dialect, seed 0):

- the train, eval and route-stats outputs of seven run configs at seeds
  0 and 1: the criterion-8 shapes at 20 pretraining and 60 adapter steps,
  then the same with the variant, with ``k_max`` 4, with
  ``balance_weight`` 0, with no pretraining, with renormalisation,
  ``moe_scale`` 0.5, relu and 3 layers, and in soft mode;
- the same for a silu config on a two-dialect-style corpus whose
  payloads hold 2 to 6 characters, so that its training batches and
  eval chunks mix sequence lengths (a block-diagonal attention mask);
- the CLI's ``embed``, ``cluster`` and ``elbow`` outputs;
- 10 greedy decodes from a loaded checkpoint;
- a 12-cell ``ablation_run`` of a few steps per cell.

Every path is relative to OUT_DIR (``summary.json`` records them), so
running this in two checkouts and then ``diff -r`` of the two trees
shows every byte an artifact changed. The trees differ only if the
program's output did.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from moce.cli import main  # noqa: E402
from moce.clustering import load_kmeans  # noqa: E402
from moce.data import (  # noqa: E402
    InstructionRecord,
    make_two_dialect_corpus,
    prompt_ids,
    save_dataset,
    split_dataset,
)
from moce.harness import (  # noqa: E402
    RunConfig,
    ablation_run,
    assign_group,
    pipeline_eval,
    pipeline_train,
    route_statistics,
)
from moce.model import greedy_decode, load_checkpoint  # noqa: E402

CELL = dict(n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48, n_experts=4,
            adapter_rank=4, top_k=2, pretrain_steps=20, train_steps=60, lr=1e-2,
            batch_size=8)
CONFIGS = {
    "cell": {},
    "variant": dict(variant=True),
    "kmax4": dict(n_groups=None, k_max=4),
    "nobalance": dict(balance_weight=0.0),
    "nopretrain": dict(pretrain_steps=0),
    "renorm-relu-3l": dict(renormalize=True, moe_scale=0.5, activation="relu", n_layers=3),
    "soft": dict(mode="soft", top_k=4),
}
# Run on mixed_length_corpus: silu is the one activation CONFIGS leave out.
MIXED = dict(activation="silu")
SEEDS = (0, 1)
DECODES = 10
ABLATION = dict(CELL, pretrain_steps=3, train_steps=5)


def write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(value, indent=2, sort_keys=True) + "\n")


def mixed_length_corpus(n_per_dialect: int) -> list[InstructionRecord]:
    """Two dialects as in ``make_two_dialect_corpus`` (first or last digit;
    upper-cased first or last letter), with payloads of 2 to 6 characters
    drawn from a fixed stream."""
    rng = np.random.default_rng(0)
    records = []
    for source, alphabet, markers in (("digits", "0123456789", "FL"),
                                      ("letters", "abcdefghij", "UV")):
        for i in range(n_per_dialect):
            payload = "".join(rng.choice(list(alphabet), size=int(rng.integers(2, 7))))
            marker = markers[int(rng.integers(2))]
            answer = payload[0] if marker in "FU" else payload[-1]
            records.append(InstructionRecord(
                record_id=f"{source}-{i:04d}", instruction=f"{marker} {payload}",
                response=answer.upper() if source == "letters" else answer, source=source))
    return records


def train_eval_stats(cfg: RunConfig, records: list[InstructionRecord], run_dir: str) -> None:
    pipeline_train(cfg, records, run_dir)
    _, holdout = split_dataset(records, cfg.holdout_fraction, cfg.seed)
    pipeline_eval(run_dir, holdout, os.path.join(run_dir, "eval.json"))
    route_statistics(run_dir, holdout, os.path.join(run_dir, "route-stats"))


def run(out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    os.chdir(out_dir)
    records = make_two_dialect_corpus(100, seed=0)
    save_dataset("corpus.jsonl", records)

    for name, overrides in CONFIGS.items():
        for seed in SEEDS:
            train_eval_stats(RunConfig(seed=seed, **dict(CELL, **overrides)), records,
                             f"{name}-s{seed}")
    mixed = mixed_length_corpus(100)
    save_dataset("mixed.jsonl", mixed)
    for seed in SEEDS:
        train_eval_stats(RunConfig(seed=seed, **dict(CELL, **MIXED)), mixed, f"silu-mixed-s{seed}")

    os.makedirs("cli", exist_ok=True)
    for argv in (["embed", "--data", "corpus.jsonl", "--output", "cli/emb.txt", "--dim", "32"],
                 ["cluster", "--embeddings", "cli/emb.txt", "--k", "2", "--output", "cli/km.txt"],
                 ["elbow", "--embeddings", "cli/emb.txt", "--k-max", "5",
                  "--output", "cli/elbow.csv"]):
        if main(argv) != 0:
            raise SystemExit(f"moce {argv[0]} failed")

    model, entries = load_checkpoint(os.path.join("cell-s0", "checkpoint"))
    km = load_kmeans(os.path.join("cell-s0", "kmeans.txt"))
    decodes = []  # eos_id -1 is never emitted, so each decode runs to max_seq_len
    for r in records[:DECODES]:
        prompt = prompt_ids(r)
        group = assign_group(km, r.instruction, km.dimension, entries["seed"])
        decodes.append(greedy_decode(model, prompt, group, model.cfg.max_seq_len - len(prompt),
                                     eos_id=-1))
    write_json("decodes.json", decodes)

    ablation_run(RunConfig(seed=0, **ABLATION), records, "ablation")
    files = sum(len(names) for _, _, names in os.walk("."))
    print(f"wrote {files} files under {out_dir}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    sys.exit(run(sys.argv[1]))
