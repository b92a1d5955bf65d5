"""The three workloads: how each sets up its inputs from the seed, what one
measured task does, and which checks its outputs must pass.

Every call into the program goes through a module attribute
(``moce.harness.pipeline_train``, ``moce.greedy_decode``, ...) at call
time, so the traced run's rebinding reaches it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass

import moce
import moce.data
import moce.harness

# The criterion-8 ablation cell: d_model 24, 2 layers, N=4 experts, top-2,
# rank-4 adapters, 40 pretrain and 250 adapter steps of batch 8.
CELL = dict(n_groups=2, d_model=24, n_layers=2, n_heads=2, d_ff=48, n_experts=4,
            adapter_rank=4, top_k=2, pretrain_steps=40, train_steps=250, lr=1e-2,
            batch_size=8)
CELL_PER_DIALECT = 100

# decode-long trains the same shapes for one pretraining and one adapter
# step: decode cost does not depend on how good the weights are, because
# no decode can stop early.
DECODE_TRAIN = dict(CELL, pretrain_steps=1, train_steps=1)
# 40 prompts make a task of about 7 s, so a run holds about four.
DECODE_PROMPTS = 40
# An id outside the vocabulary: greedy decoding never emits it, so every
# prompt runs to max_seq_len and generates the same number of tokens.
NEVER_EOS = -1

# One cluster-elbow task runs the sequence stage on several small corpora:
# how many Lloyd iterations a fit takes varies with the corpus, and the
# sum over eight corpora varies from seed to seed by a few percent.
CLUSTER_CORPORA = 8
CLUSTER_PER_DIALECT = 40
CLUSTER_K_MAX = 8
CLUSTER_D_EMBED = 64


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _corpus(seed: int, per_dialect: int, workdir: str) -> list:
    """The two-dialect corpus for ``seed``, round-tripped through a JSONL
    file so that set-up also covers the program's input parser."""
    path = os.path.join(workdir, "corpus.jsonl")
    moce.save_dataset(path, moce.make_two_dialect_corpus(per_dialect, seed))
    records = moce.ingest_dataset(path)
    os.remove(path)
    return records


def _loss_ends(losses: list[float]) -> tuple[float, float]:
    """Mean loss over the first and the last tenth of the steps; one batch
    alone is too noisy to show whether training made progress."""
    n = max(1, len(losses) // 10)
    return statistics.fmean(losses[:n]), statistics.fmean(losses[-n:])


def _all_same(name: str, values: list) -> list[Check]:
    """One check per task after the first: its value equals the first task's."""
    return [Check(name, value == values[0], f"task {i} vs task 0")
            for i, value in enumerate(values[1:], start=1)]


class TrainShort:
    """pipeline_train then pipeline_eval on the holdout, for the criterion-8 cell."""

    name = "train-short"
    # One operation: an optimiser step, from the previous step's end.
    op = ("moce.optim", "Adam", "step")

    def setup(self, seed: int, workdir: str) -> dict:
        records = _corpus(seed, CELL_PER_DIALECT, workdir)
        cfg = moce.RunConfig(seed=seed, **CELL)
        _, holdout = moce.split_dataset(records, cfg.holdout_fraction, cfg.seed)
        return {"cfg": cfg, "records": records, "holdout": holdout}

    def task(self, state: dict, run_dir: str) -> dict:
        start = time.perf_counter()
        summary = moce.harness.pipeline_train(state["cfg"], state["records"], run_dir)
        trained = time.perf_counter()
        result = moce.harness.pipeline_eval(run_dir, state["holdout"])
        return {"train_s": trained - start, "eval_s": time.perf_counter() - trained,
                "summary": summary, "eval": result}

    def inspect(self, raw: dict, run_dir: str) -> dict:
        metrics_path = os.path.join(run_dir, moce.harness.METRICS_FILE)
        params_path = os.path.join(run_dir, moce.harness.CHECKPOINT_DIR, "params.bin")
        with open(metrics_path, encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        return dict(raw, metrics_sha=_digest(metrics_path), params_sha=_digest(params_path),
                    rows=rows)

    def checks(self, state: dict, replays: list, outcomes: list[dict]) -> list[Check]:
        out = _all_same("metrics.jsonl bytes replay", [o["metrics_sha"] for o in outcomes])
        out += _all_same("params.bin bytes replay", [o["params_sha"] for o in outcomes])
        for i, o in enumerate(outcomes):
            values = [v for row in o["rows"] for k, v in row.items() if k.endswith("_loss")]
            out.append(Check("losses finite", all(math.isfinite(v) for v in values) and
                             math.isfinite(o["eval"]["mean_nll"]), f"task {i}"))
            for phase in ("pretrain", "train"):
                first, last = _loss_ends([r["lm_loss"] for r in o["rows"] if r["phase"] == phase])
                out.append(Check(f"{phase} loss falls", last < first,
                                 f"task {i}: mean of first tenth {first:.4f}, "
                                 f"of last tenth {last:.4f}"))
        return out

    def detail(self, state: dict, outcomes: list[dict]) -> dict:
        return {
            "train_s_p50": statistics.median(o["train_s"] for o in outcomes),
            "eval_s_p50": statistics.median(o["eval_s"] for o in outcomes),
            "final_lm_loss": outcomes[0]["summary"]["final_lm_loss"],
            "holdout_mean_nll": outcomes[0]["eval"]["mean_nll"],
        }


class DecodeLong:
    """Load a checkpoint, then route and greedy-decode every prompt to max_seq_len."""

    name = "decode-long"
    # One operation: routing and decoding one prompt.
    op = ("moce.model", "greedy_decode")

    def setup(self, seed: int, workdir: str) -> dict:
        records = _corpus(seed, CELL_PER_DIALECT, workdir)
        cfg = moce.RunConfig(seed=seed, **DECODE_TRAIN)
        run_dir = os.path.join(workdir, "decode-run")
        moce.harness.pipeline_train(cfg, records, run_dir)
        train, holdout = moce.split_dataset(records, cfg.holdout_fraction, cfg.seed)
        ckpt = os.path.join(run_dir, moce.harness.CHECKPOINT_DIR)
        return {
            "ckpt": ckpt,
            "replay": _digest(os.path.join(ckpt, "manifest.txt"), os.path.join(ckpt, "params.bin")),
            "prompts": [(r.instruction, moce.data.prompt_ids(r))
                        for r in (holdout + train)[:DECODE_PROMPTS]],
        }

    def task(self, state: dict, run_dir: str) -> dict:
        model, entries = moce.load_checkpoint(state["ckpt"])
        km = moce.load_kmeans(os.path.normpath(os.path.join(state["ckpt"], entries["kmeans_path"])))
        seed = int(entries["seed"])
        max_len = model.cfg.max_seq_len
        sequences = []
        start = time.perf_counter()
        for instruction, prompt in state["prompts"]:
            group = moce.harness.assign_group(km, instruction, km.dimension, seed)
            sequences.append(moce.greedy_decode(model, prompt, group,
                                                max_new_tokens=max_len - len(prompt),
                                                eos_id=NEVER_EOS))
        generated = sum(len(s) - len(p) for s, (_, p) in zip(sequences, state["prompts"]))
        return {"sequences": sequences, "decode_s": time.perf_counter() - start,
                "generated": generated, "max_len": max_len}

    def inspect(self, raw: dict, run_dir: str) -> dict:
        return raw

    def checks(self, state: dict, replays: list, outcomes: list[dict]) -> list[Check]:
        out = [Check("checkpoint bytes replay", replay == replays[0], f"set-up {i} vs set-up 0")
               for i, replay in enumerate(replays[1:], start=1)]
        out += _all_same("decoded tokens replay", [o["sequences"] for o in outcomes])
        for i, o in enumerate(outcomes):
            lengths = {len(s) for s in o["sequences"]}
            out.append(Check("decodes run to max_seq_len", lengths == {o["max_len"]},
                             f"task {i}: lengths {sorted(lengths)}"))
        return out

    def detail(self, state: dict, outcomes: list[dict]) -> dict:
        return {
            "decode_tokens_per_s": statistics.median(o["generated"] / o["decode_s"]
                                                     for o in outcomes),
            "tokens_per_task": outcomes[0]["generated"],
        }


class ClusterElbow:
    """embed_dataset, elbow_select(k_max=8), kmeans_fit and kmeans_predict on
    each of eight two-dialect corpora of 2x40 instructions."""

    name = "cluster-elbow"
    # One operation: the whole sequence stage on one corpus, which ends with
    # its kmeans_predict. It holds every k-means fit and restart of that
    # corpus, so a change to the restart scheme moves it in full.
    op = ("moce.clustering", "kmeans_predict")

    def setup(self, seed: int, workdir: str) -> dict:
        corpora = []
        for sub_seed in range(seed * CLUSTER_CORPORA, (seed + 1) * CLUSTER_CORPORA):
            records = _corpus(sub_seed, CLUSTER_PER_DIALECT, workdir)
            corpora.append({"seed": sub_seed,
                            "sequences": [(r.record_id, r.instruction) for r in records],
                            "sources": [r.source for r in records]})
        return {"corpora": corpora}

    def task(self, state: dict, run_dir: str) -> dict:
        results = []
        for corpus in state["corpora"]:
            seed = corpus["seed"]
            emb = moce.embed_dataset(corpus["sequences"], d_e=CLUSTER_D_EMBED, seed=seed)
            report = moce.elbow_select(emb, k_max=CLUSTER_K_MAX, seed=seed)
            km = moce.kmeans_fit(emb, report.selected_k, seed=seed)
            labels = moce.kmeans_predict(km, emb).labels
            results.append({"report": report, "km": km, "points": emb.matrix(), "labels": labels})
        return {"corpora": results}

    def inspect(self, raw: dict, run_dir: str) -> dict:
        corpora = []
        for c in raw["corpora"]:
            report, km, points, labels = c["report"], c["km"], c["points"], c["labels"]
            curve = report.sse_curve
            bends = [curve[k - 2] - 2.0 * curve[k - 1] + curve[k] for k in range(2, len(curve))]
            diffs = points - km.centroids[labels]
            corpora.append({"k": report.selected_k, "sse": curve, "monotonic": report.monotonic,
                            "sharpest_bend": 2 + bends.index(max(bends)),
                            "labels": [int(x) for x in labels], "final_sse": km.final_sse,
                            "predict_sse": float((diffs * diffs).sum())})
        return {"corpora": corpora}

    def checks(self, state: dict, replays: list, outcomes: list[dict]) -> list[Check]:
        out = _all_same("elbow and labels replay",
                        [[(c["k"], c["sse"], c["labels"]) for c in o["corpora"]]
                         for o in outcomes])
        for i, o in enumerate(outcomes):
            for corpus, c in zip(state["corpora"], o["corpora"]):
                where = f"task {i}, corpus seed {corpus['seed']}"
                out.append(Check("SSE curve non-increasing", c["monotonic"], where))
                out.append(Check("elbow picks the sharpest bend of its curve",
                                 c["k"] == c["sharpest_bend"],
                                 f"{where}: selected {c['k']}, sharpest bend {c['sharpest_bend']}"))
                out.append(Check("predicted labels give the fit's SSE",
                                 math.isclose(c["predict_sse"], c["final_sse"], rel_tol=1e-9),
                                 f"{where}: {c['predict_sse']!r} vs {c['final_sse']!r}"))
        return out

    def detail(self, state: dict, outcomes: list[dict]) -> dict:
        return {"selected_k": [c["k"] for c in outcomes[0]["corpora"]],
                "purity": [_purity(c["labels"], corpus["sources"])
                           for corpus, c in zip(state["corpora"], outcomes[0]["corpora"])]}


def _purity(labels: list[int], sources: list[str]) -> float:
    """Share of records whose cluster's majority source is their own."""
    by_cluster = Counter(zip(labels, sources))
    best: dict[int, int] = {}
    for (label, _), n in by_cluster.items():
        best[label] = max(best.get(label, 0), n)
    return sum(best.values()) / len(labels)


WORKLOADS = {w.name: w for w in (TrainShort(), DecodeLong(), ClusterElbow())}
