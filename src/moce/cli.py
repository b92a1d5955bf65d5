"""Command line front end.

Exit codes: 0 success, 2 configuration or contract violations (a model
too large to allocate among them), 3 malformed files, 4 numeric failures.
"""

from __future__ import annotations

import argparse
import sys

from .clustering import elbow_select, kmeans_fit, kmeans_predict, load_kmeans, save_kmeans
from .data import ingest_dataset, make_two_dialect_corpus, save_dataset
from .embedding import embed_dataset, load_embeddings, save_embeddings
from .errors import FormatError, MoceError, NumericError
from .fileio import json_text
from .harness import (
    ablation_run,
    parse_run_config,
    pipeline_eval,
    pipeline_train,
    route_statistics,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FORMAT = 3
EXIT_NUMERIC = 4


def _cmd_make_corpus(args) -> int:
    records = make_two_dialect_corpus(args.n_per_dialect, args.seed)
    save_dataset(args.output, records)
    print(f"wrote {len(records)} records to {args.output}")
    return EXIT_OK


def _cmd_embed(args) -> int:
    records = ingest_dataset(args.data)
    emb = embed_dataset(
        [(r.record_id, r.instruction) for r in records], d_e=args.dim, seed=args.seed
    )
    save_embeddings(args.output, emb)
    print(f"embedded {len(records)} sequences at dimension {args.dim} into {args.output}")
    return EXIT_OK


def _cmd_cluster(args) -> int:
    emb = load_embeddings(args.embeddings)
    model = kmeans_fit(emb, args.k, seed=args.seed)
    save_kmeans(args.output, model)
    counts = kmeans_predict(model, emb).counts(args.k)
    sizes = ", ".join(f"{g}:{c}" for g, c in enumerate(counts))
    print(f"fit k={args.k} (SSE {model.final_sse:.6g}) -> {args.output}; sizes {sizes}")
    return EXIT_OK


def _cmd_elbow(args) -> int:
    emb = load_embeddings(args.embeddings)
    report = elbow_select(emb, k_max=args.k_max, seed=args.seed)
    report.write_csv(args.output)
    print(f"selected k={report.selected_k} from k_max={args.k_max} -> {args.output}")
    if not report.monotonic:
        print(f"warning: SSE curve not monotone at k in {report.violations}", file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = parse_run_config(args.config)
    records = ingest_dataset(args.data)
    summary = pipeline_train(cfg, records, args.out_dir)
    print(json_text(summary), end="")
    return EXIT_OK


def _cmd_eval(args) -> int:
    records = ingest_dataset(args.data)
    result = pipeline_eval(args.run_dir, records, output_path=args.output)
    print(json_text(result), end="")
    return EXIT_OK


def _cmd_route_stats(args) -> int:
    records = ingest_dataset(args.data)
    stats = route_statistics(args.run_dir, records, args.out_dir)
    print(json_text(stats), end="")
    return EXIT_OK


def _cmd_ablate(args) -> int:
    cfg = parse_run_config(args.config)
    records = ingest_dataset(args.data)
    rows = ablation_run(cfg, records, args.out_dir)
    for row in rows:
        print(f"{row['label']:>14s}  loss {row['final_lm_loss']:.4f}  "
              f"exact {row['exact_match']:.3f}  ppl {row['perplexity']:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moce",
        description="Cluster-routed mixture-of-experts: data, clustering, "
                    "training, evaluation, and routing statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-corpus", help="generate the synthetic two-dialect corpus")
    p.add_argument("--output", required=True)
    p.add_argument("--n-per-dialect", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_make_corpus)

    p = sub.add_parser("embed", help="hash instruction text into unit vectors")
    p.add_argument("--data", required=True, help="JSONL instruction dataset")
    p.add_argument("--output", required=True)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_embed)

    p = sub.add_parser("cluster", help="fit k-means over saved embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_cluster)

    p = sub.add_parser("elbow", help="sweep k and select by curvature")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--output", required=True, help="CSV of k, SSE, curvature")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_elbow)

    p = sub.add_parser("train", help="run the full pipeline from a config file")
    p.add_argument("--config", required=True, help="flat key=value run config")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="greedy-decode a dataset against a finished run")
    p.add_argument("--run-dir", required=True, help="directory pipeline_train wrote")
    p.add_argument("--data", required=True)
    p.add_argument("--output", default=None, help="optional JSON result path")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("route-stats", help="export routing histograms for a dataset")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_route_stats)

    p = sub.add_parser("ablate", help="train and score the full comparison grid")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MoceError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, FormatError):
            return EXIT_FORMAT
        return EXIT_NUMERIC if isinstance(exc, NumericError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
