"""Dual-stage routed mixture-of-experts with clustered expert groups.

A sequence's embedding picks its expert group through k-means; inside the
group a learned router mixes top-k adapter experts per token on top of a
frozen dense base.
"""

from .clustering import (
    ElbowReport,
    KMeansModel,
    elbow_select,
    kmeans_fit,
    kmeans_predict,
    load_kmeans,
    save_kmeans,
)
from .data import (
    InstructionRecord,
    ingest_dataset,
    make_two_dialect_corpus,
    save_dataset,
    split_dataset,
)
from .embedding import EmbeddingSet, embed_dataset, embed_sequence, load_embeddings, save_embeddings
from .errors import (
    ConfigError,
    ContractError,
    FormatError,
    MoceError,
    NumericError,
    ShapeError,
    StateError,
)
from .harness import (
    RunConfig,
    ablation_run,
    parse_run_config,
    pipeline_eval,
    pipeline_train,
    route_statistics,
)
from .layer import AdapterExpert, ExpertGroup, MoCELayer, RoutingRecord, load_balance_loss
from .model import (
    DenseBaseModel,
    ModelConfig,
    MoCEModel,
    greedy_decode,
    lm_loss,
    load_checkpoint,
    save_checkpoint,
    upcycle_init,
)
from .optim import Adam
from .tensor import Tensor, backward

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AdapterExpert",
    "ConfigError",
    "ContractError",
    "DenseBaseModel",
    "ElbowReport",
    "EmbeddingSet",
    "ExpertGroup",
    "FormatError",
    "InstructionRecord",
    "KMeansModel",
    "MoCELayer",
    "MoCEModel",
    "ModelConfig",
    "MoceError",
    "NumericError",
    "RoutingRecord",
    "RunConfig",
    "ShapeError",
    "StateError",
    "Tensor",
    "ablation_run",
    "backward",
    "elbow_select",
    "embed_dataset",
    "embed_sequence",
    "greedy_decode",
    "ingest_dataset",
    "kmeans_fit",
    "kmeans_predict",
    "lm_loss",
    "load_balance_loss",
    "load_checkpoint",
    "load_embeddings",
    "load_kmeans",
    "make_two_dialect_corpus",
    "parse_run_config",
    "pipeline_eval",
    "pipeline_train",
    "route_statistics",
    "save_checkpoint",
    "save_dataset",
    "save_embeddings",
    "save_kmeans",
    "split_dataset",
    "upcycle_init",
]
