"""scipy loads only for gelu: the sequence stage and relu and silu models
run on numpy alone, and without scipy a gelu run fails before it writes.

Each case runs in a fresh interpreter, since this test process has
loaded scipy already (``test_layer`` imports it for its gelu oracle).
"""

import os
import subprocess
import sys
from pathlib import Path

import moce
from moce.data import make_two_dialect_corpus, save_dataset
from moce.harness import RunConfig, pipeline_train

SRC = str(Path(moce.__file__).resolve().parents[1])

SEQUENCE_STAGE = """
from moce.cli import main

data, emb = f"{work}/d.jsonl", f"{work}/e.txt"
assert main(["make-corpus", "--output", data, "--n-per-dialect", "10"]) == 0
assert main(["embed", "--data", data, "--output", emb, "--dim", "16"]) == 0
assert main(["cluster", "--embeddings", emb, "--k", "2", "--output", f"{work}/k.txt"]) == 0
assert main(["elbow", "--embeddings", emb, "--k-max", "4", "--output", f"{work}/elbow.csv"]) == 0
"""

NUMPY_ONLY = SEQUENCE_STAGE + """
import numpy as np
from moce.layer import FeedForward
from moce.model import DenseBaseModel, ModelConfig
from moce.tensor import Tensor, adapter_mixture, backward, masked_cross_entropy, router_gates

rng = np.random.default_rng(0)
for act in ("relu", "silu"):
    x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    base = FeedForward.init(4, 6, rng, act).forward(x)
    router = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    downs = [Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(2)]
    ups = [Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2)]
    out = adapter_mixture(base, router_gates(x, [router], [None]), np.zeros((5, 1), dtype=np.int64),
                          downs, ups, act, skip=x)
    backward(masked_cross_entropy(out, np.arange(5) % 4, np.full(5, 0.2)))
    assert x.grad is not None and downs[0].grad is not None
    DenseBaseModel.build(ModelConfig(vocab_size=8, d_model=4, n_heads=1, activation=act), 0)
assert "scipy" not in sys.modules, "scipy loaded without a gelu block"
DenseBaseModel.build(ModelConfig(vocab_size=8, d_model=4, n_heads=1), 0)
assert "scipy" in sys.modules, "a gelu block did not load scipy"
"""

NO_SCIPY = "sys.modules['scipy'] = None\n" + SEQUENCE_STAGE + """
import pytest
from moce import ConfigError, RunConfig, ingest_dataset, pipeline_train

cfg = RunConfig(n_groups=2, d_model=8, n_heads=1, d_ff=8, adapter_rank=2, n_experts=2, top_k=1,
                pretrain_steps=1, train_steps=1)
with pytest.raises(ConfigError, match="gelu.*scipy"):
    pipeline_train(cfg, ingest_dataset(data), f"{work}/run")
assert not os.path.exists(f"{work}/run")
config = f"{work}/run.cfg"
with open(config, "w") as f:
    f.write("n_groups=2\\npretrain_steps=1\\ntrain_steps=1\\n")
assert main(["train", "--config", config, "--data", data, "--out-dir", f"{work}/cli"]) == 2
assert not os.path.exists(f"{work}/cli")
assert main(["eval", "--run-dir", gelu_run, "--data", data,
             "--output", f"{work}/eval.json"]) == 2
assert not os.path.exists(f"{work}/eval.json")
"""


def run_fresh(body: str, **names) -> None:
    """Run ``body`` in a new interpreter that imports moce from this
    checkout, with ``names`` bound to strings, and fail on its traceback."""
    prologue = "import os, sys\n" + "".join(f"{k} = {v!r}\n" for k, v in names.items())
    script = prologue + "import moce\n" + body
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_numpy_alone_until_a_gelu_block_is_built(tmp_path):
    """``import moce``, make-corpus, embed, cluster and elbow, and relu and
    silu blocks, mixtures and models, forward and backward, leave scipy
    unloaded; building a gelu ``DenseBaseModel`` loads it."""
    run_fresh("assert 'scipy' not in sys.modules\n" + NUMPY_ONLY, work=str(tmp_path))


def test_gelu_without_scipy_fails_before_writing(tmp_path):
    """With scipy unimportable the sequence stage still runs, while a gelu
    ``pipeline_train`` raises ConfigError and ``moce train`` and ``moce
    eval`` of a gelu run exit 2, each before writing anything."""
    data = tmp_path / "gelu.jsonl"
    save_dataset(str(data), make_two_dialect_corpus(6, seed=0))
    gelu_run = tmp_path / "gelu"
    pipeline_train(RunConfig(n_groups=2, d_model=8, n_heads=1, d_ff=8, adapter_rank=2,
                             n_experts=2, top_k=1, pretrain_steps=1, train_steps=1),
                   moce.ingest_dataset(str(data)), str(gelu_run))
    work = tmp_path / "work"
    work.mkdir()
    run_fresh(NO_SCIPY, work=str(work), gelu_run=str(gelu_run))
