"""Run config parsing, pipeline artifacts, determinism, and the CLI."""

import contextlib
import csv
import json
import os
import shutil

import numpy as np
import pytest

import moce.clustering
import moce.harness
import moce.model
from conftest import write_run_config
from moce.cli import main
from moce.data import InstructionRecord, make_two_dialect_corpus, save_dataset, split_dataset
from moce.errors import ConfigError, ContractError, NumericError
from moce.harness import (
    RunConfig,
    _check_finite,
    ablation_grid,
    ablation_run,
    parse_run_config,
    pipeline_eval,
    pipeline_train,
    route_statistics,
)


def micro_cfg(**overrides):
    base = dict(
        seed=0, n_groups=2, d_model=16, n_layers=2, n_heads=2, d_ff=24,
        n_experts=2, adapter_rank=4, top_k=1, pretrain_steps=3, train_steps=4,
        lr=1e-2, batch_size=4,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def corpus():
    return make_two_dialect_corpus(30, seed=0)


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus):
    out = str(tmp_path_factory.mktemp("run"))
    summary = pipeline_train(micro_cfg(), corpus, out)
    return out, summary


class TestRunConfig:
    def test_file_round_trip(self, tmp_path):
        cfg = micro_cfg(mode="soft", top_k=2, renormalize=True, moe_scale=0.5)
        path = str(tmp_path / "run.cfg")
        write_run_config(path, cfg)
        assert parse_run_config(path) == cfg

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# full line comment\n\nn_groups=2\nseed=7  # trailing\n")
        cfg = parse_run_config(str(path))
        assert cfg.seed == 7 and cfg.n_groups == 2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_groups=2\nlearning_rate=0.1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_run_config(str(path))
        path.write_text("n_groups=2\nvocab_size=300\n")  # fixed by the byte tokenizer
        with pytest.raises(ConfigError, match="unknown key 'vocab_size'"):
            parse_run_config(str(path))

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_groups=2\nn_groups=3\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_run_config(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_groups=2\n\nlr=fast\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: lr: expected a number"):
            parse_run_config(str(path))

    def test_bad_bool(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_groups=2\nrenormalize=yes\n")
        with pytest.raises(ConfigError, match="renormalize"):
            parse_run_config(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_groups 2\n")
        with pytest.raises(ConfigError, match="key=value"):
            parse_run_config(str(path))

    def test_group_source_is_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig(n_groups=2, k_max=4)
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig()

    @pytest.mark.parametrize("fault", [
        "mode=dense",
        "top_k=9\nn_experts=2",
        "d_model=30\nn_heads=4",
        "activation=tanhh",
        "moe_scale=inf",
        "lr=nan",
        "balance_weight=nan",
        "max_seq_len=1000000000000000000",
    ], ids=lambda fault: fault.replace("\n", "+"))
    def test_fault_fails_before_any_stage(self, tmp_path, fault, capsys):
        """Every field and cross-field rule is checked when the file is read:
        ``moce train`` exits 2 and writes nothing into its output directory."""
        path = tmp_path / "run.cfg"
        path.write_text(f"n_groups=2\npretrain_steps=1\ntrain_steps=1\n{fault}\n")
        with pytest.raises(ConfigError):
            parse_run_config(str(path))
        data = str(tmp_path / "d.jsonl")
        save_dataset(data, make_two_dialect_corpus(10, seed=0))
        out = tmp_path / "run"
        assert main(["train", "--config", str(path), "--data", data, "--out-dir", str(out)]) == 2
        assert not out.exists() or not any(out.iterdir())
        assert "run.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["d_model=3_2", "train_steps=\uff11\uff10", "lr=1_0e-3"],
                             ids=["underscore-int", "full-width-int", "underscore-float"])
    def test_numerals_are_plain_ascii(self, tmp_path, line):
        """int() and float() read '3_2' as 32 and full-width digits as ASCII
        ones; a run file holds neither, and the error names the file, the
        line and the key."""
        path = tmp_path / "run.cfg"
        path.write_text(f"n_groups=2\n{line}\n", encoding="utf-8")
        key = line.partition("=")[0]
        with pytest.raises(ConfigError, match=f"run.cfg:2: {key}: expected"):
            parse_run_config(str(path))

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            micro_cfg(lr=0.0)
        with pytest.raises(ConfigError):
            micro_cfg(balance_weight=-0.1)
        with pytest.raises(ConfigError):
            micro_cfg(holdout_fraction=1.0)
        with pytest.raises(ConfigError):
            micro_cfg(batch_size=0)
        with pytest.raises(ConfigError, match="k_max must be >= 3"):
            micro_cfg(n_groups=None, k_max=2)
        with pytest.raises(ConfigError, match="seed must be an integer"):
            micro_cfg(seed=1.5)
        with pytest.raises(ConfigError, match="variant must be a boolean"):
            micro_cfg(variant=1)


class TestPipeline:
    def test_artifacts_written(self, trained_run):
        out, summary = trained_run
        for name in ("embeddings.txt", "kmeans.txt", "metrics.jsonl",
                     "summary.json", "checkpoint"):
            assert os.path.exists(os.path.join(out, name)), name
        assert summary["n_groups"] == 2
        assert summary["n_train"] + summary["n_holdout"] == 60

    def test_metrics_stream_shape(self, trained_run):
        out, _ = trained_run
        rows = [json.loads(line) for line in open(os.path.join(out, "metrics.jsonl"))]
        pre = [r for r in rows if r["phase"] == "pretrain"]
        tr = [r for r in rows if r["phase"] == "train"]
        assert len(pre) == 3 and len(tr) == 4
        assert [r["step"] for r in tr] == [0, 1, 2, 3]
        for r in rows:
            assert "time" not in r and "timestamp" not in r
            assert np.isfinite(r["lm_loss"])
        for r in pre:
            assert set(r) == {"lm_loss", "phase", "step"}
        for r in tr:
            assert r["total_loss"] >= r["lm_loss"] - 1e-12
            assert set(r) == {"lm_loss", "phase", "step", "total_loss", "balance_loss"}

    def test_no_pretraining_keeps_the_built_backbone(self, tmp_path, corpus):
        """pretrain_steps=0 writes no pretrain row, and the checkpoint's
        backbone is the dense base as built, bit for bit."""
        cfg = micro_cfg(pretrain_steps=0)
        out = str(tmp_path / "nopre")
        summary = pipeline_train(cfg, corpus, out)
        rows = [json.loads(line) for line in open(os.path.join(out, "metrics.jsonl"))]
        assert [(r["phase"], r["step"]) for r in rows] == [("train", s) for s in range(4)]
        model, _ = moce.model.load_checkpoint(os.path.join(out, "checkpoint"))
        mcfg = moce.harness.model_config_from(cfg, summary["n_groups"])
        built = dict(moce.model.DenseBaseModel.build(mcfg, cfg.seed).named_parameters())
        loaded = dict(model.backbone.named_parameters())
        assert loaded.keys() == built.keys()
        for name, tensor in loaded.items():
            assert tensor.data.tobytes() == built[name].data.tobytes(), name

    def test_runs_are_bit_identical(self, tmp_path, corpus):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        pipeline_train(micro_cfg(), corpus, a)
        pipeline_train(micro_cfg(), corpus, b)
        for rel in ("metrics.jsonl", "embeddings.txt", "kmeans.txt",
                    os.path.join("checkpoint", "params.bin"),
                    os.path.join("checkpoint", "manifest.txt")):
            with open(os.path.join(a, rel), "rb") as fa, open(os.path.join(b, rel), "rb") as fb:
                assert fa.read() == fb.read(), rel

    def test_zero_balance_weight_drops_the_term(self, tmp_path, corpus):
        out = str(tmp_path / "nobal")
        pipeline_train(micro_cfg(balance_weight=0.0), corpus, out)
        rows = [json.loads(line) for line in open(os.path.join(out, "metrics.jsonl"))]
        for r in rows:
            if r["phase"] == "train":
                assert "balance_loss" not in r
                assert r["total_loss"] == r["lm_loss"]

    def test_elbow_mode_selects_the_dialect_count(self, tmp_path, corpus):
        out = str(tmp_path / "elbow")
        summary = pipeline_train(micro_cfg(n_groups=None, k_max=6), corpus, out)
        assert os.path.exists(os.path.join(out, "elbow.csv"))
        assert summary["n_groups"] == 2

    def test_fixed_group_run_removes_an_earlier_sweep(self, tmp_path, corpus):
        """An n_groups run in the directory of a k_max run leaves no
        elbow.csv beside its own kmeans.txt."""
        out = str(tmp_path / "reused")
        pipeline_train(micro_cfg(n_groups=None, k_max=3, pretrain_steps=1, train_steps=1),
                       corpus, out)
        assert os.path.exists(os.path.join(out, "elbow.csv"))
        pipeline_train(micro_cfg(pretrain_steps=1, train_steps=1), corpus, out)
        assert not os.path.exists(os.path.join(out, "elbow.csv"))

    def test_elbow_mode_keeps_the_sweeps_fit(self, tmp_path, corpus, monkeypatch):
        """The selected k is not fitted again: three attempts per k, no more."""
        calls, reports = [], []
        fit, sweep = moce.clustering.kmeans_fit, moce.harness.elbow_select

        def fit_spy(*args, **kwargs):
            calls.append(args[1])
            return fit(*args, **kwargs)

        def sweep_spy(*args, **kwargs):
            reports.append(sweep(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(moce.clustering, "kmeans_fit", fit_spy)
        monkeypatch.setattr(moce.harness, "kmeans_fit", fit_spy)
        monkeypatch.setattr(moce.harness, "elbow_select", sweep_spy)
        out = str(tmp_path / "elbow")
        pipeline_train(micro_cfg(n_groups=None, k_max=4, pretrain_steps=1, train_steps=1),
                       corpus, out)
        assert sorted(calls) == [1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4]
        (report,) = reports
        saved = moce.clustering.load_kmeans(os.path.join(out, "kmeans.txt"))
        assert saved.k == report.selected_k == report.fit.k
        assert np.array_equal(saved.centroids, report.fit.centroids)

    def test_eval_output(self, trained_run, corpus):
        out, _ = trained_run
        _, holdout = split_dataset(corpus, 0.2, seed=0)
        result = pipeline_eval(out, holdout)
        assert 0.0 <= result["exact_match"] <= 1.0
        assert result["n_records"] == len(holdout)
        assert result["perplexity"] == pytest.approx(np.exp(result["mean_nll"]))
        assert set(result["by_source"]) <= {"digits", "letters"}

    def test_route_statistics(self, trained_run, corpus, tmp_path):
        out, _ = trained_run
        stats_dir = str(tmp_path / "stats")
        stats = route_statistics(out, corpus[:20], stats_dir)
        assert stats["n_records"] == 20
        with open(os.path.join(stats_dir, "groups.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert sum(int(r["sequences"]) for r in rows) == 20
        with open(os.path.join(stats_dir, "routers.csv")) as fh:
            router_rows = list(csv.DictReader(fh))
        by_router = {}
        for r in router_rows:
            by_router.setdefault(r["router"], []).append(float(r["load_fraction"]))
        for key, loads in by_router.items():
            assert sum(loads) == pytest.approx(1.0), key
        with open(os.path.join(stats_dir, "routes.csv")) as fh:
            route_rows = list(csv.DictReader(fh))
        n_layers, top_k = 2, 1
        assert len(route_rows) == stats["tokens_seen"] * n_layers * top_k

    def test_no_grad_leaves_eval_and_route_stats_bytes_unchanged(self, trained_run, corpus,
                                                                    tmp_path, monkeypatch):
        """Evaluation and route-stats run their forwards without a tape; with
        the tape recorded they write the same bytes."""
        out, _ = trained_run
        records = corpus[:24]

        def run(name):
            pipeline_eval(out, records, str(tmp_path / f"{name}.json"))
            route_statistics(out, records, str(tmp_path / name))
            files = [f"{name}.json"] + [os.path.join(name, f) for f in
                                        ("groups.csv", "routers.csv", "routes.csv", "stats.json")]
            return [(tmp_path / f).read_bytes() for f in files]

        untaped = run("no_grad")
        monkeypatch.setattr(moce.harness, "no_grad", contextlib.nullcontext)
        monkeypatch.setattr(moce.model, "no_grad", contextlib.nullcontext)
        assert run("taped") == untaped

    def test_eval_and_route_stats_forward_the_same_blocks(self, trained_run, corpus, tmp_path,
                                                          monkeypatch):
        """Both commands score through one packed pass: the same blocks of
        the same lengths with the same groups, in order; route-stats routes
        each block into its record, evaluation into none."""
        out, _ = trained_run
        records = corpus[:12] + corpus[-12:]  # both dialects
        forward = moce.model.MoCEModel.forward
        blocks = []

        def spy(self, token_ids, group_id, record=None, cache=None):
            if cache is None:  # the decodes' forwards fill a K/V cache
                blocks.append(([len(ids) for ids in token_ids], [int(g) for g in group_id],
                               record is not None))
            return forward(self, token_ids, group_id, record, cache)

        monkeypatch.setattr(moce.model.MoCEModel, "forward", spy)
        pipeline_eval(out, records)
        evaluated = blocks[:]
        blocks.clear()
        route_statistics(out, records, str(tmp_path / "stats"))
        assert [b[:2] for b in blocks] == [b[:2] for b in evaluated]
        assert len(evaluated) > 1 and sum(len(lengths) for lengths, _, _ in evaluated) == 24
        assert {g for _, groups, _ in evaluated for g in groups} == {0, 1}
        assert not any(b[2] for b in evaluated) and all(b[2] for b in blocks)

    def test_check_finite(self):
        _check_finite(1.0, "train", 3)
        with pytest.raises(NumericError, match="step 3"):
            _check_finite(float("nan"), "train", 3)
        with pytest.raises(NumericError):
            _check_finite(float("inf"), "pretrain", 0)


def over_long(n):
    """Records whose encoded examples need more than the default 64 tokens."""
    return [InstructionRecord(f"long-{i}", "F " + "1" * 80, "1", "digits") for i in range(n)]


def test_unallocatable_model_exits_2(tmp_path, monkeypatch, capsys):
    """A model that passes every config rule but cannot be allocated exits
    2, not with a traceback. The first run's position table needs 2.56e17
    bytes, past any 64-bit address space, so numpy refuses it without
    allocating anything; the second run's build raises MemoryError."""
    data = str(tmp_path / "d.jsonl")
    save_dataset(data, make_two_dialect_corpus(10, seed=0))
    path = tmp_path / "run.cfg"
    path.write_text("n_groups=2\nmax_seq_len=1000000000000000\n")
    assert main(["train", "--config", str(path), "--data", data, "--out-dir", str(tmp_path / "a")]) == 2
    assert "Unable to allocate" in capsys.readouterr().err

    def refuse(cfg, seed):
        raise MemoryError("no room")

    monkeypatch.setattr(moce.model.DenseBaseModel, "build", refuse)
    path.write_text("n_groups=2\n")
    assert main(["train", "--config", str(path), "--data", data, "--out-dir", str(tmp_path / "b")]) == 2
    assert "error: no room" in capsys.readouterr().err


@pytest.mark.parametrize("groups", ["n_groups=2", "k_max=3"])
def test_unallocatable_mixture_writes_nothing(tmp_path, groups, capsys):
    """The mixture layers are allocated before anything is written, so
    adapters too large to allocate exit 2 and leave no out-dir. The config
    passes ``ModelConfig``'s address check, but one (8, 10**15) down
    projection needs 58 PiB."""
    data = str(tmp_path / "d.jsonl")
    save_dataset(data, make_two_dialect_corpus(10, seed=0))
    path = tmp_path / "run.cfg"
    path.write_text(f"{groups}\nd_model=8\nadapter_rank=1000000000000000\npretrain_steps=2\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--data", data, "--out-dir", str(out)]) == 2
    assert "Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("groups", ["n_groups=2", "k_max=3"])
@pytest.mark.parametrize("fault", ["address-space", "memory-error"])
def test_unallocatable_model_writes_nothing(tmp_path, monkeypatch, fault, groups):
    """The dense base is built before the run writes anything, so a model
    that cannot be allocated exits 2 and leaves no out-dir."""
    data = str(tmp_path / "d.jsonl")
    save_dataset(data, make_two_dialect_corpus(10, seed=0))
    path = tmp_path / "run.cfg"
    if fault == "address-space":
        path.write_text(f"{groups}\nmax_seq_len=1000000000000000\n")
    else:
        path.write_text(f"{groups}\n")

        def refuse(cfg, seed):
            raise MemoryError("no room")

        monkeypatch.setattr(moce.model.DenseBaseModel, "build", refuse)
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--data", data, "--out-dir", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("groups", ["n_groups=9", "k_max=9"])
def test_group_count_above_training_records_fails_before_writing(tmp_path, groups, capsys):
    """2x5 records leave 8 for training: 9 groups cannot be fitted, and
    ``moce train`` says so (exit 2) before it writes any artifact."""
    path = tmp_path / "run.cfg"
    path.write_text(f"{groups}\npretrain_steps=1\ntrain_steps=1\n")
    data = str(tmp_path / "d.jsonl")
    save_dataset(data, make_two_dialect_corpus(5, seed=0))
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--data", data, "--out-dir", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())
    assert f"{groups} exceeds the 8 training records" in capsys.readouterr().err


class TestOverLongRecords:
    """Every record is checked against max_seq_len before any work starts."""

    def test_train_rejects_before_writing(self, tmp_path, corpus):
        out = tmp_path / "run"
        with pytest.raises(ContractError, match="long-0, long-1"):
            pipeline_train(micro_cfg(), corpus + over_long(2), str(out))
        assert not out.exists()

    def test_eval_names_every_record(self, trained_run, corpus, tmp_path):
        run_dir, _ = trained_run
        result = tmp_path / "eval.json"
        with pytest.raises(ContractError, match=r"2 record\(s\) exceed max_seq_len 64: long-0, long-1"):
            pipeline_eval(run_dir, corpus[:3] + over_long(2), str(result))
        assert not result.exists()

    def test_route_statistics_rejects_before_writing(self, trained_run, corpus, tmp_path):
        run_dir, _ = trained_run
        out = tmp_path / "stats"
        with pytest.raises(ContractError, match="long-0"):
            route_statistics(run_dir, over_long(1) + corpus[:3], str(out))
        assert not out.exists()

    def test_evaluating_no_records_rejected(self, trained_run):
        model, km, seed = moce.harness._open_run(trained_run[0], [])
        with pytest.raises(ContractError, match="at least one record"):
            moce.harness.evaluate_records(model, km, seed, [])

    def test_cli_exits_2(self, trained_run, corpus, tmp_path, capsys):
        run_dir, _ = trained_run
        data = str(tmp_path / "data.jsonl")
        save_dataset(data, corpus[:3] + over_long(1))
        assert main(["eval", "--run-dir", run_dir, "--data", data]) == 2
        assert "long-0" in capsys.readouterr().err


class TestAblation:
    def test_grid_structure(self):
        rows = ablation_grid(micro_cfg(n_experts=4, top_k=2))
        labels = [label for label, _ in rows]
        assert len(rows) == 12 and len(set(labels)) == 12
        by_label = dict(rows)
        assert by_label["top2-noclust"].n_groups == 1
        assert by_label["soft-notok"].n_experts == 1
        assert by_label["scale-n4"].n_experts == 4 and by_label["scale-n4"].top_k == 2
        assert by_label["scale-n1"].top_k == 1
        assert by_label["soft-dual"].mode == "soft"

    def test_grid_requires_fixed_groups(self):
        with pytest.raises(ConfigError):
            ablation_grid(micro_cfg(n_groups=None, k_max=4))

    def test_ablation_run_writes_csv(self, tmp_path, corpus):
        cfg = micro_cfg(pretrain_steps=1, train_steps=2, n_experts=2)
        out = str(tmp_path / "ablate")
        rows = ablation_run(cfg, corpus, out)
        assert len(rows) == 12
        with open(os.path.join(out, "ablation.csv")) as fh:
            csv_rows = list(csv.DictReader(fh))
        assert len(csv_rows) == 12
        for r in csv_rows:
            assert np.isfinite(float(r["final_lm_loss"]))
            assert 0.0 <= float(r["exact_match"]) <= 1.0

    def test_empty_holdout_rejected_before_training(self, tmp_path, corpus, capsys):
        """Every cell is scored on the holdout, so a split that leaves none
        fails before the first cell trains, and the CLI exits 2."""
        out = tmp_path / "ablate"
        with pytest.raises(ConfigError, match="holdout"):
            ablation_run(micro_cfg(holdout_fraction=0.0), corpus[:10], str(out))
        assert not out.exists()
        cfg_path = tmp_path / "run.cfg"
        write_run_config(str(cfg_path), micro_cfg(holdout_fraction=0.0))
        data = str(tmp_path / "data.jsonl")
        save_dataset(data, corpus[:10])
        assert main(["ablate", "--config", str(cfg_path), "--data", data,
                     "--out-dir", str(out)]) == 2
        assert "holdout" in capsys.readouterr().err and not out.exists()


class TestCli:
    def test_full_command_chain(self, tmp_path, capsys):
        data = str(tmp_path / "data.jsonl")
        assert main(["make-corpus", "--output", data, "--n-per-dialect", "20"]) == 0

        emb = str(tmp_path / "emb.txt")
        assert main(["embed", "--data", data, "--output", emb, "--dim", "32"]) == 0

        km = str(tmp_path / "kmeans.txt")
        assert main(["cluster", "--embeddings", emb, "--k", "2", "--output", km]) == 0

        elbow = str(tmp_path / "elbow.csv")
        assert main(["elbow", "--embeddings", emb, "--k-max", "5", "--output", elbow]) == 0

        cfg_path = str(tmp_path / "run.cfg")
        write_run_config(cfg_path, micro_cfg())
        run_dir = str(tmp_path / "run")
        assert main(["train", "--config", cfg_path, "--data", data,
                     "--out-dir", run_dir]) == 0

        eval_json = str(tmp_path / "eval.json")
        assert main(["eval", "--run-dir", run_dir, "--data", data,
                     "--output", eval_json]) == 0
        assert os.path.exists(eval_json)

        stats_dir = str(tmp_path / "stats")
        assert main(["route-stats", "--run-dir", run_dir, "--data", data,
                     "--out-dir", stats_dir]) == 0
        assert os.path.exists(os.path.join(stats_dir, "stats.json"))
        capsys.readouterr()

    def test_train_stdout_is_the_bytes_of_summary_json(self, tmp_path, capsys):
        """The printed summary and ``summary.json`` share one JSON layout."""
        data = str(tmp_path / "data.jsonl")
        save_dataset(data, make_two_dialect_corpus(10, 0))
        cfg_path = str(tmp_path / "run.cfg")
        write_run_config(cfg_path, micro_cfg())
        run_dir = tmp_path / "run"
        capsys.readouterr()
        assert main(["train", "--config", cfg_path, "--data", data, "--out-dir", str(run_dir)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (run_dir / "summary.json").read_bytes()

    def test_exit_code_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("n_groups=2\nbogus_key=1\n")
        data = str(tmp_path / "d.jsonl")
        main(["make-corpus", "--output", data, "--n-per-dialect", "5"])
        code = main(["train", "--config", str(cfg_path), "--data", data,
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_exit_code_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        code = main(["embed", "--data", str(bad), "--output", str(tmp_path / "e.txt")])
        assert code == 3
        capsys.readouterr()

    def test_bad_utf8_kmeans_exits_3_naming_file_and_line(self, trained_run, corpus, tmp_path,
                                                        capsys):
        run_dir = str(tmp_path / "run")
        shutil.copytree(trained_run[0], run_dir)
        km = os.path.join(run_dir, "kmeans.txt")
        with open(km, "rb") as fh:
            raw = fh.read()
        with open(km, "wb") as fh:
            fh.write(raw.replace(b"\n", b"\n\xff", 1))
        data = str(tmp_path / "data.jsonl")
        save_dataset(data, corpus[:3])
        assert main(["eval", "--run-dir", run_dir, "--data", data]) == 3
        assert f"{km}:2: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [1, 3])
    def test_kmeans_fit_of_another_group_count_exits_2(self, trained_run, corpus, tmp_path,
                                                      capsys, k):
        """A 2-group run whose kmeans.txt holds a k=1 or k=3 fit: eval and
        route-stats exit 2 naming both files, and route-stats writes nothing."""
        run_dir = str(tmp_path / "run")
        shutil.copytree(trained_run[0], run_dir)
        km = os.path.join(run_dir, "kmeans.txt")
        points = np.random.default_rng(0).standard_normal((5, moce.clustering.load_kmeans(km).dimension))
        moce.clustering.save_kmeans(km, moce.clustering.kmeans_fit(points, k, seed=0))
        data = str(tmp_path / "data.jsonl")
        save_dataset(data, corpus[:3])
        ckpt = os.path.join(run_dir, "checkpoint")
        assert main(["eval", "--run-dir", run_dir, "--data", data]) == 2
        err = capsys.readouterr().err
        assert f"{km}: k-means fit has {k} clusters" in err and ckpt in err
        stats_dir = str(tmp_path / "stats")
        assert main(["route-stats", "--run-dir", run_dir, "--data", data,
                     "--out-dir", stats_dir]) == 2
        assert f"{km}: k-means fit has {k} clusters" in capsys.readouterr().err
        assert not os.path.exists(stats_dir)

    def test_bad_utf8_run_file_exits_3_naming_file_and_line(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_bytes(b"n_groups=2\nseed=\xff\n")
        data = str(tmp_path / "d.jsonl")
        save_dataset(data, make_two_dialect_corpus(5, seed=0))
        code = main(["train", "--config", str(cfg_path), "--data", data,
                     "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert f"{cfg_path}:2: not UTF-8 text" in capsys.readouterr().err

    def test_exit_code_missing_file(self, tmp_path, capsys):
        code = main(["embed", "--data", str(tmp_path / "absent.jsonl"),
                     "--output", str(tmp_path / "e.txt")])
        assert code == 2
        capsys.readouterr()
