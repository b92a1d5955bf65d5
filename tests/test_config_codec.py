"""Property and fuzz tests for the key=value codec: run files and
checkpoint manifests either parse or fail with the package's own errors,
and every valid config survives a write and a read unchanged."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_run_config
from moce.config import format_lines
from moce.errors import ConfigError, FormatError
from moce.harness import RunConfig, parse_run_config
from moce.model import (
    CKPT_MAGIC,
    CKPT_VERSION,
    MANIFEST,
    DenseBaseModel,
    ModelConfig,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
    upcycle_init,
)

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
ROUND_TRIP = settings(derandomize=True, database=None, max_examples=25, deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])

RUN_KEYS = [f.name for f in dataclasses.fields(RunConfig)]
MANIFEST_KEYS = [f"config.{f.name}" for f in dataclasses.fields(ModelConfig)] + [
    "seed", "step", "kmeans_path"]
HEADER = f"{CKPT_MAGIC} {CKPT_VERSION}"

values = st.one_of(
    st.text(max_size=12),
    st.integers(-5, 100).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", "True", "False", "yes", "", "nan", "-inf", "topk",
                     "soft", "gelu", "relu", "1e400", "0x10", "1_000", " 7 ", "2 # c"]),
)


def lines_for(keys):
    keyed = st.tuples(st.sampled_from(keys + ["bogus", "", " seed", "k max"]), values).map(
        lambda kv: f"{kv[0]}={kv[1]}")
    return st.lists(st.one_of(keyed, st.text(max_size=20)), max_size=12)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@FUZZ
@given(lines=lines_for(RUN_KEYS))
def test_run_file_parses_or_raises_config_error(scratch, lines):
    path = scratch / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        cfg = parse_run_config(str(path))
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@FUZZ
@given(lines=lines_for(MANIFEST_KEYS), header=st.sampled_from([HEADER, HEADER, "", "MOCE-CKPT v2"]))
def test_manifest_parses_or_raises_package_error(scratch, lines, header):
    path = scratch / "manifest.txt"
    path.write_text("\n".join([header] + lines) + "\n", encoding="utf-8")
    try:
        cfg, entries = read_manifest(path)
    except (ConfigError, FormatError):
        return
    assert isinstance(cfg, ModelConfig) and isinstance(entries["seed"], int)


@FUZZ
@given(raw=st.binary(max_size=64))
def test_raw_bytes_parse_or_raise_package_errors(scratch, raw):
    """Bytes that are not UTF-8 are a malformed file (``FormatError``), not a
    traceback; text that is not a valid run file is a ``ConfigError``."""
    path = scratch / "raw.cfg"
    path.write_bytes(raw)
    try:
        parse_run_config(str(path))
    except (ConfigError, FormatError):
        pass
    manifest = scratch / "raw-manifest.txt"
    manifest.write_bytes(HEADER.encode() + b"\n" + raw)
    try:
        read_manifest(manifest)
    except (ConfigError, FormatError):
        pass


@st.composite
def model_configs(draw):
    n_heads = draw(st.integers(1, 3))
    n_experts = draw(st.integers(1, 3))
    return ModelConfig(
        vocab_size=draw(st.integers(2, 12)),
        d_model=n_heads * draw(st.integers(1, 3)),
        n_layers=draw(st.integers(1, 2)),
        n_heads=n_heads,
        max_seq_len=draw(st.integers(1, 6)),
        d_ff=draw(st.integers(1, 5)),
        n_groups=draw(st.integers(1, 3)),
        n_experts=n_experts,
        adapter_rank=draw(st.integers(1, 3)),
        top_k=draw(st.integers(1, n_experts)),
        mode=draw(st.sampled_from(["topk", "soft"])),
        renormalize=draw(st.booleans()),
        moe_scale=draw(st.floats(allow_nan=False, allow_infinity=False)),
        variant=draw(st.booleans()),
        activation=draw(st.sampled_from(["gelu", "relu", "silu"])),
    )


@FUZZ
@given(cfg=model_configs(), edit=st.tuples(st.integers(0, 17), st.sampled_from(["drop", "copy", "set"]),
                                            values))
def test_edited_manifest_parses_or_raises_package_error(scratch, cfg, edit):
    """One line of a valid manifest dropped, repeated or given another value."""
    lines = format_lines(cfg, MANIFEST, "config.") + ["seed=3", "step=0", "kmeans_path=k.txt"]
    i, action, value = edit
    key = lines[i].partition("=")[0]
    lines[i:i + 1] = {"drop": [], "copy": [lines[i]] * 2, "set": [f"{key}={value}"]}[action]
    path = scratch / "edited-manifest.txt"
    path.write_text("\n".join([HEADER] + lines) + "\n", encoding="utf-8")
    try:
        parsed, _ = read_manifest(path)
    except (ConfigError, FormatError):
        return
    assert action == "set" and isinstance(parsed, ModelConfig)


@ROUND_TRIP
@given(cfg=model_configs(), seed=st.integers(0, 2**40), step=st.integers(0, 10**6))
def test_checkpoint_round_trip(tmp_path_factory, cfg, seed, step):
    """Saved and loaded, a random valid config comes back equal, and saving
    the loaded model writes the same manifest and parameter bytes."""
    root = tmp_path_factory.mktemp("ckpt")
    model = upcycle_init(DenseBaseModel.build(cfg, seed), cfg, seed)
    save_checkpoint(str(root / "a"), model, seed=seed, step=step, kmeans_path="../kmeans.txt")
    loaded, entries = load_checkpoint(str(root / "a"))
    assert loaded.cfg == cfg
    assert (entries["seed"], entries["step"], entries["kmeans_path"]) == (seed, step, "../kmeans.txt")
    save_checkpoint(str(root / "b"), loaded, seed=seed, step=step, kmeans_path="../kmeans.txt")
    for name in ("manifest.txt", "params.bin"):
        assert (root / "a" / name).read_bytes() == (root / "b" / name).read_bytes(), name
    assert format_lines(loaded.cfg, MANIFEST, "config.") == format_lines(cfg, MANIFEST, "config.")


@st.composite
def run_configs(draw):
    n_heads = draw(st.integers(1, 4))
    n_experts = draw(st.integers(1, 8))
    groups = draw(st.one_of(st.builds(dict, n_groups=st.integers(1, 9)),
                            st.builds(dict, k_max=st.integers(3, 9))))
    return RunConfig(
        seed=draw(st.integers(0, 2**31)),
        d_model=n_heads * draw(st.integers(1, 64)),
        n_heads=n_heads,
        n_experts=n_experts,
        top_k=draw(st.integers(1, n_experts)),
        mode=draw(st.sampled_from(["topk", "soft"])),
        renormalize=draw(st.booleans()),
        variant=draw(st.booleans()),
        moe_scale=draw(st.floats(allow_nan=False, allow_infinity=False)),
        lr=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        balance_weight=draw(st.floats(min_value=0.0, allow_infinity=False)),
        holdout_fraction=draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True)),
        pretrain_steps=draw(st.integers(0, 10**6)),
        **groups,
    )


@FUZZ
@given(cfg=run_configs())
def test_run_file_round_trip(scratch, cfg):
    path = scratch / "round.cfg"
    write_run_config(str(path), cfg)
    again = scratch / "again.cfg"
    write_run_config(str(again), parse_run_config(str(path)))
    assert parse_run_config(str(path)) == cfg
    assert again.read_bytes() == path.read_bytes()
