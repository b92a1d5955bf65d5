"""Fuzz tests for the text loaders: a dataset, embeddings or k-means file
either loads or fails with one of the package's own errors, which the CLI
turns into its documented exit codes, never a traceback."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moce.clustering import load_kmeans
from moce.data import ingest_dataset
from moce.embedding import load_embeddings
from moce.errors import MoceError

FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])

DATASET_LINES = st.sampled_from([
    b'{"id": "a", "instruction": "x", "response": "y"}',
    b'{"id": "b", "instruction": "x", "response": "y", "source": "s"}',
    b'{"id": "a", "id": "b", "instruction": "x", "response": "y"}',
    b'{"id": "c", "instruction": "\xff", "response": "y"}',
    b'{"id": "d", "instruction": {"x": 1, "x": 2}, "response": "y"}',
    b'{"id": "e"}', b"[]", b"", b"  ", b"\r", b"\xe2\x80\xa8",
])
NUMBERS = st.sampled_from([b"0", b"1", b"-2", b"0.5", b"1e400", b"nan", b"x", b"\xff", b"",
                           b"1_5", "\u0661\u0662".encode()])
ROWS = st.lists(NUMBERS, max_size=4).map(b" ".join)


def lines_of(first, rest):
    return st.tuples(first, st.lists(st.one_of(rest, st.binary(max_size=12)), max_size=5)).map(
        lambda parts: b"\n".join([parts[0], *parts[1]]) + b"\n")


def loads_or_raises_package_error(load, path, raw):
    path.write_bytes(raw)
    try:
        load(str(path))
    except MoceError:
        pass


@pytest.fixture
def target(tmp_path):
    return tmp_path / "fuzzed.txt"


@FUZZ
@given(raw=st.one_of(st.binary(max_size=64), lines_of(DATASET_LINES, DATASET_LINES)))
def test_dataset_loads_or_raises_package_errors(target, raw):
    loads_or_raises_package_error(ingest_dataset, target, raw)


@FUZZ
@given(raw=st.one_of(st.binary(max_size=64),
                     lines_of(st.sampled_from([b"MOCE-EMB v1 2 2", b"MOCE-EMB v1 -1 0",
                                               b"MOCE-EMB v1 2", b"MOCE-EMB v1 2 2 0"]),
                              st.builds(lambda row: b"id " + row, ROWS))))
def test_embeddings_load_or_raise_package_errors(target, raw):
    loads_or_raises_package_error(load_embeddings, target, raw)


@FUZZ
@given(raw=st.one_of(st.binary(max_size=64),
                     lines_of(st.sampled_from([b"MOCE-KMEANS v1 2 2 0", b"MOCE-KMEANS v1 0 -1 0",
                                               b"MOCE-KMEANS v1 2 2", b"MOCE-KMEANS v1 2 2 0 0"]),
                              ROWS)))
def test_kmeans_loads_or_raises_package_errors(target, raw):
    loads_or_raises_package_error(load_kmeans, target, raw)
