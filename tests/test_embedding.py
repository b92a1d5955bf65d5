"""Hashing embedder properties and the embedding file round trip."""

import hashlib
import re

import numpy as np
import pytest

from moce import embedding
from moce.cli import main
from moce.data import make_two_dialect_corpus
from moce.embedding import (
    EmbeddingSet,
    embed_dataset,
    embed_sequence,
    load_embeddings,
    save_embeddings,
)
from moce.errors import ContractError, FormatError, NumericError


class TestEmbedder:
    def test_unit_norm(self):
        """Every embedding is L2-normalised."""
        rng = np.random.default_rng(0)
        for _ in range(50):
            toks = rng.integers(0, 40, size=rng.integers(1, 12)).tolist()
            v = embed_sequence(toks, d_e=64, seed=3)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_deterministic_across_calls(self):
        a = embed_sequence([5, 9, 9, 2], d_e=32, seed=7)
        b = embed_sequence([5, 9, 9, 2], d_e=32, seed=7)
        assert a.tobytes() == b.tobytes()

    def test_single_token_sequence(self):
        v = embed_sequence([42], d_e=16, seed=0)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.count_nonzero(v) == 1

    def test_order_sensitivity_via_bigrams(self):
        """Permuting tokens changes the vector because bigrams change."""
        a = embed_sequence([1, 2, 3, 4], d_e=64, seed=0)
        b = embed_sequence([4, 3, 2, 1], d_e=64, seed=0)
        assert np.linalg.norm(a - b) > 1e-6

    def test_seed_sensitivity(self):
        a = embed_sequence([1, 2, 3], d_e=64, seed=0)
        b = embed_sequence([1, 2, 3], d_e=64, seed=1)
        assert np.linalg.norm(a - b) > 1e-6

    def test_case_sensitivity_on_string_tokens(self):
        a = embed_sequence(["Copy", "one"], d_e=64, seed=0)
        b = embed_sequence(["copy", "one"], d_e=64, seed=0)
        assert np.linalg.norm(a - b) > 1e-6

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError, match="cannot embed an empty token sequence"):
            embed_sequence([], d_e=64, seed=0)
        with pytest.raises(ContractError, match="cannot embed an empty token sequence"):
            embed_dataset([("a", [1, 2]), ("b", [])], d_e=64, seed=0)

    def test_empty_dataset_is_a_zero_row_set(self, tmp_path):
        """No sequences give a (0, d_e) float64 set, which saves and loads."""
        es = embed_dataset([], d_e=8, seed=0)
        assert len(es) == 0 and es.matrix().shape == (0, 8) and es.matrix().dtype == np.float64
        path = tmp_path / "emb.txt"
        save_embeddings(str(path), es)
        assert path.read_text() == "MOCE-EMB v1 0 8\n"
        assert load_embeddings(str(path)).matrix().shape == (0, 8)

    @pytest.mark.parametrize("kwargs, message", [
        ({"d_e": 0}, "embedding dimension must be >= 1, got 0"),
        ({"d_e": 2.0}, "embedding dimension must be an integer"),
        ({"seed": True}, "seed must be an integer"),
    ])
    def test_empty_dataset_still_checks_its_arguments(self, kwargs, message):
        with pytest.raises(ContractError, match=re.escape(message)):
            embed_dataset([], **kwargs)

    def test_disjoint_vocabularies_nearly_orthogonal(self):
        """Mean cosine over 100 disjoint-vocab pairs stays below 0.5.

        The exact value is pinned as a regression anchor; the generator is
        fully seeded so it never drifts.
        """
        rng = np.random.default_rng(1234)
        cosines = []
        for _ in range(100):
            n_a, n_b = rng.integers(3, 10, size=2)
            a = embed_sequence(rng.integers(0, 50, size=n_a).tolist(), d_e=64, seed=0)
            b = embed_sequence((rng.integers(0, 50, size=n_b) + 1000).tolist(), d_e=64, seed=0)
            cosines.append(float(a @ b))
        mean_cos = float(np.mean(cosines))
        assert mean_cos < 0.5
        assert abs(mean_cos - -0.005149959661040193) < 1e-12


def reference_embedding(tokens, d_e, seed):
    """The embedder as a loop over one sequence's features, each hashed and
    added into its bucket in turn: the reference for the one hashing path."""
    toks = [str(t) for t in tokens]
    v = np.zeros(d_e, dtype=np.float64)
    features = [("u", t) for t in toks] + [("b", f"{a}\x1f{b}") for a, b in zip(toks, toks[1:])]
    for tag, payload in features:
        digest = hashlib.blake2b(f"{seed}|{tag}|{payload}".encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        v[h % d_e] += 1.0 if (h >> 32) & 1 else -1.0
    v /= len(features)
    return v / float(np.linalg.norm(v))


ODD_SEQUENCES = {
    "one-token": [42],
    "repeated-token": [7] * 12,
    "repeated-string-tokens": ["a", "a", "b", "a", "a"],
    "integer-tokens": list(range(30)),
    "int-and-str-alike": [1, "1", 1, "x"],
    "unicode": ["\u00e9", "\u0661", "\x1f", "|"],
}


class TestOneHashingPath:
    @pytest.mark.parametrize("d_e", [7, 64])
    def test_dataset_rows_equal_the_per_feature_loop(self, d_e):
        """Corpora 0-19: every row of ``embed_dataset`` has the bits of the
        per-feature loop run on its sequence alone."""
        for corpus in range(20):
            records = make_two_dialect_corpus(20, corpus)
            es = embed_dataset([(r.record_id, r.instruction) for r in records], d_e, corpus)
            expected = np.array([reference_embedding(r.instruction, d_e, corpus) for r in records])
            assert es.matrix().tobytes() == expected.tobytes(), corpus

    @pytest.mark.parametrize("name", sorted(ODD_SEQUENCES))
    @pytest.mark.parametrize("d_e", [7, 64])
    def test_odd_sequences_equal_the_per_feature_loop(self, name, d_e):
        tokens = ODD_SEQUENCES[name]
        expected = reference_embedding(tokens, d_e, 3)
        assert embed_sequence(tokens, d_e=d_e, seed=3).tobytes() == expected.tobytes()
        es = embed_dataset([(n, ODD_SEQUENCES[n]) for n in sorted(ODD_SEQUENCES)], d_e=d_e, seed=3)
        assert es.matrix()[es.ids.index(name)].tobytes() == expected.tobytes()

    def test_sequence_is_row_zero_of_its_dataset(self):
        records = make_two_dialect_corpus(10, 4)
        es = embed_dataset([(r.record_id, r.instruction) for r in records], d_e=64, seed=4)
        for i, r in enumerate(records):
            one = embed_sequence(r.instruction, d_e=64, seed=4)
            alone = embed_dataset([("a", r.instruction)], d_e=64, seed=4).matrix()[0]
            assert one.tobytes() == alone.tobytes()
            assert one.tobytes() == es.matrix()[i].tobytes()

    def test_each_distinct_feature_is_hashed_once_per_call(self, monkeypatch):
        calls = []
        real = hashlib.blake2b

        def counting(data, **kwargs):
            calls.append(data)
            return real(data, **kwargs)

        monkeypatch.setattr(embedding.hashlib, "blake2b", counting)
        sequences = [[1, 2, 1, 2], [2, 1], [1, 2]]
        embed_dataset([(str(i), s) for i, s in enumerate(sequences)], d_e=8, seed=0)
        features = {f"0|u|{t}" for s in sequences for t in s}
        features |= {f"0|b|{a}\x1f{b}" for s in sequences for a, b in zip(s, s[1:])}
        assert sorted(calls) == sorted(f.encode() for f in features)


class TestEmbeddingFile:
    def test_round_trip_within_float32_precision(self, tmp_path):
        """Written values come back within 1e-7 of the originals."""
        es = embed_dataset([(f"seq{i}", [i, i + 1, i + 2]) for i in range(10)], d_e=24, seed=5)
        path = tmp_path / "emb.txt"
        save_embeddings(str(path), es)
        loaded = load_embeddings(str(path))
        assert loaded.dimension == 24 and len(loaded) == 10
        assert loaded.ids == es.ids
        assert np.max(np.abs(loaded.matrix() - es.matrix())) < 1e-7

    def test_matrix_is_one_array(self):
        """The set holds one (n, d) array: ``matrix()`` returns it, not a new stack."""
        es = embed_dataset([(f"seq{i}", [i, i + 1]) for i in range(5)], d_e=8, seed=1)
        assert es.matrix() is es.matrix()
        assert es.matrix().shape == (5, 8) and es.dimension == 8

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("WRONG v1 1 4\nx 0 0 0 1\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}:1:")):
            load_embeddings(str(p))

    def test_row_width_error_names_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-EMB v1 2 3\na 1 0 0\nb 1 0\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}:3:")):
            load_embeddings(str(p))

    def test_count_mismatch_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-EMB v1 3 2\na 1 0\nb 0 1\n")
        with pytest.raises(FormatError, match="declares 3"):
            load_embeddings(str(p))

    def test_non_finite_value_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-EMB v1 1 2\na nan 0\n")
        with pytest.raises(NumericError, match=re.escape(f"{p}:2:")):
            load_embeddings(str(p))

    def test_blank_line_rejected_at_its_own_line(self, tmp_path):
        """A blank line is an error; rows after it keep their true line numbers."""
        p = tmp_path / "bad.txt"
        p.write_text("MOCE-EMB v1 2 3\na 1 0 0\n\nb 1 0\n")
        with pytest.raises(FormatError, match=re.escape(f"{p}:3: blank line")):
            load_embeddings(str(p))

    def test_bad_utf8_exits_3_naming_file_and_line(self, tmp_path, capsys):
        p = tmp_path / "emb.txt"
        p.write_bytes(b"MOCE-EMB v1 2 2\na 1 0\nb\xff 0 1\n")
        out = tmp_path / "km.txt"
        assert main(["cluster", "--embeddings", str(p), "--k", "1", "--output", str(out)]) == 3
        assert f"{p}:3: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad_id", ["", "a b", "a\tb", "a\rb"])
    def test_id_the_reader_cannot_split_off_rejected(self, tmp_path, bad_id):
        """An empty id or one holding whitespace raises before any byte is written."""
        path = tmp_path / "emb.txt"
        with pytest.raises(ContractError, match="whitespace-free"):
            save_embeddings(str(path), EmbeddingSet(["ok", bad_id], np.zeros((2, 3))))
        assert not path.exists()

    def test_dimension_mismatch_in_set_rejected(self):
        with pytest.raises(ContractError):
            EmbeddingSet(["a", "b"], np.zeros((1, 3)))
