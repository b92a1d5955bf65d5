"""Hashing embedder properties and the embedding file round trip."""

import re

import numpy as np
import pytest

from moce.cli import main
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
        with pytest.raises(ContractError):
            embed_sequence([], d_e=64, seed=0)

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
