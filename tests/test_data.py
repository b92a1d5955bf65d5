"""Tokeniser round trips, JSONL validation, and corpus structure."""

import re

import numpy as np
import pytest

from moce.cli import main
from moce.data import (
    BOS_ID,
    EOS_ID,
    SEP_ID,
    VOCAB_SIZE,
    InstructionRecord,
    completed_response,
    decode_text,
    encode_example,
    encode_text,
    ingest_dataset,
    make_two_dialect_corpus,
    prompt_ids,
    save_dataset,
    split_dataset,
    training_pair,
)
from moce.errors import ContractError, FormatError


class TestTokenizer:
    def test_vocab_size(self):
        assert VOCAB_SIZE == 259
        assert {BOS_ID, EOS_ID, SEP_ID} == {0, 1, 2}

    def test_round_trip(self):
        for text in ["abc", "F 123", "", "héllo", "tab\tand\nnewline"]:
            assert decode_text(encode_text(text)) == text

    def test_ids_stay_in_range(self):
        ids = encode_text("héllo wörld")
        assert all(3 <= i < VOCAB_SIZE for i in ids)

    def test_encode_example_layout(self):
        rec = InstructionRecord("r1", "F 12", "1")
        ids = encode_example(rec)
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        assert ids.count(SEP_ID) == 1
        assert prompt_ids(rec) == ids[: ids.index(SEP_ID) + 1]

    def test_training_pair_masks_only_the_response(self):
        rec = InstructionRecord("r1", "ab", "xy")
        ids = encode_example(rec)
        inputs, targets, mask = training_pair(ids)
        assert inputs == ids[:-1] and targets == ids[1:]
        sep_pos = ids.index(SEP_ID)
        for pos, m in enumerate(mask):
            assert m == (1.0 if pos + 1 > sep_pos else 0.0)
        assert sum(mask) == len("xy") + 1

    def test_training_pair_rejects_missing_separator(self):
        with pytest.raises(ContractError):
            training_pair([BOS_ID, 5, 6, EOS_ID])

    def test_completed_response_cuts_at_eos(self):
        tail = encode_text("ok") + [EOS_ID] + encode_text("junk")
        assert completed_response(tail) == "ok"
        assert completed_response(encode_text("noeos")) == "noeos"


class TestIngest:
    def write(self, tmp_path, lines):
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(p)

    def test_round_trip(self, tmp_path):
        records = [
            InstructionRecord("a", "F 12", "1", "digits"),
            InstructionRecord("b", "U ab", "A", "letters"),
        ]
        path = str(tmp_path / "rt.jsonl")
        save_dataset(path, records)
        assert ingest_dataset(path) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, [
            '{"id": "a", "instruction": "x", "response": "y"}',
            "",
            '{"id": "b", "instruction": "x", "response": "y"}',
        ])
        assert len(ingest_dataset(path)) == 2

    def test_invalid_json_names_line(self, tmp_path):
        path = self.write(tmp_path, [
            '{"id": "a", "instruction": "x", "response": "y"}',
            "{not json",
        ])
        with pytest.raises(FormatError, match=":2:"):
            ingest_dataset(path)

    def test_missing_field(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "instruction": "x"}'])
        with pytest.raises(FormatError, match="response"):
            ingest_dataset(path)

    def test_unknown_field(self, tmp_path):
        path = self.write(tmp_path, [
            '{"id": "a", "instruction": "x", "response": "y", "extra": 1}',
        ])
        with pytest.raises(FormatError, match="extra"):
            ingest_dataset(path)

    def test_non_string_field(self, tmp_path):
        path = self.write(tmp_path, ['{"id": 7, "instruction": "x", "response": "y"}'])
        with pytest.raises(FormatError, match="string"):
            ingest_dataset(path)

    def test_empty_field(self, tmp_path):
        path = self.write(tmp_path, ['{"id": "a", "instruction": "", "response": "y"}'])
        with pytest.raises(FormatError, match="empty"):
            ingest_dataset(path)

    def test_duplicate_id(self, tmp_path):
        path = self.write(tmp_path, [
            '{"id": "a", "instruction": "x", "response": "y"}',
            '{"id": "a", "instruction": "z", "response": "w"}',
        ])
        with pytest.raises(FormatError, match="duplicate"):
            ingest_dataset(path)

    def test_duplicate_field(self, tmp_path):
        """json.loads alone would keep the last 'id' and load record 'b'."""
        path = self.write(tmp_path, ['{"id": "a", "id": "b", "instruction": "x", "response": "y"}'])
        with pytest.raises(FormatError, match=re.escape(f"{path}:1: duplicate field 'id'")):
            ingest_dataset(path)

    def test_bad_utf8_exits_3_naming_file_and_line(self, tmp_path, capsys):
        p = tmp_path / "data.jsonl"
        p.write_bytes(b'{"id": "a", "instruction": "x", "response": "y"}\n'
                      b'{"id": "b", "instruction": "\xff", "response": "y"}\n')
        out = tmp_path / "emb.txt"
        assert main(["embed", "--data", str(p), "--output", str(out)]) == 3
        assert f"{p}:2: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ContractError, match="empty"):
            ingest_dataset(str(p))


class TestCorpus:
    def test_structure(self):
        records = make_two_dialect_corpus(50, seed=0)
        assert len(records) == 100
        digits = [r for r in records if r.source == "digits"]
        letters = [r for r in records if r.source == "letters"]
        assert len(digits) == len(letters) == 50
        for r in digits:
            marker, payload = r.instruction.split(" ")
            assert marker in ("F", "L") and len(payload) == 3
            assert set(payload) <= set("0123456789")
            assert r.response == (payload[0] if marker == "F" else payload[-1])
        for r in letters:
            marker, payload = r.instruction.split(" ")
            assert marker in ("U", "V") and len(payload) == 3
            assert set(payload) <= set("abcdefghij")
            expected = payload[0] if marker == "U" else payload[-1]
            assert r.response == expected.upper()

    def test_dialect_bytes_disjoint(self):
        records = make_two_dialect_corpus(30, seed=1)
        digit_payloads = {c for r in records if r.source == "digits" for c in r.instruction.split(" ")[1]}
        letter_payloads = {c for r in records if r.source == "letters" for c in r.instruction.split(" ")[1]}
        assert digit_payloads.isdisjoint(letter_payloads)

    def test_determinism_and_seed_sensitivity(self):
        a = make_two_dialect_corpus(20, seed=3)
        b = make_two_dialect_corpus(20, seed=3)
        c = make_two_dialect_corpus(20, seed=4)
        assert a == b
        assert a != c

    def test_split(self):
        records = make_two_dialect_corpus(50, seed=5)
        train, holdout = split_dataset(records, 0.2, seed=5)
        assert len(holdout) == 20 and len(train) == 80
        assert {r.record_id for r in train}.isdisjoint({r.record_id for r in holdout})
        assert sorted(r.record_id for r in train + holdout) == sorted(
            r.record_id for r in records
        )
        again = split_dataset(records, 0.2, seed=5)
        assert again[0] == train and again[1] == holdout

    def test_split_preconditions(self):
        records = make_two_dialect_corpus(5, seed=0)
        with pytest.raises(ContractError):
            split_dataset(records, 1.0, seed=0)
        with pytest.raises(ContractError):
            split_dataset(records, -0.1, seed=0)

    def test_examples_fit_default_context(self):
        records = make_two_dialect_corpus(40, seed=6)
        lengths = {len(encode_example(r)) for r in records}
        assert max(lengths) <= 16

    def test_sequence_embeddings_separate_dialects(self):
        """Sanity for the routing premise: dialects embed far apart."""
        from moce.embedding import embed_dataset

        records = make_two_dialect_corpus(30, seed=7)
        emb = embed_dataset([(r.record_id, r.instruction) for r in records], d_e=64, seed=0)
        mat = emb.matrix()
        labels = np.array([0 if r.source == "digits" else 1 for r in records])
        within = float(np.mean([
            mat[i] @ mat[j]
            for i in range(len(records)) for j in range(len(records))
            if i < j and labels[i] == labels[j]
        ]))
        across = float(np.mean([
            mat[i] @ mat[j]
            for i in range(len(records)) for j in range(len(records))
            if labels[i] != labels[j]
        ]))
        assert within > across + 0.05
