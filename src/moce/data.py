"""Instruction dataset handling: JSONL ingest, byte-level tokenisation,
and a synthetic two-dialect corpus for end-to-end runs.

Token ids 0..2 are the specials BOS, EOS, and SEP; ids 3..258 cover the
256 byte values, so the vocabulary has 259 entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ContractError, FormatError, integer
from .fileio import read_lines, write_atomic
from .seeding import substream

BOS_ID = 0
EOS_ID = 1
SEP_ID = 2
BYTE_OFFSET = 3
VOCAB_SIZE = BYTE_OFFSET + 256

_REQUIRED_KEYS = ("id", "instruction", "response")
_ALLOWED_KEYS = frozenset(_REQUIRED_KEYS) | {"source"}


@dataclass(frozen=True)
class InstructionRecord:
    """One supervised example: a prompt string and its reference completion."""

    record_id: str
    instruction: str
    response: str
    source: str = ""


def encode_text(text: str) -> list[int]:
    """UTF-8 bytes of ``text`` shifted past the special ids."""
    if not isinstance(text, str):
        raise ContractError(f"expected a string, got {type(text).__name__}")
    return [b + BYTE_OFFSET for b in text.encode("utf-8")]


def decode_text(ids: list[int]) -> str:
    """Inverse of encode_text; special ids are replaced, not decoded."""
    raw = bytes(max(0, i - BYTE_OFFSET) if i >= BYTE_OFFSET else 0x3F for i in ids)
    return raw.decode("utf-8", errors="replace")


def encode_example(record: InstructionRecord) -> list[int]:
    """BOS, instruction bytes, SEP, response bytes, EOS."""
    return (
        [BOS_ID] + encode_text(record.instruction) + [SEP_ID]
        + encode_text(record.response) + [EOS_ID]
    )


def prompt_ids(record: InstructionRecord) -> list[int]:
    """The decode-time prefix: everything up to and including SEP."""
    return [BOS_ID] + encode_text(record.instruction) + [SEP_ID]


def training_pair(ids: list[int]) -> tuple[list[int], list[int], list[float]]:
    """Shifted inputs and targets with loss restricted to the response span.

    The mask is 1.0 exactly where the target token lies strictly after the
    SEP, so the instruction is conditioned on but never scored.
    """
    if SEP_ID not in ids:
        raise ContractError("encoded example has no separator token")
    if len(ids) < 3:
        raise ContractError(f"example too short to train on: {len(ids)} tokens")
    sep_pos = ids.index(SEP_ID)
    inputs = ids[:-1]
    targets = ids[1:]
    mask = [1.0 if pos + 1 > sep_pos else 0.0 for pos in range(len(targets))]
    if sum(mask) == 0:
        raise ContractError("example has an empty response span")
    return inputs, targets, mask


def completed_response(generated: list[int]) -> str:
    """Text of the tokens a decoder produced after the prompt, cut at EOS."""
    if EOS_ID in generated:
        generated = generated[: generated.index(EOS_ID)]
    return decode_text(generated)


def _unique_fields(pairs: list) -> dict:
    """A JSON object's fields, refusing a name given twice: json.loads
    alone would keep the last value without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        names = [key for key, _ in pairs]
        twice = next(k for i, k in enumerate(names) if k in names[:i])
        raise FormatError(f"duplicate field '{twice}'")
    return obj


# Built once: json.loads with a hook argument builds a new decoder per call.
_JSON = json.JSONDecoder(object_pairs_hook=_unique_fields)


def ingest_dataset(path: str) -> list[InstructionRecord]:
    """Read a JSONL instruction file, validating every line.

    Each line must be a JSON object with string fields ``id``,
    ``instruction``, and ``response`` (all non-empty) and optionally
    ``source``. Any other key, or a key given twice, is an error so silent
    typos cannot pass. Blank lines are skipped.
    """
    records: list[InstructionRecord] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            obj = _JSON.decode(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{where}: invalid JSON: {exc}") from None
        except FormatError as exc:
            raise FormatError(f"{where}: {exc}") from None
        if not isinstance(obj, dict):
            raise FormatError(f"{where}: expected a JSON object")
        unknown = set(obj) - _ALLOWED_KEYS
        if unknown:
            raise FormatError(f"{where}: unknown field(s) {sorted(unknown)}")
        for key in _REQUIRED_KEYS:
            if key not in obj:
                raise FormatError(f"{where}: missing field '{key}'")
            if not isinstance(obj[key], str):
                raise FormatError(f"{where}: field '{key}' must be a string")
            if obj[key] == "":
                raise FormatError(f"{where}: field '{key}' is empty")
        source = obj.get("source", "")
        if not isinstance(source, str):
            raise FormatError(f"{where}: field 'source' must be a string")
        if obj["id"] in seen_ids:
            raise FormatError(f"{where}: duplicate id '{obj['id']}'")
        seen_ids.add(obj["id"])
        records.append(InstructionRecord(obj["id"], obj["instruction"], obj["response"], source))
    if not records:
        raise ContractError(f"{path}: dataset is empty")
    return records


def save_dataset(path: str, records: list[InstructionRecord]) -> None:
    """Write one JSON object per line, in the format ``ingest_dataset`` reads."""
    lines = []
    for r in records:
        obj = {"id": r.record_id, "instruction": r.instruction, "response": r.response}
        if r.source:
            obj["source"] = r.source
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    write_atomic(path, "".join(lines))


def split_dataset(
    records: list[InstructionRecord], holdout_fraction: float, seed: int
) -> tuple[list[InstructionRecord], list[InstructionRecord]]:
    """Deterministic shuffle and split into (train, holdout)."""
    if not 0.0 <= holdout_fraction < 1.0:
        raise ContractError(
            f"holdout fraction must be in [0, 1), got {holdout_fraction}"
        )
    rng = substream(seed, "data_order", "split")
    order = rng.permutation(len(records))
    n_holdout = int(round(holdout_fraction * len(records)))
    if n_holdout >= len(records):
        n_holdout = len(records) - 1
    holdout = [records[i] for i in order[:n_holdout]]
    train = [records[i] for i in order[n_holdout:]]
    if not train:
        raise ContractError("split left no training records")
    return train, holdout


_DIGITS = "0123456789"
_LETTERS = "abcdefghij"


def make_two_dialect_corpus(n_per_dialect: int, seed: int) -> list[InstructionRecord]:
    """Synthetic corpus with two surface dialects and two sub-tasks each.

    Dialect "digits" asks for the first (marker F) or last (marker L)
    character of a three-digit payload. Dialect "letters" asks for the
    upper-cased first (marker U) or last (marker V) character of a
    three-letter payload. The dialects use disjoint byte ranges, so
    sequence embeddings separate them; the markers vary per example, so
    token-level routing has something left to specialise on.
    """
    integer(n_per_dialect, "records per dialect", 2)
    rng = substream(seed, "data_order", "corpus")
    records: list[InstructionRecord] = []
    specs = [
        ("digits", _DIGITS, (("F", lambda p: p[0]), ("L", lambda p: p[-1]))),
        ("letters", _LETTERS, (("U", lambda p: p[0].upper()), ("V", lambda p: p[-1].upper()))),
    ]
    for source, alphabet, tasks in specs:
        for i in range(n_per_dialect):
            marker, answer = tasks[int(rng.integers(len(tasks)))]
            payload = "".join(alphabet[int(j)] for j in rng.integers(len(alphabet), size=3))
            records.append(
                InstructionRecord(
                    record_id=f"{source}-{i:04d}",
                    instruction=f"{marker} {payload}",
                    response=answer(payload),
                    source=source,
                )
            )
    return records
