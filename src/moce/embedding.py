"""Sequence embeddings: a toy feature-hashing embedder plus file I/O.

The embedder exists so clustering has a deterministic, dependency-free
signal: token unigrams and bigrams are hashed into ``d_e`` signed buckets,
mean-pooled and L2-normalised. Precomputed embeddings from a real encoder
can be swapped in through the same file format.

One sequence and a whole dataset take the one hashing path, ``_embed``,
and give the same bits: a bucket sum is an exact integer whatever the
order of its +-1 terms, and each row's two divisions are the IEEE
operations of embedding that sequence alone.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, integer
from .fileio import read_table, write_table

EMB_MAGIC = "MOCE-EMB"
EMB_VERSION = "v1"


@dataclass
class EmbeddingSet:
    """Embedded sequences: their ids in order, and one (n, d) array whose
    row i is the vector of ``ids[i]``."""

    ids: list[str]
    vectors: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.vectors, np.ndarray) and self.vectors.ndim == 2
                and self.vectors.shape[0] == len(self.ids)):
            raise ContractError(f"need a ({len(self.ids)}, d) array of vectors for "
                                f"{len(self.ids)} ids, got {np.shape(self.vectors)}")

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def matrix(self) -> np.ndarray:
        """The (n, d) array of vectors, in id order."""
        return self.vectors


def _embed(sequences: Sequence[Sequence[int | str]], d_e: int, seed: int) -> np.ndarray:
    """The (n, d_e) embeddings of ``sequences``, row i for sequence i.

    A feature is a unigram ``u|t`` or a bigram ``b|a<US>b`` (US is
    ``\\x1f``); its blake2b hash, keyed by ``seed``, picks a bucket and a
    sign, and each distinct feature is hashed once per call. All the +-1
    terms go into their rows through one ``np.bincount``: a bucket sum is a
    sum of at most 2n - 1 terms of +-1, so it is an exact small integer in
    any order of addition. Each row is then divided by its feature count
    and by ``sqrt(row.dot(row))``, which is what ``np.linalg.norm``
    computes for a 1-D array. So a row has the same bits whatever else the
    call embeds.
    """
    d_e, seed = integer(d_e, "embedding dimension", 1), integer(seed, "seed")
    prefix = f"{seed}|"
    hashed: dict[str, tuple[int, float]] = {}
    cells, signs, counts = [], [], []
    for row, tokens in enumerate(sequences):
        toks = [str(t) for t in tokens]
        if not toks:
            raise ContractError("cannot embed an empty token sequence")
        features = [f"u|{t}" for t in toks] + [f"b|{a}\x1f{b}" for a, b in zip(toks, toks[1:])]
        offset = row * d_e
        for feature in features:
            term = hashed.get(feature)
            if term is None:
                digest = hashlib.blake2b((prefix + feature).encode("utf-8"), digest_size=8).digest()
                h = int.from_bytes(digest, "little")
                term = hashed[feature] = (h % d_e, 1.0 if (h >> 32) & 1 else -1.0)
            cells.append(offset + term[0])
            signs.append(term[1])
        counts.append(len(features))
    n = len(counts)
    # With no cells (no sequences) bincount returns integers, weights or not.
    sums = np.bincount(np.array(cells, dtype=np.intp), weights=np.array(signs, dtype=np.float64),
                       minlength=n * d_e)
    rows = sums.astype(np.float64, copy=False).reshape(n, d_e)
    for row, count in zip(rows, counts):
        row /= count
        row /= math.sqrt(row.dot(row))
    return rows


def embed_sequence(tokens: Sequence[int | str], d_e: int = 64, seed: int = 0) -> np.ndarray:
    """Hash token unigrams and bigrams into a unit vector of size ``d_e``.

    Pure in (tokens, d_e, seed): the hash is keyed, never Python's salted
    ``hash``. Bigrams make the result order-sensitive. n tokens give 2n - 1
    features, an odd number of +-1 terms, so some bucket is non-zero and
    the norm is at least 1 / (2n - 1): the vector always has unit length.
    It is row 0 of ``embed_dataset`` on the one sequence, and equal to the
    same sequence's row in any dataset: the bucket sums are exact integers
    and the two divisions are per row (see ``_embed``).
    """
    return _embed([tokens], d_e, seed)[0]


def embed_dataset(sequences: list[tuple[str, Sequence[int | str]]], d_e: int = 64, seed: int = 0) -> EmbeddingSet:
    """Embed (source_id, tokens) pairs into one EmbeddingSet, row i for pair i."""
    vectors = _embed([toks for _, toks in sequences], d_e, seed)
    return EmbeddingSet([sid for sid, _ in sequences], vectors)


def save_embeddings(path: str, embeddings: EmbeddingSet) -> None:
    """Write the text format: a header line, then one id + vector per line.

    Values are written with 9 significant digits, enough to round-trip
    32-bit-precision storage within 1e-7.
    """
    write_table(path, EMB_MAGIC, EMB_VERSION, embeddings.vectors, 9, ids=embeddings.ids)


def load_embeddings(path: str) -> EmbeddingSet:
    """Read the format written by ``save_embeddings`` with ``read_table``'s
    strict rules: every error names the file and the 1-based line."""
    _, ids, vectors = read_table(path, EMB_MAGIC, EMB_VERSION, ("count", "dim"), ids=True)
    return EmbeddingSet(ids, vectors)
