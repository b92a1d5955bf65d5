"""Sequence embeddings: a toy feature-hashing embedder plus file I/O.

The embedder exists so clustering has a deterministic, dependency-free
signal: token unigrams and bigrams are hashed into ``d_e`` signed buckets,
mean-pooled and L2-normalised. Precomputed embeddings from a real encoder
can be swapped in through the same file format.
"""

from __future__ import annotations

import hashlib
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


def _hash_feature(seed: int, tag: str, payload: str) -> int:
    digest = hashlib.blake2b(f"{seed}|{tag}|{payload}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def embed_sequence(tokens: Sequence[int | str], d_e: int = 64, seed: int = 0) -> np.ndarray:
    """Hash token unigrams and bigrams into a unit vector of size ``d_e``.

    Pure in (tokens, d_e, seed): the hash is keyed, never Python's salted
    ``hash``. Bigrams make the result order-sensitive. n tokens give 2n - 1
    features, an odd number of +-1 terms, so some bucket is non-zero and
    the norm is at least 1 / (2n - 1): the vector always has unit length.
    """
    d_e, seed = integer(d_e, "embedding dimension", 1), integer(seed, "seed")
    toks = [str(t) for t in tokens]
    if not toks:
        raise ContractError("cannot embed an empty token sequence")

    v = np.zeros(d_e, dtype=np.float64)
    features = [("u", t) for t in toks] + [("b", f"{a}\x1f{b}") for a, b in zip(toks, toks[1:])]
    for tag, payload in features:
        h = _hash_feature(seed, tag, payload)
        bucket = h % d_e
        sign = 1.0 if (h >> 32) & 1 else -1.0
        v[bucket] += sign
    v /= len(features)
    return v / float(np.linalg.norm(v))


def embed_dataset(sequences: list[tuple[str, Sequence[int | str]]], d_e: int = 64, seed: int = 0) -> EmbeddingSet:
    """Embed (source_id, tokens) pairs into one EmbeddingSet."""
    vectors = [embed_sequence(toks, d_e, seed) for _, toks in sequences]
    return EmbeddingSet([sid for sid, _ in sequences], np.array(vectors).reshape(len(vectors), d_e))


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
