"""Named random substreams derived from a single master seed.

Every source of randomness in the package (embedder hashing, clustering
init, parameter init, data order) pulls from its own named substream so
that changing one consumer never perturbs the draws of another.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import integer


def _key(part: str | int) -> int:
    if isinstance(part, int):
        return part & 0xFFFFFFFF
    return zlib.crc32(part.encode("utf-8"))


def _entropy(master_seed: int, parts) -> list[int]:
    return [_key(integer(master_seed, "seed"))] + [_key(p) for p in parts]


def substream(master_seed: int, *parts: str | int) -> np.random.Generator:
    """Return a Generator for the substream named by ``parts``.

    The same (master_seed, parts) always yields the same stream, and
    distinct names yield statistically independent streams. A master seed
    that is a boolean or not an integer raises ContractError.
    """
    return np.random.default_rng(np.random.SeedSequence(_entropy(master_seed, parts)))


def substream_seed(master_seed: int, *parts: str | int) -> int:
    """Derive a 32-bit integer seed for code that wants a plain seed; the
    master seed is checked as in ``substream``."""
    return int(np.random.SeedSequence(_entropy(master_seed, parts)).generate_state(1, np.uint32)[0])
