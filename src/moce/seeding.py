"""Named random substreams derived from a single master seed.

Every source of randomness in the package (embedder hashing, clustering
init, parameter init, data order) pulls from its own named substream so
that changing one consumer never perturbs the draws of another.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key(part: str | int) -> int:
    if isinstance(part, int):
        return part & 0xFFFFFFFF
    return zlib.crc32(part.encode("utf-8"))


def substream(master_seed: int, *parts: str | int) -> np.random.Generator:
    """Return a Generator for the substream named by ``parts``.

    The same (master_seed, parts) always yields the same stream, and
    distinct names yield statistically independent streams.
    """
    entropy = [_key(master_seed)] + [_key(p) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def substream_seed(master_seed: int, *parts: str | int) -> int:
    """Derive a 32-bit integer seed for code that wants a plain seed."""
    entropy = [_key(master_seed)] + [_key(p) for p in parts]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint32)[0])
