"""Deterministic, named random streams.

Every randomized sweep in the package draws from a counter-based
generator (Philox) keyed by the user seed plus a stable hash of the
stream's name.  Streams for different names are statistically
independent, and the same (seed, name) pair yields the identical sequence
on every platform and run — which is what makes whole verification
reports byte-for-byte reproducible.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import DomainError, integer, quote

_MAX_SEED = 2 ** 64


def stream_key(name: str) -> int:
    """Stable 64-bit key derived from a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def check_seed(seed) -> int:
    """The seed as an int that fits in 64 unsigned bits, or DomainError."""
    seed = integer("seed", seed)
    if not 0 <= seed < _MAX_SEED:
        raise DomainError("seed must fit in 64 unsigned bits, "
                          f"got {quote(seed)}")
    return seed


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Generator for the (seed, name) stream."""
    ss = np.random.SeedSequence(entropy=check_seed(seed),
                                spawn_key=(stream_key(name),))
    return np.random.Generator(np.random.Philox(ss))
