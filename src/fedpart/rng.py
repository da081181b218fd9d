"""Addressable random streams.

Every stochastic draw in the simulator comes from a stream keyed by
(master seed, purpose tag, *path), e.g. ("local", t, i) for client i's
local steps in round t or ("sample", t) for the server's client sampling.
Streams are independent Philox generators, so any draw can be reproduced
in isolation and per-client work is deterministic regardless of execution
order.

The entropy is (seed mod 2^64, crc32(tag), *path), each value split into
little-endian 32-bit words as SeedSequence splits a list of ints, handed
over as one uint32 array that SeedSequence need not convert entry by entry.
"""

from __future__ import annotations

from operator import index
from zlib import crc32

import numpy as np

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_WORD_MASK = 0xFFFFFFFF


def stream(seed: int, tag: str, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, tag, *path).

    Same address, same stream: calling twice gives two generators that
    produce identical draws. Path entries must be non-negative integers:
    a negative entry raises ValueError, a non-integral one TypeError.
    """
    words = []
    for x in (seed & _SEED_MASK, crc32(tag.encode("ascii")), *map(index, path)):
        if x < 0:
            raise ValueError(f"path entries must be non-negative, got {x}")
        while x > _WORD_MASK:
            words.append(x & _WORD_MASK)
            x >>= 32
        words.append(x)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
