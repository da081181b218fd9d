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

`stream` builds one address's generator. A run that knows many addresses
in advance derives their Philox keys together with `stream_keys` and rewinds
a few reusable generators to them with `StreamPool.reset`, which draws the
same values as `stream` at a fraction of its cost. The key derivation is
SeedSequence's own arithmetic, written as uint32 array operations over all
addresses at once (`philox_keys`): the mix is a fixed hash of the entropy
words whose running multipliers do not depend on the data, and Philox takes
its 128-bit key from `generate_state(2, uint64)` with the counter at 0.

A run seed is an int in [0, 2^64), by the package's one int rule
(`objectives._is_int`): `check_seed` rejects any other seed, `1.5`, `True`
and `np.float64(2.0)` included, with ValueError, and every run and instance
builder calls it before its first draw.
"""

from __future__ import annotations

from operator import index
from zlib import crc32

import numpy as np

from .objectives import _is_int

SEED_MAX = 2**64 - 1  # the largest run seed; a stream reads any seed mod 2^64
_WORD_MASK = 0xFFFFFFFF

# SeedSequence's hash constants (numpy.random.bit_generator); pool of 4 words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
# the pool words each pool word is mixed into
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]


def check_seed(seed: int) -> None:
    """ValueError naming the seed unless it is a run seed: an int by the
    package's int rule (`objectives._is_int`: numpy ints yes, bool no) in
    [0, 2^64)."""
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    if not 0 <= seed <= SEED_MAX:
        raise ValueError(f"seed {seed!r} is outside [0, 2^64)")


def _words(x: int) -> list[int]:
    # little-endian 32-bit words of a non-negative int; 0 is the one word 0
    out = []
    while x > _WORD_MASK:
        out.append(x & _WORD_MASK)
        x >>= 32
    out.append(x)
    return out


def _prefix(seed: int, tag: str) -> list[int]:
    return _words(seed & SEED_MAX) + [crc32(tag.encode("ascii"))]


def stream(seed: int, tag: str, *path: int) -> np.random.Generator:
    """Generator for the stream addressed by (seed, tag, *path).

    Same address, same stream: calling twice gives two generators that
    produce identical draws. Path entries must be non-negative integers:
    a negative entry raises ValueError, a non-integral one TypeError.
    """
    words = _prefix(seed, tag)
    for x in map(index, path):
        if x < 0:
            raise ValueError(f"path entries must be non-negative, got {x}")
        words += _words(x)
    entropy = np.array(words, dtype=np.uint32)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    # the running multiplier before each of `count` successive hash calls
    # and after the last one, as a column: consts[k] goes in, consts[k + 1]
    # multiplies
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _WORD_MASK)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    # one hash call per row of x (or per consts row, broadcasting x), in order
    x = (x ^ consts[:-1]) * consts[1:]
    return x ^ (x >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def philox_keys(words) -> np.ndarray:
    """Philox keys of SeedSequence(row) for each row of an (N, w) uint32
    word array; returns (N, 2) uint64, row j equal to
    `SeedSequence(words[j]).generate_state(2, np.uint64)`.

    SeedSequence hashes the first 4 words into its pool (zeros past the end
    of a short row), mixes every pool word into every other one, then mixes
    each further word into all 4. Its running multiplier advances once per
    hash call whatever the data, so each call's constants are known in
    advance and one array operation serves all N rows. The pool is held as
    (4, N) so that each pool word is one contiguous row.
    """
    words = np.asarray(words, dtype=np.uint32)
    w = words.shape[1]
    # hash calls: pool fill, cross-mix, then 4 per word past the pool
    A = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(w - _POOL, 0))
    pool = np.zeros((_POOL, words.shape[0]), dtype=np.uint32)
    pool[: min(w, _POOL)] = words[:, :_POOL].T
    pool = _hashmix(pool, A[: _POOL + 1])
    k = _POOL
    for src, dst in enumerate(_OTHERS):
        # src is not among its destinations, so its three hashes come from
        # the pool as it stands and are mixed in at once
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], A[k : k + _POOL]))
        k += _POOL - 1
    for j in range(_POOL, w):
        pool = _mix(pool, _hashmix(words[:, j], A[k : k + _POOL + 1]))
        k += _POOL
    # generate_state(2, uint64): one output word per pool word, then pairs
    # of little-endian words read as one uint64
    state = _hashmix(pool, _hash_consts(_INIT_B, _MULT_B, _POOL)).astype(np.uint64)
    return (state[0::2] | (state[1::2] << np.uint64(32))).T


def stream_keys(seed: int, tag: str, paths) -> np.ndarray:
    """Philox keys of the streams (seed, tag, *paths[j]) for the rows of an
    (N, p) integer array; returns (N, 2) uint64.

    Row j is the key `stream(seed, tag, *paths[j])` uses. Every entry must
    be an integer in [0, 2^32), so that it is exactly one entropy word;
    anything else raises ValueError.
    """
    paths = np.asarray(paths)
    if paths.ndim != 2:
        raise ValueError(f"paths must be an (N, p) array, got shape {paths.shape}")
    if paths.size and (paths.dtype.kind not in "iu"
                       or paths.min() < 0 or paths.max() > _WORD_MASK):
        raise ValueError("path entries must be integers in [0, 2^32)")
    prefix = _prefix(seed, tag)
    words = np.empty((paths.shape[0], len(prefix) + paths.shape[1]), dtype=np.uint32)
    words[:, : len(prefix)] = prefix
    words[:, len(prefix) :] = paths
    return philox_keys(words)


class StreamPool:
    """`size` reusable Philox generators, rewound in place to stream starts.

    `reset(keys)` sets generator j to the start of the stream whose Philox
    key is keys[j]: key set, counter 0, output buffer empty, no half-used
    32-bit word. That is the state a fresh `stream` generator starts in, so
    it draws the same values. The reset goes through the public
    `bit_generator.state` setter with one state dict reused for every call.
    """

    def __init__(self, size: int):
        self.generators = [np.random.Generator(np.random.Philox(0)) for _ in range(size)]
        self._key = [0, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def reset(self, keys) -> list[np.random.Generator]:
        """Rewind the first len(keys) generators to the given (k0, k1) keys
        and return them."""
        gens = self.generators[: len(keys)]
        if len(gens) < len(keys):
            raise ValueError(f"{len(keys)} keys for a pool of {len(self.generators)}")
        key, state = self._key, self._state
        for g, (k0, k1) in zip(gens, keys):
            key[0], key[1] = k0, k1
            g.bit_generator.state = state
        return gens
