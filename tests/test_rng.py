"""Addressable-stream contract: same address same draws, distinct
addresses independent, batched draws identical to per-step draws, and the
address turned into SeedSequence entropy exactly as numpy turns a list of
ints into 32-bit words."""

import os
import random
import subprocess
import sys
from zlib import crc32

import numpy as np
import pytest

import fedpart
from fedpart.rng import stream


def test_same_address_same_draws():
    a = stream(123, "local", 4, 7).standard_normal(32)
    b = stream(123, "local", 4, 7).standard_normal(32)
    assert np.array_equal(a, b)


def test_distinct_tags_distinct_streams():
    a = stream(123, "sample", 0).standard_normal(32)
    b = stream(123, "local", 0).standard_normal(32)
    c = stream(123, "synth", 0).standard_normal(32)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_path_entries_matter():
    base = stream(5, "local", 1, 2).standard_normal(16)
    assert not np.array_equal(base, stream(5, "local", 2, 1).standard_normal(16))
    assert not np.array_equal(base, stream(5, "local", 1, 3).standard_normal(16))
    assert not np.array_equal(base, stream(5, "local", 1).standard_normal(16))
    assert not np.array_equal(base, stream(6, "local", 1, 2).standard_normal(16))


def test_seeds_decorrelate():
    # plain seeded loop; adjacent master seeds must not produce equal draws
    for seed in range(50):
        a = stream(seed, "sample", 0).random(8)
        b = stream(seed + 1, "sample", 0).random(8)
        assert not np.array_equal(a, b)


def test_batched_normals_equal_per_step_draws():
    # kernels pre-draw (K, d) in one call; the per-step reference path draws
    # d_u then d_v each step; both must see identical values
    K, d_u, d_v = 7, 3, 4
    batched = stream(9, "local", 0, 0).standard_normal((K, d_u + d_v))
    g = stream(9, "local", 0, 0)
    for k in range(K):
        zu = g.standard_normal(d_u)
        zv = g.standard_normal(d_v)
        assert np.array_equal(batched[k, :d_u], zu)
        assert np.array_equal(batched[k, d_u:], zv)


def test_batched_integers_equal_per_step_draws():
    K, batch = 5, 6
    batched = stream(11, "local", 3, 2).integers(0, 100, size=(K, batch))
    g = stream(11, "local", 3, 2)
    for k in range(K):
        assert np.array_equal(batched[k], g.integers(0, 100, size=batch))


def test_large_and_negative_seeds_are_usable():
    big = stream(2**63 + 17, "sample", 0).random(4)
    assert np.array_equal(big, stream(2**63 + 17, "sample", 0).random(4))
    neg = stream(-3, "sample", 0).random(4)
    assert np.array_equal(neg, stream(-3, "sample", 0).random(4))


def _list_seeded(seed, tag, *path):
    # the address as a list of ints, split into words by SeedSequence itself
    words = [seed & 0xFFFFFFFFFFFFFFFF, crc32(tag.encode("ascii")), *path]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def test_stream_equals_list_seeded_generator_on_random_addresses():
    r = random.Random(2024)

    def entry():
        return r.choice([0, r.randrange(1, 64), r.randrange(2**32),
                         r.randrange(2**32, 2**64), r.randrange(2**64, 2**130)])

    for _ in range(1200):
        seed = entry() * r.choice([1, 1, -1])
        tag = r.choice(["local", "sample", "cv_init", "synth", "probe", ""])
        path = [entry() for _ in range(r.randrange(4))]
        got = stream(seed, tag, *path).integers(0, 2**64, 3, dtype=np.uint64)
        want = _list_seeded(seed, tag, *path).integers(0, 2**64, 3, dtype=np.uint64)
        assert np.array_equal(got, want), (seed, tag, path)


def test_stream_entropy_words_hand_case():
    # little-endian 32-bit words per value, 0 -> one word 0, seed mod 2^64
    g = stream(-1, "local", 0, 2**64 + 3, 7)
    words = [0xFFFFFFFF, 0xFFFFFFFF, crc32(b"local"), 0, 3, 0, 1, 7]
    assert g.bit_generator.seed_seq.entropy.tolist() == words


def test_negative_path_entry_raises():
    for bad in (-1, -2**40):
        with pytest.raises(ValueError, match="non-negative"):
            stream(1, "local", 0, bad)


def test_non_integral_path_entry_raises():
    for bad in (2.7, 2.0, np.float64(3.0), "2"):
        with pytest.raises(TypeError):
            stream(1, "local", bad)
    # numpy integers are integral
    assert np.array_equal(stream(1, "local", np.int64(2)).random(4),
                          stream(1, "local", 2).random(4))


def test_import_loads_no_numpy_random():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedpart.__file__)))
    code = ("import sys, fedpart, fedpart.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
