"""Addressable-stream contract: same address same draws, distinct
addresses independent, batched draws identical to per-step draws, and the
address turned into SeedSequence entropy exactly as numpy turns a list of
ints into 32-bit words. Keys derived for many addresses at once, and pooled
generators rewound to them, must give the same streams."""

import os
import random
import subprocess
import sys
from zlib import crc32

import numpy as np
import pytest

import fedpart
from fedpart.rng import StreamPool, philox_keys, stream, stream_keys


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
    # local steps pre-draw (K, d) in one call; the per-step reference path draws
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


def test_philox_keys_equal_seed_sequence_for_word_counts_1_to_8():
    r = random.Random(7)
    for w in range(1, 9):
        words = np.array([[r.choice([0, 1, r.randrange(2**32)]) for _ in range(w)]
                          for _ in range(150)], dtype=np.uint32)
        want = np.stack([np.random.SeedSequence(row).generate_state(2, np.uint64)
                         for row in words])
        assert np.array_equal(philox_keys(words), want), w


def test_stream_keys_equal_seed_sequence_and_stream_on_random_addresses():
    # one- and two-word seeds (negative ones reduced mod 2^64) before the
    # tag word, 0-6 path entries: 2 to 9 entropy words
    r = random.Random(2025)
    seen = set()
    for _ in range(200):
        seed = r.choice([0, r.randrange(2**32), r.randrange(2**32, 2**64),
                         r.randrange(2**64, 2**70)]) * r.choice([1, -1])
        tag = r.choice(["local", "sample", "cv_init", ""])
        p = r.randrange(7)
        paths = [[r.choice([0, r.randrange(1, 64), r.randrange(2**32)]) for _ in range(p)]
                 for _ in range(6)]
        keys = stream_keys(seed, tag, np.array(paths, dtype=np.int64).reshape(6, p))
        assert keys.shape == (6, 2) and keys.dtype == np.uint64
        for path, key in zip(paths, keys):
            words = [seed & 0xFFFFFFFFFFFFFFFF, crc32(tag.encode("ascii")), *path]
            want = np.random.SeedSequence(words).generate_state(2, np.uint64)
            assert np.array_equal(key, want), (seed, tag, path)
            g = stream(seed, tag, *path)
            assert np.array_equal(key, g.bit_generator.state["state"]["key"])
            seen.add(len(g.bit_generator.seed_seq.entropy))
    assert seen == set(range(2, 10))


def test_stream_keys_empty_inputs():
    assert stream_keys(3, "local", np.empty((0, 2), dtype=np.int64)).shape == (0, 2)
    keys = stream_keys(3, "probe", np.empty((2, 0), dtype=np.int64))
    want = stream(3, "probe").bit_generator.state["state"]["key"]
    assert np.array_equal(keys, [want, want])


def test_stream_keys_reject_entries_that_are_not_one_word():
    for bad in ([[0, 2**32]], [[-1, 0]], [[2**64]], [[1.0]], [[2**40]]):
        with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
            stream_keys(1, "local", bad)
    with pytest.raises(ValueError, match="shape"):
        stream_keys(1, "local", [1, 2])
    assert stream_keys(1, "local", [[2**32 - 1]]).shape == (1, 2)


def test_pool_reset_equals_fresh_stream_after_partial_draws():
    addresses = [(5, "local", 3, 1), (2**40 + 1, "sample", 0), (-7, "cv_init", 9)]
    keys = [stream(*a).bit_generator.state["state"]["key"].tolist() for a in addresses]
    pool = StreamPool(len(addresses))
    for g in pool.generators:
        # an odd number of uint32 draws leaves has_uint32 set, and the
        # draws end inside a Philox output block of 4 uint64s
        g.bit_generator.random_raw()
        g.integers(0, 2**32, size=3, dtype=np.uint32)
        state = g.bit_generator.state
        assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
    for _ in range(2):  # rewinding twice is the same as once
        gens = pool.reset(keys)
        for a, g in zip(addresses, gens):
            fresh = stream(*a)
            got, want = g.bit_generator.state, fresh.bit_generator.state
            for k in ("counter", "key"):
                assert np.array_equal(got["state"][k], want["state"][k])
            for k in ("buffer_pos", "has_uint32", "uinteger"):
                assert got[k] == want[k]
            assert np.array_equal(g.integers(0, 2**32, 3, dtype=np.uint32),
                                  fresh.integers(0, 2**32, 3, dtype=np.uint32))
            assert np.array_equal(g.standard_normal(9), fresh.standard_normal(9))
            assert np.array_equal(g.random(4), fresh.random(4))
    with pytest.raises(ValueError, match="pool of 3"):
        pool.reset(keys + keys[:1])


def test_import_loads_no_numpy_random():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedpart.__file__)))
    code = ("import sys, fedpart, fedpart.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
