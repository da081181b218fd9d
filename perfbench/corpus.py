"""The logistic-corpus input: a seeded gzipped IDX digit corpus.

Written by the benchmark before any workload process starts, so its cost
is not part of set-up time; reading and partitioning it is.
"""

from __future__ import annotations

import gzip
import os
import struct

import numpy as np

# 1200 images per digit: every label-sorted shard of n=10 holds 1200 rows,
# above the 1000-row cap, as real MNIST would
CORPUS_PER_DIGIT = 1200


def make_corpus(seed: int):
    """(images uint8 (N, 28, 28), labels uint8 (N,)) of blob digits.

    Digits 2j and 2j+1 share one two-blob shape in the top half of the
    image at intensities 210 and 120, so parity labels conflict over the
    shared pixels once the corpus is sorted by label. Each image is shifted
    by up to one pixel and carries Gaussian pixel noise.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:28, 0:28].astype(np.float64)
    protos = np.empty((10, 28, 28))
    for j in range(5):
        ang = 2.0 * np.pi * j / 5.0
        cy1, cx1 = 7 + 4 * np.sin(ang), 14 + 9 * np.cos(ang)
        cy2, cx2 = 7 - 3 * np.sin(ang + 1.1), 14 - 8 * np.cos(ang + 1.1)
        blob = (np.exp(-((yy - cy1) ** 2 + (xx - cx1) ** 2) / (2 * 3.5 ** 2))
                + np.exp(-((yy - cy2) ** 2 + (xx - cx2) ** 2) / (2 * 3.0 ** 2)))
        protos[2 * j] = np.clip(210.0 * blob, 0, 255)
        protos[2 * j + 1] = np.clip(120.0 * blob, 0, 255)
    labels = rng.permutation(np.repeat(np.arange(10), CORPUS_PER_DIGIT))
    shifts = rng.integers(-1, 2, size=(labels.size, 2))
    images = protos[labels]
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            sel = (shifts[:, 0] == dy) & (shifts[:, 1] == dx)
            images[sel] = np.roll(images[sel], (dy, dx), axis=(1, 2))
    images += rng.standard_normal(images.shape) * 15.0
    return np.clip(images, 0.0, 255.0).astype(np.uint8), labels.astype(np.uint8)


def write_corpus(directory: str, seed: int) -> None:
    """Gzipped IDX images/labels for the program, plus an npz copy the
    checks read back, so the reference never goes through the program's
    parser."""
    images, labels = make_corpus(seed)
    count = labels.size
    with gzip.open(os.path.join(directory, "images.idx.gz"), "wb", compresslevel=1) as f:
        f.write(struct.pack(">IIII", 0x00000803, count, 28, 28) + images.tobytes())
    with gzip.open(os.path.join(directory, "labels.idx.gz"), "wb", compresslevel=1) as f:
        f.write(struct.pack(">II", 0x00000801, count) + labels.tobytes())
    np.savez(os.path.join(directory, "corpus.npz"), images=images, labels=labels)
