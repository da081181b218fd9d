"""Shared fixture: an on-disk digit corpus.

By default the corpus is synthesized: 3000 28x28 uint8 images, 300 per
digit, written as gzipped IDX files. Digits 2j and 2j+1 share one two-blob
shape rendered at different intensities (210 vs 120), so after parity
binarization the label-sorted partition puts clients in persistent conflict
over the same shared pixels; blob centers sit in the top image half so the
personal feature block carries almost no class signal. Several tests assert
orderings that rely on this construction.

Point FEDPART_MNIST_DIR at a directory holding the standard
train-images-idx3-ubyte(.gz) / train-labels-idx1-ubyte(.gz) pair to run the
same tests against real MNIST instead.
"""

import os

import numpy as np
import pytest

import idxbytes
from fedpart.rng import stream


def surrogate_mnist(seed: int = 97):
    rng = stream(seed, "synth")
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
    labels = np.repeat(np.arange(10), 300)
    labels = labels[rng.permutation(labels.size)]
    images = np.empty((labels.size, 28, 28), dtype=np.uint8)
    for i in range(labels.size):
        img = protos[labels[i]]
        dy, dx = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
        img = img + rng.standard_normal((28, 28)) * 15.0
        images[i] = np.clip(img, 0.0, 255.0).astype(np.uint8)
    return images, labels.astype(np.uint8)


def _real_mnist_pair(directory: str):
    for imgs, labs in (
        ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
        ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    ):
        ip = os.path.join(directory, imgs)
        lp = os.path.join(directory, labs)
        if os.path.isfile(ip) and os.path.isfile(lp):
            return ip, lp
    return None


@pytest.fixture(scope="session")
def mnist_paths(tmp_path_factory):
    """(images_path, labels_path) for the session's digit corpus."""
    override = os.environ.get("FEDPART_MNIST_DIR")
    if override:
        pair = _real_mnist_pair(override)
        if pair is None:
            raise RuntimeError(f"FEDPART_MNIST_DIR={override} has no MNIST IDX pair")
        return pair
    d = tmp_path_factory.mktemp("corpus")
    images, labels = surrogate_mnist()
    ip = str(d / "images.idx.gz")
    lp = str(d / "labels.idx.gz")
    idxbytes.write_idx(ip, idxbytes.images_bytes(images), compress=True)
    idxbytes.write_idx(lp, idxbytes.labels_bytes(labels), compress=True)
    return ip, lp

