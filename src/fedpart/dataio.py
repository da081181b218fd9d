"""Dataset plumbing: IDX parsing, label binarization, client partitioning,
and synthetic quadratic instance generation.

IDX files are the standard MNIST container: big-endian magic, dimension
sizes, then raw unsigned bytes. Parsing is bit-exact and strict: wrong
magic, short payloads, trailing bytes and labels outside 0-9 each raise
`DataFormatError` with their own message. Gzipped files are inflated
transparently when read from disk, and every format or inflate error met
while loading a file names that file; a count mismatch names both files.

Images stay uint8 pixels: a shard's gathered rows are its one feature
matrix X (`ClientShard`) with scale 255. `ClientShard` is a plain class
that checks X and y once, keeps X as given (one contiguous copy only when
it is not C-contiguous) and sets its row count; like the objectives, it is
immutable after construction by convention, not by a guard. Shards know
nothing of the shared/personal split: the logistic objective owns it
(`objectives.LogisticObjective`), and a logistic gradient casts only the
rows it reads and splits them after u's length (`objectives.logistic_grads`).
"""

from __future__ import annotations

import io
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .objectives import QuadraticObjective, _check_int, _finite_nonneg, _finite_pos
from .rng import check_seed, stream

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

# compressed bytes read, and inflated bytes produced, per inflate step
_INFLATE_CHUNK = 1 << 16


class DataFormatError(ValueError):
    """A malformed IDX file or image/label pair; its message names the file
    when it was read from disk."""


@dataclass(frozen=True)
class RawDataset:
    """Parsed uint8 images (count, pixels) with digit labels 0-9."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels"
            )


class ClientShard:
    """One client's rows: features X / scale and labels y in {-1,+1}.

    X (N_i, W) keeps its dtype and is stored as given when C-contiguous,
    else as one contiguous copy; image shards keep uint8 pixels with scale
    255. Labels are held as float64; n_rows is N_i. ValueError unless X is
    2-D, y has one label a row and scale is finite and > 0. A shard is
    immutable after construction by convention, as the objectives are.
    """

    def __init__(self, X, y, scale: float = 1.0):
        _finite_pos("scale", scale)
        self.X = np.ascontiguousarray(X)  # (N_i, W)
        self.y = np.asarray(y, dtype=np.float64)  # (N_i,)
        if self.X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {self.X.shape}")
        if self.y.shape != self.X.shape[:1]:
            raise ValueError(f"y has shape {self.y.shape}, expected ({self.X.shape[0]},): "
                             "one label a row")
        self.scale = scale
        self.n_rows = self.y.shape[0]


def _parse_idx(data: bytes, magic: int, ndim: int, what: str):
    """(dims, payload) of an IDX file: its `ndim` header dimensions and its
    uint8 payload, a flat read-only view of `data` (no copy). The header
    must carry `magic` and promise exactly the bytes that follow it."""
    head = 4 + 4 * ndim
    if len(data) < head:
        raise DataFormatError(f"{what} header needs {head} bytes, got {len(data)}")
    got, *dims = struct.unpack_from(f">{ndim + 1}I", data, 0)
    if got != magic:
        raise DataFormatError(f"expected magic 0x{magic:08x}, got 0x{got:08x}")
    expected = head + math.prod(dims)
    if len(data) < expected:
        raise DataFormatError(f"header promises {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise DataFormatError(f"{len(data) - expected} bytes beyond promised payload")
    return dims, np.frombuffer(data, dtype=np.uint8, offset=head)


def parse_idx_images(data: bytes) -> np.ndarray:
    """Parse an IDX image file into (count, rows*cols) uint8 pixel rows, a
    read-only view of `data` (no copy)."""
    (count, rows, cols), pixels = _parse_idx(data, IMAGES_MAGIC, 3, "image")
    return pixels.reshape(count, rows * cols)


def parse_idx_labels(data: bytes) -> np.ndarray:
    """Parse an IDX label file into an int64 array of digits 0-9."""
    _, digits = _parse_idx(data, LABELS_MAGIC, 1, "label")
    labels = digits.astype(np.int64)
    if labels.size and labels.max() > 9:
        bad = int(labels[labels > 9][0])
        raise DataFormatError(f"label {bad} outside 0..9")
    return labels


def read_idx_bytes(path: str) -> bytes:
    """Read a file, inflating transparently if it is one gzip member.

    The member is inflated in bounded chunks into one growing buffer, so the
    peak is about the payload, not the compressed file and the payload
    twice over. A truncated or damaged stream, a wrong checksum and bytes
    after the member each raise DataFormatError naming the file.
    """
    with open(path, "rb") as f:
        head = f.read(2)
        f.seek(0)
        if head != b"\x1f\x8b":
            return f.read()
        inflate = zlib.decompressobj(wbits=31)
        out = io.BytesIO()
        try:
            while not inflate.eof:
                data = inflate.unconsumed_tail or f.read(_INFLATE_CHUNK)
                if not data:
                    out.write(inflate.flush())
                    break
                out.write(inflate.decompress(data, _INFLATE_CHUNK))
        except zlib.error as e:
            raise DataFormatError(f"{path}: {e}") from e
        if not inflate.eof:
            raise DataFormatError(f"{path}: compressed stream ends before its end marker")
        if inflate.unused_data or f.read(1):
            raise DataFormatError(f"{path}: bytes after the end of the gzip member")
    # the payload's own buffer, trimmed to size, not a copy
    return out.getvalue()


def _load_idx(path: str, parse):
    data = read_idx_bytes(path)
    try:
        return parse(data)
    except DataFormatError as e:
        raise DataFormatError(f"{path}: {e}") from e


def load_mnist(images_path: str, labels_path: str) -> RawDataset:
    images = _load_idx(images_path, parse_idx_images)
    labels = _load_idx(labels_path, parse_idx_labels)
    try:
        return RawDataset(images=images, labels=labels)
    except DataFormatError as e:  # unequal counts: name both files
        raise DataFormatError(f"{images_path} and {labels_path}: {e}") from e


def binarize_labels(digits: np.ndarray) -> np.ndarray:
    """Even digit -> +1, odd digit -> -1."""
    digits = np.asarray(digits, dtype=np.int64)
    return np.where(digits % 2 == 0, 1, -1).astype(np.int64)


def partition_clients(
    dataset: RawDataset,
    n: int,
    scheme: str,
    seed: int,
    cap: int | None = None,
) -> list[ClientShard]:
    """Partition a dataset into n disjoint ClientShards.

    iid: seeded shuffle, then contiguous equal-size blocks. by_label: stable
    sort by digit, then contiguous blocks, i.e. adjacent digit ranges per client,
    which maximizes heterogeneity. Each shard keeps the first `cap` rows of
    its block (all of them when cap is None), so without a cap the shards'
    union is the dataset. Labels are binarized by parity; only the kept
    uint8 rows are gathered, once, and they stay uint8 pixels: the gathered
    rows are the shard's X, with scale 255. Checks the seed for any scheme,
    and that n and cap are ints >= 1.
    """
    check_seed(seed)
    _check_int("n", n, 1)
    if cap is not None:
        _check_int("cap", cap, 1)
    count = dataset.images.shape[0]
    if count < n:
        raise ValueError(f"{count} examples cannot fill {n} shards")
    if scheme == "iid":
        order = stream(seed, "partition").permutation(count)
    elif scheme == "by_label":
        order = np.argsort(dataset.labels, kind="stable")
    else:
        raise ValueError(f"unknown partition scheme {scheme!r}")

    y_all = binarize_labels(dataset.labels).astype(np.float64)
    # array_split gives the count % n lowest-index blocks one extra row
    return [ClientShard(X=dataset.images[block[:cap]], y=y_all[block[:cap]], scale=255.0)
            for block in np.array_split(order, n)]


def synth_quadratic(
    n: int,
    d_u: int,
    d_v: int,
    spread: float,
    sigma_u: float,
    sigma_v: float,
    seed: int,
) -> QuadraticObjective:
    """Synthetic heterogeneous quadratic with exactly known dissimilarity.

    Client centers a_i = h_i * spread * e with e = ones/sqrt(d_u) and h_i
    standard normal recentered to mean zero, so the objective's
    `dissimilarity_b2()` is spread^2 * (1/n) sum h_i^2. Personal centers
    b_i are standard normal. Checks the seed, that n is an int >= 1, d_u
    and d_v ints and spread finite and >= 0; the objective checks d_u,
    d_v >= 1.
    """
    check_seed(seed)
    _check_int("n", n, 1)
    _check_int("d_u", d_u, 0)
    _check_int("d_v", d_v, 0)
    _finite_nonneg("spread", spread)
    g = stream(seed, "synth")
    h = g.standard_normal(n)
    h = h - h.mean()
    e = np.ones(d_u) / np.sqrt(d_u)
    centers_u = spread * np.outer(h, e)
    centers_v = g.standard_normal((n, d_v))
    return QuadraticObjective(
        centers_u=centers_u, centers_v=centers_v, sigma_u=sigma_u, sigma_v=sigma_v
    )
