"""IDX parsing, label binarization, client shards and partitioning, and the
synthetic quadratic generator.

The parser tests build inputs with the test-local idxbytes encoder (and a
few literal byte strings), never with the package's own code, so encode and
decode bugs cannot cancel. Shards keep uint8 pixels; their features
A / scale and B / scale are checked bitwise against the old float-corpus
pipeline kept in `reference.capped_shards`.
"""

import gzip
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

import idxbytes
import reference
from fedpart import dataio, harness, metrics
from fedpart.dataio import ClientShard, DataFormatError, RawDataset
from fedpart.objectives import LogisticObjective
from fedpart.rng import stream


# ------------------------------------------------------------- IDX parsing


def test_parse_images_hand_bytes():
    raw = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes([0, 255, 0, 255])
    out = dataio.parse_idx_images(raw)
    assert out.shape == (1, 4) and out.dtype == np.uint8
    assert np.array_equal(out[0], [0, 255, 0, 255])
    assert np.shares_memory(out, np.frombuffer(raw, dtype=np.uint8))  # a view, no copy


def test_parse_images_wrong_magic():
    raw = struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4)
    with pytest.raises(DataFormatError, match="^expected magic 0x00000803, got 0x00000801$"):
        dataio.parse_idx_images(raw)


def test_parse_images_truncated():
    raw = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(4)  # promises 8
    with pytest.raises(DataFormatError, match="^header promises 24 bytes, got 20$"):
        dataio.parse_idx_images(raw)
    with pytest.raises(DataFormatError, match="^image header needs 16 bytes, got 10$"):
        dataio.parse_idx_images(raw[:10])  # even the header is short


def test_parse_images_trailing_bytes():
    raw = struct.pack(">IIII", 0x00000803, 1, 2, 2) + bytes(5)
    with pytest.raises(DataFormatError, match="^1 bytes beyond promised payload$"):
        dataio.parse_idx_images(raw)


def test_parse_labels_hand_bytes():
    raw = struct.pack(">II", 0x00000801, 2) + bytes([3, 7])
    assert np.array_equal(dataio.parse_idx_labels(raw), [3, 7])


def test_parse_labels_empty():
    raw = struct.pack(">II", 0x00000801, 0)
    assert dataio.parse_idx_labels(raw).shape == (0,)


def test_parse_labels_errors():
    with pytest.raises(DataFormatError, match="^expected magic 0x00000801, got 0x00000803$"):
        dataio.parse_idx_labels(struct.pack(">II", 0x00000803, 0))
    with pytest.raises(DataFormatError, match="^label 12 outside 0..9$"):
        dataio.parse_idx_labels(struct.pack(">II", 0x00000801, 1) + bytes([12]))
    with pytest.raises(DataFormatError, match="^header promises 11 bytes, got 9$"):
        dataio.parse_idx_labels(struct.pack(">II", 0x00000801, 3) + bytes([1]))
    with pytest.raises(DataFormatError, match="^1 bytes beyond promised payload$"):
        dataio.parse_idx_labels(struct.pack(">II", 0x00000801, 1) + bytes([1, 2]))


def test_idx_round_trip():
    rng = stream(20, "probe")
    pixels = rng.integers(0, 256, size=(6, 5, 3)).astype(np.uint8)
    payload = idxbytes.images_bytes(pixels)
    parsed = dataio.parse_idx_images(payload)
    assert parsed.dtype == np.uint8
    assert np.array_equal(parsed, pixels.reshape(6, 15))
    assert idxbytes.images_bytes(parsed.reshape(6, 5, 3)) == payload

    labels = rng.integers(0, 10, size=9).astype(np.uint8)
    payload = idxbytes.labels_bytes(labels)
    assert idxbytes.labels_bytes(dataio.parse_idx_labels(payload)) == payload


def test_gzip_transparent_inflate(tmp_path):
    rng = stream(21, "probe")
    pixels = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
    labels = rng.integers(0, 10, size=3).astype(np.uint8)
    plain_i = tmp_path / "imgs.idx"
    gz_i = tmp_path / "imgs.idx.gz"
    idxbytes.write_idx(str(plain_i), idxbytes.images_bytes(pixels))
    idxbytes.write_idx(str(gz_i), idxbytes.images_bytes(pixels), compress=True)
    plain_l = tmp_path / "labs.idx"
    idxbytes.write_idx(str(plain_l), idxbytes.labels_bytes(labels))

    assert dataio.read_idx_bytes(str(gz_i)) == dataio.read_idx_bytes(str(plain_i))
    ds = dataio.load_mnist(str(gz_i), str(plain_l))
    assert ds.images.shape[0] == 3
    assert np.array_equal(ds.labels, labels)


def test_load_mnist_count_mismatch(tmp_path):
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    idxbytes.write_idx(str(ip), idxbytes.images_bytes(np.zeros((2, 2, 2), dtype=np.uint8)))
    idxbytes.write_idx(str(lp), idxbytes.labels_bytes(np.zeros(3, dtype=np.uint8)))
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(ip))} and {re.escape(str(lp))}: "
                                              "2 images but 3 labels$"):
        dataio.load_mnist(str(ip), str(lp))


@pytest.mark.parametrize("damage", [
    lambda gz: gz[: len(gz) // 2],                 # truncated stream
    lambda gz: gz[:2] + bytes(len(gz) - 2),        # not deflate data behind the magic
    lambda gz: gz[:-8] + bytes(4) + gz[-4:],       # wrong CRC
    lambda gz: gz + gz,                            # bytes after the first member
])
def test_damaged_gzip_names_its_file(tmp_path, damage):
    gz = gzip.compress(idxbytes.labels_bytes(np.arange(10, dtype=np.uint8)), mtime=0)
    path = tmp_path / "labels.idx.gz"
    path.write_bytes(damage(gz))
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(path))}: "):
        dataio.read_idx_bytes(str(path))


def test_gzip_inflate_peak_memory(tmp_path):
    # one buffer grown in bounded chunks: no copy of the compressed file and
    # no second copy of the payload
    payload = stream(22, "probe").integers(0, 256, size=4 << 20).astype(np.uint8).tobytes()
    path = tmp_path / "random.idx.gz"
    path.write_bytes(gzip.compress(payload, compresslevel=1, mtime=0))
    data, peak = _traced_peak(dataio.read_idx_bytes, str(path))
    assert data == payload
    assert peak < 1.5 * len(payload), (peak, len(payload))


def test_parse_errors_name_their_file(tmp_path):
    ip = tmp_path / "i.idx"
    lp = tmp_path / "l.idx"
    idxbytes.write_idx(str(ip), idxbytes.labels_bytes(np.zeros(8, dtype=np.uint8)))
    idxbytes.write_idx(str(lp), idxbytes.labels_bytes(np.zeros(2, dtype=np.uint8)))
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(ip))}: expected magic"):
        dataio.load_mnist(str(ip), str(lp))
    idxbytes.write_idx(str(ip), idxbytes.images_bytes(np.zeros((2, 2, 2), dtype=np.uint8)))
    lp.write_bytes(idxbytes.labels_bytes(np.zeros(3, dtype=np.uint8))[:-1])
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(lp))}: header promises"):
        dataio.load_mnist(str(ip), str(lp))


# -------------------------------------------------- binarization and shards


def test_binarize_parity():
    assert np.array_equal(dataio.binarize_labels([0, 1, 2]), [1, -1, 1])
    assert dataio.binarize_labels([]).shape == (0,)
    assert np.array_equal(dataio.binarize_labels([1, 3, 9]), [-1, -1, -1])


def test_shard_holds_features_once_as_one_matrix():
    rng = stream(22, "probe")
    for dtype in (np.uint8, np.float64):
        A = rng.integers(0, 256, size=(5, 3)).astype(dtype)
        B = rng.integers(0, 256, size=(5, 2)).astype(dtype)
        X = np.hstack([A, B])
        shard = ClientShard(X=X, y=np.ones(5))
        assert shard.X is X
        assert np.array_equal(shard.X[:, :3], A) and np.array_equal(shard.X[:, 3:], B)
        assert shard.scale == 1.0
        # the shared/personal split is the objective's, not the shard's
        assert not hasattr(shard, "d_u") and not hasattr(shard, "d_v")
        # any other layout is copied once into a C-contiguous X of its dtype
        strided = ClientShard(X=np.asfortranarray(X), y=np.ones(5))
        assert strided.X.flags.c_contiguous and strided.X.dtype == dtype
        assert np.array_equal(strided.X, X)


@pytest.mark.parametrize("scale", [0.0, -255.0, math.inf, -math.inf, math.nan])
def test_shard_scale_must_be_finite_and_positive(scale):
    with pytest.raises(ValueError, match="scale"):
        ClientShard(X=np.zeros((1, 3)), y=np.ones(1), scale=scale)


@pytest.mark.parametrize("y_shape", [(4,), (2,), (3, 1)])
def test_shard_needs_one_label_a_row(y_shape):
    # stoch_grads draws rows below the label count: more labels than rows
    # would read a clipped row in place of a missing one, fewer would never
    # draw the last rows
    rng = stream(23, "probe")
    X = rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="one label a row"):
        shard = ClientShard(X=X, y=np.ones(y_shape))
        LogisticObjective([shard], 2, batch_size=8).stoch_grads(
            0, np.zeros(2), np.zeros(1), 4, stream(23, "local"))


@pytest.mark.parametrize("shape", [(3,), (2, 3, 2), ()])
def test_shard_features_must_be_2d(shape):
    with pytest.raises(ValueError, match="X must be 2-D"):
        ClientShard(X=np.ones(shape), y=np.ones(2))


@pytest.mark.parametrize("d_u", [0, -1, 3, 4])
def test_shard_blocks_must_both_be_nonempty(d_u):
    # the logistic objective splits a shard's 3 features after its d_u
    shard = ClientShard(X=np.ones((2, 3)), y=np.ones(2))
    with pytest.raises(ValueError, match=r"d_u must be in \[1, 2\]"):
        LogisticObjective([shard], d_u)


# -------------------------------------------------------------- partitioning


def _indexed_dataset(labels):
    """Dataset whose pixel 0 encodes the row index, so partitions can be
    mapped back to source rows."""
    labels = np.asarray(labels, dtype=np.int64)
    count = labels.shape[0]
    images = np.zeros((count, 4), dtype=np.uint8)
    images[:, 0] = np.arange(count)
    return RawDataset(images=images, labels=labels)


def _row_indices(shard):
    return shard.X[:, 0].astype(int)


def test_partition_single_client_holds_everything():
    ds = _indexed_dataset([3, 1, 4, 1, 5])
    for scheme in ("iid", "by_label"):
        shards = dataio.partition_clients(ds, 1, scheme, seed=0)
        assert len(shards) == 1
        assert sorted(_row_indices(shards[0])) == list(range(5))


def test_partition_pigeonhole():
    ds = _indexed_dataset(list(range(10)))
    shards = dataio.partition_clients(ds, 10, "iid", seed=7)
    assert [s.n_rows for s in shards] == [1] * 10
    assert sorted(i for s in shards for i in _row_indices(s)) == list(range(10))


def test_partition_by_label_hand_trace():
    rng = stream(23, "probe")
    digits = np.repeat(np.arange(10), 2)
    digits = digits[rng.permutation(20)]
    ds = _indexed_dataset(digits)
    shards = dataio.partition_clients(ds, 2, "by_label", seed=0)
    first = sorted(digits[_row_indices(shards[0])])
    assert first == sorted(digits)[:10]  # the 10 smallest digits


def test_partition_bijection_uneven():
    rng = stream(24, "probe")
    ds = _indexed_dataset(rng.integers(0, 10, size=23))
    for scheme in ("iid", "by_label"):
        shards = dataio.partition_clients(ds, 4, scheme, seed=3)
        assert [s.n_rows for s in shards] == [6, 6, 6, 5]
        assert sorted(i for s in shards for i in _row_indices(s)) == list(range(23))


def test_partition_deterministic():
    rng = stream(25, "probe")
    ds = _indexed_dataset(rng.integers(0, 10, size=17))
    a = dataio.partition_clients(ds, 3, "iid", seed=11)
    b = dataio.partition_clients(ds, 3, "iid", seed=11)
    for sa, sb in zip(a, b):
        assert sa.X.tobytes() == sb.X.tobytes()
        assert sa.y.tobytes() == sb.y.tobytes()
    c = dataio.partition_clients(ds, 3, "iid", seed=12)
    assert any(sa.y.tobytes() != sc.y.tobytes() for sa, sc in zip(a, c))


@pytest.mark.parametrize("name,bad", [("n", 2.5), ("n", True), ("n", 0), ("cap", 1.5),
                                      ("cap", False), ("cap", 0)])
def test_partition_counts_are_ints(name, bad):
    # 2.5 shards would silently become 2, and n=True one
    ds = _indexed_dataset([1, 2, 3, 4])
    args = dict(n=2, cap=None)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int >= 1, got {bad!r}")):
        dataio.partition_clients(ds, scheme="iid", seed=0, **{**args, name: bad})
    assert len(dataio.partition_clients(ds, np.int64(2), "iid", seed=0, cap=np.int64(1))) == 2


def test_partition_too_few_examples():
    ds = _indexed_dataset([1, 2, 3])
    with pytest.raises(ValueError, match="^3 examples cannot fill 4 shards$"):
        dataio.partition_clients(ds, 4, "iid", seed=0)
    with pytest.raises(ValueError):
        dataio.partition_clients(ds, 2, "sorted", seed=0)
    with pytest.raises(ValueError, match="^n must be an int >= 1, got 0$"):
        dataio.partition_clients(ds, 0, "iid", seed=0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_instance_builders_reject_seeds_outside_the_run_range(seed):
    # a stream reads its seed mod 2^64: -1 would build the instance of 2^64 - 1
    ds = _indexed_dataset([1, 2, 3])
    match = rf"seed {seed} is outside \[0, 2\^64\)"
    with pytest.raises(ValueError, match=match):
        dataio.partition_clients(ds, 1, "iid", seed=seed)
    with pytest.raises(ValueError, match=match):
        dataio.synth_quadratic(2, 1, 1, spread=1.0, sigma_u=0.0, sigma_v=0.0, seed=seed)
    assert len(dataio.partition_clients(ds, 1, "iid", seed=2**64 - 1)) == 1
    assert dataio.synth_quadratic(2, 1, 1, 1.0, 0.0, 0.0, seed=2**64 - 1).n == 2


def test_partition_dim_mismatch(monkeypatch):
    # a logistic config's d_u + d_v is 784; build_oracle checks it against
    # the corpus's width before it gathers any row
    ds = _indexed_dataset([1, 2, 3])
    monkeypatch.setattr(dataio, "partition_clients", None)
    for d_u, d_v in ((392, 392), (783, 1)):
        cfg = harness.config_from_mapping(dict(
            objective="logistic_mnist", images_path="i", labels_path="l", n=1, m=1,
            d_u=d_u, d_v=d_v))
        with pytest.raises(ValueError,
                           match=rf"^d_u \+ d_v = {d_u} \+ {d_v} must equal feature count 4$"):
            harness.build_oracle(cfg, ds)


def test_partition_labels_binarized_and_features_split():
    ds = _indexed_dataset([0, 1, 2, 3])
    (shard,) = dataio.partition_clients(ds, 1, "by_label", seed=0)
    assert shard.X[:, :3].shape == (4, 3) and shard.X[:, 3:].shape == (4, 1)
    assert set(shard.y) <= {-1.0, 1.0}
    assert np.array_equal(shard.y, [1.0, -1.0, 1.0, -1.0])  # by_label keeps digit order


def test_by_label_more_heterogeneous_than_iid(mnist_paths):
    ds = dataio.load_mnist(*mnist_paths)
    u = np.zeros(392)
    v_all = None
    slacks = {}
    for scheme in ("iid", "by_label"):
        shards = dataio.partition_clients(ds, 10, scheme, seed=0)
        obj = LogisticObjective(shards, 392, rho=0.01, batch_size=1)
        if v_all is None:
            v_all = [np.zeros(obj.d_v) for _ in range(obj.n)]
        slacks[scheme] = metrics.estimate_dissimilarity(obj, u, v_all)
    assert slacks["by_label"] > slacks["iid"]


def test_partition_cap():
    ds = _indexed_dataset(stream(27, "probe").integers(0, 10, size=10))
    (full,) = dataio.partition_clients(ds, 1, "iid", seed=5)
    (same,) = dataio.partition_clients(ds, 1, "iid", seed=5, cap=10)
    assert np.array_equal(same.X[:, :2], full.X[:, :2]) and np.array_equal(same.y, full.y)
    small = dataio.partition_clients(ds, 2, "iid", seed=5, cap=3)
    assert [s.n_rows for s in small] == [3, 3]
    assert np.array_equal(small[0].X[:, :2], full.X[:3, :2])
    assert np.array_equal(small[1].X[:, 2:], full.X[5:8, 2:])
    with pytest.raises(ValueError):
        dataio.partition_clients(ds, 2, "iid", seed=5, cap=0)


@pytest.mark.parametrize("scheme", ["iid", "by_label"])
@pytest.mark.parametrize("n", [1, 4, 10])
def test_partition_matches_float_corpus_pipeline(scheme, n):
    # 203 rows: neither 4 nor 10 divides it, so blocks differ in size
    rng = stream(28, "probe")
    pixels = rng.integers(0, 256, size=(203, 784)).astype(np.uint8)
    labels = rng.integers(0, 10, size=203)
    ds = RawDataset(images=pixels, labels=labels)
    block = -(-203 // n)
    for cap in (block - 1, block, block + 7):
        got = dataio.partition_clients(ds, n, scheme, 9, cap=cap)
        want = reference.capped_shards(pixels, labels, n, scheme, 9, cap)
        assert len(got) == len(want) == n
        for g, w in zip(got, want):
            assert g.X.dtype == np.uint8 and g.scale == 255.0 and w.scale == 1.0
            assert g.y.dtype == w.y.dtype == np.float64
            assert g.y.tobytes() == w.y.tobytes()
            for d_u in (1, 392, 783):
                for cols in (np.s_[:, :d_u], np.s_[:, d_u:]):
                    ga, wa = g.X[cols] / g.scale, w.X[cols]
                    assert ga.dtype == wa.dtype == np.float64
                    assert ga.shape == wa.shape and ga.tobytes() == wa.tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_partition_allocates_the_kept_pixels_once():
    # each shard's X is the block of rows gathered from the corpus: no
    # second, joined copy of the kept pixels
    rng = stream(29, "probe")
    ds = RawDataset(images=rng.integers(0, 256, size=(3000, 784)).astype(np.uint8),
                    labels=rng.integers(0, 10, size=3000))
    shards, peak = _traced_peak(dataio.partition_clients, ds, 3, "iid", 4)
    kept = sum(s.X.nbytes for s in shards)
    assert kept == ds.images.nbytes
    for s in shards:
        assert s.X.base is None
    # the order and the labels take 8 bytes a row beside the 784 pixels
    assert peak < 1.1 * kept, (peak, kept)


def test_build_oracle_peak_memory(mnist_paths):
    # at its peak build_oracle holds the inflated IDX payload and the shards
    # the run keeps, and no float copy of the whole corpus; inflating a file
    # has a transient of its own, which on the session corpus is far smaller
    cfg = harness.config_from_mapping(dict(
        objective="logistic_mnist", images_path=mnist_paths[0], labels_path=mnist_paths[1],
        n=10, m=9, partition="by_label", per_client_cap=1000, d_u=392, d_v=392))
    payload, inflate_peak = 0, 0
    for path in mnist_paths:
        data, peak = _traced_peak(dataio.read_idx_bytes, path)
        payload += len(data)
        inflate_peak = max(inflate_peak, peak)
    oracle, peak = _traced_peak(harness.build_oracle, cfg)
    shard_bytes = sum(s.X.nbytes + s.y.nbytes for s in oracle.shards)
    assert peak <= max(inflate_peak, shard_bytes + payload) + 2**20, (peak, shard_bytes, payload)


# --------------------------------------------------------- synthetic source


def test_synth_quadratic_spread_zero():
    obj = dataio.synth_quadratic(5, 3, 2, spread=0.0, sigma_u=0, sigma_v=0, seed=0)
    assert obj.dissimilarity_b2() == 0.0
    assert np.all(obj.centers_u == obj.centers_u[0])


def test_synth_quadratic_spread_quadruples_b2():
    b2_1, b2_2 = (dataio.synth_quadratic(6, 3, 2, spread=s, sigma_u=0, sigma_v=0, seed=4)
                  .dissimilarity_b2() for s in (1.5, 3.0))
    assert b2_2 == pytest.approx(4.0 * b2_1, rel=1e-15)


def test_synth_quadratic_b2_matches_metrics_estimate():
    obj = dataio.synth_quadratic(7, 4, 3, spread=2.0, sigma_u=0, sigma_v=0, seed=9)
    # the closed form of the docstring: b^2 = spread^2 (1/n) sum h_i^2
    h = stream(9, "synth").standard_normal(7)
    h = h - h.mean()
    b2 = 2.0 * 2.0 * float((h * h).mean())
    rng = stream(26, "probe")
    for _ in range(5):
        u = rng.standard_normal(4)
        v_all = [rng.standard_normal(3) for _ in range(7)]
        est = metrics.estimate_dissimilarity(obj, u, v_all)
        assert est == pytest.approx(b2, abs=1e-10)
    assert obj.dissimilarity_b2() == pytest.approx(b2, abs=1e-12)


def test_synth_quadratic_validation():
    with pytest.raises(ValueError):
        dataio.synth_quadratic(0, 3, 2, spread=1.0, sigma_u=0, sigma_v=0, seed=0)
    with pytest.raises(ValueError):
        dataio.synth_quadratic(2, 3, 2, spread=-1.0, sigma_u=0, sigma_v=0, seed=0)
    for d_u, d_v in ((0, 2), (2, 0)):  # the objective names its empty block
        with pytest.raises(ValueError, match="^centers_u and centers_v must be"):
            dataio.synth_quadratic(3, d_u, d_v, spread=1.0, sigma_u=0, sigma_v=0, seed=0)


@pytest.mark.parametrize("name,bad,least", [
    ("n", 2.5, 1), ("n", True, 1), ("d_u", 1.5, 0), ("d_v", 2.0, 0), ("d_u", -1, 0),
])
def test_synth_quadratic_counts_are_ints(name, bad, least):
    args = dict(n=3, d_u=2, d_v=2, spread=1.0, sigma_u=0.0, sigma_v=0.0, seed=0)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an int >= {least}, got {bad!r}")):
        dataio.synth_quadratic(**{**args, name: bad})
    assert dataio.synth_quadratic(**{**args, name: np.int64(2)}).n == (2 if name == "n" else 3)
