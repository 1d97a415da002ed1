import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from attnbof.data import (ORDER_NOISE, LabeledSequenceSet,
                          gen_noisy_timestamps, gen_order_task,
                          load_features, pad_or_clip, save_features)
from attnbof.errors import ChecksumError, ConfigError, DataFormatError
from attnbof.model import Model, ModelConfig
from attnbof.nbof import W_RAW_UNIT, aggregate, quantize_raw
from attnbof.numerics import MAX_VALUES
from attnbof.train import TrainConfig, evaluate, fit, holdout_split

from .oracles import loop_order_task

# pinned generator outputs; the byte-level fingerprints were recorded on the
# first seeded run and guard against silent generator drift
ORDER_CHECKSUM_SEED11 = "9b179895"
NOISY_CHECKSUM_SEED7 = "1f2c0741"


def order_ds(count=40, seed=11):
    return gen_order_task(feature_dim=4, length=20, count=count, seed=seed)


# ---------------------------------------------------------------------------
# order task


def test_order_reversed_class0_is_its_class1_twin():
    ds = order_ds()
    for i in range(0, len(ds), 2):
        first, label_a = ds.items[i]
        second, label_b = ds.items[i + 1]
        assert (label_a, label_b) == (0, 1)
        assert np.array_equal(first[:, ::-1], second)


def test_order_twins_share_column_multiset():
    ds = order_ds()
    for i in range(0, len(ds), 2):
        a = sorted(map(tuple, ds.items[i][0].T))      # lexicographic column sort
        b = sorted(map(tuple, ds.items[i + 1][0].T))
        assert a == b


def test_order_twins_have_identical_histograms():
    ds = order_ds(count=10)
    rng = np.random.default_rng(0)
    v, w_raw = rng.standard_normal((6, 4)), np.full((6, 4), W_RAW_UNIT)
    for i in range(0, len(ds), 2):
        ya = aggregate(quantize_raw(ds.items[i][0], v, w_raw))
        yb = aggregate(quantize_raw(ds.items[i + 1][0], v, w_raw))
        assert np.allclose(ya, yb, rtol=0, atol=1e-12)


def test_order_checksum_frozen():
    ds = gen_order_task(feature_dim=4, length=20, count=400, seed=11)
    assert ds.checksum() == ORDER_CHECKSUM_SEED11
    assert ds.group_size == 2


def test_order_is_deterministic():
    a = order_ds(seed=3)
    b = order_ds(seed=3)
    assert a.checksum() == b.checksum()
    for (xa, la), (xb, lb) in zip(a.items, b.items):
        assert la == lb and np.array_equal(xa, xb)


@pytest.mark.parametrize("count", [2, 10, 400])
@pytest.mark.parametrize("feature_dim", [3, 4])
@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_order_matches_the_per_pair_reference(count, feature_dim, seed):
    ds = gen_order_task(feature_dim=feature_dim, length=6, count=count, seed=seed)
    want = loop_order_task(feature_dim, 6, count, seed, noise=ORDER_NOISE)
    assert [label for _, label in ds.items] == [label for _, label in want]
    for (x, _), (ref, _) in zip(ds.items, want):
        assert x.shape == ref.shape and np.array_equal(x, ref)


@pytest.mark.parametrize("i", [0, 1, 4, 5])
def test_writing_an_order_item_leaves_its_twin_and_neighbours_unchanged(i):
    ds = order_ds(count=6)
    before = [x.copy() for x, _ in ds.items]
    ds.items[i][0][...] = -7.0
    assert all(np.array_equal(x, b) for j, ((x, _), b) in enumerate(zip(ds.items, before))
               if j != i)


def test_generators_bound_the_payload_before_drawing(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: pytest.fail("a generator drew past the bound"))
    with pytest.raises(ConfigError, match="count \\* feature_dim \\* length"):
        gen_order_task(feature_dim=4, length=10**9, count=400, seed=0)
    with pytest.raises(ConfigError, match="count \\* feature_dim \\* length"):
        gen_noisy_timestamps(classes=3, feature_dim=8, length=30, signal_fraction=0.1,
                             snr=2.0, count=MAX_VALUES, seed=0)


def test_order_rejects_bad_shapes():
    with pytest.raises(ConfigError, match="even length"):
        gen_order_task(feature_dim=3, length=7, count=10, seed=0)
    with pytest.raises(ConfigError, match="count"):
        gen_order_task(feature_dim=3, length=6, count=11, seed=0)


# ---------------------------------------------------------------------------
# noisy-timestamp task


@pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
def test_noisy_rejects_non_finite_snr(snr):
    with pytest.raises(ConfigError, match="snr"):
        gen_noisy_timestamps(classes=3, feature_dim=4, length=10,
                             signal_fraction=0.5, snr=snr, count=6, seed=0)


def test_noisy_rejects_degenerate_fraction():
    for bad in (0.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            gen_noisy_timestamps(classes=3, feature_dim=4, length=10,
                                 signal_fraction=bad, snr=2.0, count=6, seed=0)


def test_noisy_memory_does_not_grow_with_classes():
    tracemalloc.start()
    try:
        ds = gen_noisy_timestamps(classes=10**6, feature_dim=2, length=4, signal_fraction=0.5,
                                  snr=2.0, count=3, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20   # a (classes, feature_dim) table would take 16 MB
    assert ds.labels().tolist() == [0, 1, 2]


def test_noisy_checksum_frozen():
    ds = gen_noisy_timestamps(classes=3, feature_dim=8, length=30,
                              signal_fraction=0.1, snr=2.0, count=600, seed=7)
    assert ds.checksum() == NOISY_CHECKSUM_SEED7


def test_noisy_labels_balanced_and_signal_planted():
    ds = gen_noisy_timestamps(classes=3, feature_dim=6, length=10,
                              signal_fraction=0.3, snr=4.0, count=30, seed=5)
    labels = ds.labels()
    assert [int(np.sum(labels == c)) for c in range(3)] == [10, 10, 10]
    for x, label in ds.items:
        proto = np.zeros(6)
        proto[label] = 4.0
        planted = np.sum(np.all(x == proto[:, None], axis=0))
        assert planted >= 3  # ceil(0.3 * 10)


def test_fully_separable_task_is_easy_for_plain_model():
    ds = gen_noisy_timestamps(classes=3, feature_dim=4, length=6,
                              signal_fraction=1.0, snr=5.0, count=60, seed=9)
    train_set, val_set = holdout_split(ds, 0.2, seed=9)
    net = Model.build(ModelConfig(feature_dim=4, classes=3, codewords=6, seed=9))
    fit(net, train_set, TrainConfig(epochs=8, batch_size=8, learning_rate=0.01, seed=9))
    acc, _ = evaluate(net, val_set)
    assert acc >= 0.95


# ---------------------------------------------------------------------------
# length normalization


def test_pad_or_clip_identity():
    x = np.arange(6, dtype=float).reshape(2, 3)
    assert pad_or_clip(x, 3) is x


def test_pad_or_clip_pads_with_zero_columns():
    x = np.ones((3, 2))
    out = pad_or_clip(x, 4)
    assert out.shape == (3, 4)
    assert np.array_equal(out[:, :2], x)
    assert np.array_equal(out[:, 2:], np.zeros((3, 2)))


def test_pad_or_clip_keeps_leading_columns():
    x = np.arange(12, dtype=float).reshape(2, 6)
    out = pad_or_clip(x, 3)  # 60s-style input cut down to a 30s-style window
    assert np.array_equal(out, x[:, :3])


def test_pad_or_clip_rejects_bad_target():
    with pytest.raises(ConfigError):
        pad_or_clip(np.ones((2, 2)), 0)


# ---------------------------------------------------------------------------
# persistence


def test_feature_file_roundtrip_bitwise(tmp_path):
    ds = gen_noisy_timestamps(classes=3, feature_dim=5, length=7,
                              signal_fraction=0.5, snr=2.0, count=9, seed=4)
    path = str(tmp_path / "set.fseq")
    save_features(ds, path)
    loaded = load_features(path)
    assert loaded.classes == ds.classes
    assert loaded.feature_dim == ds.feature_dim
    assert loaded.metadata == ds.metadata
    for (xa, la), (xb, lb) in zip(ds.items, loaded.items):
        assert la == lb and np.array_equal(xa, xb)
    assert loaded.checksum() == ds.checksum()


def test_feature_file_supports_ragged_lengths(tmp_path):
    items = [(np.ones((2, 3)), 0), (np.zeros((2, 8)), 1)]
    ds = LabeledSequenceSet(items=items, classes=2, feature_dim=2)
    path = str(tmp_path / "ragged.fseq")
    save_features(ds, path)
    loaded = load_features(path)
    assert [x.shape for x, _ in loaded.items] == [(2, 3), (2, 8)]


def test_feature_file_empty_set_is_valid(tmp_path):
    ds = LabeledSequenceSet(items=[], classes=2, feature_dim=3)
    path = str(tmp_path / "empty.fseq")
    save_features(ds, path)
    loaded = load_features(path)
    assert len(loaded) == 0 and loaded.feature_dim == 3


def test_generating_and_writing_holds_the_payload_about_once(tmp_path):
    # the items are written as they stand, not copied into bytes first
    count, feature_dim, length = 250, 4, 1000
    tracemalloc.start()
    try:
        ds = gen_order_task(feature_dim=feature_dim, length=length, count=count, seed=0)
        save_features(ds, str(tmp_path / "big.fseq"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * count * feature_dim * length


def test_reading_holds_the_payload_about_once(tmp_path):
    # the file is read once into one buffer, and the items are views into it
    count, feature_dim, length = 250, 4, 1000
    path = str(tmp_path / "big.fseq")
    save_features(gen_order_task(feature_dim=feature_dim, length=length, count=count,
                                 seed=0), path)
    tracemalloc.start()
    try:
        ds = load_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 8 * count * feature_dim * length
    assert all(x.flags.writeable for x, _ in ds.items)


def test_feature_file_detects_truncation(tmp_path):
    ds = LabeledSequenceSet(items=[(np.ones((2, 4)), 0)], classes=1, feature_dim=2)
    path = str(tmp_path / "cut.fseq")
    save_features(ds, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:10])
    with pytest.raises(DataFormatError):
        load_features(path)


def test_feature_file_detects_flipped_byte(tmp_path):
    ds = gen_order_task(feature_dim=3, length=4, count=4, seed=2)
    path = str(tmp_path / "set.fseq")
    save_features(ds, path)
    blob = bytearray(Path(path).read_bytes())
    blob[-20] ^= 0x01  # inside the payload
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_features(path)

