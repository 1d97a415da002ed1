"""Synthetic sequence tasks, length normalization, and the feature-file format.

Datasets are lists of (D x N float64 matrix, integer label).  Two seeded
generators exercise the properties attention is supposed to buy:

* ``gen_noisy_timestamps`` -- a small fraction of columns carry a fixed
  class prototype, the rest are class-independent Gaussian noise, so models
  that can suppress irrelevant timestamps/codewords have an edge.
* ``gen_order_task`` -- two classes whose items are column-multiset twins
  differing only in block order, so any pipeline that is invariant to
  timestamp permutation is stuck at chance by construction.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ConfigError, DataFormatError, ShapeError
from .io_container import (check_types, pack_arrays, read_container, unpack_arrays,
                           write_container)
from .numerics import Array

FEATURES_MAGIC = b"FSEQ"
FEATURES_VERSION = 1


@dataclass
class LabeledSequenceSet:
    items: list[tuple[Array, int]]
    classes: int
    feature_dim: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.metadata, dict):
            raise DataFormatError(
                f"metadata must be a JSON object, got {type(self.metadata).__name__}")
        size = self.metadata.get("group_size", 1)
        if type(size) is not int or size < 1:
            raise DataFormatError(f"metadata group_size must be an int >= 1, got {size!r}")
        for i, (x, label) in enumerate(self.items):
            if x.ndim != 2 or x.shape[0] != self.feature_dim:
                raise ShapeError(
                    f"item {i}: shape {x.shape} does not match feature_dim "
                    f"{self.feature_dim}")
            if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
                raise ValueError(f"item {i}: label {label!r} is not an int")
            if not 0 <= label < self.classes:
                raise ValueError(f"item {i}: label {label} out of range "
                                 f"[0, {self.classes})")

    def __len__(self) -> int:
        return len(self.items)

    @property
    def group_size(self) -> int:
        """Items are generated in groups of this size (twin pairs for the
        order task); splits keep groups intact."""
        return self.metadata.get("group_size", 1)

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.items], dtype=int)

    def subset(self, indices) -> "LabeledSequenceSet":
        meta = dict(self.metadata)
        meta.pop("group_size", None)  # a subset need not preserve grouping
        return LabeledSequenceSet(
            items=[self.items[i] for i in indices], classes=self.classes,
            feature_dim=self.feature_dim, metadata=meta)

    def checksum(self) -> str:
        """CRC32 over labels and payload bytes, as 8 hex digits."""
        crc = 0
        for x, label in self.items:
            crc = zlib.crc32(np.int64(label).tobytes(), crc)
            crc = zlib.crc32(np.ascontiguousarray(x, dtype="<f8").tobytes(), crc)
        return f"{crc & 0xFFFFFFFF:08x}"


# ---------------------------------------------------------------------------
# generators


# What one generated item costs beyond its values, in float64 values: at
# count 200000 with feature_dim = 1 and length = 2 (Python 3.11, numpy 2.4,
# Linux x86-64), gen_order_task grew peak RSS by 263-266 B per item and
# save_features by 419-456 B more, ~720 B in all.
ITEM_OVERHEAD = 90


def _check_payload(count: int, feature_dim: int, length: int) -> None:
    """Reject a dataset over the ceiling before anything is drawn; each item
    is charged its values plus ``ITEM_OVERHEAD``."""
    if (size := count * (feature_dim * length + ITEM_OVERHEAD)) > numerics.MAX_VALUES:
        raise ConfigError(f"count * feature_dim * length is {count * feature_dim * length} "
                          f"values, {size} with {ITEM_OVERHEAD} charged per item, over "
                          f"the generator limit of {numerics.MAX_VALUES}")


def gen_noisy_timestamps(classes: int = 3, feature_dim: int = 8, length: int = 30,
                         signal_fraction: float = 0.1, snr: float = 2.0, count: int = 600,
                         seed: int = 0) -> LabeledSequenceSet:
    """Per item: ceil(signal_fraction * length) random columns hold the class
    prototype (a one-hot unit vector scaled by snr), the rest are standard
    Gaussian noise.  Labels cycle round-robin so classes stay balanced."""
    if not 0.0 < signal_fraction <= 1.0:
        raise ConfigError(
            f"signal_fraction must be in (0, 1], got {signal_fraction}")
    if not math.isfinite(snr):
        raise ConfigError(f"snr must be finite, got {snr}")
    if classes < 2 or feature_dim < 1 or length < 1 or count < 1:
        raise ConfigError("classes >= 2, feature_dim/length/count >= 1 required")
    _check_payload(count, feature_dim, length)
    rng = np.random.default_rng(seed)
    n_signal = math.ceil(signal_fraction * length)
    items = []
    for i in range(count):
        label = i % classes
        x = rng.standard_normal((feature_dim, length))
        spots = rng.choice(length, size=n_signal, replace=False)
        # the class prototype, written in place, so memory does not grow with classes
        x[:, spots] = 0.0
        x[label % feature_dim, spots] = snr
        items.append((x, label))
    meta = {"generator": "noisy", "seed": seed, "classes": classes,
            "feature_dim": feature_dim, "length": length,
            "signal_fraction": signal_fraction, "snr": snr, "count": count}
    return LabeledSequenceSet(items=items, classes=classes,
                              feature_dim=feature_dim, metadata=meta)


ORDER_NOISE = 0.3


def gen_order_task(feature_dim: int = 4, length: int = 20, count: int = 400,
                   seed: int = 0) -> LabeledSequenceSet:
    """Twin pairs around two fixed symbols: a class-0 item is [symbol A block,
    symbol B block] with per-column Gaussian jitter, and its class-1 twin is
    the exact column reversal of that item.  Twins therefore share the exact
    column multiset, so any timestamp-permutation-invariant classifier is
    stuck at accuracy 1/2, while the block order itself is a stable, learnable
    rule (the symbols are fixed per dataset)."""
    if feature_dim < 1:
        raise ConfigError(f"feature_dim must be >= 1, got {feature_dim}")
    if length < 2 or length % 2 != 0:
        raise ConfigError(f"order task needs an even length >= 2, got {length}")
    if count < 2 or count % 2 != 0:
        raise ConfigError(f"order task generates twin pairs; count must be even, "
                          f"got {count}")
    _check_payload(count, feature_dim, length)
    rng = np.random.default_rng(seed)
    half = length // 2
    symbol_a = rng.standard_normal(feature_dim)
    symbol_b = rng.standard_normal(feature_dim)
    blocks = np.repeat(np.stack([symbol_a, symbol_b], axis=1), half, axis=1)
    # one draw yields the per-pair draws' stream, pair after pair
    forward = blocks + ORDER_NOISE * rng.standard_normal((count // 2, feature_dim, length))
    reverse = forward[:, :, ::-1].copy()
    items = [item for f, r in zip(forward, reverse) for item in ((f, 0), (r, 1))]
    meta = {"generator": "order", "seed": seed, "feature_dim": feature_dim,
            "length": length, "count": count, "group_size": 2}
    return LabeledSequenceSet(items=items, classes=2, feature_dim=feature_dim,
                              metadata=meta)


# the ``generator`` name of a config -> its function; a config's other keys
# reach the function only where its signature names them
GENERATORS = {"noisy": gen_noisy_timestamps, "order": gen_order_task}


# ---------------------------------------------------------------------------
# preprocessing


def pad_or_clip(x: Array, target_len: int) -> Array:
    """Normalize sequence length: keep the first ``target_len`` columns, or
    append zero columns."""
    if target_len < 1:
        raise ConfigError(f"target length must be >= 1, got {target_len}")
    x = numerics.as_matrix(x, "pad_or_clip input")
    n = x.shape[1]
    if n == target_len:
        return x
    if n > target_len:
        return x[:, :target_len].copy()
    out = np.zeros((x.shape[0], target_len))
    out[:, :n] = x
    return out


# ---------------------------------------------------------------------------
# persistence


def save_features(dataset: LabeledSequenceSet, path: str) -> None:
    manifest, arrays = pack_arrays(
        "label", ((int(label), x) for x, label in dataset.items))
    header = {"classes": dataset.classes, "feature_dim": dataset.feature_dim,
              "metadata": dataset.metadata, "items": manifest}
    write_container(path, FEATURES_MAGIC, FEATURES_VERSION, header, *arrays)


def load_features(path: str) -> LabeledSequenceSet:
    header, payload = read_container(path, FEATURES_MAGIC, FEATURES_VERSION)
    check_types(path, "feature header", header, {"classes": (int,), "feature_dim": (int,)})
    arrays = unpack_arrays(path, "label", header.get("items"), payload)
    return LabeledSequenceSet(items=[(x, label) for label, x in arrays],
                              classes=header["classes"],
                              feature_dim=header["feature_dim"],
                              metadata=header.get("metadata", {}))
