"""The array manifest of the binary container: round trips of mixed shapes,
and which entry a defect is reported against."""

import numpy as np
import pytest

from attnbof.errors import DataFormatError
from attnbof.io_container import pack_arrays, unpack_arrays
from attnbof.model import Model, ModelConfig

# bit patterns a float64 round trip must keep: signed zero, subnormals, extremes
SPECIAL = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300])


def checkpoint_like():
    """(name, matrix) pairs shaped like a conv + csa checkpoint's parameters."""
    net = Model.build(ModelConfig(feature_dim=3, classes=4, codewords=5, latent_dim=2,
                                  seq_len=7, attention="csa", heads=2, frontend="conv",
                                  conv_channels=6, seed=1))
    params = [(name, p.copy()) for name, p in net.params.items()]
    params[0][1].flat[:len(SPECIAL)] = SPECIAL[:params[0][1].size]
    return params


def fseq_like():
    """(label, matrix) pairs of two sequence lengths."""
    rng = np.random.default_rng(3)
    items = [(i % 3, rng.standard_normal((4, 6 if i % 2 else 9))) for i in range(7)]
    items[2][1][0, :len(SPECIAL)] = SPECIAL
    return items


@pytest.mark.parametrize("key,entries", [("name", checkpoint_like()), ("label", fseq_like())],
                         ids=["checkpoint", "fseq"])
def test_mixed_shapes_round_trip_bit_exactly(key, entries):
    assert len({a.shape for _, a in entries}) > 1
    manifest, arrays = pack_arrays(key, entries)
    payload = bytearray(b"".join(arrays))   # writable, as read_container's buffer is
    loaded = unpack_arrays("f", key, manifest, payload)
    assert [v for v, _ in loaded] == [v for v, _ in entries]
    for (_, got), (_, want) in zip(loaded, entries):
        assert got.shape == want.shape and got.dtype == np.float64
        assert got.tobytes() == np.ascontiguousarray(want, dtype="<f8").tobytes()
    loaded[0][1][...] = 0.0  # writing one item changes no other
    assert loaded[1][1].tobytes() == entries[1][1].tobytes()


def _drop_rows(manifest, payload, i):
    del manifest[i]["rows"]
    return payload


def _bool_cols(manifest, payload, i):
    manifest[i]["cols"] = True
    return payload


def _shift_offset(manifest, payload, i):
    manifest[i]["offset"] += 8
    return payload


def _zero_rows(manifest, payload, i):
    manifest[i]["rows"] = 0
    return payload


def _nan_value(manifest, payload, i):
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[manifest[i]["offset"] // 8 + 5] = np.nan
    return values.tobytes()


DEFECTS = [_drop_rows, _bool_cols, _shift_offset, _zero_rows, _nan_value]


@pytest.mark.parametrize("defect", DEFECTS, ids=lambda f: f.__name__[1:])
@pytest.mark.parametrize("i", [0, 3, 6])
def test_a_defect_is_reported_against_its_own_entry(defect, i):
    manifest, arrays = pack_arrays("label", fseq_like())
    payload = b"".join(arrays)
    payload = defect(manifest, payload, i)
    with pytest.raises(DataFormatError, match=f"manifest entry {i} "):
        unpack_arrays("f", "label", manifest, payload)


@pytest.mark.parametrize("field", ["rows", "cols", "offset"])
@pytest.mark.parametrize("i", [0, 3, 6])
def test_huge_manifest_values_are_format_errors(field, i):
    manifest, arrays = pack_arrays("label", fseq_like())
    payload = b"".join(arrays)
    manifest[i][field] = 10**30
    with pytest.raises(DataFormatError):
        unpack_arrays("f", "label", manifest, payload)
