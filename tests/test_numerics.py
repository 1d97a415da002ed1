import itertools
import sys
import threading
import time
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from attnbof import numerics
from attnbof.attention import MODES
from attnbof.model import (ATTENTION_KINDS, FRONTENDS, ModelConfig, build_stages,
                           frontend_conv)
from attnbof.nbof import aggregate
from attnbof.numerics import affine, grad_check, sigmoid, softmax_cols

from .oracles import loop_matmul, loop_mean_cols, loop_softmax_rows
from .registry import OPS, stage_key


def test_matmul_matches_loop_oracle():
    # the model's GEMMs that sum over a stack go through sum_tn: a^T @ b
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows, inner, cols = rng.integers(1, 17, size=3)
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        assert np.allclose(numerics.sum_tn(a.T, b), loop_matmul(a, b), rtol=0, atol=1e-12)
        halves = numerics.sum_tn(np.stack([a.T, a.T]), np.stack([b, -b]))
        assert np.allclose(halves, 0.0, rtol=0, atol=1e-12)


def test_softmax_uniform_row():
    assert np.allclose(softmax_cols(np.zeros((3, 1))), 1.0 / 3.0, rtol=0, atol=1e-15)


def test_softmax_single_column_is_ones():
    out = softmax_cols(np.array([[4.2, -1.0, 900.0]]))
    assert np.array_equal(out, np.ones((1, 3)))


def test_softmax_hand_value():
    # exp-and-normalize of [1, 2] evaluated by hand
    out = softmax_cols(np.array([[1.0], [2.0]]))
    assert np.allclose(out.T, [[0.2689414213699951, 0.7310585786300049]], atol=1e-6)


def test_softmax_matches_loop_oracle():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((6, 5)) * 3.0
    assert np.allclose(softmax_cols(m.T).T, loop_softmax_rows(m), atol=1e-14)


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 8)),
              elements=st.floats(-700.0, 700.0)))
def test_softmax_rows_sum_to_one(m):
    out = softmax_cols(m.T)
    assert np.all(out >= 0.0)
    assert np.allclose(out.sum(axis=0), 1.0, rtol=0, atol=1e-12)


def test_sigmoid_at_zero():
    assert np.array_equal(sigmoid(np.zeros((2, 3))), np.full((2, 3), 0.5))


def test_sigmoid_extremes_saturate_cleanly():
    out = sigmoid(np.array([[-1e4, 1e4, -np.inf, np.inf]]))
    assert np.array_equal(out, [[0.0, 1.0, 0.0, 1.0]])


def test_mean_cols_hand_value():
    assert np.array_equal(aggregate(np.array([[1.0, 3.0], [2.0, 4.0]])), [2.0, 3.0])


def test_mean_cols_matches_loop_oracle():
    m = np.random.default_rng(5).standard_normal((7, 9))
    assert np.allclose(aggregate(m), loop_mean_cols(m), atol=1e-14)


def test_relu_clamps_negative():
    # the conv frontend rectifies inline; a width-1 identity kernel exposes it
    out = frontend_conv(np.array([[-1.0, 2.0]]), np.eye(1), np.zeros((1, 1)))
    assert np.array_equal(out, [[0.0, 2.0]])


def test_affine_hand_value():
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    out = affine(w, np.array([3.0, 4.0]), np.array([0.5, -0.5]))
    assert np.array_equal(out, [3.5, 7.5])


# ---------------------------------------------------------------------------
# gradient checking


def test_grad_check_exact_for_linear_map():
    matmul = numerics.DiffOp(
        "matmul", lambda a, b: a @ b,
        lambda inputs, output, upstream: (upstream @ inputs[1].T, inputs[0].T @ upstream))
    rng = np.random.default_rng(2)
    point = [rng.standard_normal((3, 4)), rng.standard_normal((4, 2))]
    report = grad_check(matmul, point)
    assert report.finite
    assert report.max_rel_err <= 1e-9


def test_grad_check_softmax():
    point = [np.random.default_rng(4).standard_normal((4, 6))]
    report = grad_check(OPS["softmax_rows"].op, point)
    assert report.finite
    assert report.max_rel_err <= 1e-4


def test_grad_check_flags_nonfinite():
    bad = numerics.DiffOp(
        "bad", lambda m: m * np.nan,
        lambda inputs, output, upstream: (upstream,))
    report = grad_check(bad, [np.ones((2, 2))])
    assert not report.finite
    assert report.max_rel_err == np.inf


def test_grad_check_catches_wrong_vjp():
    # doubled cotangent must blow past the tolerance
    wrong = numerics.DiffOp(
        "wrong_scale", lambda a, b: a * b,
        lambda inputs, output, upstream: (2.0 * upstream * inputs[1],
                                          2.0 * upstream * inputs[0]))
    rng = np.random.default_rng(8)
    report = grad_check(wrong, [rng.standard_normal((3, 3)),
                                rng.standard_normal((3, 3))])
    assert report.max_rel_err > 1e-2


@pytest.mark.parametrize("name", sorted(OPS))
def test_every_registered_op_passes_grad_check(name):
    entry = OPS[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(10):
        point = entry.sample(rng)
        report = grad_check(entry.op, point)
        assert report.finite, f"{name} trial {trial}: non-finite"
        assert report.max_rel_err <= 1e-4, (
            f"{name} trial {trial}: max_rel_err={report.max_rel_err:.3e}")


def test_every_stage_has_a_gradient_check():
    # a self-attention variant needs one check without dropout and one with
    covered = {entry.covers for entry in OPS.values()}
    for attention, mode, frontend, rate, training in itertools.product(
            ATTENTION_KINDS, MODES, FRONTENDS, (0.0, 0.25), (False, True)):
        cfg = ModelConfig(feature_dim=3, classes=2, attention=attention, mode=mode,
                          frontend=frontend, seq_len=6, dropout_rate=rate)
        missing = {stage_key(cfg, stage.name, training)
                   for stage in build_stages(cfg)} - covered
        assert not missing, f"no gradient check in tests/registry.py for {missing}"


def test_memo_keys_each_argument_bitwise_and_returns_read_only_results():
    calls = []

    @numerics.memo
    def doubled(a, b):
        calls.append(1)
        return a * 2.0, float(b.sum())

    a, b = np.zeros(3), np.ones(2)
    out = doubled(a, b)
    assert doubled(a, b) is out and doubled(np.zeros(3), b.copy()) is out
    assert len(calls) == 1
    with pytest.raises(ValueError, match="read-only"):
        out[0][0] = 1.0
    nan = np.array([np.nan, 0.0, 0.0])
    payload = (nan.view(np.uint64) ^ np.array([1, 0, 0], np.uint64)).view(float)
    assert np.isnan(payload[0])
    # each first argument differs from the one before it only in its bits
    # (-0.0, a NaN payload), dtype, memory order or shape; a value written in
    # place is a new key
    a[1] = -0.0
    for first in [a, np.zeros(3), np.zeros(3, np.int64), np.zeros((3, 2), np.int64)[:, 0],
                  np.zeros((3, 1), np.int64), nan, payload, nan]:
        before = len(calls)
        doubled(first, b)
        doubled(first, b)
        assert len(calls) == before + 1, first
    a[1] = 1.0
    assert doubled(a, b)[0][1] == 2.0
    assert len(calls) == 10


def test_memo_shared_by_threads_returns_each_caller_its_own_results():
    # a torn entry (one call's key with another's results) would hand a
    # thread the doubles of another thread's array; sleep(0) lets the other
    # threads run while a call computes
    def doubled(a):
        time.sleep(0)
        return (a * 2.0,)

    doubled = numerics.memo(doubled)
    bad, done = [], []

    def hammer(i):
        a = np.full(64, float(i % 2))   # two threads per key, so some calls hit
        for _ in range(2000):
            if not np.array_equal(doubled(a)[0], a * 2.0):
                bad.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and not bad


def test_mean_column_is_one_shared_read_only_column():
    r = numerics.mean_column(7)
    assert r.shape == (7, 1) and r is numerics.mean_column(7)
    assert r.tobytes() == (numerics.ones(7)[:, None] * (1.0 / 7)).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        r[0, 0] = 0.0
