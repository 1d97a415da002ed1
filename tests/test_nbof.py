import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnbof.errors import ShapeError
from attnbof.nbof import W_RAW_UNIT, aggregate, init_codebook, quantize_raw, quantize_vjp
from attnbof.numerics import grad_check, softplus

from .oracles import loop_distances, loop_mean_cols, loop_quantize
from .registry import OPS


def unit_weights(v):
    return np.full_like(np.asarray(v, dtype=float), W_RAW_UNIT)


def test_softplus_unit_constant():
    assert np.isclose(np.logaddexp(0.0, W_RAW_UNIT), 1.0, atol=1e-15)


def test_single_codeword_gives_all_ones():
    v = np.array([[0.3, -0.7]])
    phi = quantize_raw(np.random.default_rng(0).standard_normal((2, 6)), v, unit_weights(v))
    assert np.array_equal(phi, np.ones((1, 6)))


def test_symmetric_distances_split_evenly():
    v = np.array([[-1.0], [1.0]])
    phi = quantize_raw(np.zeros((1, 3)), v, unit_weights(v))
    assert np.allclose(phi, 0.5, rtol=0, atol=1e-15)


def test_hand_value_one_dimensional():
    # distances 0 and 1 -> memberships 1/(1+e^-1) and e^-1/(1+e^-1)
    v = np.array([[0.0], [1.0]])
    phi = quantize_raw(np.zeros((1, 1)), v, unit_weights(v))
    assert np.allclose(phi[:, 0], [0.7310585786300049, 0.2689414213699951], atol=1e-6)


def test_quantize_matches_loop_oracle():
    rng = np.random.default_rng(21)
    x = rng.standard_normal((3, 7))
    v = rng.standard_normal((5, 3))
    w_raw = rng.standard_normal((5, 3))
    w = np.logaddexp(0.0, w_raw)
    assert np.allclose(quantize_raw(x, v, w_raw), loop_quantize(x, v, w),
                       rtol=0, atol=1e-12)


@pytest.mark.parametrize("batch", [None, 3])
def test_gemm_distances_match_loop_oracle(batch):
    rng = np.random.default_rng(22)
    shape = (5, 9) if batch is None else (batch, 5, 9)
    x = rng.standard_normal(shape) * 2.0 + 3.0   # an offset the expansion must absorb
    items = x if batch is not None else x[None]
    v = rng.standard_normal((7, 5)) + 3.0
    v[0] = items[-1][:, 2] + 1e-9                 # nearly on a data column
    w_raw = rng.standard_normal((7, 5))
    w = softplus(w_raw)
    cache = {}
    phi = quantize_raw(x, v, w_raw, cache=cache)
    dist = cache["dist"] if batch is not None else cache["dist"][None]
    phis = phi if batch is not None else phi[None]
    for b, xb in enumerate(items):
        assert np.max(np.abs(dist[b] - loop_distances(xb, v, w))) <= 1e-12
        assert np.max(np.abs(phis[b] - loop_quantize(xb, v, w))) <= 1e-12


@pytest.mark.parametrize("batch", [None, 2])
def test_codewords_on_data_columns_are_at_distance_zero(batch):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((3, 5) if batch is None else (batch, 3, 5)) + 4.0
    items = x if batch is not None else x[None]
    picks = [(b, n) for b in range(len(items)) for n in (0, 2, 4)]
    v = np.array([items[b][:, n] for b, n in picks])
    w_raw = rng.standard_normal(v.shape)
    cache = {}
    phi = quantize_raw(x, v, w_raw, cache=cache)
    dist = cache["dist"] if batch is not None else cache["dist"][None]
    for k, (b, n) in enumerate(picks):
        assert dist[b, k, n] == 0.0
    assert np.count_nonzero(dist) == dist.size - len(picks)
    grads = quantize_vjp((x, v, w_raw), phi, rng.standard_normal(phi.shape), cache=cache)
    assert all(np.all(np.isfinite(g)) for g in grads)
    if batch is None:
        report = grad_check(OPS["quantize"].op, [x, v, w_raw])
        assert report.finite and report.max_rel_err <= 1e-4


def test_quantize_dimension_mismatch():
    with pytest.raises(ShapeError):
        quantize_raw(np.zeros((4, 5)), np.zeros((2, 3)), np.zeros((2, 3)))


def test_quantize_survives_distant_columns():
    # all distances huge: stabilization must keep columns on the simplex
    v = np.full((3, 2), 500.0)
    phi = quantize_raw(np.full((2, 4), -500.0), v, unit_weights(v))
    assert np.all(np.isfinite(phi))
    assert np.allclose(phi.sum(axis=0), 1.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(1, 5),
       st.integers(1, 9))
def test_columns_live_on_the_simplex(seed, k, d, n):
    rng = np.random.default_rng(seed)
    phi = quantize_raw(rng.standard_normal((d, n)) * 3.0,
                       rng.standard_normal((k, d)),
                       rng.standard_normal((k, d)))
    assert np.all(phi >= 0.0)
    assert np.allclose(phi.sum(axis=0), 1.0, rtol=0, atol=1e-9)


def test_timestamp_permutation_equivariance_exact():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((4, 9))
    v, w_raw = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    perm = rng.permutation(9)
    assert np.array_equal(quantize_raw(x[:, perm], v, w_raw),
                          quantize_raw(x, v, w_raw)[:, perm])


def test_plain_pipeline_is_order_blind():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((3, 12))
    v, w_raw = rng.standard_normal((5, 3)), rng.standard_normal((5, 3))
    perm = rng.permutation(12)
    a = aggregate(quantize_raw(x, v, w_raw))
    b = aggregate(quantize_raw(x[:, perm], v, w_raw))
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_quantize_gradients():
    rng = np.random.default_rng(15)
    for _ in range(5):
        point = OPS["quantize"].sample(rng)
        report = grad_check(OPS["quantize"].op, point)
        assert report.finite and report.max_rel_err <= 1e-4


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_constant_columns():
    col = np.array([0.2, 0.5, 0.3])
    phi = np.tile(col[:, None], 7)
    assert np.allclose(aggregate(phi), col, atol=1e-15)


def test_aggregate_hand_value():
    assert np.array_equal(aggregate(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])


def test_aggregate_matches_loop_oracle():
    rng = np.random.default_rng(16)
    raw = rng.random((6, 11))
    phi = raw / raw.sum(axis=0, keepdims=True)
    assert np.allclose(aggregate(phi), loop_mean_cols(phi), rtol=0, atol=1e-12)


def test_aggregate_rejects_empty_sequence():
    with pytest.raises(ShapeError, match="N=0"):
        aggregate(np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# codebook initialization


def test_init_codebook_with_full_pool_is_permutation():
    rng = np.random.default_rng(17)
    pool = rng.standard_normal((3, 5))
    v = init_codebook([pool], size=5, seed=123)
    assert v.shape == (5, 3)
    got = sorted(map(tuple, v))
    want = sorted(map(tuple, pool.T))
    assert got == want


def test_init_codebook_deterministic():
    rng = np.random.default_rng(18)
    samples = [rng.standard_normal((4, 6)) for _ in range(3)]
    a = init_codebook(samples, size=8, seed=5)
    b = init_codebook(samples, size=8, seed=5)
    assert np.array_equal(a, b)
    c = init_codebook(samples, size=8, seed=6)
    assert not np.array_equal(a, c)


def test_init_codebook_insufficient_pool():
    with pytest.raises(ValueError, match="pooled"):
        init_codebook([np.zeros((2, 3))], size=4, seed=0)


def test_init_codebook_at_reference_scale():
    rng = np.random.default_rng(19)
    v = init_codebook([rng.standard_normal((8, 300))], size=256, seed=0)
    assert v.shape == (256, 8)
    assert np.all(np.isfinite(v))
