import math
import tracemalloc

import numpy as np
import pytest

from attnbof.attention import (MODES, VARIANTS, _dropout_mask, att_2da, att_2da_vjp, att_csa,
                               att_ctsa, att_tsa, projection_widths, self_attention,
                               self_attention_vjp)
from attnbof.errors import ShapeError
from attnbof.model import ModelConfig
from attnbof.nbof import aggregate

from .oracles import (dense_2da_vjp, dense_self_attention_vjp, loop_2da, loop_csa,
                      loop_ctsa, loop_flat_softmax, loop_tsa)

INF = float("inf")


def alpha_raw(value):
    return np.array([[value]])


def make_heads(rng, variant, k, n, d, heads, araw=0.0):
    """The layers' parameters: (wq, wk, alpha_raw), each stacked over the
    heads, drawn head by head."""
    q_cols, k_cols = projection_widths(variant, k, n)
    per_head = [(rng.standard_normal((d, q_cols)) / math.sqrt(q_cols),
                 rng.standard_normal((d, k_cols)) / math.sqrt(k_cols),
                 alpha_raw(araw)) for _ in range(heads)]
    return [np.stack(arrays) for arrays in zip(*per_head)]


def oracle_heads(ps, alpha):
    """(wq, wk, alpha) per head, the loop oracles' form."""
    return [(wq, wk, alpha) for wq, wk in zip(ps[0], ps[1])]


# ---------------------------------------------------------------------------
# learned-mask attention


def test_2da_zero_alpha_is_identity():
    rng = np.random.default_rng(0)
    phi = rng.random((3, 5))
    w = rng.standard_normal((5, 5))
    assert np.array_equal(att_2da(phi, w, alpha_raw(-INF), "temporal"), phi)


def test_2da_single_timestamp_softmax_is_ones():
    rng = np.random.default_rng(1)
    phi = rng.random((4, 1))
    cache = {}
    assert np.allclose(att_2da(phi, np.array([[3.0]]), alpha_raw(0.37), "temporal",
                               cache=cache), phi, rtol=0, atol=1e-15)
    assert np.array_equal(cache["a"], np.ones((4, 1)))


@pytest.mark.parametrize("mode", MODES)
def test_2da_matches_loop_oracle(mode):
    rng = np.random.default_rng(2)
    phi = rng.random((3, 4))
    side = 4 if mode == "temporal" else 3
    w = rng.standard_normal((side, side))
    raw = 0.4
    alpha = 1.0 / (1.0 + math.exp(-raw))
    assert np.allclose(att_2da(phi, w, alpha_raw(raw), mode), loop_2da(phi, w, alpha, mode),
                       rtol=0, atol=1e-10)


def test_2da_pinned_diagonal_ignores_stored_values():
    rng = np.random.default_rng(3)
    phi = rng.random((3, 4))
    w = rng.standard_normal((4, 4))
    w2 = w.copy()
    np.fill_diagonal(w2, 99.0)
    assert np.array_equal(att_2da(phi, w, alpha_raw(0.2), "temporal"),
                          att_2da(phi, w2, alpha_raw(0.2), "temporal"))


def test_2da_weight_shape_error():
    with pytest.raises(ShapeError):
        att_2da(np.zeros((2, 4)), np.zeros((3, 3)), alpha_raw(0.0), "temporal")


def test_2da_rejects_unknown_mode():
    with pytest.raises(ValueError, match="2da mode"):
        att_2da(np.zeros((2, 4)), np.zeros((4, 4)), alpha_raw(0.0), "diagonal")


# Frozen counterexample: swapping two timestamps does not commute with the
# learned-mask attention (violation ~0.35 in max-norm).  Found by seeded
# random search, then pinned.
COUNTER_PHI = np.array([
    [0.2630917164585356, 0.8619819224911905, 0.3939446880075195, 0.1957098790534071],
    [0.33078619051569325, 0.9027583770087718, 0.02900941679328495, 0.718973947235875],
    [0.8607783959406315, 0.6616123681075947, 0.20674228062328914, 0.065997642149487],
])
COUNTER_W = np.array([
    [-0.49551625088845436, 1.970183106434027, -2.2766854398584098, -1.251506231563418],
    [-1.7703243210409632, 0.5064346987163011, -0.25432490873028957, -0.4258615498963405],
    [-1.0842875477745908, -0.03957857894957022, 0.2001277103941103, -0.15215782422583482],
    [-0.5655680127799586, -1.9547415110292299, -1.1194839890883312, -2.0009092351189612],
])
COUNTER_PERM = [1, 0, 2, 3]


def test_2da_position_sensitivity_counterexample():
    lhs = att_2da(COUNTER_PHI[:, COUNTER_PERM], COUNTER_W, alpha_raw(0.0), "temporal")
    rhs = att_2da(COUNTER_PHI, COUNTER_W, alpha_raw(0.0), "temporal")[:, COUNTER_PERM]
    assert np.abs(lhs - rhs).max() >= 1e-3


def within(got, want, rel=1e-12):
    """``got`` is ``want``'s shape and within ``rel`` of its largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("raw", [0.4, -INF], ids=["alpha-interior", "alpha-0"])
@pytest.mark.parametrize("batch", [None, 3], ids=["item", "stack"])
@pytest.mark.parametrize("mode, pooled", [("temporal", True), ("codeword", True),
                                          *((mode, False) for mode in MODES)],
                         ids=["temporal-pooled", "codeword-pooled",
                              *(f"{mode}-matrix" for mode in MODES)])
def test_2da_against_the_dense_chain(mode, pooled, batch, raw):
    # pooled (the model's temporal and codeword stage): the histogram and its
    # VJP against the mean of the matrix form and the dense VJP of the
    # broadcast cotangent u rᵀ; the matrix form against the dense VJP
    rng = np.random.default_rng(41)
    k, n = 5, 7
    phi = rng.random((k, n) if batch is None else (batch, k, n))
    side = n if mode == "temporal" else k
    w = rng.standard_normal((side, side)) / math.sqrt(side)
    alpha = 1.0 / (1.0 + math.exp(-raw))
    matrix = att_2da(phi, w, alpha_raw(raw), mode)
    cache = {}
    got = att_2da(phi, w, alpha_raw(raw), mode, cache=cache, pooled=pooled)
    assert within(got, aggregate(matrix) if pooled else matrix)
    upstream = rng.standard_normal(got.shape)
    dense = upstream[..., None] / n * np.ones(n) if pooled else upstream
    want_phi, want_w, want_alpha = dense_2da_vjp(phi, w, alpha, mode, dense)
    dphi, dw, dalpha = att_2da_vjp(phi, w, alpha_raw(raw), mode, upstream, cache)
    assert within(dphi, want_phi)
    if raw == -INF:   # alpha = 0: the mask has no cotangent
        assert not dw.any() and not dalpha.any()
    else:
        assert within(dw, want_w)
        assert within(dalpha, [[want_alpha * alpha * (1.0 - alpha)]])
    # the cache's row-stochastic a is M's orientation
    rows, cols = (k, n) if mode == "temporal" else (n, k)
    assert cache["a"].shape == phi.shape[:-2] + (rows, cols)
    assert np.allclose(cache["a"].sum(axis=-1), 1.0, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# joint codeword-temporal self-attention


def test_ctsa_alpha_one_is_identity():
    rng = np.random.default_rng(4)
    phi = rng.random((4, 6))
    ps = make_heads(rng, "ctsa", 4, 6, 3, 1, araw=INF)
    assert np.array_equal(att_ctsa(phi, ps), phi)


def test_ctsa_zero_query_gives_uniform_mask():
    rng = np.random.default_rng(5)
    phi = rng.random((4, 6))
    ps = make_heads(rng, "ctsa", 4, 6, 3, 1, araw=0.0)
    ps[0] = np.zeros_like(ps[0])   # wq
    # sigmoid(0) = 1/2, so the mix collapses to (alpha + (1-alpha)/2) * phi
    assert np.allclose(att_ctsa(phi, ps), 0.75 * phi, rtol=0, atol=1e-15)


def test_ctsa_matches_loop_oracle_two_heads():
    rng = np.random.default_rng(6)
    phi = rng.random((4, 6))
    ps = make_heads(rng, "ctsa", 4, 6, 3, 2, araw=0.3)
    out = att_ctsa(phi, ps)
    assert out.shape == (8, 6)
    alpha = 1.0 / (1.0 + math.exp(-0.3))
    oracle = loop_ctsa(phi, oracle_heads(ps, alpha), 3)
    assert np.allclose(out, oracle, rtol=0, atol=1e-10)


def test_ctsa_mask_entries_strictly_inside_unit_interval():
    rng = np.random.default_rng(7)
    phi = rng.random((5, 7))
    ps = make_heads(rng, "ctsa", 5, 7, 4, 3)
    cache = {}
    att_ctsa(phi, ps, cache=cache)
    a = cache["a"]
    assert a.shape == (3, 5, 7)
    assert np.all((a > 0.0) & (a < 1.0))


def test_ctsa_flat_softmax_variant_normalizes_whole_matrix():
    rng = np.random.default_rng(8)
    phi = rng.random((4, 6))
    ps = make_heads(rng, "ctsa", 4, 6, 3, 1)
    assert math.isclose(loop_flat_softmax(rng.standard_normal((4, 6))).sum(), 1.0)
    out = loop_ctsa(phi, oracle_heads(ps, 0.5), 3, squash=loop_flat_softmax)
    assert out.shape == (4, 6)
    assert not np.allclose(out, att_ctsa(phi, ps))


def test_ctsa_shape_error():
    rng = np.random.default_rng(9)
    ps = make_heads(rng, "ctsa", 4, 6, 3, 1)
    with pytest.raises(ShapeError):
        att_ctsa(rng.random((4, 5)), ps)  # wrong temporal length


def test_self_attention_rejects_zero_latent_dim():
    ps = make_heads(np.random.default_rng(9), "csa", 4, 6, 3, 1)
    ps[0:2] = [np.zeros((1, 0, 6)), np.zeros((1, 0, 6))]   # a zero-row wq and wk
    with pytest.raises(ShapeError):
        self_attention("csa", np.ones((4, 6)), ps)


@pytest.mark.parametrize("case", ["no-arrays", "four-arrays", "two-latent-dims",
                                  "two-head-counts", "column-alpha-raw", "per-head-list"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_self_attention_rejects_misshapen_params(variant, case):
    rng = np.random.default_rng(25)
    phi = rng.random((4, 6))
    ps = make_heads(rng, variant, 4, 6, 3, 2)
    bad = {"no-arrays": [], "four-arrays": ps + ps[2:],
           "two-latent-dims": [ps[0], ps[1][:, :2], ps[2]],
           "two-head-counts": [ps[0], ps[1][:1], ps[2]],
           "column-alpha-raw": ps[:2] + [np.zeros((2, 2, 1))],
           "per-head-list": [p[i] for i in range(2) for p in ps]}[case]
    with pytest.raises(ShapeError):
        self_attention(variant, phi, bad)
    with pytest.raises(ShapeError):
        {"ctsa": att_ctsa, "csa": att_csa, "tsa": att_tsa}[variant](phi, bad)


# ---------------------------------------------------------------------------
# codeword self-attention


def test_csa_single_codeword_is_identity():
    rng = np.random.default_rng(10)
    phi = rng.random((1, 6))
    ps = make_heads(rng, "csa", 1, 6, 3, 1, araw=0.8)
    assert np.allclose(att_csa(phi, ps), phi, rtol=0, atol=1e-15)


def test_csa_alpha_one_is_identity():
    rng = np.random.default_rng(11)
    phi = rng.random((4, 6))
    ps = make_heads(rng, "csa", 4, 6, 3, 1, araw=INF)
    assert np.array_equal(att_csa(phi, ps), phi)


def test_csa_matches_loop_oracle():
    rng = np.random.default_rng(12)
    phi = rng.random((4, 6))
    ps = make_heads(rng, "csa", 4, 6, 3, 1, araw=-0.2)
    alpha = 1.0 / (1.0 + math.exp(0.2))
    oracle = loop_csa(phi, oracle_heads(ps, alpha), 3)
    assert np.allclose(att_csa(phi, ps), oracle, rtol=0, atol=1e-10)


def test_csa_mask_rows_sum_to_one():
    rng = np.random.default_rng(13)
    phi = rng.random((5, 7))
    ps = make_heads(rng, "csa", 5, 7, 4, 2)
    cache = {}
    att_csa(phi, ps, cache=cache)
    a = cache["a"]
    assert a.shape == (2, 5, 5)
    assert np.allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_csa_codeword_permutation_equivariance():
    rng = np.random.default_rng(14)
    phi = rng.random((6, 5))
    ps = make_heads(rng, "csa", 6, 5, 3, 1)
    perm = rng.permutation(6)
    lhs = att_csa(phi[perm], ps)
    rhs = att_csa(phi, ps)[perm]
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# temporal self-attention


def test_tsa_single_timestamp_is_identity():
    rng = np.random.default_rng(15)
    phi = rng.random((3, 1))
    ps = make_heads(rng, "tsa", 3, 1, 4, 2, araw=-0.7)
    out = att_tsa(phi, ps)
    assert np.allclose(out, np.concatenate([phi, phi], axis=0), rtol=0, atol=1e-15)


def test_tsa_alpha_one_replicates_input_per_head():
    rng = np.random.default_rng(16)
    phi = rng.random((3, 5))
    ps = make_heads(rng, "tsa", 3, 5, 4, 2, araw=INF)
    assert np.array_equal(att_tsa(phi, ps), np.concatenate([phi, phi], axis=0))


def test_tsa_matches_loop_oracle_two_heads():
    rng = np.random.default_rng(17)
    phi = rng.random((3, 5))
    ps = make_heads(rng, "tsa", 3, 5, 4, 2, araw=0.1)
    out = att_tsa(phi, ps)
    assert out.shape == (6, 5)
    alpha = 1.0 / (1.0 + math.exp(-0.1))
    oracle = loop_tsa(phi, oracle_heads(ps, alpha), 4)
    assert np.allclose(out, oracle, rtol=0, atol=1e-10)


def test_tsa_mask_rows_sum_to_one():
    rng = np.random.default_rng(18)
    phi = rng.random((4, 6))
    ps = make_heads(rng, "tsa", 4, 6, 3, 2)
    cache = {}
    att_tsa(phi, ps, cache=cache)
    a = cache["a"]
    assert a.shape == (2, 6, 6)
    assert np.allclose(a.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


def test_tsa_temporal_permutation_equivariance():
    rng = np.random.default_rng(19)
    phi = rng.random((4, 8))
    ps = make_heads(rng, "tsa", 4, 8, 3, 2)
    perm = rng.permutation(8)
    lhs = att_tsa(phi[:, perm], ps)
    rhs = att_tsa(phi, ps)[:, perm]
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the model's stage: histograms with the temporal mean folded in


@pytest.mark.parametrize("batch", [None, 3], ids=["item", "stack"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("variant", ["ctsa", "csa", "tsa"])
def test_pooled_stage_is_the_mean_of_the_matrix_form(variant, heads, batch):
    rng = np.random.default_rng(24)
    k, n, d = 5, 7, 3
    phi = rng.random((k, n) if batch is None else (batch, k, n))
    seed = 11 if batch is None else rng.integers(2 ** 31, size=batch)
    matrix_form = {"ctsa": att_ctsa, "csa": att_csa, "tsa": att_tsa}[variant]
    ps = make_heads(rng, variant, k, n, d, heads, araw=0.3)
    for training in (False, True):
        want_cache, cache = {}, {}
        want = aggregate(matrix_form(phi, ps, 0.25, training=training, seed=seed,
                                     cache=want_cache))
        got = self_attention(variant, phi, ps, 0.25, training, seed, cache)
        assert got.shape == want.shape == phi.shape[:-2] + (heads * k,)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert cache["a"].shape[-3] == heads
        assert np.array_equal(cache["a"], want_cache["a"])


@pytest.mark.parametrize("d", [3, 9], ids=["d3", "d9"])   # d=9 is over K=5 and N=7
@pytest.mark.parametrize("batch", [None, 3], ids=["B1", "B3"])
@pytest.mark.parametrize("rate", [0.0, 0.3])
@pytest.mark.parametrize("heads", [1, 2, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_vjp_matches_the_dense_reference(variant, heads, rate, batch, d):
    # the head-stacked rank-one VJP against the per-head dense reference (dP
    # broadcast to full size and the dense softmax/sigmoid VJP), in training
    # mode with and without dropout
    rng = np.random.default_rng(31)
    k, n = 5, 7
    phi = rng.random((k, n) if batch is None else (batch, k, n))
    seed = 11 if batch is None else rng.integers(2 ** 31, size=batch)
    ps = make_heads(rng, variant, k, n, d, heads, araw=0.3)
    ps[2][-1] = -1.1   # the last head's alpha_raw
    cache = {}
    upstream = rng.standard_normal(
        self_attention(variant, phi, ps, rate, True, seed, cache).shape)
    got = self_attention_vjp(variant, phi, ps, upstream, cache)
    side = {"ctsa": (k, n), "csa": (k, k), "tsa": (n, n)}[variant]
    masks = [_dropout_mask(phi.shape[:-2] + side, rate, np.asarray(seed) + i)
             for i in range(heads)]
    dense = dense_self_attention_vjp(variant, phi, list(zip(*ps)), d, masks, upstream)
    want = [dense[0], *(np.stack(dense[1 + j::3]) for j in range(3))]
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("variant", VARIANTS)
def test_vjp_temporaries_grow_linearly_in_the_heads(variant):
    # at B=16, K=16, N=30, d=8 every VJP step runs once over all heads, so
    # three heads' peak is at most three times one head's (no step keeps a
    # per-head copy besides its head-stacked array), and each peak stays
    # within a few stacks of the stage bound, which counts every head
    rng = np.random.default_rng(5)
    phi = rng.random((16, 16, 30))
    peaks = []
    for heads in (1, 3):
        ps = make_heads(rng, variant, 16, 30, 8, heads)
        cache = {}
        upstream = rng.standard_normal(
            self_attention(variant, phi, ps, 0.0, False, 0, cache).shape)
        tracemalloc.start()
        try:
            self_attention_vjp(variant, phi, ps, upstream, cache)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        cfg = ModelConfig(feature_dim=8, classes=3, codewords=16, attention=variant,
                          latent_dim=8, heads=heads, seq_len=30)
        assert peaks[-1] <= 8 * 16 * cfg.stage_values(30) * 8
    assert peaks[1] <= 3 * peaks[0]


# ---------------------------------------------------------------------------
# dropout


def dropout_outputs(seed, rate, training):
    """(output at ``rate``, output without dropout) of every self-attention variant."""
    rng = np.random.default_rng(seed)
    phi = rng.random((4, 5))
    for variant in VARIANTS:
        ps = make_heads(rng, variant, 4, 5, 3, heads=2)
        yield (self_attention(variant, phi, ps, rate, training, 7),
               self_attention(variant, phi, ps))


def test_dropout_rate_zero_is_identity():
    for training in (True, False):
        for got, want in dropout_outputs(20, 0.0, training):
            assert np.array_equal(got, want)


def test_dropout_eval_mode_is_identity():
    for got, want in dropout_outputs(21, 0.6, training=False):
        assert np.array_equal(got, want)


def test_dropout_preserves_mean_in_expectation():
    mask = _dropout_mask((200, 500), 0.2, 99)
    assert abs(mask.mean() - 1.0) < 0.02


def test_dropout_deterministic_given_seed():
    a = _dropout_mask((6, 6), 0.4, 5)
    b = _dropout_mask((6, 6), 0.4, 5)
    c = _dropout_mask((6, 6), 0.4, 6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_rejects_bad_rate():
    ps = make_heads(np.random.default_rng(22), "csa", 4, 5, 3, 1)
    for rate in (1.0, -0.1):
        for training in (False, True):
            with pytest.raises(ValueError, match="dropout rate"):
                self_attention("csa", np.ones((4, 5)), ps, rate, training)
