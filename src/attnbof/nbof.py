"""Bag-of-features layer: soft codebook quantization and temporal averaging.

A sequence is a D x N matrix of feature columns.  Quantization maps each
column to a probability vector over K codewords via a Gaussian-style kernel:
the membership of column x_n in codeword k is

    phi[k, n] = exp(-||(x_n - v_k) * w_k||_2) / sum_m exp(-||(x_n - v_m) * w_m||_2)

where v_k is the codeword and w_k = softplus(w_raw_k) a positive per-dimension
shape weight; the unconstrained ``w_raw`` is what the model stores and learns.
Averaging the columns of phi yields a fixed-size histogram regardless of N.
"""

from __future__ import annotations

import numpy as np

from . import numerics
from .errors import ShapeError
from .numerics import Array, softplus

# softplus(W_RAW_UNIT) == 1, the all-ones initial shape weight
W_RAW_UNIT = float(np.log(np.e - 1.0))


# A squared distance below this share of its scale (w^2).x^2 + sum w^2 v^2
# has lost too many digits to cancellation in the GEMM expansion: above it
# the relative error of a distance stays under ~D * 1e-13.
_NEAR_ZERO = 1e-3


@numerics.memo
def _codebook_constants(v: Array, w_raw: Array) -> tuple[Array, ...]:
    """What quantization derives from the codebook alone: ``w``, ``w^2``,
    ``sum_d w^2 v^2``, ``2 w^2 v``, ``w^2 v`` and softplus' = logistic(w_raw);
    computed once per parameter state."""
    w = softplus(w_raw)
    w2 = w * w
    w2v = w2 * v
    return (w, w2, (w2v * v).sum(axis=1, keepdims=True), 2.0 * w2v, w2v,
            numerics.sigmoid(w_raw))


def _weighted_distances(x: Array, v: Array, consts: tuple[Array, ...],
                        x2: Array | None = None) -> Array:
    """||(x_n - v_k) * w_k||_2 for every codeword and column: (..., K, N),
    given the codebook's ``consts`` and, when the caller keeps it,
    ``x2 = x^2``.

    GEMM expansion ``d^2 = (w^2).x^2 - 2 (w^2 v).x + sum_d w^2 v^2``, with no
    (..., K, D, N) difference tensor.  Entries that fall under ``_NEAR_ZERO``
    of their scale are recomputed exactly from the broadcast difference of
    their one column, so a codeword equal to a data column is at distance
    exactly 0.  They are recomputed in chunks whose (chunk, D) difference is
    no larger than the distances themselves; ordinary data takes one chunk.
    """
    w, w2, sum_w2v2, two_w2v = consts[:4]
    scale = w2 @ (x * x if x2 is None else x2)
    scale += sum_w2v2
    d2 = two_w2v @ x
    np.subtract(scale, d2, out=d2)
    scale *= _NEAR_ZERO
    near = d2 <= scale
    if not near.any():   # ordinary data: skip the index scan, ~7x this test's cost
        return np.sqrt(d2, out=d2)
    near = near.ravel().nonzero()[0]
    step = max(1, d2.size // v.shape[1])
    for start in range(0, near.size, step):
        chunk = near[start:start + step]
        *items, k, n = np.unravel_index(chunk, d2.shape)
        t = (numerics.swap(x)[(*items, n)] - v[k]) * w[k]
        d2.flat[chunk] = (t * t).sum(axis=-1)
    return np.sqrt(d2, out=d2)


def quantize_raw(x: Array, v: Array, w_raw: Array, cache: dict | None = None) -> Array:
    """Per-column softmax memberships over codewords; see module docstring.

    ``x`` is one D x N sequence or a (B, D, N) stack.  Differentiable in x, v
    and w_raw.  Columns of the result are points on the K-simplex.  The
    per-column minimum distance is subtracted before exponentiation, which is
    exact (softmax shift invariance) and prevents underflow when all
    distances are large.  A ``cache`` dict is filled with what
    :func:`quantize_vjp` reuses: the distances, ``x^2`` and the codebook's
    constants.  Without one, the memberships are computed in the distance
    buffer, bitwise as with one.
    """
    x = numerics.as_stack(x, "quantize input")
    v = numerics.as_matrix(v, "codewords")
    w_raw = numerics.as_matrix(w_raw, "shape weights")
    if x.shape[-2] != v.shape[1] or v.shape != w_raw.shape:
        raise ShapeError(
            f"quantize: input {x.shape}, codewords {v.shape}, weights {w_raw.shape} "
            "do not conform")
    consts = _codebook_constants(v, w_raw)
    x2 = None if cache is None else x * x
    dist = _weighted_distances(x, v, consts, x2)
    shift = dist.min(axis=-2, keepdims=True)
    if cache is None:   # the distances are not kept: the memberships overwrite them
        e = np.subtract(shift, dist, out=dist)
    else:
        e = shift - dist                          # <= 0, max exactly 0
    np.exp(e, out=e)
    e *= 1.0 / numerics.col_sums(e)               # each sum >= exp(0) = 1
    if cache is not None:
        cache.update(dist=dist, x2=x2, consts=consts)
    return e


def quantize_vjp(inputs, output, upstream, cache: dict, need_dx: bool = True):
    """Cotangents of (x, v, w_raw) of the ``quantize_raw`` call that filled
    ``cache``; those of v and w_raw sum over a stack.  Without ``need_dx``,
    x's is None and not computed.

    With ``coef = ds / dist`` (one masked divide: zero at the apex, where
    the distance is not differentiable), every cotangent is a contraction of
    ``coef`` against x, x^2, v and w^2, so no (K, D, N) difference tensor is
    rebuilt.  dx takes one GEMM of the stacked ``[w^2ᵀ; (w^2 v)ᵀ]`` against
    ``coef``; the per-codeword sums of ``coef`` times x, x^2 and 1 that dv
    and dw need take one batched GEMM of ``coef`` against ``[x; x^2; 1]``.
    """
    x, v, _ = inputs
    dist = cache["dist"]
    w, w2, _, _, w2v, logistic = cache["consts"]
    dim = v.shape[1]
    ds = numerics.softmax_cols_vjp(output, upstream)
    coef = np.divide(ds, dist, out=np.zeros(dist.shape), where=dist > 0.0)
    dx = None
    if need_dx:
        both = np.concatenate((w2.T, w2v.T)) @ coef                  # (..., 2D, N)
        dx = both[..., dim:, :] - x * both[..., :dim, :]
    # concatenate keeps the memory order of an F-ordered x (input-mode 2da hands
    # the quantizer a transposed view), and the GEMM's rounding depends on it
    xs = np.concatenate([x, cache["x2"], np.ones(x.shape[:-2] + (1, x.shape[-1]))], axis=-2)
    sums = coef @ numerics.swap(xs)                                  # (..., K, 2D + 1)
    if sums.ndim == 3:
        sums = sums.sum(axis=0)
    cx, cxx, csum = sums[:, :dim], sums[:, dim:2 * dim], sums[:, 2 * dim:]
    dv = w2 * (cx - v * csum)
    dw = w * (2.0 * v * cx - cxx - v * v * csum)
    return dx, dv, dw * logistic                 # softplus' = logistic


def aggregate(phi: Array) -> Array:
    """Mean of the membership columns: a length-K histogram (one per item of
    a stack)."""
    phi = numerics.as_stack(phi, "aggregate input")
    if phi.shape[-1] == 0:
        raise ShapeError("aggregate: empty sequence (N=0)")
    return phi @ numerics.mean_column(phi.shape[-1])[:, 0]   # one GEMV pass over phi


def aggregate_vjp(inputs, output, upstream):
    (phi,) = inputs
    return (np.divide(upstream[..., None], phi.shape[-1], out=np.empty(phi.shape)),)


def init_codebook(samples: list[Array], size: int, seed: int) -> Array:
    """Seeded (size, D) codewords: ``size`` feature columns drawn without
    replacement from the pooled samples.  ``Model.set_codebook`` writes them
    and resets the shape weights to one."""
    if size < 1:
        raise ValueError(f"init_codebook: size must be >= 1, got {size}")
    pool = np.concatenate([numerics.as_matrix(s, "sample") for s in samples], axis=1)
    total = pool.shape[1]
    if total < size:
        raise ValueError(
            f"init_codebook: need at least {size} pooled columns, got {total}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=size, replace=False)
    return pool[:, picks].T.copy()
