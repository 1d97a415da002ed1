"""Attention layers over quantized sequences.

Input is a K x N membership matrix ``phi`` (codewords by timestamps), or a
(B, K, N) stack of them.  Four re-weighting schemes are provided, each
returning a matrix whose temporal mean is a histogram:

* ``att_2da`` -- a directly learned mask: A is the row softmax of ``M @ W``
  with the diagonal of ``W`` pinned at 1/n, mixed as
  ``alpha * (M * A) + (1-alpha) * M``.  ``M`` is ``phi`` itself (temporal
  mode) or its transpose (codeword mode; input mode applies the same
  computation to the raw feature matrix).
* ``att_ctsa`` -- a joint codeword-by-timestamp mask from the scaled dot
  product of a codeword-side projection ``q = phi @ Wq^T`` and a temporal-side
  projection ``k = phi^T @ Wk^T``, squashed through a sigmoid and applied
  elementwise.
* ``att_csa`` -- codeword-to-codeword attention: both projections act on the
  temporal axis, A, the row softmax of ``q k^T / sqrt(d)``, is K x K and is
  applied by matrix product to promote competition between codewords.
* ``att_tsa`` -- timestamp-to-timestamp attention: the same construction on
  ``phi^T``, giving an N x N mask over timestamps.

The self-attention variants mix per head through one operator,
``P = alpha * I + (1-alpha) * A`` (ctsa: ``alpha + (1-alpha) * A``, applied
elementwise), and stack head outputs along the codeword axis, so h heads
yield an (h*K) x N result; every step runs once over all heads.  The model
runs ``self_attention``, which returns its temporal mean without forming P;
``att_ctsa``/``att_csa``/``att_tsa`` return the matrix.  The cotangent of a
pooled head's P is rank one, so ``self_attention_vjp`` contracts it with one
GEMV instead of a dense softmax VJP.  2da pools in the layer too, with
``pooled=True`` (temporal and codeword modes).  Every scheme computes its
scores transposed, so every softmax normalizes along axis -2.  Dropout on a
head's attention matrix is training-only and inverted (survivors scaled by
1/(1-rate)), so evaluation is a pure identity.  Every VJP reads the cache
its forward filled.

Layers take the model's parameter arrays: ``att_2da`` takes ``w`` and
``alpha_raw`` (alpha = logistic(alpha_raw)); self-attention takes
``ps = (wq, wk, alpha_raw)``, each stacked over the heads, with d being
``wq``'s row count; the model passes strided views of its parameter vector.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .errors import ShapeError
from .numerics import Array, logistic_scalar, swap

MODES = ("input", "codeword", "temporal")
VARIANTS = ("ctsa", "csa", "tsa")


# ---------------------------------------------------------------------------
# dropout


def _dropout_mask(shape: tuple[int, ...], rate: float, seed) -> Array:
    """Inverted-dropout mask for a matrix or a stack of matrices.

    ``seed`` is an int, or one int per matrix of the stack; each matrix's
    mask is drawn from its own seed, so an item's mask does not depend on
    what it is stacked with.
    """
    seeds = np.broadcast_to(np.asarray(seed, dtype=np.int64), shape[:-2]).reshape(-1)
    keep = [np.random.default_rng(int(s)).random(shape[-2:]) >= rate for s in seeds]
    return np.reshape(keep, shape) / (1.0 - rate)


# ---------------------------------------------------------------------------
# directly learned 2-d mask
#
# Every layer below takes one K x N matrix or a (B, K, N) stack.  A forward
# called with a ``cache`` dict fills it with what its VJP needs.
#
# 2da's scores are transposed, Wᵀ Mᵀ, so its softmax runs along axis -2.  In
# temporal mode a stack's Mᵀ = phiᵀ lie side by side as one (1, N, B·K)
# operand: one GEMM, and every max and sum runs over the long B·K axis.
# Otherwise Mᵀ is phi, each item's GEMM contracts over its row axis, and an
# item's output is the same alone or stacked (input mode draws its codebook
# from single items).  Pooled, the output is alpha (M * A) r + (1-alpha) phi r.


def _2da_layout(x: Array, temporal: bool) -> Array:
    """Mᵀ of a (B, rows, cols) stack in the scores' layout."""
    return np.ascontiguousarray(swap(x.reshape(1, -1, x.shape[-1]))) if temporal else x


@numerics.memo
def _2da_constants(w: Array, alpha_raw: Array) -> tuple[Array, float]:
    """W with its diagonal pinned at 1/n, and alpha."""
    pinned = np.array(w, dtype=float)
    np.fill_diagonal(pinned, 1.0 / len(w))
    return pinned, logistic_scalar(alpha_raw.reshape(()))


@numerics.memo
def _head_alphas(alpha_raw: Array) -> tuple[Array, Array]:
    """Every head's alpha and kappa = 1 - alpha, shaped like ``alpha_raw``."""
    alpha = np.array([logistic_scalar(z) for z in alpha_raw.flat]).reshape(alpha_raw.shape)
    return alpha, 1.0 - alpha


def att_2da(phi: Array, w: Array, alpha_raw: Array, mode: str = "temporal",
            cache: dict | None = None, pooled: bool = False) -> Array:
    """Mask-and-mix: ``alpha * (M * A) + (1-alpha) * M``, A the row softmax of
    ``M @ W``, in phi's shape and orientation; with ``pooled``, its column
    mean, a histogram of phi's rows.  ``w`` is (n, n) for an operand M of n
    columns; its diagonal is treated as the constant 1/n regardless of the
    stored values, so those entries are not free parameters.
    """
    if mode not in MODES:
        raise ValueError(f"2da mode must be one of {MODES}, got {mode!r}")
    phi = numerics.as_stack(phi, "2da input")
    x = phi.reshape((-1,) + phi.shape[-2:])
    temporal = mode == "temporal"
    mt = _2da_layout(x, temporal)
    n = mt.shape[-2]
    if w.shape != (n, n):
        raise ShapeError(f"2da: weight is {w.shape}, operand needs ({n}, {n})")
    pinned, alpha = _2da_constants(w, np.asarray(alpha_raw))
    at = pinned.T @ mt
    numerics.softmax_cols(at, out=at)
    masked = mt * at
    mixed = phi_r = None
    if pooled:
        r = numerics.mean_column(x.shape[-1])[:, 0]
        mixed = (r @ masked).reshape(x.shape[:-1]) if temporal else masked @ r
        phi_r = x @ r
        out = (alpha * mixed + (1.0 - alpha) * phi_r).reshape(phi.shape[:-1])
    else:
        out = masked * alpha
        out += (1.0 - alpha) * mt
        out = (swap(out) if temporal else out).reshape(phi.shape)
    if cache is not None:
        cache.update(w=pinned, mt=mt, at=at, alpha=alpha, mixed=mixed, phi_r=phi_r,
                     a=swap(at).reshape(phi.shape[:-2] + (-1, at.shape[-2])))
    return out


def att_2da_vjp(phi: Array, w: Array, alpha_raw: Array, mode: str, upstream: Array,
                cache: dict, need_dphi: bool = True) -> tuple[Array | None, Array, Array]:
    """Cotangents of (phi, w, alpha_raw) of the ``att_2da`` call that filled
    ``cache``; those of w and alpha_raw sum over a stack.  Without
    ``need_dphi``, phi's is None and not computed.  A pooled call's
    cotangent u stands for the matrix's ``u rᵀ``: u/N broadcast along phi's
    columns, so no (B, K, N) cotangent is formed."""
    pinned, mt, at, alpha = (cache[key] for key in ("w", "mt", "at", "alpha"))
    x = phi.reshape((-1,) + phi.shape[-2:])
    temporal, pooled = mode == "temporal", cache["mixed"] is not None
    if pooled:
        g = upstream.reshape(x.shape[:-1]) * (1.0 / x.shape[-1])
        g = g.reshape(1, 1, -1) if temporal else g[..., None]
    else:
        g = _2da_layout(upstream.reshape(x.shape), temporal)
    gm = g * mt                    # G * M: the mask's cotangent, over alpha
    dalpha = float(np.vdot(upstream, cache["mixed"] - cache["phi_r"]) if pooled
                   else np.vdot(gm, at) - gm.sum())
    gm *= alpha
    dz = numerics.softmax_cols_vjp(at, gm)
    del gm                         # with dz's buffer reused below, 2 phi-sized temporaries
    dw = numerics.sum_tn(swap(mt), swap(dz))
    np.fill_diagonal(dw, 0.0)  # the diagonal is a constant, not a parameter
    dphi = None
    if need_dphi:
        dphi = pinned @ dz
        direct = np.multiply(at, alpha, out=dz)   # G * (alpha A + 1 - alpha)
        direct += 1.0 - alpha
        direct *= g
        dphi += direct
        dphi = (swap(dphi) if temporal else dphi).reshape(phi.shape)
    return dphi, dw, np.array([[dalpha * alpha * (1.0 - alpha)]])


# ---------------------------------------------------------------------------
# self-attention variants
#
# One core serves all three, in phi's (K, N) layout, with the heads as an
# array axis: ``ps = (wq, wk, alpha_raw)`` is (h, d, q width), (h, d, k width)
# and (h, 1, 1), and every head-stacked array is (..., h, rows, cols), the
# heads after a stack's items.  q and k project the K rows of phi
# (``phi Wᵀ``, a contiguous (..., h, K, d) array) or its N columns (kept as
# its transpose ``W phi``, a contiguous (..., h, d, N) array, which the GEMMs
# read through a transpose flag), q is scaled by 1/sqrt(d), and
# a = act(q kᵀ) and alpha define one operator P per head:
#
#   variant  q     k     a                     P
#   ctsa     rows  cols  sigmoid, K x N        alpha + (1-alpha) a
#   csa      rows  rows  row softmax, K x K    alpha I + (1-alpha) a
#   tsa      cols  cols  row softmax, N x N    alpha I + (1-alpha) a
#
# A head's output times r is computed without forming P, kappa = 1 - alpha:
#
#   ctsa     (P * phi) r = alpha phi r + kappa (a * phi) r
#   csa      P (phi r)   = alpha phi r + kappa a (phi r)
#   tsa      phi (Pᵀ r)  = phi (kappa aᵀ r + alpha r)
#
# r = 1/N (N x 1) gives the head's histogram without forming its K x N
# output; r = I gives that output, exactly.  a is a_used, the dropped-out a,
# in training.  csa and tsa compute the transposed scores k qᵀ, so their
# softmax (``softmax_cols``) normalizes along axis -2 (the cache's
# row-stochastic ``a`` is a view).  Head i fills rows i*K..(i+1)*K of the
# output and draws item b's dropout mask from seed_b + i.  The VJP takes dq and dk, each in its
# projection's layout, from the scores' cotangent, then ``_project_vjp``.

_PROJECTS_ROWS = {"ctsa": (True, False), "csa": (True, True), "tsa": (False, False)}


def projection_widths(variant: str, k: int, n: int) -> tuple[int, int]:
    """Column counts of a head's (wq, wk) for K codewords and N timestamps."""
    q_rows, k_rows = _PROJECTS_ROWS[variant]
    return (n if q_rows else k), (n if k_rows else k)


def _check_params(variant: str, phi: Array, ps) -> None:
    """``ps`` must be (wq, wk, alpha_raw) shaped (h, d, q_cols), (h, d, k_cols),
    (h, 1, 1) for phi, with h, d >= 1."""
    q_cols, k_cols = projection_widths(variant, *phi.shape[-2:])
    got = [getattr(p, "shape", None) for p in ps]
    h, d = got[0][:2] if len(got) == 3 and len(got[0] or ()) == 3 else (0, 0)
    if min(h, d) < 1 or got != [(h, d, q_cols), (h, d, k_cols), (h, 1, 1)]:
        raise ShapeError(f"{variant}: head parameters are {[np.shape(p) for p in ps]}; phi "
                         f"{phi.shape} needs (wq, wk, alpha_raw) shaped (h, d, {q_cols}), "
                         f"(h, d, {k_cols}), (h, 1, 1), h, d >= 1")


def _project_vjp(phi: Array, w: Array, rows: bool, dproj: Array) -> tuple[Array, Array]:
    """Cotangents of (phi, w) of every head's projection of phi's rows,
    ``phi wᵀ`` (cotangent (..., h, K, d)), or columns, kept as ``w phi``
    (cotangent (..., h, d, N)).  The heads' d rows or columns lie side by
    side, so one GEMM gives phi's, summed over the heads."""
    heads, d, cols = w.shape
    w2 = w.reshape(heads * d, cols)
    if rows:
        side = dproj.swapaxes(-3, -2).reshape(-1, heads * d)     # (items * K, h * d)
        return (side @ w2).reshape(phi.shape), (side.T @ phi.reshape(-1, cols)).reshape(w.shape)
    side = dproj.reshape(dproj.shape[:-3] + (heads * d, -1))     # (..., h * d, N)
    dw = side @ swap(phi)
    return swap(w2) @ side, (dw.sum(axis=0) if dw.ndim == 3 else dw).reshape(w.shape)


def _self_attention(variant: str, phi: Array, ps, dropout_rate: float, training: bool,
                    seed, cache: dict | None, pooled: bool) -> Array:
    """Head outputs times r: (..., h*K) histograms if ``pooled``, else the matrix."""
    phi = numerics.as_stack(phi, f"{variant} input")
    _check_params(variant, phi, ps)
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    (heads, d), n = ps[0].shape[:2], phi.shape[-1]
    q, k = (phi[..., None, :, :] @ swap(w) if rows else swap(w @ phi[..., None, :, :])
            for w, rows in zip(ps, _PROJECTS_ROWS[variant]))
    q *= 1.0 / math.sqrt(d)
    if variant == "ctsa":
        s = numerics.sigmoid(q @ swap(k))
    else:
        s = k @ swap(q)
        numerics.softmax_cols(s, out=s)
    # converts between the scores' layout and the row-stochastic a, both ways
    layout = (lambda m: m) if variant == "ctsa" else swap
    used, mask = s, None
    if training and dropout_rate > 0.0:
        # drawn in the layout of the row-stochastic a, then mapped to s's
        seeds = np.asarray(seed)[..., None] + np.arange(heads)
        mask = layout(_dropout_mask(s.shape, dropout_rate, seeds))
        used = s * mask
    alpha, kappa = _head_alphas(ps[2])
    r = numerics.mean_column(n) if pooled else np.eye(n)
    phi_r = (phi @ r if pooled else phi)[..., None, :, :]
    c = {"q": q, "k": k, "s": s, "a": layout(s), "used": used, "mask": mask,
         "alpha": alpha, "kappa": kappa, "phi_r": phi_r}
    if variant == "tsa":
        c["right"] = right = kappa * (used @ r)      # Pᵀ r
        right += alpha * r
        out = phi[..., None, :, :] @ right
    else:
        if variant == "ctsa":
            c["up"] = used * phi[..., None, :, :]
            mixed = c["up"] @ r if pooled else c["up"]  # (a_used * phi) r
        else:
            mixed = swap(used) @ phi_r                   # a_used (phi r)
        out = mixed * kappa
        out += alpha * phi_r
        c["mixed"] = mixed
    if cache is not None:
        cache.update(c)
    out = out.reshape(phi.shape[:-2] + (heads * phi.shape[-2], r.shape[1]))
    return out[..., 0] if pooled else out


def self_attention(variant: str, phi: Array, ps, dropout_rate: float = 0.0,
                   training: bool = False, seed=0, cache: dict | None = None) -> Array:
    """Per-head histograms, (..., h*K): the temporal mean of ``att_<variant>``
    folded into each head's operator; ``cache`` receives what the VJP reads."""
    return _self_attention(variant, phi, ps, dropout_rate, training, seed, cache, pooled=True)


def self_attention_vjp(variant: str, phi: Array, ps, upstream: Array,
                       cache: dict) -> tuple[Array, ...]:
    """Cotangents of (phi, wq, wk, alpha_raw) of the ``self_attention`` call
    that filled ``cache``, given the histograms' u; the weights' sum over a
    stack and keep the heads axis.

    With kappa = 1 - alpha, a_used's cotangent is kappa dP, and dP is rank
    one: ``c gᵀ`` in s's layout, with c = phi r and g = u for csa, and
    c = phiᵀ u / N and g = 1 for tsa.  The softmax VJP then needs one GEMV,
    ``w = cᵀ a_used`` (csa's forward already holds it), and gives the scores'
    cotangent ``kappa (a_used * c - s * wᵀ) * gᵀ``; alpha's is ``g·(c - w)``.
    ctsa's ``dP = (u rᵀ) * phi`` makes its scores' cotangent
    ``kappa (u/N) * (a_used * phi) * (1 - s)`` and alpha's
    ``u·(phi r - (a_used * phi) r)``.  The scores' cotangent gives dq and
    dk, and each projection's VJP runs on the side that projection took."""
    heads, d = ps[0].shape[:2]
    kdim, n = phi.shape[-2:]
    q, k, s, used, alpha, kappa, phi_r = (cache[key] for key in
                                          ("q", "k", "s", "used", "alpha", "kappa", "phi_r"))
    u = upstream.reshape(upstream.shape[:-1] + (heads, kdim, 1))
    if variant == "ctsa":
        un = u / n
        direct = (used * (kappa * un)).sum(axis=-3)   # Σ (P * u rᵀ): P = alpha + kappa a_used
        direct += (alpha * un).sum(axis=-3)
        dalpha = swap(u) @ (phi_r - cache["mixed"])
        ds = 1.0 - s
        ds *= cache["up"]
        ds *= kappa * un
    else:
        if variant == "csa":
            direct = ((kappa * (used @ u) + alpha * u) / n).sum(axis=-3)   # Σ Pᵀ u rᵀ
            cv, w, g = phi_r, cache["mixed"], swap(u)
            dalpha = swap(u) @ (cv - w)
        else:
            direct = swap(u[..., 0]) @ cache["right"][..., 0]          # Σ u (Pᵀ r)ᵀ
            cv = (swap(phi)[..., None, :, :] @ u) / n                   # (..., h, N, 1)
            w, g = swap(used) @ cv, None
            dalpha = (cv - w).sum(axis=-2, keepdims=True)
        kc, kw = kappa * cv, kappa * swap(w)
        if cache["mask"] is None:
            ds = kc - kw
            ds *= s
        else:
            ds = used * kc
            ds -= s * kw
        if g is not None:
            ds *= g
    if variant == "ctsa":               # the scores are q kᵀ; dk is kept transposed
        dq, dk = ds @ k, swap(q) @ ds
    elif variant == "csa":              # k qᵀ
        dq, dk = swap(ds) @ k, ds @ q
    else:                               # k qᵀ; dq and dk are kept transposed
        dq, dk = swap(k) @ ds, swap(q) @ swap(ds)
    dq *= 1.0 / math.sqrt(d)            # the scores took q / sqrt(d)
    del ds                              # freed before the projections' cotangents
    (dphi, dwq), (dphi_k, dwk) = (_project_vjp(phi, w, rows, dproj) for w, rows, dproj
                                  in zip(ps, _PROJECTS_ROWS[variant], (dq, dk)))
    dphi += dphi_k
    dphi += direct
    if dalpha.ndim == 4:                # the stack's items
        dalpha = dalpha.sum(axis=0)
    return dphi, dwq, dwk, dalpha * alpha * kappa


def att_ctsa(phi: Array, ps, dropout_rate: float = 0.0, training: bool = False,
             seed=0, cache: dict | None = None) -> Array:
    """Joint codeword-temporal sigmoid mask, applied elementwise per head."""
    return _self_attention("ctsa", phi, ps, dropout_rate, training, seed, cache, pooled=False)


def att_csa(phi: Array, ps, dropout_rate: float = 0.0, training: bool = False,
            seed=0, cache: dict | None = None) -> Array:
    """Codeword-to-codeword attention in a learned latent space."""
    return _self_attention("csa", phi, ps, dropout_rate, training, seed, cache, pooled=False)


def att_tsa(phi: Array, ps, dropout_rate: float = 0.0, training: bool = False,
            seed=0, cache: dict | None = None) -> Array:
    """Timestamp-to-timestamp attention, computed on the transpose."""
    return _self_attention("tsa", phi, ps, dropout_rate, training, seed, cache, pooled=False)
