"""Attention layers over quantized sequences.

Input is a K x N membership matrix ``phi`` (codewords by timestamps), or a
(B, K, N) stack of them.  Four re-weighting schemes are provided, each
returning a matrix that downstream averaging turns into a histogram:

* ``att_2da`` -- a directly learned mask: ``A = softmax_rows(M @ W)`` with the
  diagonal of ``W`` pinned at 1/n, mixed as ``alpha * (M * A) + (1-alpha) * M``.
  ``M`` is ``phi`` itself (temporal mode) or its transpose (codeword mode;
  input mode applies the same computation to the raw feature matrix).
* ``att_ctsa`` -- a joint codeword-by-timestamp mask from the scaled dot
  product of a codeword-side projection ``q = phi @ Wq^T`` and a temporal-side
  projection ``k = phi^T @ Wk^T``, squashed through a sigmoid and applied
  elementwise.
* ``att_csa`` -- codeword-to-codeword attention: both projections act on the
  temporal axis, ``A = softmax_rows(q k^T / sqrt(d))`` is K x K and is applied
  by matrix product to promote competition between codewords.
* ``att_tsa`` -- timestamp-to-timestamp attention: the same construction on
  ``phi^T``, giving an N x N mask over timestamps.

The self-attention variants mix per head through one operator,
``P = alpha * I + (1-alpha) * A`` (ctsa: ``alpha + (1-alpha) * A``, applied
elementwise), and stack head outputs along the codeword axis, so h heads
yield an (h*K) x N result.  The model runs ``self_attention``, which returns
its temporal mean without forming P; ``att_ctsa``/``att_csa``/``att_tsa``
return the matrix.  The cotangent of a pooled head's P is rank one, so
``self_attention_vjp`` contracts it with one GEMV instead of a dense softmax
VJP.  Dropout on a head's attention matrix is training-only and inverted
(survivors scaled by 1/(1-rate)), so evaluation is a pure identity.  Every
VJP reads the cache its forward filled, alpha included.  Each projection,
q or k, is one GEMM on the side of phi its weight does not span, forward and
backward, in every variant.

Layers take the model's parameter arrays: ``att_2da`` takes ``w`` and
``alpha_raw`` (alpha = logistic(alpha_raw)); self-attention takes the list
``ps = [wq_0, wk_0, alpha_raw_0, wq_1, ...]``, with d being ``wq``'s row count.
"""

from __future__ import annotations

import math

import numpy as np

from . import numerics
from .errors import ShapeError
from .numerics import Array, logistic_scalar, swap

MODES = ("input", "codeword", "temporal")
VARIANTS = ("ctsa", "csa", "tsa")


def _alpha(alpha_raw: Array) -> float:
    return logistic_scalar(float(np.asarray(alpha_raw).reshape(())))


def _dalpha_raw(alpha: float, dalpha: float) -> Array:
    """Cotangent of alpha_raw, given the forward's alpha = logistic(alpha_raw)."""
    return np.array([[dalpha * alpha * (1.0 - alpha)]])


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


def _2da_orient(phi: Array, mode: str) -> Array:
    return phi if mode == "temporal" else swap(phi)


def _2da_pinned(w: Array, n: int) -> Array:
    if w.shape != (n, n):
        raise ShapeError(f"2da: weight is {w.shape}, operand needs ({n}, {n})")
    pinned = np.array(w, dtype=float)
    np.fill_diagonal(pinned, 1.0 / n)
    return pinned


def att_2da(phi: Array, w: Array, alpha_raw: Array, mode: str = "temporal",
            cache: dict | None = None) -> Array:
    """Mask-and-mix: ``alpha * (M * softmax_rows(M @ W)) + (1-alpha) * M``.

    Returns a matrix of the same shape and orientation as ``phi``.  ``w`` is
    (n, n) for an operand M of n columns; its diagonal is treated as the
    constant 1/n regardless of the stored values, so those entries are not
    free parameters.
    """
    if mode not in MODES:
        raise ValueError(f"2da mode must be one of {MODES}, got {mode!r}")
    phi = numerics.as_stack(phi, "2da input")
    m = _2da_orient(phi, mode)
    pinned = _2da_pinned(w, m.shape[-1])
    a = numerics.softmax_rows(m @ pinned)
    alpha = _alpha(alpha_raw)
    out = alpha * (m * a) + (1.0 - alpha) * m
    if cache is not None:
        cache.update(w=pinned, a=a, alpha=alpha)
    return _2da_orient(out, mode)


def att_2da_vjp(phi: Array, w: Array, alpha_raw: Array, mode: str, upstream: Array,
                cache: dict) -> tuple[Array, Array, Array]:
    """Cotangents of (phi, w, alpha_raw) of the ``att_2da`` call that filled
    ``cache``; those of w and alpha_raw sum over a stack."""
    pinned, a, alpha = cache["w"], cache["a"], cache["alpha"]
    m = _2da_orient(phi, mode)
    g = _2da_orient(upstream, mode)

    dalpha = float(np.sum(g * (m * a - m)))
    da = alpha * g * m
    dm = alpha * g * a + (1.0 - alpha) * g
    dz = numerics.softmax_rows_vjp(a, da)
    dm += dz @ pinned.T
    dw = numerics.sum_tn(m, dz)
    np.fill_diagonal(dw, 0.0)  # the diagonal is a constant, not a parameter
    return _2da_orient(dm, mode), dw, _dalpha_raw(alpha, dalpha)


# ---------------------------------------------------------------------------
# self-attention variants
#
# One per-head core serves all three, in phi's (K, N) layout.  Head i takes
# ``ps[3i:3i+3] = (wq, wk, alpha_raw)``; wq and wk are d x (q or k width),
# with d their row count.  q and k project the K rows of phi (``phi Wᵀ``) or
# its N columns (``(W phi)ᵀ``), q is scaled by 1/sqrt(d), and a = act(q kᵀ)
# and alpha define one operator P:
#
#   variant  q     k     a                     P
#   ctsa     rows  cols  sigmoid, K x N        alpha + (1-alpha) a
#   csa      rows  rows  softmax_rows, K x K   alpha I + (1-alpha) a
#   tsa      cols  cols  softmax_rows, N x N   alpha I + (1-alpha) a
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
# softmax normalizes along axis -2 (the cache's row-stochastic ``a`` is a
# view).  Head i writes rows i*K..(i+1)*K of one output; for item b it draws
# its dropout mask from seed_b + i.  The VJP takes dq and dk from the scores'
# cotangent and runs ``_project_vjp`` once per projection, on its own side.

_PROJECTS_ROWS = {"ctsa": (True, False), "csa": (True, True), "tsa": (False, False)}


def projection_widths(variant: str, k: int, n: int) -> tuple[int, int]:
    """Column counts of a head's (wq, wk) for K codewords and N timestamps."""
    q_rows, k_rows = _PROJECTS_ROWS[variant]
    return (n if q_rows else k), (n if k_rows else k)


def _check_params(variant: str, phi: Array, ps) -> None:
    """``ps`` must be (wq, wk, alpha_raw) per head, at least one head, shaped
    (d, q_cols), (d, k_cols), (1, 1) for phi with one d >= 1."""
    d = np.shape(ps[0])[0] if ps else 0
    q_cols, k_cols = projection_widths(variant, *phi.shape[-2:])
    want = [(d, q_cols), (d, k_cols), (1, 1)] * (len(ps) // 3)
    if d < 1 or len(ps) % 3 or [getattr(p, "shape", None) for p in ps] != want:
        raise ShapeError(
            f"{variant}: head parameters are {[np.shape(p) for p in ps]}; phi {phi.shape} "
            f"needs (wq, wk, alpha_raw) per head shaped (d, {q_cols}), (d, {k_cols}), "
            "(1, 1), d >= 1")


def _project_vjp(phi: Array, phi_t: Array, w: Array, rows: bool,
                 dproj: Array) -> tuple[Array, Array]:
    """Cotangents of (phi, w) of ``phi wᵀ`` (rows) or ``(w phi)ᵀ``, given
    ``phi_t = swap(phi)``; that of w sums over a stack."""
    if rows:
        return dproj @ w, numerics.sum_tn(dproj, phi)
    return w.T @ swap(dproj), numerics.sum_tn(dproj, phi_t)


def _self_attention(variant: str, phi: Array, ps, dropout_rate: float, training: bool,
                    seed, cache: dict | None, pooled: bool) -> Array:
    """Head outputs times r: (..., h*K) histograms if ``pooled``, else the matrix."""
    phi = numerics.as_stack(phi, f"{variant} input")
    _check_params(variant, phi, ps)
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    kdim, n = phi.shape[-2:]
    q_rows, k_rows = _PROJECTS_ROWS[variant]
    scale = 1.0 / math.sqrt(ps[0].shape[0])
    # converts between the scores' layout and the row-stochastic a, both ways
    layout = (lambda m: m) if variant == "ctsa" else swap
    r = numerics.ones(n)[:, None] * (1.0 / n) if pooled else np.eye(n)
    phi_r = phi @ r if pooled else phi
    out = np.empty(phi.shape[:-2] + (len(ps) // 3 * kdim, r.shape[1]))
    heads: list[dict] = []
    for i, (wq, wk, alpha_raw) in enumerate(zip(ps[0::3], ps[1::3], ps[2::3])):
        q = (phi @ wq.T if q_rows else swap(wq @ phi)) * scale
        k = phi @ wk.T if k_rows else swap(wk @ phi)
        if variant == "ctsa":
            s = numerics.sigmoid(q @ swap(k))
        else:
            s = numerics.softmax_rows(k @ swap(q), axis=-2)
        used, mask = s, None
        if training and dropout_rate > 0.0:
            # drawn in the layout of the row-stochastic a, then mapped to s's
            mask = layout(_dropout_mask(s.shape, dropout_rate, np.asarray(seed) + i))
            used = s * mask
        alpha = _alpha(alpha_raw)
        rows = out[..., i * kdim:(i + 1) * kdim, :]
        c = {"q": q, "k": k, "s": s, "a": layout(s), "used": used, "mask": mask,
             "alpha": alpha}
        if variant == "tsa":
            c["right"] = right = (1.0 - alpha) * (used @ r)     # Pᵀ r
            right += alpha * r
            np.matmul(phi, right, out=rows)
        else:
            if variant == "ctsa":
                c["up"] = used * phi
                mixed = c["up"] @ r if pooled else c["up"]     # (a_used * phi) r
            else:
                mixed = swap(used) @ phi_r                      # a_used (phi r)
            np.multiply(mixed, 1.0 - alpha, out=rows)
            rows += alpha * phi_r
            c["mixed"] = mixed
        if cache is not None:
            heads.append(c)
    if cache is not None:
        cache.update(heads=heads, phi_r=phi_r)
    return out[..., 0] if pooled else out


def self_attention(variant: str, phi: Array, ps, dropout_rate: float = 0.0,
                   training: bool = False, seed=0, cache: dict | None = None) -> Array:
    """Per-head histograms, (..., h*K): the temporal mean of ``att_<variant>``
    folded into each head's operator; ``cache`` receives what the VJP reads."""
    return _self_attention(variant, phi, ps, dropout_rate, training, seed, cache, pooled=True)


def self_attention_vjp(variant: str, phi: Array, ps, upstream: Array,
                       cache: dict) -> tuple[Array, ...]:
    """Cotangents of (phi, *ps) = (phi, wq_0, wk_0, alpha_raw_0, wq_1, ...) of
    the ``self_attention`` call that filled ``cache``, given the histograms'
    u; the weights' sum over a stack.

    With kappa = 1 - alpha, a_used's cotangent is kappa dP, and dP is rank
    one: ``c gᵀ`` in s's layout, with c = phi r and g = u for csa, and
    c = phiᵀ u / N and g = 1 for tsa.  The softmax VJP then needs one GEMV,
    ``w = cᵀ a_used`` (csa's forward already holds it), and gives the scores'
    cotangent ``kappa (a_used * c - s * wᵀ) * gᵀ``; alpha's is ``g·(c - w)``.
    ctsa's ``dP = (u rᵀ) * phi`` makes its scores' cotangent
    ``kappa (u/N) * (a_used * phi) * (1 - s)`` and alpha's
    ``u·(phi r - (a_used * phi) r)``.  The scores' cotangent gives dq and
    dk, and each projection's VJP runs on the side that projection took."""
    kdim, n = phi.shape[-2:]
    q_rows, k_rows = _PROJECTS_ROWS[variant]
    scale = 1.0 / math.sqrt(ps[0].shape[0])
    phi_t, phi_r = swap(phi), cache["phi_r"]
    dphi = np.zeros(phi.shape)
    grads: list[Array] = []
    for i, c in enumerate(cache["heads"]):
        u = upstream[..., i * kdim:(i + 1) * kdim, None]          # (..., K, 1)
        q, k, s, used, alpha = c["q"], c["k"], c["s"], c["used"], c["alpha"]
        kappa = 1.0 - alpha
        if variant == "ctsa":
            un = u / n
            dphi += used * (kappa * un)         # (P * u rᵀ): P = alpha + kappa a_used
            dphi += alpha * un
            dalpha = np.vdot(u, phi_r - c["mixed"])
            ds = 1.0 - s
            ds *= c["up"]
            ds *= kappa * un
        else:
            if variant == "csa":
                dphi += (kappa * (used @ u) + alpha * u) / n     # Pᵀ u rᵀ
                cv, w, g = phi_r, c["mixed"], swap(u)
                dalpha = np.vdot(u, cv - w)
            else:
                dphi += u * swap(c["right"])
                cv = (phi_t @ u) / n                             # (..., N, 1)
                w, g = swap(used) @ cv, None
                dalpha = (cv - w).sum()
            kc, kw = kappa * cv, kappa * swap(w)
            if c["mask"] is None:
                ds = kc - kw
                ds *= s
            else:
                ds = used * kc
                ds -= s * kw
            if g is not None:
                ds *= g
        # ctsa's scores are q kᵀ, csa's and tsa's k qᵀ
        dq, dk = (ds @ k, swap(ds) @ q) if variant == "ctsa" else (swap(ds) @ k, ds @ q)
        dq *= scale                     # the scores took q / sqrt(d)
        wq, wk = ps[3 * i:3 * i + 2]
        dp, dwq = _project_vjp(phi, phi_t, wq, q_rows, dq)
        dphi += dp
        dp, dwk = _project_vjp(phi, phi_t, wk, k_rows, dk)
        dphi += dp
        grads += [dwq, dwk, _dalpha_raw(alpha, float(dalpha))]
        del ds, dq, dk, dp      # freed before the next head allocates its own
    return (dphi, *grads)


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
