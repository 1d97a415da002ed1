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

The self-attention variants mix per head as ``alpha * phi + (1-alpha) * att``
and concatenate head outputs along the codeword axis, so h heads yield an
(h*K) x N result.  Dropout on the attention matrix is training-only and
inverted (survivors scaled by 1/(1-rate)), so evaluation is a pure identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ShapeError
from .numerics import Array, DiffOp, logistic_scalar, register, swap

MODES = ("input", "codeword", "temporal")
VARIANTS = ("ctsa", "csa", "tsa")


@dataclass
class Attention2DAParams:
    """Directly learned mask parameters; ``w`` is square with pinned diagonal."""

    w: Array            # (n, n) where n is the column count of the operand
    alpha_raw: Array    # (1, 1); mixing strength alpha = logistic(alpha_raw)
    mode: str = "temporal"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"2da mode must be one of {MODES}, got {self.mode!r}")


@dataclass
class AttentionHead:
    wq: Array
    wk: Array
    alpha_raw: Array    # (1, 1)


@dataclass
class SelfAttentionParams:
    heads: list[AttentionHead]
    latent_dim: int
    dropout_rate: float = 0.0

    @classmethod
    def from_flat(cls, arrs, latent_dim: int, dropout_rate: float = 0.0):
        """Heads from the flat order (wq_0, wk_0, alpha_raw_0, wq_1, ...)."""
        heads = [AttentionHead(*arrs[i:i + 3]) for i in range(0, len(arrs), 3)]
        return cls(heads=heads, latent_dim=latent_dim, dropout_rate=dropout_rate)

    def __post_init__(self):
        if self.latent_dim < 1:
            raise ShapeError(f"latent dimension must be >= 1, got {self.latent_dim}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {self.dropout_rate}")


def _alpha(alpha_raw: Array) -> float:
    return logistic_scalar(float(np.asarray(alpha_raw).reshape(())))


def _dalpha_raw(alpha_raw: Array, dalpha: float) -> Array:
    a = _alpha(alpha_raw)
    return np.array([[dalpha * a * (1.0 - a)]])


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


def _dropout(a: Array, rate: float, training: bool, seed) -> tuple[Array, Array | None]:
    """(dropped matrix, mask); the mask is None when dropout is off."""
    if not training or rate == 0.0:
        return a, None
    mask = _dropout_mask(a.shape, rate, seed)
    return a * mask, mask


def attention_dropout(a: Array, rate: float, training: bool, seed) -> Array:
    """Inverted dropout on an attention matrix; identity when evaluating."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    return _dropout(np.asarray(a, dtype=float), rate, training, seed)[0]


def attention_dropout_vjp(a: Array, rate: float, training: bool, seed,
                          upstream: Array) -> Array:
    return _dropout(upstream, rate, training, seed)[0]


register(DiffOp(
    "attention_dropout_train",
    lambda a: attention_dropout(a, 0.3, True, 1234),
    lambda inputs, output, upstream: (attention_dropout_vjp(inputs[0], 0.3, True, 1234, upstream),),
    sample_inputs=lambda rng: [rng.standard_normal((6, 7))],
))


# ---------------------------------------------------------------------------
# directly learned 2-d mask
#
# Every layer below takes one K x N matrix or a (B, K, N) stack.  A forward
# called with a ``cache`` dict fills it with what its VJP needs;
# ``att_2da_vjp`` called without one runs the forward to build it.


def _2da_orient(phi: Array, mode: str) -> Array:
    return phi if mode == "temporal" else swap(phi)


def _2da_pinned(w: Array, n: int) -> Array:
    if w.shape != (n, n):
        raise ShapeError(f"2da: weight is {w.shape}, operand needs ({n}, {n})")
    pinned = np.array(w, dtype=float)
    np.fill_diagonal(pinned, 1.0 / n)
    return pinned


def att_2da(phi: Array, p: Attention2DAParams, cache: dict | None = None) -> Array:
    """Mask-and-mix: ``alpha * (M * softmax_rows(M @ W)) + (1-alpha) * M``.

    Returns a matrix of the same shape and orientation as ``phi``.  The
    diagonal of ``W`` is treated as the constant 1/n regardless of the stored
    values, so those entries are not free parameters.
    """
    phi = numerics.as_stack(phi, "2da input")
    m = _2da_orient(phi, p.mode)
    w = _2da_pinned(p.w, m.shape[-1])
    a = numerics.softmax_rows(m @ w)
    alpha = _alpha(p.alpha_raw)
    out = alpha * (m * a) + (1.0 - alpha) * m
    if cache is not None:
        cache.update(w=w, a=a, alpha=alpha)
    return _2da_orient(out, p.mode)


def att_2da_vjp(phi: Array, p: Attention2DAParams, upstream: Array,
                cache: dict | None = None) -> tuple[Array, Array, Array]:
    """Cotangents of (phi, w, alpha_raw); those of w and alpha_raw sum over a stack."""
    if cache is None:
        cache = {}
        att_2da(phi, p, cache=cache)
    w, a, alpha = cache["w"], cache["a"], cache["alpha"]
    m = _2da_orient(phi, p.mode)
    g = _2da_orient(upstream, p.mode)

    dalpha = float(np.sum(g * (m * a - m)))
    da = alpha * g * m
    dm = alpha * g * a + (1.0 - alpha) * g
    dz = numerics._softmax_rows_vjp(None, a, da)[0]
    dm += dz @ w.T
    dw = numerics.sum_tn(m, dz)
    np.fill_diagonal(dw, 0.0)  # the diagonal is a constant, not a parameter
    return _2da_orient(dm, p.mode), dw, _dalpha_raw(p.alpha_raw, dalpha)


# ---------------------------------------------------------------------------
# self-attention variants
#
# One per-head core serves all three.  Per head, q = M Wq^T and k = Mk Wk^T,
# z = q k^T / sqrt(d), and the mask a = act(z) mixes the operand M:
#
#   variant  M      Mk     act             mix
#   ctsa     phi    phi^T  sigmoid         a * M (elementwise)
#   csa      phi    phi    softmax_rows    a @ M
#   tsa      phi^T  phi^T  softmax_rows    a @ M
#
# Head i of item b draws its dropout mask from seed_b + i.

def projection_widths(variant: str, k: int, n: int) -> tuple[int, int]:
    """Column counts of a head's (wq, wk) for K codewords and N timestamps."""
    return {"ctsa": (n, k), "csa": (n, n), "tsa": (k, k)}[variant]


def _check_head_shapes(variant: str, phi: Array, head: AttentionHead, d: int) -> None:
    q_cols, k_cols = projection_widths(variant, *phi.shape[-2:])
    want_q, want_k = (d, q_cols), (d, k_cols)
    if head.wq.shape != want_q or head.wk.shape != want_k:
        raise ShapeError(
            f"{variant}: head projections are wq {head.wq.shape} / wk {head.wk.shape}; "
            f"phi {phi.shape} with latent dim {d} needs wq {want_q} / wk {want_k}")


def _operand(variant: str, phi: Array) -> Array:
    return swap(phi) if variant == "tsa" else phi


def _self_attention(variant: str, phi: Array, p: SelfAttentionParams, training: bool,
                    seed, cache: dict | None) -> Array:
    phi = numerics.as_stack(phi, f"{variant} input")
    d = p.latent_dim
    m = _operand(variant, phi)
    mk = swap(m) if variant == "ctsa" else m
    act = numerics.sigmoid if variant == "ctsa" else numerics.softmax_rows
    outs, heads = [], []
    for i, head in enumerate(p.heads):
        _check_head_shapes(variant, phi, head, d)
        q = m @ head.wq.T
        k = mk @ head.wk.T
        a = act((q @ swap(k)) / math.sqrt(d))
        a_used, mask = _dropout(a, p.dropout_rate, training, np.asarray(seed) + i)
        alpha = _alpha(head.alpha_raw)
        mixed = a_used * m if variant == "ctsa" else a_used @ m
        outs.append(_operand(variant, alpha * m + (1.0 - alpha) * mixed))
        heads.append({"q": q, "k": k, "a": a, "a_used": a_used, "mask": mask,
                      "mixed": mixed, "alpha": alpha})
    if cache is not None:
        cache.update(heads=heads)
    return np.concatenate(outs, axis=-2)


def self_attention_vjp(variant: str, phi: Array, p: SelfAttentionParams,
                       upstream: Array, cache: dict) -> tuple[Array, ...]:
    """Cotangents of (phi, wq_0, wk_0, alpha_raw_0, wq_1, ...) for the
    ``variant`` forward that filled ``cache``; the weights' sum over a stack."""
    d = p.latent_dim
    kdim = phi.shape[-2]
    m = _operand(variant, phi)
    mk = swap(m) if variant == "ctsa" else m
    act_vjp = numerics._sigmoid_vjp if variant == "ctsa" else numerics._softmax_rows_vjp
    dm = np.zeros_like(m)
    grads: list[Array] = []
    for i, (head, c) in enumerate(zip(p.heads, cache["heads"])):
        g = _operand(variant, upstream[..., i * kdim:(i + 1) * kdim, :])
        q, k, a, a_used, alpha = c["q"], c["k"], c["a"], c["a_used"], c["alpha"]

        dalpha = float(np.sum(g * (m - c["mixed"])))
        if variant == "ctsa":
            dm += alpha * g + (1.0 - alpha) * g * a_used
            da = (1.0 - alpha) * g * m
        else:
            dm += alpha * g + (1.0 - alpha) * (swap(a_used) @ g)
            da = (1.0 - alpha) * (g @ swap(m))
        if c["mask"] is not None:
            da = da * c["mask"]
        dz = act_vjp(None, a, da)[0]
        dq = (dz @ k) / math.sqrt(d)
        dk = (swap(dz) @ q) / math.sqrt(d)
        dm += dq @ head.wq
        dk_m = dk @ head.wk
        dm += swap(dk_m) if variant == "ctsa" else dk_m
        grads += [numerics.sum_tn(dq, m), numerics.sum_tn(dk, mk),
                  _dalpha_raw(head.alpha_raw, dalpha)]
    return (_operand(variant, dm), *grads)


def att_ctsa(phi: Array, p: SelfAttentionParams, training: bool = False,
             seed=0, cache: dict | None = None) -> Array:
    """Joint codeword-temporal sigmoid mask, applied elementwise per head."""
    return _self_attention("ctsa", phi, p, training, seed, cache)


def att_csa(phi: Array, p: SelfAttentionParams, training: bool = False,
            seed=0, cache: dict | None = None) -> Array:
    """Codeword-to-codeword attention in a learned latent space."""
    return _self_attention("csa", phi, p, training, seed, cache)


def att_tsa(phi: Array, p: SelfAttentionParams, training: bool = False,
            seed=0, cache: dict | None = None) -> Array:
    """Timestamp-to-timestamp attention, computed on the transpose."""
    return _self_attention("tsa", phi, p, training, seed, cache)


# ---------------------------------------------------------------------------
# registry bindings (fixed small shapes so the library-wide gradient test can
# sample valid points)

def make_self_attention_op(variant: str, heads: int, latent_dim: int,
                           k: int, n: int, training: bool = False,
                           dropout_rate: float = 0.0, seed: int = 0) -> DiffOp:
    """Bind a variant to fixed head count and shapes as a flat-input DiffOp.

    Input order is (phi, wq_0, wk_0, alpha_raw_0, wq_1, ...).
    """

    def fwd(phi, *arrs):
        p = SelfAttentionParams.from_flat(arrs, latent_dim, dropout_rate)
        return _self_attention(variant, phi, p, training, seed, None)

    def vjp(inputs, output, upstream):
        phi, *arrs = inputs
        p = SelfAttentionParams.from_flat(arrs, latent_dim, dropout_rate)
        cache: dict = {}
        _self_attention(variant, phi, p, training, seed, cache)
        return self_attention_vjp(variant, phi, p, upstream, cache)

    def sample(rng: np.random.Generator) -> list[Array]:
        q_cols, k_cols = projection_widths(variant, k, n)
        arrs = [rng.standard_normal((k, n))]
        for _ in range(heads):
            # fan-in scaling keeps attention logits O(1); saturated softmax
            # tails are outside finite-difference resolution
            arrs += [rng.standard_normal((latent_dim, q_cols)) / math.sqrt(q_cols),
                     rng.standard_normal((latent_dim, k_cols)) / math.sqrt(k_cols),
                     rng.standard_normal((1, 1))]
        return arrs

    suffix = "_train" if training else ""
    return DiffOp(f"att_{variant}_h{heads}{suffix}", fwd, vjp, sample_inputs=sample)


def make_2da_op(mode: str, rows: int, cols: int) -> DiffOp:
    def fwd(phi, w, alpha_raw):
        return att_2da(phi, Attention2DAParams(w=w, alpha_raw=alpha_raw, mode=mode))

    def vjp(inputs, output, upstream):
        phi, w, alpha_raw = inputs
        return att_2da_vjp(phi, Attention2DAParams(w=w, alpha_raw=alpha_raw, mode=mode),
                           upstream)

    side = cols if mode == "temporal" else rows

    def sample(rng: np.random.Generator) -> list[Array]:
        return [rng.standard_normal((rows, cols)),
                rng.standard_normal((side, side)) / math.sqrt(side),
                rng.standard_normal((1, 1))]

    return DiffOp(f"att_2da_{mode}", fwd, vjp, sample_inputs=sample)


for _mode in MODES:
    register(make_2da_op(_mode, 4, 5))
for _variant in VARIANTS:
    register(make_self_attention_op(_variant, heads=2, latent_dim=3, k=4, n=6))
register(make_self_attention_op("csa", heads=1, latent_dim=3, k=4, n=6,
                                training=True, dropout_rate=0.25, seed=99))
