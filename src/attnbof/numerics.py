"""Dense float64 matrix primitives with hand-written vector-Jacobian products.

Matrices are 2-d ``numpy.ndarray`` of float64, row-major; vectors are 1-d.
A stack of B equal-shape matrices is a 3-d (B, rows, cols) array; the model
layers broadcast over that leading axis.
Each elementary function ``f`` has a plain ``f_vjp`` that maps an upstream
cotangent to the cotangents of its inputs; the sigmoid's is inlined where
the ctsa mask is differentiated.  The model graph is fixed, so there is no
tape; the model's stages chain these VJPs explicitly.  A :class:`DiffOp`
pairs a forward with a VJP over a flat list of array inputs, the form
``grad_check`` validates against central finite differences.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ShapeError

Array = np.ndarray

# The most float64 values (1 GiB) a generated dataset or a model's parameters
# may hold; far above any shipped config.
MAX_VALUES = 2 ** 27
# The most self-attention heads a model may have; far above any shipped
# config.  The layers run the heads as one array axis, but each head still
# costs Python work whatever its size, which MAX_VALUES does not bound:
# Model.build names and draws every head's parameters, and every call takes
# each head's alpha and, in training, draws each (item, head) dropout mask.
# At this many heads (tsa, K = d = 1) Model.build takes ~24 ms on a 2-vCPU
# Xeon VM, ~24 µs a head, and a training loss_and_grad of one N=30 item ~14 ms.
MAX_HEADS = 2 ** 10


@dataclass(frozen=True)
class DiffOp:
    """A differentiable operation: forward value plus vector-Jacobian product.

    ``vjp(inputs, output, upstream)`` returns one cotangent per input.
    Non-array configuration (modes, head counts, dropout seeds) is bound at
    construction time, so every element of ``inputs`` is a real array that
    ``grad_check`` may perturb.
    """

    name: str
    forward: Callable[..., Array]
    vjp: Callable[[Sequence[Array], Array, Array], tuple[Array, ...]]


def as_matrix(a, name: str = "matrix") -> Array:
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-d matrix, got shape {m.shape}")
    return m


def as_stack(a, name: str = "matrix") -> Array:
    """A matrix or a (B, rows, cols) stack of matrices, as float64."""
    m = np.asarray(a, dtype=float)
    if m.ndim not in (2, 3):
        raise ShapeError(f"{name}: expected a matrix or a stack of matrices, "
                         f"got shape {m.shape}")
    return m


def swap(m: Array) -> Array:
    """Transpose of every matrix in a stack (a view)."""
    return m.swapaxes(-1, -2)


def sum_tn(a: Array, b: Array) -> Array:
    """``a_i^T @ b_i`` summed over a stack: (..., R, P), (..., R, Q) -> (P, Q).

    One GEMM over the rows of the whole stack; for plain matrices it is
    ``a.T @ b``.
    """
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


# ---------------------------------------------------------------------------
# elementary ops


@functools.lru_cache(maxsize=64)
def ones(n: int) -> Array:
    """A read-only vector of ``n`` ones, shared by every caller of that length."""
    v = np.ones(n)
    v.flags.writeable = False
    return v


def col_sums(m: Array) -> Array:
    """Sums along axis -2, kept as a length-1 axis: one GEMV against ones,
    which numpy runs several times faster than a reduction across rows."""
    return (ones(m.shape[-2]) @ m)[..., None, :]


def softmax_cols(m: Array, out: Array | None = None) -> Array:
    """Softmax down every column (along axis -2), into ``out`` if given
    (which may be ``m``)."""
    m = np.asarray(m, dtype=float)
    # max subtraction keeps exp in range for entries anywhere in [-700, 700]
    e = np.subtract(m, m.max(axis=-2, keepdims=True), out=out)
    np.exp(e, out=e)
    # each sum holds an exp(0) = 1, so its reciprocal is finite
    e *= 1.0 / col_sums(e)
    return e


def softmax_cols_vjp(s: Array, upstream: Array) -> Array:
    """Cotangent of the input of ``softmax_cols`` with output ``s``."""
    us = upstream * s
    np.subtract(upstream, col_sums(us), out=us)
    us *= s
    return us


def sigmoid(m: Array) -> Array:
    m = np.asarray(m, dtype=float)
    # 1/(1+exp(-m)) is value-correct for the whole double range; the overflow
    # in exp for very negative m lands harmlessly on inf -> 0
    e = np.negative(m)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.reciprocal(e, out=e)


def affine(w: Array, y: Array, b: Array) -> Array:
    """``w @ y + b`` for a vector ``y``, or row-wise for a (B, n) stack."""
    w = as_matrix(w, "affine weight")
    y, b = np.asarray(y, dtype=float), np.asarray(b, dtype=float)
    if (y.ndim not in (1, 2) or b.ndim != 1 or w.shape[1] != y.shape[-1]
            or w.shape[0] != b.shape[0]):
        raise ShapeError(
            f"affine: weight {w.shape}, input {y.shape}, bias {b.shape} do not conform")
    return y @ w.T + b


def affine_vjp(w: Array, y: Array, upstream: Array) -> tuple[Array, Array, Array]:
    """Cotangents of (w, y, b); a stacked input's stay per row, ``w`` and
    ``b`` sum over rows."""
    if upstream.ndim == 1:   # one row: its outer product and itself are the sums
        return upstream[:, None] * y, upstream @ w, upstream.copy()
    return upstream.T @ y, upstream @ w, upstream.sum(axis=0)


def softplus(m: Array) -> Array:
    """log(1 + exp(m)), overflow-safe; derivative is the logistic."""
    return np.logaddexp(0.0, np.asarray(m, dtype=float))


def logistic_scalar(z: float) -> float:
    """Stable scalar logistic; exact 0.0 / 1.0 at -inf / +inf."""
    z = float(z)
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return float(e / (1.0 + e))


# ---------------------------------------------------------------------------
# finite-difference gradient checking

# the seed of the fixed random projection grad_check reduces an output with,
# and the step each input entry is perturbed by
PROJECTION_SEED = 7
EPS = 1e-5


@dataclass
class GradCheckReport:
    """Worst relative error of a DiffOp's VJP against central differences."""

    max_rel_err: float
    per_input: list[float]
    finite: bool


def grad_check(op: DiffOp, point: Sequence[Array]) -> GradCheckReport:
    """Compare ``op.vjp`` against central finite differences at ``point``.

    The output is reduced to a scalar through a fixed random projection, the
    VJP is evaluated once with the projection as upstream cotangent, and each
    input entry is perturbed by +/- EPS.  Relative error uses the denominator
    max(|analytic|, |numeric|, 1e-8).  Any non-finite value fails the check.
    """
    point = [np.array(p, dtype=float) for p in point]
    out = np.asarray(op.forward(*point))
    rng = np.random.default_rng(PROJECTION_SEED)
    r = rng.standard_normal(out.shape)

    def projected() -> float:
        return float(np.sum(r * np.asarray(op.forward(*point))))

    finite = bool(np.all(np.isfinite(out)))
    grads = op.vjp(tuple(point), out, r)
    per_input: list[float] = []
    worst = 0.0
    for i, p in enumerate(point):
        g = np.asarray(grads[i])
        if g.shape != p.shape:
            raise ShapeError(
                f"grad_check({op.name}): cotangent {i} has shape {g.shape}, "
                f"input has {p.shape}")
        finite = finite and bool(np.all(np.isfinite(g)))
        err = 0.0
        for idx in np.ndindex(*p.shape):
            saved = p[idx]
            p[idx] = saved + EPS
            f_plus = projected()
            p[idx] = saved - EPS
            f_minus = projected()
            p[idx] = saved
            numeric = (f_plus - f_minus) / (2.0 * EPS)
            analytic = float(g[idx])
            if not (np.isfinite(numeric) and np.isfinite(analytic)):
                finite = False
                err = np.inf
                break
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            err = max(err, rel)
        per_input.append(err)
        worst = max(worst, err)
    if not finite:
        worst = np.inf
    return GradCheckReport(max_rel_err=worst, per_input=per_input, finite=finite)
