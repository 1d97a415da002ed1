"""Independent reference implementations used as test oracles.

Everything here shares no code path with the library.  The forward
references are written with explicit Python loops and scalar math;
``dense_self_attention_vjp`` and ``dense_2da_vjp`` are the dense matrix
forms of the self-attention and 2da VJPs, against which the library's
rank-one and transposed-layout forms are pinned, and
``padded_window_patches`` the zero-pad-and-copy construction of the conv
patches that the library's direct fill replaced.
"""

import math
from functools import partial

import numpy as np


def loop_matmul(a, b):
    rows, inner = a.shape
    cols = b.shape[1]
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            acc = 0.0
            for k in range(inner):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def loop_softmax_rows(m):
    out = np.zeros_like(m, dtype=float)
    for i in range(m.shape[0]):
        biggest = max(m[i, j] for j in range(m.shape[1]))
        exps = [math.exp(m[i, j] - biggest) for j in range(m.shape[1])]
        total = sum(exps)
        for j in range(m.shape[1]):
            out[i, j] = exps[j] / total
    return out


def loop_mean_cols(m):
    rows, cols = m.shape
    out = np.zeros(rows)
    for i in range(rows):
        acc = 0.0
        for j in range(cols):
            acc += m[i, j]
        out[i] = acc / cols
    return out


def loop_distances(x, v, w):
    """K x N matrix of ||(x_n - v_k) * w_k||_2; ``w`` is the effective
    (already positive) shape weight."""
    dim, length = x.shape
    k = v.shape[0]
    out = np.zeros((k, length))
    for n in range(length):
        for c in range(k):
            acc = 0.0
            for i in range(dim):
                acc += ((x[i, n] - v[c, i]) * w[c, i]) ** 2
            out[c, n] = math.sqrt(acc)
    return out


def loop_quantize(x, v, w):
    """Membership of each column over codewords; ``w`` is the effective
    (already positive) shape weight."""
    k, length = v.shape[0], x.shape[1]
    dist = loop_distances(x, v, w)
    out = np.zeros((k, length))
    for n in range(length):
        dists = [dist[c, n] for c in range(k)]
        weights = [math.exp(-d) for d in dists]
        total = sum(weights)
        for c in range(k):
            out[c, n] = weights[c] / total
    return out


def loop_2da(phi, w, alpha, mode):
    """Directly learned mask: row softmax of (M @ W) with diag(W) = 1/n, mixed
    as alpha * (M * A) + (1 - alpha) * M; M is phi or its transpose."""
    m = phi if mode == "temporal" else phi.T
    n = m.shape[1]
    wp = w.copy()
    for i in range(n):
        wp[i, i] = 1.0 / n
    a = loop_softmax_rows(loop_matmul(m, wp))
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        for j in range(m.shape[1]):
            out[i, j] = alpha * m[i, j] * a[i, j] + (1.0 - alpha) * m[i, j]
    return out if mode == "temporal" else out.T


def _loop_sigmoid(z):
    out = np.zeros_like(z)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            out[i, j] = 1.0 / (1.0 + math.exp(-z[i, j]))
    return out


def loop_flat_softmax(z):
    """Softmax over all entries of a matrix at once: a ctsa mask under which
    codewords and timestamps compete jointly, for comparison with the
    sigmoid mask."""
    rows, cols = z.shape
    biggest = max(z[i, j] for i in range(rows) for j in range(cols))
    out = np.zeros_like(z)
    total = 0.0
    for i in range(rows):
        for j in range(cols):
            out[i, j] = math.exp(z[i, j] - biggest)
            total += out[i, j]
    return out / total


def loop_ctsa(phi, heads, d, squash=_loop_sigmoid):
    """heads: list of (wq, wk, alpha) with wq (d, N) and wk (d, K); ``squash``
    maps the scaled scores to the mask."""
    k, n = phi.shape
    pieces = []
    for wq, wk, alpha in heads:
        q = loop_matmul(phi, wq.T)          # (K, d)
        key = loop_matmul(phi.T, wk.T)      # (N, d)
        z = loop_matmul(q, key.T) / math.sqrt(d)
        a = squash(z)
        out = np.zeros((k, n))
        for i in range(k):
            for j in range(n):
                out[i, j] = alpha * phi[i, j] + (1.0 - alpha) * a[i, j] * phi[i, j]
        pieces.append(out)
    return np.concatenate(pieces, axis=0)


def loop_csa(phi, heads, d):
    """heads: list of (wq, wk, alpha), both projections (d, N)."""
    k, n = phi.shape
    pieces = []
    for wq, wk, alpha in heads:
        q = loop_matmul(phi, wq.T)
        key = loop_matmul(phi, wk.T)
        a = loop_softmax_rows(loop_matmul(q, key.T) / math.sqrt(d))  # (K, K)
        mixed = loop_matmul(a, phi)
        out = np.zeros((k, n))
        for i in range(k):
            for j in range(n):
                out[i, j] = alpha * phi[i, j] + (1.0 - alpha) * mixed[i, j]
        pieces.append(out)
    return np.concatenate(pieces, axis=0)


def loop_tsa(phi, heads, d):
    """heads: list of (wq, wk, alpha), both projections (d, K)."""
    k, n = phi.shape
    phi_t = phi.T
    pieces = []
    for wq, wk, alpha in heads:
        q = loop_matmul(phi_t, wq.T)
        key = loop_matmul(phi_t, wk.T)
        a = loop_softmax_rows(loop_matmul(q, key.T) / math.sqrt(d))  # (N, N)
        mixed = loop_matmul(a, phi_t)
        out_t = np.zeros((n, k))
        for i in range(n):
            for j in range(k):
                out_t[i, j] = alpha * phi_t[i, j] + (1.0 - alpha) * mixed[i, j]
        pieces.append(out_t.T)
    return np.concatenate(pieces, axis=0)


def dense_self_attention_vjp(variant, phi, heads, d, masks, upstream):
    """Cotangents (phi, wq_0, wk_0, alpha_raw_0, wq_1, ...) of the pooled
    self-attention histograms ``(P * phi) r`` (ctsa), ``P phi r`` (csa) or
    ``phi Pᵀ r`` (tsa), r = 1/N, given their cotangent ``upstream``.

    Each head forms its operator ``P = alpha I + (1-alpha) (A * mask)`` (ctsa:
    ``alpha + ...``) and the full cotangent dP, then runs the dense sigmoid
    or row-softmax VJP over it.  ``phi`` is (K, N) or (B, K, N); ``heads`` is
    a list of (wq, wk, alpha_raw); ``masks`` holds one mask per head in A's
    layout.
    """
    swap = partial(np.swapaxes, axis1=-1, axis2=-2)
    kdim, n = phi.shape[-2:]
    r = np.full((n, 1), 1.0 / n)
    q_src = phi if variant in ("ctsa", "csa") else swap(phi)
    k_src = phi if variant == "csa" else swap(phi)
    dphi = np.zeros_like(phi)
    grads = []
    for i, ((wq, wk, alpha_raw), mask) in enumerate(zip(heads, masks)):
        alpha = 1.0 / (1.0 + math.exp(-float(alpha_raw[0, 0])))
        u = upstream[..., i * kdim:(i + 1) * kdim, None]
        q, k = q_src @ wq.T, k_src @ wk.T
        z = q @ swap(k) / math.sqrt(d)
        if variant == "ctsa":
            a = 1.0 / (1.0 + np.exp(-z))
            eye = 1.0
        else:
            e = np.exp(z - z.max(axis=-1, keepdims=True))
            a = e / e.sum(axis=-1, keepdims=True)
            eye = np.eye(a.shape[-1])
        used = a * mask
        p = alpha * eye + (1.0 - alpha) * used
        if variant == "ctsa":
            dp = (u @ r.T) * phi
            dphi += p * (u @ r.T)
        elif variant == "csa":
            dp = u @ swap(phi @ r)
            dphi += (swap(p) @ u) @ r.T
        else:
            dp = r @ swap(swap(phi) @ u)
            dphi += u @ swap(swap(p) @ r)
        dalpha = float(np.sum(dp * (eye - used)))
        da = (1.0 - alpha) * dp * mask
        if variant == "ctsa":
            dz = da * a * (1.0 - a)
        else:
            dz = a * (da - (da * a).sum(axis=-1, keepdims=True))
        dz /= math.sqrt(d)
        dq, dk = dz @ k, swap(dz) @ q
        for dproj, w, src in ((dq, wq, q_src), (dk, wk, k_src)):
            dsrc = dproj @ w
            dphi += dsrc if src is phi else swap(dsrc)
            grads.append((swap(dproj) @ src).reshape(-1, *w.shape).sum(axis=0))
        grads.append(np.array([[dalpha * alpha * (1.0 - alpha)]]))
    return (dphi, *grads)


def dense_2da_vjp(phi, w, alpha, mode, upstream):
    """Cotangents (phi, w, alpha) of the 2da output matrix
    ``alpha (M * A) + (1-alpha) M`` given its cotangent ``upstream``, in M's
    orientation: A is the row softmax of ``M W`` with diag(W) = 1/n, M is phi
    (temporal mode) or its transpose.  ``phi`` is (K, N) or (B, K, N); the
    cotangents of w and alpha sum over a stack, and alpha's is taken with
    respect to alpha itself."""
    swap = partial(np.swapaxes, axis1=-1, axis2=-2)
    m = phi if mode == "temporal" else swap(phi)
    g = upstream if mode == "temporal" else swap(upstream)
    n = m.shape[-1]
    wp = w.copy()
    np.fill_diagonal(wp, 1.0 / n)
    z = m @ wp
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    da = alpha * g * m
    dz = a * (da - (da * a).sum(axis=-1, keepdims=True))
    dw = (swap(m) @ dz).reshape(-1, n, n).sum(axis=0)
    np.fill_diagonal(dw, 0.0)
    dm = alpha * g * a + (1.0 - alpha) * g + dz @ wp.T
    dalpha = float(np.sum(g * (m * a - m)))
    return (dm if mode == "temporal" else swap(dm)), dw, dalpha


def loop_conv1d_relu(x, k3, bias):
    """Same-length zero-padded temporal convolution, then max(0, .).
    k3 has shape (channels, in_rows, width)."""
    dim, length = x.shape
    channels, _, width = k3.shape
    pad = (width - 1) // 2
    out = np.zeros((channels, length))
    for c in range(channels):
        for t in range(length):
            acc = bias[c, 0]
            for i in range(dim):
                for j in range(width):
                    src = t + j - pad
                    if 0 <= src < length:
                        acc += k3[c, i, j] * x[i, src]
            out[c, t] = max(acc, 0.0)
    return out


def padded_window_patches(x, width):
    """(..., D * width, N) conv patches built by zero-padding x and copying
    its sliding windows: row i * width + j, column t holds x[..., i, t + j - pad]."""
    dim, length = x.shape[-2:]
    pad = (width - 1) // 2
    xp = np.zeros(x.shape[:-1] + (length + 2 * pad,))
    xp[..., pad:pad + length] = x
    windows = np.lib.stride_tricks.sliding_window_view(xp, length, axis=-1)
    return windows.reshape(x.shape[:-2] + (dim * width, length))


def loop_cross_entropy(logits, label):
    exps = [math.exp(v) for v in logits]
    total = sum(exps)
    return -math.log(exps[label] / total)


def loop_order_task(feature_dim, length, count, seed, noise=0.3):
    """The order task's (item, label) list, one twin pair at a time: each pair
    draws its own (feature_dim, length) noise and reverses its own copy."""
    rng = np.random.default_rng(seed)
    half = length // 2
    symbol_a = rng.standard_normal(feature_dim)
    symbol_b = rng.standard_normal(feature_dim)
    items = []
    for _ in range(count // 2):
        blocks = np.concatenate([np.tile(symbol_a[:, None], half),
                                 np.tile(symbol_b[:, None], half)], axis=1)
        forward = blocks + noise * rng.standard_normal((feature_dim, length))
        items.append((forward, 0))
        items.append((forward[:, ::-1].copy(), 1))
    return items
