"""Independent loop-level reference implementations used as test oracles.

Everything here is written with explicit Python loops and scalar math so it
shares no code path with the library's vectorized implementations.
"""

import math

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


def loop_cross_entropy(logits, label):
    exps = [math.exp(v) for v in logits]
    total = sum(exps)
    return -math.log(exps[label] / total)
