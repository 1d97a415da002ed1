"""End-to-end sequence classifier run as one ordered list of stages.

Pipeline: optional temporal-conv frontend -> codebook quantization ->
attention -> temporal averaging (self-attention folds it in) -> affine head
-> cross-entropy.  Every learnable matrix is a named view (``codebook.v``,
``att.head0.wq``, ...) into one float64 vector, laid out in registry order,
which the optimizer steps and the checkpoint stores as is.  Every stage
pairs a layer's forward with its VJP under one calling convention; the
backward pass runs the list in reverse.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import attention, nbof, numerics
from .errors import ConfigError, DataFormatError, NonFiniteError, ShapeError
from .io_container import (check_types, field_types, pack_arrays, read_container,
                           unpack_arrays, write_container)
from .numerics import Array, DiffOp

CHECKPOINT_MAGIC = b"NBAF"
CHECKPOINT_VERSION = 1

FRONTENDS = ("none", "conv")
ATTENTION_KINDS = ("none", "2da", "ctsa", "csa", "tsa")


@dataclass
class ModelConfig:
    feature_dim: int
    classes: int
    codewords: int = 32
    attention: str = "none"
    mode: str = "temporal"        # 2da only: input | codeword | temporal
    latent_dim: int = 32
    heads: int = 1
    dropout_rate: float = 0.0
    frontend: str = "none"
    conv_width: int = 3
    conv_channels: int = 8
    seq_len: int | None = None    # required by variants whose weights are sized by N
    seed: int = 0

    def validate(self) -> None:
        counts = {"feature_dim": self.feature_dim, "classes": self.classes,
                  "codewords": self.codewords, "latent_dim": self.latent_dim,
                  "heads": self.heads}
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.attention not in ATTENTION_KINDS:
            raise ConfigError(f"attention must be one of {ATTENTION_KINDS}, "
                              f"got {self.attention!r}")
        if self.attention == "2da" and self.mode not in attention.MODES:
            raise ConfigError(f"2da mode must be one of {attention.MODES}, "
                              f"got {self.mode!r}")
        if self.frontend not in FRONTENDS:
            raise ConfigError(f"frontend must be one of {FRONTENDS}, got {self.frontend!r}")
        if self.frontend == "conv":
            if self.conv_width % 2 == 0 or self.conv_width < 1:
                raise ConfigError(f"conv_width must be odd, got {self.conv_width}")
            if self.conv_channels < 1:
                raise ConfigError(f"conv_channels must be >= 1, got {self.conv_channels}")
        if self.needs_seq_len and (self.seq_len is None or self.seq_len < 1):
            raise ConfigError(
                f"attention={self.attention}"
                + (f" mode={self.mode}" if self.attention == "2da" else "")
                + " sizes its weights by the sequence length; set seq_len >= 1")
        if (count := self.parameter_count()) > numerics.MAX_VALUES:
            raise ConfigError(f"the model would have {count} parameters, over the "
                              f"limit of {numerics.MAX_VALUES}")
        if self.heads > numerics.MAX_HEADS:
            raise ConfigError(f"{self.heads} heads are over the limit of {numerics.MAX_HEADS}")

    def parameter_count(self) -> int:
        """The size of ``param_shapes(self)``, computed without listing the heads."""
        return sum(stage.repeat * rows * cols for stage in build_stages(self)
                   for rows, cols in stage.shapes.values())

    def stage_values(self, n: int) -> int:
        """The number of values in the largest array a stage allocates for one item of
        length ``n``: the conv patches, the quantizer's memberships and its VJP's
        ``[x; x^2; 1]`` operand and codeword sums, or one self-attention head's
        projections and scores."""
        k, dq = self.codewords, self.feature_dim
        sizes = [k * n]
        if self.frontend == "conv":
            sizes.append(dq * self.conv_width * n)
            dq = self.conv_channels
        sizes += [(2 * dq + 1) * n, k * (2 * dq + 1)]
        if self.attention in attention.VARIANTS:
            # a projection has a row per entry of the axis its weight does not span
            q_len, k_len = attention.projection_widths(self.attention, n, k)
            sizes += [self.latent_dim * max(q_len, k_len), q_len * k_len]
        return max(sizes)

    def check_stack(self, batch: int, n: int) -> None:
        """Reject a stack of ``batch`` items of length ``n`` whose largest
        stage array would hold more than ``numerics.MAX_VALUES`` values."""
        if (size := batch * self.stage_values(n)) > numerics.MAX_VALUES:
            raise ConfigError(f"a stack of {batch} sequence(s) of length {n} needs a "
                              f"{size}-value stage array, over the limit of "
                              f"{numerics.MAX_VALUES}")

    @property
    def needs_seq_len(self) -> bool:
        if self.attention in ("ctsa", "csa"):
            return True
        return self.attention == "2da" and self.mode == "temporal"


_CONFIG_TYPES = field_types(ModelConfig)


# ---------------------------------------------------------------------------
# frontend: same-length temporal convolution + rectifier


def _conv_pre(x: Array, kernel: Array, bias: Array) -> tuple[Array, Array]:
    """(pre-activation, patches): ``pre = kernel @ patches + bias``, where the
    (..., D * width, N) patches hold the zero-padded shifted copies of x."""
    x = numerics.as_stack(x, "conv input")
    kernel = numerics.as_matrix(kernel, "conv kernel")
    bias = numerics.as_matrix(bias, "conv bias")
    d, n = x.shape[-2:]
    c = kernel.shape[0]
    if kernel.shape[1] % d != 0:
        raise ShapeError(
            f"conv kernel has {kernel.shape[1]} columns, not a multiple of {d} input rows")
    width = kernel.shape[1] // d
    if width % 2 == 0:
        raise ShapeError(f"conv kernel width must be odd, got {width}")
    if bias.shape != (c, 1):
        raise ShapeError(f"conv bias is {bias.shape}, expected ({c}, 1)")
    pad = (width - 1) // 2
    xp = np.zeros(x.shape[:-1] + (n + 2 * pad,))
    xp[..., pad:pad + n] = x
    # patches[..., i * width + j, t] = xp[..., i, t + j], the kernel's column order
    patches = sliding_window_view(xp, n, axis=-1).reshape(x.shape[:-2] + (d * width, n))
    return kernel @ patches + bias, patches


def frontend_conv(x: Array, kernel: Array, bias: Array, cache: dict | None = None) -> Array:
    """Zero-padded same-length temporal convolution followed by max(0, .).

    ``kernel`` is stored flat as (channels, in_rows * width) so the registry
    and checkpoint stay two-dimensional.  ``x`` is one D x N sequence or a
    (B, D, N) stack; a ``cache`` dict keeps the pre-activation and patches
    for :func:`frontend_conv_vjp`.
    """
    pre, patches = _conv_pre(x, kernel, bias)
    if cache is not None:
        cache.update(pre=pre, patches=patches)
    return np.maximum(pre, 0.0)


def frontend_conv_vjp(inputs, output, upstream, cache: dict):
    """Cotangents of (x, kernel, bias) of the ``frontend_conv`` call that filled
    ``cache``; those of kernel and bias sum over a stack."""
    x, kernel, bias = inputs
    pre, patches = cache["pre"], cache["patches"]
    d, n = x.shape[-2:]
    width = kernel.shape[1] // d
    gp = upstream * (pre > 0.0)
    dbias = gp.reshape(-1, *gp.shape[-2:]).sum(axis=(0, 2))[:, None]
    dkernel = numerics.sum_tn(numerics.swap(gp), numerics.swap(patches))
    dpatches = (kernel.T @ gp).reshape(x.shape[:-2] + (d, width, n))
    dxp = np.zeros(x.shape[:-1] + (n + width - 1,))
    for j in range(width):
        dxp[..., j:j + n] += dpatches[..., j, :]
    pad = (width - 1) // 2
    return dxp[..., pad:pad + n], dkernel, dbias


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits: Array, label) -> float | Array:
    """Negative log-probability of ``label`` under softmax(logits).

    One logit vector and an int label give a float; (B, C) logits and B
    labels give the B per-item losses.
    """
    logits = np.asarray(logits, dtype=float)
    label = np.asarray(label)
    if logits.ndim not in (1, 2) or label.shape != logits.shape[:-1]:
        raise ShapeError(f"cross_entropy: logits {logits.shape} and labels "
                         f"{label.shape} do not conform")
    classes = logits.shape[-1]
    if label.dtype.kind not in "iu":
        raise ValueError(f"cross_entropy: labels must be integers, got {label.dtype}")
    if label.min() < 0 or label.max() >= classes:
        raise ValueError(
            f"cross_entropy: label {label} out of range [0, {classes})")
    m = logits.max(axis=-1)
    lse = m + np.log(np.exp(logits - m[..., None]).sum(axis=-1))
    rows = logits.reshape(-1, classes)
    loss = lse - rows[np.arange(len(rows)), label.reshape(-1)].reshape(label.shape)
    return float(loss) if loss.ndim == 0 else loss


def cross_entropy_vjp(logits: Array, label, upstream) -> Array:
    p = numerics.softmax_rows(logits)
    p -= np.arange(logits.shape[-1]) == np.asarray(label)[..., None]
    return p * np.asarray(upstream)[..., None]


# ---------------------------------------------------------------------------
# the assembled model: the stage list and the parameter registry


class Stage(NamedTuple):
    """A layer under one convention: ``fwd(h, ps, cache, training, seed) -> out``
    fills ``cache``, ``vjp(h, ps, out, upstream, cache) -> (dh, *dps)`` reads
    it, and ``ps`` holds the stage's parameters in the order of ``params()``.
    ``shapes`` lists one unit's parameters and the stage has ``repeat`` units
    (one per self-attention head); ``{i}`` in a name is the unit's index."""

    name: str
    shapes: dict[str, tuple[int, int]]
    fwd: Callable
    vjp: Callable
    repeat: int = 1

    def params(self) -> list[tuple[str, tuple[int, int]]]:
        """(name, shape) of every parameter, unit after unit."""
        return [(name.format(i=i), shape) for i in range(self.repeat)
                for name, shape in self.shapes.items()]


def _head_vjp(h, ps, out, upstream, cache):
    dweight, dh, dbias = numerics.affine_vjp(ps[0], h, upstream)
    return dh, dweight, dbias[:, None]


def build_stages(cfg: ModelConfig) -> list[Stage]:
    """The pipeline in execution order; the one place that dispatches on the
    frontend and the attention kind.  Input-mode 2da runs before the
    quantizer.  Layers are looked up through their module at call time, so a
    patched or traced layer is the one that runs."""
    stages, k, dq, width = [], cfg.codewords, cfg.feature_dim, cfg.codewords
    if cfg.frontend == "conv":
        dq = cfg.conv_channels
        stages.append(Stage(
            "conv", {"frontend.kernel": (dq, cfg.feature_dim * cfg.conv_width),
                     "frontend.bias": (dq, 1)},
            lambda h, ps, c, *_: frontend_conv(h, *ps, cache=c),
            lambda h, ps, out, g, c: frontend_conv_vjp((h, *ps), out, g, c)))
    stages.append(Stage(
        "quantize", {"codebook.v": (k, dq), "codebook.w_raw": (k, dq)},
        lambda h, ps, c, *_: nbof.quantize_raw(h, *ps, cache=c),
        lambda h, ps, out, g, c: nbof.quantize_vjp((h, *ps), out, g, c)))
    if cfg.attention == "2da":
        side = {"temporal": cfg.seq_len, "codeword": k, "input": dq}[cfg.mode]
        stages.insert(-1 if cfg.mode == "input" else len(stages), Stage(
            "attention", {"att.w": (side, side), "att.alpha_raw": (1, 1)},
            lambda h, ps, c, *_: attention.att_2da(h, *ps, cfg.mode, cache=c),
            lambda h, ps, out, g, c: attention.att_2da_vjp(h, *ps, cfg.mode, g, c)))
    elif cfg.attention in attention.VARIANTS:
        q_cols, k_cols = attention.projection_widths(cfg.attention, k, cfg.seq_len)
        width = k * cfg.heads  # head outputs are stacked along the codeword axis
        stages.append(Stage(
            "attention", {"att.head{i}.wq": (cfg.latent_dim, q_cols),
                          "att.head{i}.wk": (cfg.latent_dim, k_cols),
                          "att.head{i}.alpha_raw": (1, 1)},
            lambda h, ps, c, training, seed: attention.self_attention(
                cfg.attention, h, ps, cfg.dropout_rate, training, seed, c),
            lambda h, ps, out, g, c: attention.self_attention_vjp(
                cfg.attention, h, ps, g, c), repeat=cfg.heads))
    if cfg.attention not in attention.VARIANTS:  # self-attention pools itself
        stages.append(Stage("aggregate", {}, lambda h, ps, c, *_: nbof.aggregate(h),
                            lambda h, ps, out, g, c: nbof.aggregate_vjp((h,), out, g)))
    return stages + [
        Stage("head", {"classifier.weight": (cfg.classes, width),
                       "classifier.bias": (cfg.classes, 1)},
              lambda h, ps, c, *_: numerics.affine(ps[0], h, ps[1][:, 0]), _head_vjp)]


# Registry, checkpoint and initialization order: input-mode 2da runs before
# the quantizer, but its parameters come after the codebook's.
_PARAM_ORDER = ("conv", "quantize", "attention", "aggregate", "head")


def _registry(stages: list[Stage]) -> dict[str, tuple[int, int]]:
    ordered = sorted(stages, key=lambda st: _PARAM_ORDER.index(st.name))
    return dict(param for stage in ordered for param in stage.params())


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Stable name -> shape map; defines registry and checkpoint order."""
    return _registry(build_stages(cfg))


def _finite(a: Array, what: str) -> Array:
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} is not finite; an input value may be too "
                             "large for the quantizer")
    return a


class Model:
    """One float64 parameter vector, ``flat`` (a copy of the one given), in
    registry (and checkpoint) order, plus the stage list that runs over it;
    ``params`` maps each name to a view into ``flat``.  Each stage's views and
    the slices its gradients fill are bound once, here."""

    def __init__(self, config: ModelConfig, flat: Array):
        config.validate()
        self.config = config
        self.stages = build_stages(config)
        self._layout, self.size = {}, 0
        for name, (rows, cols) in _registry(self.stages).items():
            self._layout[name] = (slice(self.size, self.size + rows * cols), (rows, cols))
            self.size += rows * cols
        self.flat = np.array(flat, dtype=float)
        self.params = self.views(self.flat)
        self._bound = [([self.params[name] for name, _ in stage.params()],
                        [(name, self._layout[name][0]) for name, _ in stage.params()])
                       for stage in self.stages]

    def views(self, vec: Array) -> dict[str, Array]:
        """Name -> view map of a vector laid out like ``flat``."""
        if vec.shape != (self.size,):
            raise ShapeError(f"parameter vector is {vec.shape}, the model has ({self.size},)")
        return {name: vec[where].reshape(shape) for name, (where, shape) in self._layout.items()}

    @classmethod
    def build(cls, config: ModelConfig) -> "Model":
        """Seeded initialization; weight matrices are uniform with half-width
        1/sqrt(fan-in), biases and mixing logits start at zero (alpha = 0.5).
        The 2da diagonal is pinned at 1/n; its gradient is always zero, so
        training leaves it there."""
        config.validate()
        rng = np.random.default_rng(config.seed)
        net = cls(config, np.zeros(config.parameter_count()))
        for name, p in net.params.items():
            if name == "codebook.v":
                p[...] = rng.standard_normal(p.shape)
            elif name == "codebook.w_raw":
                p[...] = nbof.W_RAW_UNIT
            elif not name.endswith(("bias", "alpha_raw")):
                half = 1.0 / np.sqrt(p.shape[1])
                p[...] = rng.uniform(-half, half, size=p.shape)
        if "att.w" in net.params:
            np.fill_diagonal(net.params["att.w"], 1.0 / net.params["att.w"].shape[0])
        return net

    def set_codebook(self, v: Array) -> None:
        """Write the (K, D) codewords ``v`` and reset the shape weights to one."""
        want = self.params["codebook.v"].shape
        if np.shape(v) != want:
            raise ShapeError(f"codebook is {np.shape(v)}, model expects {want}")
        self.params["codebook.v"][...] = v
        self.params["codebook.w_raw"][...] = nbof.W_RAW_UNIT

    def quantizer_input(self, x: Array) -> Array:
        """What the quantizer sees of one D x N sequence: the output of the
        stages before ``quantize``, in evaluation mode."""
        for stage, (ps, _) in zip(self.stages, self._bound):
            if stage.name == "quantize":
                break
            x = stage.fwd(x, ps, None, False, 0)
        return x

    # -- forward / backward -------------------------------------------------

    def _run(self, x: Array, training: bool, seed, trail: list | None = None) -> Array:
        """Logits of one D x N sequence, (C,), or of a (B, D, N) stack, (B, C).
        A ``trail`` list receives each stage's (input, output, cache) for the
        backward pass; without one, no stage keeps a cache."""
        cfg = self.config
        h = numerics.as_stack(x, "stage input")
        n = h.shape[-1]
        if h.shape[-2] != cfg.feature_dim:
            raise ShapeError(
                f"stage input: expected {cfg.feature_dim} feature rows, got {h.shape[-2]}")
        if n < 1:
            raise ShapeError("stage input: empty sequence")
        if cfg.needs_seq_len and n != cfg.seq_len:
            raise ShapeError(
                f"stage attention: sequence length {n} != configured seq_len {cfg.seq_len}")
        cfg.check_stack(h.shape[0] if h.ndim == 3 else 1, n)
        for stage, (ps, _) in zip(self.stages, self._bound):
            cache = None if trail is None else {}
            out = stage.fwd(h, ps, cache, training, seed)
            if trail is not None:
                trail.append((h, out, cache))
            h = out
        return h

    def forward(self, x: Array, training: bool = False, seed=0) -> Array:
        """Logits of one D x N sequence, or (B, C) logits of a (B, D, N) stack."""
        return self._run(x, training, seed)

    def predict(self, x: Array):
        """Class index of one sequence, or one per item of a stack."""
        pred = np.argmax(_finite(self.forward(x), "model output"), axis=-1)
        return int(pred) if pred.ndim == 0 else pred

    def loss_and_grad(self, x: Array, label, training: bool = False,
                      seed=0) -> tuple[float | Array, Array]:
        """Loss plus its gradient, one vector laid out like ``flat``.

        ``x`` is a (B, D, N) stack with B labels and, in training, B dropout
        seeds (item b, head i draws its mask from ``seed[b] + i``).  It
        returns the B per-item losses and each gradient summed over the
        stack.  One D x N sequence with an int label and seed is the B=1
        case and returns a float loss.
        """
        trail: list = []
        logits = self._run(x, training, seed, trail)
        loss = cross_entropy(logits, label)
        g = cross_entropy_vjp(logits, label, 1.0)
        grad = np.zeros(self.size)
        for stage, (ps, slots), (h, out, cache) in zip(
                reversed(self.stages), reversed(self._bound), reversed(trail)):
            g, *dps = stage.vjp(h, ps, out, g, cache)
            for (name, where), p, d in zip(slots, ps, dps + [None] * len(ps)):
                shape = getattr(d, "shape", None)  # None: the stage returned too few
                if shape != p.shape:
                    raise ShapeError(f"stage {stage.name}: cotangent of {name!r} is "
                                     f"{shape}, parameter is {p.shape}")
                grad[where] = d.ravel()
        return loss, grad

    def attention_matrices(self, x: Array) -> list[Array]:
        """Per-head attention matrices for one input, evaluation mode."""
        names = [stage.name for stage in self.stages]
        if "attention" not in names:
            raise ConfigError("model has attention=none; no matrices to inspect")
        trail: list = []
        self._run(numerics.as_matrix(x, "input"), False, 0, trail)
        cache = trail[names.index("attention")][2]
        return [_finite(head["a"], "attention matrix")
                for head in cache.get("heads", [cache])]


def loss_op(model: Model, x: Array, label: int, training: bool = False,
            seed: int = 0) -> DiffOp:
    """The full loss as a DiffOp over the ordered parameter list, for
    gradient checking.  Input order is ``list(model.params)``."""
    cfg = model.config

    def fwd(*arrs: Array) -> Array:
        m = Model(cfg, np.concatenate([np.ravel(a) for a in arrs]))
        return np.asarray(cross_entropy(m.forward(x, training, seed), label))

    def vjp(inputs, output, upstream):
        m = Model(cfg, np.concatenate([np.ravel(a) for a in inputs]))
        _, grad = m.loss_and_grad(x, label, training=training, seed=seed)
        scale = float(np.asarray(upstream).reshape(()))
        return tuple(g * scale for g in m.views(grad).values())

    return DiffOp(f"model_loss_{cfg.attention}", fwd, vjp)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: str) -> None:
    manifest, arrays = pack_arrays("name", model.params.items())
    header = {"config": asdict(model.config), "manifest": manifest}
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, *arrays)


def load_checkpoint(path: str) -> Model:
    header, payload = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    try:
        cfg = ModelConfig(**header["config"])
        manifest = header["manifest"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint header ({exc})") from exc
    check_types(path, "checkpoint config", vars(cfg), _CONFIG_TYPES)
    cfg.validate()
    arrays = unpack_arrays(path, "name", manifest, payload)
    got = [(name, arr.shape) for name, arr in arrays] + [None]  # None: past the end
    want = list(param_shapes(cfg).items()) + [None]
    if got != want:
        i = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        raise DataFormatError(f"{path}: manifest entry {i} is {got[i]}, the stored "
                              f"configuration needs {want[i]}")
    return Model(cfg, np.concatenate([arr.ravel() for _, arr in arrays]))
