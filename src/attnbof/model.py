"""End-to-end sequence classifier with explicit forward/backward chaining.

Pipeline: optional temporal-conv frontend -> codebook quantization ->
attention -> temporal averaging -> affine head -> cross-entropy.  Every
learnable matrix lives in a flat name -> array registry (``codebook.v``,
``att.head0.wq``, ...) shared by the optimizer and the checkpoint format.
Gradients are chained by hand through the per-layer VJPs; there is no tape.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import attention, nbof, numerics
from .errors import ConfigError, DataFormatError, ShapeError
from .io_container import (check_types, field_types, pack_arrays, read_container,
                           unpack_arrays, write_container)
from .numerics import Array, DiffOp, register

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

    @property
    def needs_seq_len(self) -> bool:
        if self.attention in ("ctsa", "csa"):
            return True
        return self.attention == "2da" and self.mode == "temporal"

    @property
    def quantizer_dim(self) -> int:
        return self.conv_channels if self.frontend == "conv" else self.feature_dim

    @property
    def classifier_width(self) -> int:
        mult = self.heads if self.attention in attention.VARIANTS else 1
        return self.codewords * mult


_CONFIG_TYPES = field_types(ModelConfig)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Stable name -> shape map; defines registry and checkpoint order."""
    shapes: dict[str, tuple[int, int]] = {}
    if cfg.frontend == "conv":
        shapes["frontend.kernel"] = (cfg.conv_channels, cfg.feature_dim * cfg.conv_width)
        shapes["frontend.bias"] = (cfg.conv_channels, 1)
    dq = cfg.quantizer_dim
    shapes["codebook.v"] = (cfg.codewords, dq)
    shapes["codebook.w_raw"] = (cfg.codewords, dq)
    if cfg.attention == "2da":
        side = {"temporal": cfg.seq_len, "codeword": cfg.codewords, "input": dq}[cfg.mode]
        shapes["att.w"] = (side, side)
        shapes["att.alpha_raw"] = (1, 1)
    elif cfg.attention in attention.VARIANTS:
        q_cols, k_cols = attention.projection_widths(cfg.attention, cfg.codewords,
                                                     cfg.seq_len)
        for i in range(cfg.heads):
            shapes[f"att.head{i}.wq"] = (cfg.latent_dim, q_cols)
            shapes[f"att.head{i}.wk"] = (cfg.latent_dim, k_cols)
            shapes[f"att.head{i}.alpha_raw"] = (1, 1)
    shapes["classifier.weight"] = (cfg.classes, cfg.classifier_width)
    shapes["classifier.bias"] = (cfg.classes, 1)
    return shapes


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


def frontend_conv_vjp(inputs, output, upstream, cache: dict | None = None):
    """Cotangents of (x, kernel, bias); those of kernel and bias sum over a stack."""
    x, kernel, bias = inputs
    if cache is None:
        cache = {}
        frontend_conv(x, kernel, bias, cache=cache)
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


def _conv_sample(rng: np.random.Generator) -> list[Array]:
    while True:
        x = rng.standard_normal((3, 7))
        kernel = rng.standard_normal((2, 9))
        bias = rng.standard_normal((2, 1))
        pre, _ = _conv_pre(x, kernel, bias)
        if np.abs(pre).min() > 1e-3:  # keep finite differences off the kink
            return [x, kernel, bias]


register(DiffOp("frontend_conv", frontend_conv, frontend_conv_vjp,
                sample_inputs=_conv_sample))


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
    z = logits - logits.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    p -= np.arange(logits.shape[-1]) == np.asarray(label)[..., None]
    return p * np.asarray(upstream)[..., None]


def make_cross_entropy_op(classes: int, label: int) -> DiffOp:
    return DiffOp(
        f"cross_entropy_c{classes}",
        lambda logits: np.asarray(cross_entropy(logits, label)),
        lambda inputs, output, upstream: (
            cross_entropy_vjp(inputs[0], label, float(np.asarray(upstream).reshape(()))),),
        sample_inputs=lambda rng: [rng.standard_normal(classes)],
    )


register(make_cross_entropy_op(4, 2))


# ---------------------------------------------------------------------------
# the assembled model


class Model:
    """Parameter registry plus the explicit forward/backward chain."""

    def __init__(self, config: ModelConfig, params: dict[str, Array]):
        config.validate()
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config: ModelConfig) -> "Model":
        """Seeded initialization; weight matrices are uniform with half-width
        1/sqrt(fan-in), biases and mixing logits start at zero (alpha = 0.5)."""
        config.validate()
        rng = np.random.default_rng(config.seed)
        params: dict[str, Array] = {}
        for name, shape in param_shapes(config).items():
            if name.endswith(("bias", "alpha_raw")):
                params[name] = np.zeros(shape)
            elif name == "codebook.v":
                params[name] = rng.standard_normal(shape)
            elif name == "codebook.w_raw":
                params[name] = np.full(shape, nbof.W_RAW_UNIT)
            else:
                half = 1.0 / np.sqrt(shape[1])
                params[name] = rng.uniform(-half, half, size=shape)
        model = cls(config, params)
        model.constrain()
        return model

    # -- parameter views ---------------------------------------------------

    def _params_2da(self) -> attention.Attention2DAParams:
        return attention.Attention2DAParams(
            w=self.params["att.w"], alpha_raw=self.params["att.alpha_raw"],
            mode=self.config.mode)

    def _params_self(self) -> attention.SelfAttentionParams:
        heads = [attention.AttentionHead(
            wq=self.params[f"att.head{i}.wq"],
            wk=self.params[f"att.head{i}.wk"],
            alpha_raw=self.params[f"att.head{i}.alpha_raw"])
            for i in range(self.config.heads)]
        return attention.SelfAttentionParams(
            heads=heads, latent_dim=self.config.latent_dim,
            dropout_rate=self.config.dropout_rate)

    def set_codebook(self, cb: nbof.Codebook) -> None:
        want = param_shapes(self.config)["codebook.v"]
        if cb.v.shape != want:
            raise ShapeError(f"codebook is {cb.v.shape}, model expects {want}")
        self.params["codebook.v"] = np.array(cb.v)
        self.params["codebook.w_raw"] = np.array(cb.w_raw)

    def constrain(self) -> None:
        """Re-pin constrained entries after an optimizer step (2da diagonal)."""
        if self.config.attention == "2da":
            w = self.params["att.w"]
            np.fill_diagonal(w, 1.0 / w.shape[0])

    # -- forward / backward -------------------------------------------------

    def _check_seq(self, n: int, stage: str) -> None:
        cfg = self.config
        if cfg.needs_seq_len and n != cfg.seq_len:
            raise ShapeError(
                f"stage {stage}: sequence length {n} != configured seq_len {cfg.seq_len}")

    def _run(self, x: Array, training: bool, seed):
        """Forward pass over one D x N sequence or a (B, D, N) stack: the
        logits, (C,) or (B, C), and the cache of every layer, which the
        backward pass consumes."""
        cfg = self.config
        xs = numerics.as_stack(x, "stage input")
        if xs.shape[-2] != cfg.feature_dim:
            raise ShapeError(
                f"stage input: expected {cfg.feature_dim} feature rows, got {xs.shape[-2]}")
        if xs.shape[-1] < 1:
            raise ShapeError("stage input: empty sequence")
        cache: dict = {"x": xs, "att": {}}
        h = xs
        if cfg.frontend == "conv":
            cache["conv"] = {}
            h = frontend_conv(xs, self.params["frontend.kernel"],
                              self.params["frontend.bias"], cache=cache["conv"])
            cache["conv_out"] = h
        if cfg.attention == "2da" and cfg.mode == "input":
            cache["ia_in"] = h
            h = attention.att_2da(h, self._params_2da(), cache=cache["att"])
        cache["quant_in"] = h
        cache["quant"] = {}
        phi = nbof.quantize_raw(h, self.params["codebook.v"],
                                self.params["codebook.w_raw"], cache=cache["quant"])
        cache["phi"] = phi
        if cfg.attention == "2da" and cfg.mode != "input":
            self._check_seq(phi.shape[-1], "attention")
            att_out = attention.att_2da(phi, self._params_2da(), cache=cache["att"])
        elif cfg.attention in attention.VARIANTS:
            self._check_seq(phi.shape[-1], "attention")
            fwd = {"ctsa": attention.att_ctsa, "csa": attention.att_csa,
                   "tsa": attention.att_tsa}[cfg.attention]
            att_out = fwd(phi, self._params_self(), training=training, seed=seed,
                          cache=cache["att"])
        else:
            att_out = phi
        cache["att_out"] = att_out
        hist = nbof.aggregate(att_out)
        cache["hist"] = hist
        logits = numerics.affine(self.params["classifier.weight"], hist,
                                 self.params["classifier.bias"][:, 0])
        cache["logits"] = logits
        return logits, cache

    def forward(self, x: Array, training: bool = False, seed=0) -> Array:
        """Logits of one D x N sequence, or (B, C) logits of a (B, D, N) stack."""
        return self._run(x, training, seed)[0]

    def predict(self, x: Array):
        """Class index of one sequence, or one per item of a stack."""
        pred = np.argmax(self.forward(x), axis=-1)
        return int(pred) if pred.ndim == 0 else pred

    def loss(self, x: Array, label, training: bool = False, seed=0):
        return cross_entropy(self.forward(x, training, seed), label)

    def loss_and_grad(self, x: Array, label, training: bool = False,
                      seed=0) -> tuple[float | Array, dict[str, Array]]:
        """Loss plus one cotangent per registered parameter.

        ``x`` is a (B, D, N) stack with B labels and, in training, B dropout
        seeds (item b, head i draws its mask from ``seed[b] + i``).  It
        returns the B per-item losses and each gradient summed over the
        stack.  One D x N sequence with an int label and seed is the B=1
        case and returns a float loss.
        """
        cfg = self.config
        logits, cache = self._run(x, training, seed)
        loss = cross_entropy(logits, label)
        grads: dict[str, Array] = {}

        dlogits = cross_entropy_vjp(logits, label, 1.0)
        cw = self.params["classifier.weight"]
        cb = self.params["classifier.bias"][:, 0]
        dcw, dhist, dcb = numerics._affine_vjp((cw, cache["hist"], cb), logits, dlogits)
        grads["classifier.weight"] = dcw
        grads["classifier.bias"] = dcb[:, None]

        datt_out = nbof.aggregate_vjp((cache["att_out"],), cache["hist"], dhist)[0]

        if cfg.attention == "2da" and cfg.mode != "input":
            dphi, dw, daraw = attention.att_2da_vjp(cache["phi"], self._params_2da(),
                                                    datt_out, cache=cache["att"])
            grads["att.w"] = dw
            grads["att.alpha_raw"] = daraw
        elif cfg.attention in attention.VARIANTS:
            # looked up at call time, so a patched VJP is the one that runs
            bwd = {"ctsa": attention.att_ctsa_vjp, "csa": attention.att_csa_vjp,
                   "tsa": attention.att_tsa_vjp}[cfg.attention]
            dphi, head_grads = bwd(cache["phi"], self._params_self(), datt_out,
                                   cache=cache["att"])
            for i, (dwq, dwk, da) in enumerate(head_grads):
                grads[f"att.head{i}.wq"] = dwq
                grads[f"att.head{i}.wk"] = dwk
                grads[f"att.head{i}.alpha_raw"] = da
        else:
            dphi = datt_out

        dquant_in, dv, dwraw = nbof.quantize_vjp(
            (cache["quant_in"], self.params["codebook.v"], self.params["codebook.w_raw"]),
            cache["phi"], dphi, cache=cache["quant"])
        grads["codebook.v"] = dv
        grads["codebook.w_raw"] = dwraw

        dh = dquant_in
        if cfg.attention == "2da" and cfg.mode == "input":
            dh, dw, daraw = attention.att_2da_vjp(cache["ia_in"], self._params_2da(), dh,
                                                  cache=cache["att"])
            grads["att.w"] = dw
            grads["att.alpha_raw"] = daraw
        if cfg.frontend == "conv":
            _, dkernel, dbias = frontend_conv_vjp(
                (cache["x"], self.params["frontend.kernel"], self.params["frontend.bias"]),
                cache["conv_out"], dh, cache=cache["conv"])
            grads["frontend.kernel"] = dkernel
            grads["frontend.bias"] = dbias
        return loss, grads

    def attention_matrices(self, x: Array) -> list[Array]:
        """Per-head attention matrices for one input, evaluation mode."""
        cfg = self.config
        if cfg.attention == "none":
            raise ConfigError("model has attention=none; no matrices to inspect")
        _, cache = self._run(numerics.as_matrix(x, "input"), training=False, seed=0)
        if cfg.attention == "2da":
            return [cache["att"]["a"]]
        return [head["a"] for head in cache["att"]["heads"]]


def loss_op(model: Model, x: Array, label: int, training: bool = False,
            seed: int = 0) -> DiffOp:
    """The full loss as a DiffOp over the ordered parameter list, for
    gradient checking.  Input order is ``list(model.params)``."""
    names = list(model.params)
    cfg = model.config

    def fwd(*arrs: Array) -> Array:
        m = Model(cfg, dict(zip(names, [np.asarray(a, dtype=float) for a in arrs])))
        return np.asarray(m.loss(x, label, training=training, seed=seed))

    def vjp(inputs, output, upstream):
        m = Model(cfg, dict(zip(names, inputs)))
        _, grads = m.loss_and_grad(x, label, training=training, seed=seed)
        scale = float(np.asarray(upstream).reshape(()))
        return tuple(grads[n] * scale for n in names)

    return DiffOp(f"model_loss_{cfg.attention}", fwd, vjp)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(model: Model, path: str) -> None:
    manifest, payload = pack_arrays("name", model.params.items())
    header = {"config": asdict(model.config), "manifest": manifest}
    write_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, payload)


def load_checkpoint(path: str) -> Model:
    _, header, payload = read_container(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    try:
        cfg = ModelConfig(**header["config"])
        manifest = header["manifest"]
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: malformed checkpoint header ({exc})") from exc
    check_types(path, "checkpoint config", vars(cfg), _CONFIG_TYPES)
    cfg.validate()
    expected = param_shapes(cfg)
    params: dict[str, Array] = {}
    for name, arr in unpack_arrays(path, "name", manifest, payload):
        if not isinstance(name, str) or expected.get(name) != arr.shape or name in params:
            raise DataFormatError(
                f"{path}: parameter {name!r} with shape {arr.shape} does not match "
                "the stored configuration")
        params[name] = arr
    missing = set(expected) - set(params)
    if missing:
        raise DataFormatError(f"{path}: missing parameters {sorted(missing)}")
    return Model(cfg, params)
