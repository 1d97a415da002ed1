"""``OPS``: op name -> a DiffOp plus a sampler of valid input points, for every
function the model is built from and every layer it runs.  A layer op is a
stage of ``build_stages`` (see :func:`stage_op`), so its check also covers
the stage glue: parameter binding and the head's bias reshape."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from attnbof import numerics
from attnbof.attention import VARIANTS, projection_widths
from attnbof.model import (ModelConfig, _loss_and_dlogits, build_stages, cross_entropy,
                           frontend_conv)
from attnbof.numerics import DiffOp


class Entry(NamedTuple):
    op: DiffOp
    sample: Callable[[np.random.Generator], list]
    covers: tuple | None = None   # the stage_key of a layer op


def stage_key(cfg: ModelConfig, stage: str, training: bool = False) -> tuple:
    """What a stage's code depends on: its name and, for the attention stage,
    the attention kind and the 2da mode, or whether self-attention drops out."""
    if stage != "attention":
        return (stage, None, None)
    if cfg.attention == "2da":
        return (stage, "2da", cfg.mode)
    return (stage, cfg.attention, "dropout" if training and cfg.dropout_rate > 0.0 else None)


def stage_op(name: str, stage_name: str, sample, training: bool = False, seed: int = 0,
             **config) -> Entry:
    """Stage ``stage_name`` of the model ``config`` describes, as a DiffOp over
    (stage input, *stage parameters); its VJP reads the cache its forward
    fills."""
    cfg = ModelConfig(**{"feature_dim": 2, "classes": 3, **config})
    cfg.validate()
    stage = next(st for st in build_stages(cfg) if st.name == stage_name)

    def vjp(inputs, output, upstream):
        h, *ps = inputs
        cache: dict = {}
        return stage.vjp(h, ps, stage.fwd(h, ps, cache, training, seed), upstream, cache,
                         True)

    return Entry(DiffOp(name, lambda h, *ps: stage.fwd(h, ps, {}, training, seed), vjp),
                 sample, stage_key(cfg, stage_name, training))


def normal(*shapes, fan_in=()):
    """Standard normal arrays; those at the ``fan_in`` positions are divided by
    the root of their column count, which keeps attention logits O(1):
    saturated softmax tails are outside finite-difference resolution."""
    return lambda rng: [rng.standard_normal(s) / (math.sqrt(s[-1]) if i in fan_in else 1)
                        for i, s in enumerate(shapes)]


def sample_conv(rng) -> list:
    while True:   # keep finite differences off the rectifier's kink
        point = normal((3, 7), (2, 9), (2, 1))(rng)
        cache: dict = {}
        frontend_conv(*point, cache=cache)
        if np.abs(cache["pre"]).min() > 1e-3:
            return point


def self_attention_op(variant: str, heads: int, training: bool = False,
                      dropout_rate: float = 0.0, seed: int = 0) -> Entry:
    """(phi, wq, wk, alpha_raw), the weights stacked over the heads, with K=4,
    N=6, d=3."""
    q_cols, k_cols = projection_widths(variant, 4, 6)
    sample = normal((4, 6), (heads, 3, q_cols), (heads, 3, k_cols), (heads, 1, 1),
                    fan_in={1, 2})
    return stage_op(f"att_{variant}_h{heads}{'_train' if training else ''}", "attention",
                    sample, training, seed, codewords=4, seq_len=6, attention=variant,
                    heads=heads, latent_dim=3, dropout_rate=dropout_rate)


OPS = {entry.op.name: entry for entry in [
    Entry(DiffOp("softmax_rows", lambda m: numerics.softmax_cols(m.T).T,
                 lambda inputs, out, g: (numerics.softmax_cols_vjp(out.T, g.T).T,)),
          normal((4, 6))),
    Entry(DiffOp("affine", numerics.affine,
                 lambda inputs, out, g: numerics.affine_vjp(*inputs[:2], g)),
          normal((3, 6), 6, 3)),
    Entry(DiffOp("cross_entropy_c4", lambda z: np.asarray(cross_entropy(z, 2)),
                 lambda inputs, out, g: (_loss_and_dlogits(inputs[0], 2)[1] * float(g),)),
          normal(4)),
    *(stage_op(f"att_2da_{mode}", "attention",
               normal((4, 5), (side, side), (1, 1), fan_in={1}), feature_dim=4,
               codewords=4, seq_len=5, attention="2da", mode=mode)
      for mode, side in (("input", 4), ("codeword", 4), ("temporal", 5))),
    *(self_attention_op(variant, heads=2) for variant in VARIANTS),
    self_attention_op("csa", heads=1, training=True, dropout_rate=0.25, seed=99),
    *(self_attention_op(variant, heads=2, training=True, dropout_rate=0.25, seed=99)
      for variant in ("ctsa", "tsa")),
    stage_op("quantize", "quantize", normal((3, 5), (4, 3), (4, 3)), feature_dim=3,
             codewords=4),
    stage_op("frontend_conv", "conv", sample_conv, feature_dim=3, frontend="conv",
             conv_channels=2),
    stage_op("aggregate", "aggregate", normal((5, 4)), codewords=5),
    stage_op("head", "head", normal(4, (3, 4), (3, 1)), codewords=4),
]}
