"""One property over the model's shape space: every attention kind, 2da mode
and frontend, kernel widths 1-9, sequences from one column, up to 3 heads, a
latent dimension above or below K and N, stacks of up to 4 items, dropout 0
or 0.3, inputs scaled 1e-3 to 30 and codewords placed on data columns.  Each
draw pins that a stack computes what its items compute one by one, that the
forward-only pass is bitwise the cached one, and that the loss's gradient
passes a finite-difference check."""

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnbof.attention import MODES, VARIANTS
from attnbof.model import FRONTENDS, Model, ModelConfig, loss_op
from attnbof.numerics import grad_check


KINDS = [dict(attention="none"), *(dict(attention="2da", mode=m) for m in MODES),
         *(dict(attention=v) for v in VARIANTS)]


@st.composite
def cases(draw, kind: dict, frontend: str):
    """A config of ``kind`` and ``frontend``, with its stack size, input
    scale, whether codewords sit on data columns, and a data seed."""
    n = draw(st.integers(1, 3) | st.integers(1, 9))   # often shorter than the kernel
    cfg = dict(kind, feature_dim=draw(st.integers(1, 3)), classes=draw(st.integers(2, 3)),
               codewords=draw(st.integers(1, 5)), seq_len=n, frontend=frontend,
               seed=draw(st.integers(0, 2 ** 16)))
    if kind["attention"] in VARIANTS:
        cfg.update(heads=draw(st.integers(1, 3)), latent_dim=draw(st.integers(1, 10)),
                   dropout_rate=draw(st.sampled_from([0.0, 0.3])))
    if frontend == "conv":
        cfg.update(conv_width=draw(st.sampled_from([9, 7, 5, 3, 1])),
                   conv_channels=draw(st.integers(1, 3)))
    return (ModelConfig(**cfg), draw(st.integers(1, 4)),
            draw(st.sampled_from([1e-3, 1.0, 30.0])), draw(st.booleans()),
            draw(st.integers(0, 2 ** 32 - 1)))


def assert_close(got, want, what):
    """Within 1e-12 of ``want``, relative to its largest magnitude."""
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= 1e-12 * scale, what


@pytest.mark.parametrize("frontend", FRONTENDS)
@pytest.mark.parametrize("kind", KINDS, ids=lambda kind: "-".join(kind.values()))
@settings(max_examples=5, derandomize=True, database=None, deadline=timedelta(seconds=5))
@given(data=st.data())
def test_stacks_forward_only_passes_and_gradients_hold_over_the_shape_space(kind, frontend,
                                                                           data):
    cfg, batch, scale, on_data, data_seed = data.draw(cases(kind, frontend))
    net = Model.build(cfg)
    rng = np.random.default_rng(data_seed)
    unit = rng.standard_normal((batch, cfg.feature_dim, cfg.seq_len))
    labels = rng.integers(cfg.classes, size=batch)
    seeds = rng.integers(2 ** 31, size=batch)
    training = cfg.dropout_rate > 0.0

    # the gradient, at unit scale and with codewords off the data, where the
    # loss is smooth enough for central differences
    report = grad_check(loss_op(net, unit[0], int(labels[0]), training, int(seeds[0])),
                        list(net.params.values()))
    assert report.finite and report.max_rel_err <= 1e-4, report

    xs = scale * unit
    if on_data:   # distances of exactly zero take the quantizer's recompute
        columns = np.concatenate([net.quantizer_input(x) for x in xs], axis=-1)
        picks = rng.choice(columns.shape[1], size=min(cfg.codewords, columns.shape[1]),
                           replace=False)
        v = net.params["codebook.v"].copy()
        v[:len(picks)] = columns[:, picks].T
        net.set_codebook(v)

    # a stack against its items one by one
    losses, grad = net.loss_and_grad(xs, labels, training=training, seed=seeds)
    items = [net.loss_and_grad(x, int(y), training=training, seed=int(s))
             for x, y, s in zip(xs, labels, seeds)]
    assert_close(losses, np.array([loss for loss, _ in items]), "losses")
    assert_close(grad, np.sum([g for _, g in items], axis=0), "gradient")
    assert_close(net.forward(xs), np.array([net.forward(x) for x in xs]), "logits")

    # forward-only stages against the cached ones, each from the same input
    before = xs.copy()
    trail: list = []
    logits = net._run(xs, training, seeds, trail)
    assert np.array_equal(net.forward(xs, training, seeds), logits)
    for stage, (ps, *_), (h, out, _) in zip(net.stages, net._bound, trail):
        assert np.array_equal(stage.fwd(h, ps, None, training, seeds), out), stage.name
    assert np.array_equal(xs, before)
