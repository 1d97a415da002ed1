"""Batched (B, D, N) forward/backward against the single-item path, and the
batched training loop against a per-item reference loop."""

import numpy as np
import pytest

from attnbof.attention import att_csa, att_ctsa, att_tsa
from attnbof.data import LabeledSequenceSet, gen_noisy_timestamps
from attnbof.model import Model, ModelConfig
from attnbof.nbof import init_codebook
from attnbof.train import TrainConfig, adam_step, fit, init_adam

from .test_attention import make_heads

DESK = dict(feature_dim=4, classes=3, codewords=6, latent_dim=5, seq_len=8)

KINDS = [dict(attention="none")]
KINDS += [dict(attention="2da", mode=m) for m in ("input", "codeword", "temporal")]
KINDS += [dict(attention=v, heads=2) for v in ("ctsa", "csa", "tsa")]


def kind_id(kwargs):
    return "-".join(str(v) for v in kwargs.values())


def stack_case(model_kwargs, batch=5, length=8, seed=0):
    net = Model.build(ModelConfig(**{**DESK, **model_kwargs}))
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((batch, DESK["feature_dim"], length))
    labels = rng.integers(DESK["classes"], size=batch)
    seeds = rng.integers(2 ** 31, size=batch)
    return net, xs, labels, seeds


def per_item(net, xs, labels, seeds, training):
    losses, total = [], np.zeros_like(net.flat)
    for x, label, s in zip(xs, labels, seeds):
        loss, grad = net.loss_and_grad(x, int(label), training=training, seed=int(s))
        losses.append(loss)
        total += grad
    return np.array(losses), total


@pytest.mark.parametrize("dropout", [0.0, 0.25])
@pytest.mark.parametrize("frontend", ["none", "conv"])
@pytest.mark.parametrize("kind", KINDS, ids=kind_id)
def test_batched_matches_per_item(kind, frontend, dropout):
    extra = dict(frontend=frontend, conv_channels=5) if frontend == "conv" else {}
    net, xs, labels, seeds = stack_case({**kind, **extra, "dropout_rate": dropout})
    for training in (False, True):
        logits = net.forward(xs, training=training, seed=seeds)
        want = np.array([net.forward(x, training=training, seed=int(s))
                         for x, s in zip(xs, seeds)])
        assert logits.shape == want.shape
        assert np.max(np.abs(logits - want)) <= 1e-10

        losses, grad = net.loss_and_grad(xs, labels, training=training, seed=seeds)
        want_losses, want_grad = per_item(net, xs, labels, seeds, training)
        assert losses.shape == (len(xs),)
        assert np.max(np.abs(losses - want_losses)) <= 1e-10
        assert grad.shape == net.flat.shape
        want = net.views(want_grad)
        for name, g in net.views(grad).items():
            assert np.max(np.abs(g - want[name])) <= 1e-10, name


def test_single_item_is_the_b1_case():
    net, xs, labels, seeds = stack_case(dict(attention="csa", heads=2,
                                             dropout_rate=0.25), batch=1)
    loss, grad = net.loss_and_grad(xs[0], int(labels[0]), training=True,
                                   seed=int(seeds[0]))
    losses, stacked = net.loss_and_grad(xs, labels, training=True, seed=seeds)
    assert isinstance(loss, float)
    assert loss == losses[0]
    assert np.array_equal(grad, stacked)
    assert isinstance(net.predict(xs[0]), int)
    assert net.predict(xs).tolist() == [net.predict(xs[0])]


def test_dropout_masks_depend_only_on_the_item_seed():
    net, xs, labels, seeds = stack_case(dict(attention="tsa", heads=2,
                                             dropout_rate=0.4), batch=4)
    full = net.forward(xs, training=True, seed=seeds)
    # the same item in another stack, at another position, keeps its logits
    sub = net.forward(xs[[3, 1]], training=True, seed=seeds[[3, 1]])
    assert np.array_equal(full[[3, 1]], sub)


@pytest.mark.parametrize("fwd", [att_ctsa, att_csa, att_tsa])
def test_item_b_head_i_uses_seed_b_plus_i(fwd):
    rng = np.random.default_rng(1)
    ps = make_heads(rng, fwd.__name__[4:], 6, 8, 5, 3)
    phi = rng.random((3, 6, 8))
    seeds = rng.integers(2 ** 31, size=3)
    out = fwd(phi, ps, 0.5, training=True, seed=seeds)
    for b in range(3):
        for i in range(3):
            one = ps[3 * i:3 * i + 3]
            want = fwd(phi[b], one, 0.5, training=True, seed=int(seeds[b]) + i)
            assert np.array_equal(out[b, 6 * i:6 * (i + 1)], want)


# ---------------------------------------------------------------------------
# training loop


def reference_fit(net, train_set, cfg):
    """The per-item training loop: one ``loss_and_grad`` per item, gradients
    summed item by item and averaged per mini-batch; the codebook is drawn
    from what the quantizer sees."""
    rng = np.random.default_rng(cfg.seed)
    net.set_codebook(init_codebook([net.quantizer_input(x) for x, _ in train_set.items],
                                   net.config.codewords, seed=cfg.seed))
    state = init_adam(net.flat)
    n = len(train_set)
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            total = np.zeros_like(net.flat)
            for idx in batch:
                x, label = train_set.items[idx]
                loss, grad = net.loss_and_grad(x, label, training=True,
                                               seed=int(rng.integers(2 ** 31)))
                epoch_loss += loss
                total += grad
            adam_step(net.flat, total * (1.0 / len(batch)), state, cfg)
        trace.append(epoch_loss / n)
    return trace


def uniform_set():
    return gen_noisy_timestamps(classes=3, feature_dim=4, length=8,
                                signal_fraction=0.25, snr=2.0, count=30, seed=5)


def ragged_set():
    """Lengths 5, 6 and 8 interleaved, so every mini-batch is ragged."""
    rng = np.random.default_rng(6)
    items = [(rng.standard_normal((4, (5, 6, 8)[i % 3])), i % 3) for i in range(30)]
    return LabeledSequenceSet(items=items, classes=3, feature_dim=4)


@pytest.mark.parametrize("model_kwargs,make_set", [
    (dict(attention="csa", heads=2, dropout_rate=0.25), uniform_set),
    (dict(attention="2da", mode="input"), uniform_set),
    (dict(attention="tsa", heads=2, dropout_rate=0.25, seq_len=None), ragged_set),
], ids=["csa-dropout", "2da-input", "tsa-ragged"])
def test_fit_matches_per_item_reference(model_kwargs, make_set):
    train_set = make_set()
    cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01, seed=3)
    model_cfg = ModelConfig(**{**DESK, **model_kwargs, "seed": 3})
    net, ref = Model.build(model_cfg), Model.build(model_cfg)
    trace = fit(net, train_set, cfg)
    want = reference_fit(ref, train_set, cfg)
    assert np.max(np.abs(np.array(trace) - np.array(want))) <= 1e-9
    for name, p in net.params.items():
        assert np.max(np.abs(p - ref.params[name])) <= 1e-9, name
