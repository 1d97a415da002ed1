import math

import numpy as np
import pytest

from attnbof import attention, nbof, numerics
from attnbof import train as train_mod
from attnbof.data import LabeledSequenceSet, gen_noisy_timestamps, gen_order_task
from attnbof.errors import ConfigError, ShapeError, TrainingDiverged
from attnbof.model import Model, ModelConfig, frontend_conv
from attnbof.nbof import init_codebook
from attnbof.train import (TrainConfig, accuracy, adam_step, cross_validate, evaluate,
                           fit, holdout_split, init_adam, kfold, macro_f1, train)

from .test_batched import ragged_set


def make_cfg(**overrides):
    cfg = TrainConfig(**overrides)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Adam


def test_adam_zero_gradient_keeps_parameters():
    params = np.array([1.0, -2.0])
    adam_step(params, np.zeros(2), init_adam(params), make_cfg())
    assert np.array_equal(params, [1.0, -2.0])


def test_adam_first_step_is_signed_unit_step():
    g = np.array([0.3, -4.0, 1e-3])
    params = np.zeros(3)
    adam_step(params, g, init_adam(params), make_cfg(learning_rate=0.01))
    # bias-corrected first step: -lr * g / (|g| + eps)
    assert np.allclose(params, -0.01 * np.sign(g), rtol=1e-4)


def test_adam_zero_learning_rate_is_identity():
    params = np.array([0.5, 1.5])
    cfg = TrainConfig(learning_rate=0.0)  # bypasses validate on purpose
    adam_step(params, np.ones(2), init_adam(params), cfg)
    assert np.array_equal(params, [0.5, 1.5])


def test_adam_three_step_trace_matches_hand_loop():
    # minimize 0.5 * theta^2; gradient is theta
    cfg = make_cfg(learning_rate=0.1)
    params = np.array([2.0])
    state = init_adam(params)
    theta = 2.0
    m = v = 0.0
    for step in range(1, 4):
        adam_step(params, params.copy(), state, cfg)

        m = 0.9 * m + 0.1 * theta
        v = 0.999 * v + 0.001 * theta * theta
        m_hat = m / (1.0 - 0.9 ** step)
        v_hat = v / (1.0 - 0.999 ** step)
        theta -= 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert math.isclose(params[0], theta, abs_tol=1e-12)


def test_adam_flat_update_is_bitwise_the_per_parameter_update():
    # oracle: one moment pair per named parameter, updated in a hand loop
    rng = np.random.default_rng(3)
    net = Model.build(ModelConfig(feature_dim=3, classes=2, codewords=4, latent_dim=2,
                                  attention="csa", heads=2, seq_len=5, seed=3))
    ref = {k: p.copy() for k, p in net.params.items()}
    cfg = make_cfg(learning_rate=0.01)
    state = init_adam(net.flat)
    m = {k: np.zeros(p.shape) for k, p in ref.items()}
    v = {k: np.zeros(p.shape) for k, p in ref.items()}
    for t in range(1, 6):
        grads = {k: rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 6)
                 for k, p in ref.items()}
        adam_step(net.flat, np.concatenate([g.ravel() for g in grads.values()]), state, cfg)
        c1, c2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
            v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
            ref[k] -= 0.01 * (m[k] / c1) / (np.sqrt(v[k] / c2) + 1e-8)
        assert all(np.array_equal(net.params[k], ref[k]) for k in ref)


def test_adam_rejects_non_finite_step_before_moving_parameters():
    params = np.ones(4)
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged, match="step 1"):
        adam_step(params, np.array([1.0, 1.0, 1.0, np.inf]), init_adam(params),
                  make_cfg())
    assert np.array_equal(params, np.ones(4))


def test_adam_rejects_misshapen_gradient():
    params, state = np.ones(3), init_adam(np.ones(3))
    for shape in [(2,), (1,), (3, 1)]:  # (1,) would broadcast
        with pytest.raises(ShapeError, match=rf"gradient is \({shape[0]},"):
            adam_step(params, np.ones(shape), state, make_cfg())
    assert state.t == 0 and not state.m.any()
    assert np.array_equal(params, np.ones(3))


# ---------------------------------------------------------------------------
# splits


def test_kfold_disjoint_exhaustive_stratified():
    ds = gen_noisy_timestamps(classes=3, feature_dim=4, length=6,
                              signal_fraction=0.5, snr=2.0, count=30, seed=1)
    splits = kfold(ds, folds=5, seed=3)
    assert len(splits) == 5
    sizes = []
    for train_set, val_set in splits:
        assert len(train_set) + len(val_set) == 30
        labels = val_set.labels()
        # stratification: balanced labels in each fold
        assert [int(np.sum(labels == c)) for c in range(3)] == [2, 2, 2]
        sizes.append(len(val_set))
    assert sizes == [6, 6, 6, 6, 6]


def test_kfold_deterministic():
    ds = gen_noisy_timestamps(classes=2, feature_dim=3, length=4,
                              signal_fraction=0.5, snr=1.0, count=20, seed=2)
    a = kfold(ds, folds=4, seed=9)
    b = kfold(ds, folds=4, seed=9)
    for (ta, va), (tb, vb) in zip(a, b):
        assert va.labels().tolist() == vb.labels().tolist()
        assert all(np.array_equal(x, y) for (x, _), (y, _) in zip(va.items, vb.items))


def test_kfold_rejects_more_folds_than_items():
    ds = gen_noisy_timestamps(classes=2, feature_dim=2, length=4,
                              signal_fraction=0.5, snr=1.0, count=4, seed=0)
    twins = gen_order_task(feature_dim=3, length=6, count=8, seed=0)   # 4 label groups
    for data, folds in ((ds, 5), (twins, 6)):
        with pytest.raises(ConfigError,
                           match=f"^folds is {folds}, the data has 4 label groups$"):
            kfold(data, folds=folds, seed=0)
    with pytest.raises(ConfigError):
        kfold(ds, folds=1, seed=0)


def test_holdout_split_keeps_twin_groups_together():
    ds = gen_order_task(feature_dim=3, length=6, count=40, seed=4)
    train_set, val_set = holdout_split(ds, 0.2, seed=5)
    assert len(val_set) == 8 and len(train_set) == 32
    # twins are adjacent class-0/class-1 items built from the same symbols;
    # a kept group contributes one of each label
    assert int(np.sum(val_set.labels() == 0)) == 4
    for i in range(0, len(val_set), 2):
        a = sorted(map(tuple, val_set.items[i][0].T))
        b = sorted(map(tuple, val_set.items[i + 1][0].T))
        assert a == b


# ---------------------------------------------------------------------------
# metrics


def test_accuracy_hand_value():
    assert math.isclose(accuracy([1, 1, 0], [1, 0, 0]), 2.0 / 3.0)


def test_macro_f1_perfect():
    assert macro_f1([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0


def test_macro_f1_hand_confusion():
    # labels [0,1,1], preds [0,0,1]:
    #   class 0: TP=1 FP=1 FN=0 -> F1 = 2/3
    #   class 1: TP=1 FP=0 FN=1 -> F1 = 2/3
    assert math.isclose(macro_f1([0, 0, 1], [0, 1, 1]), 2.0 / 3.0)


def test_macro_f1_ignores_absent_classes():
    # class 2 appears nowhere and must not drag the mean down
    assert math.isclose(macro_f1([0, 1], [0, 1]), 1.0)


def test_metrics_reject_mismatched_lengths():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])
    with pytest.raises(ValueError):
        macro_f1([], [])


# ---------------------------------------------------------------------------
# training loop


def separable_toy(count=36, seed=11):
    return gen_noisy_timestamps(classes=3, feature_dim=4, length=6,
                                signal_fraction=1.0, snr=5.0, count=count,
                                seed=seed)


def test_training_learns_separable_toy():
    ds = separable_toy()
    net = Model.build(ModelConfig(feature_dim=4, classes=3, codewords=6, seed=0))
    cfg = make_cfg(epochs=10, batch_size=8, learning_rate=0.01, seed=0)
    trace = fit(net, ds, cfg)
    assert len(trace) == cfg.epochs
    assert all(np.isfinite(v) for v in trace)
    acc, f1 = evaluate(net, ds)
    assert acc >= 0.99
    assert f1 >= 0.99


def test_fit_conv_frontend_with_other_channel_count():
    ds = separable_toy(count=12)
    cfg = ModelConfig(feature_dim=4, classes=3, codewords=5, frontend="conv",
                      conv_channels=6, seed=0)
    net = Model.build(cfg)
    kernel, bias = net.params["frontend.kernel"].copy(), net.params["frontend.bias"].copy()
    trace = fit(net, ds, make_cfg(epochs=1, batch_size=4))
    assert len(trace) == 1 and np.isfinite(trace[0])
    # the codewords are drawn from the initial kernel's features
    features = np.concatenate([frontend_conv(x, kernel, bias) for x, _ in ds.items], axis=1)
    start = init_codebook([features], 5, seed=0)
    assert start.shape == net.params["codebook.v"].shape == (5, 6)
    assert np.max(np.abs(start - net.params["codebook.v"])) < 0.1


def test_fit_draws_input_mode_2da_codewords_from_the_attention_output(monkeypatch):
    ds = separable_toy(count=12)
    cfg = ModelConfig(feature_dim=4, classes=3, codewords=5, attention="2da", mode="input",
                      seed=0)
    net, start = Model.build(cfg), Model.build(cfg)
    set_codebook, drawn = net.set_codebook, []

    def keep_drawn(v):
        drawn.append(v.copy())
        set_codebook(v)

    monkeypatch.setattr(net, "set_codebook", keep_drawn)
    fit(net, ds, make_cfg(epochs=1, batch_size=4))
    w, alpha_raw = start.params["att.w"], start.params["att.alpha_raw"]
    columns = np.concatenate([attention.att_2da(x, w, alpha_raw, "input")
                              for x, _ in ds.items], axis=1).T
    assert drawn[0].shape == (5, 4)
    for codeword in drawn[0]:
        assert np.all(columns == codeword, axis=1).any()


def long_toy(length=300, count=5):
    """K * N = 64 * 300 memberships per item, more than one stack may hold."""
    rng = np.random.default_rng(7)
    items = [(rng.standard_normal((2, length)) + 2.0 * (i % 3), i % 3)
             for i in range(count)]
    return LabeledSequenceSet(items=items, classes=3, feature_dim=2)


@pytest.mark.parametrize("model_kwargs,make_set,stacks,limit", [
    (dict(feature_dim=4, codewords=6, attention="csa", latent_dim=4, seq_len=6,
          heads=2), lambda: separable_toy(count=36), [36], None),
    (dict(feature_dim=4, codewords=6, attention="tsa", latent_dim=4), ragged_set,
     [10, 10, 10], None),
    (dict(feature_dim=2, codewords=64), long_toy, [4, 1], None),
    (dict(feature_dim=2, codewords=64, attention="csa", latent_dim=4, seq_len=256,
          heads=2, frontend="conv", conv_channels=2),
     lambda: long_toy(length=256, count=6), [4, 2], None),
    # one item's memberships are the most a stack may hold: no four-item floor
    (dict(feature_dim=2, codewords=64), long_toy, [1] * 5, 64 * 300),
    # three items fit: the bound undercuts the four-item floor
    (dict(feature_dim=2, codewords=64), long_toy, [3, 2], 3 * 64 * 300),
], ids=["equal-length", "ragged", "over-budget", "long-sequence", "one-item-bound",
        "three-item-bound"])
def test_stacked_evaluate_matches_predict_loop(model_kwargs, make_set, stacks, limit,
                                               monkeypatch):
    net = Model.build(ModelConfig(classes=3, seed=4, **model_kwargs))
    if limit is not None:
        monkeypatch.setattr(numerics, "MAX_VALUES", limit)
    ds = make_set()
    net.set_codebook(init_codebook([x for x, _ in ds.items], net.config.codewords, 4))
    # label each item with its own per-item prediction: evaluate must score 1
    relabeled = LabeledSequenceSet(items=[(x, net.predict(x)) for x, _ in ds.items],
                                   classes=3, feature_dim=ds.feature_dim)
    assert len(set(relabeled.labels().tolist())) > 1
    sizes = []
    predict = net.predict
    monkeypatch.setattr(net, "predict", lambda xs: sizes.append(len(xs)) or predict(xs))
    assert evaluate(net, relabeled) == (1.0, 1.0)
    assert sizes == stacks


def test_train_runs_are_bitwise_reproducible():
    ds = separable_toy(count=24, seed=21)
    cfg = make_cfg(epochs=3, batch_size=8, learning_rate=0.01, seed=7)
    model_cfg = ModelConfig(feature_dim=4, classes=3, codewords=5,
                            attention="csa", latent_dim=4, seq_len=6,
                            dropout_rate=0.2, seed=7)
    net1, rep1 = train(Model.build(model_cfg), ds, cfg)
    net2, rep2 = train(Model.build(model_cfg), ds, cfg)
    assert rep1.folds[0].loss_trace == rep2.folds[0].loss_trace
    for name in net1.params:
        assert np.array_equal(net1.params[name], net2.params[name])


def test_train_cross_validation_report_shape():
    ds = separable_toy(count=30, seed=31)
    cfg = make_cfg(epochs=2, batch_size=8, learning_rate=0.01, folds=3, seed=1)
    net = Model.build(ModelConfig(feature_dim=4, classes=3, codewords=5, seed=1))
    _, report = train(net, ds, cfg)
    assert len(report.folds) == 3
    assert all(len(f.loss_trace) == 2 for f in report.folds)
    accs = [f.accuracy for f in report.folds]
    assert math.isclose(report.accuracy_mean, float(np.mean(accs)))
    assert math.isclose(report.accuracy_std, float(np.std(accs, ddof=1)))
    table = report.to_markdown()
    assert table.count("\n") == 2 + len(report.folds)
    assert "mean + std" in table


def test_cross_validate_is_the_report_of_train_without_the_final_fit(monkeypatch):
    ds = separable_toy(count=30, seed=31)
    cfg = make_cfg(epochs=2, batch_size=8, learning_rate=0.01, folds=3, seed=1)
    model_cfg = ModelConfig(feature_dim=4, classes=3, codewords=5, seed=1)
    _, want = train(Model.build(model_cfg), ds, cfg)
    fits = []
    monkeypatch.setattr(train_mod, "fit", lambda *args: fits.append(1) or fit(*args))
    assert cross_validate(model_cfg, ds, cfg).to_dict() == want.to_dict()
    assert len(fits) == 3
    with pytest.raises(ConfigError, match="folds >= 2"):
        cross_validate(model_cfg, ds, make_cfg(folds=1))


def test_train_aborts_on_non_finite_loss():
    items = [(np.full((2, 4), np.nan), 0), (np.zeros((2, 4)), 1)]
    ds = LabeledSequenceSet(items=items, classes=2, feature_dim=2)
    net = Model.build(ModelConfig(feature_dim=2, classes=2, codewords=2, seed=0))
    cfg = make_cfg(epochs=1, batch_size=2)
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        fit(net, ds, cfg)


def test_fit_rejects_non_finite_gradient_before_moving_parameters(monkeypatch):
    ds = separable_toy(count=12)
    net = Model.build(ModelConfig(feature_dim=4, classes=3, codewords=5, seed=0))
    set_codebook = net.set_codebook
    start = {}

    def keep_start(v):
        set_codebook(v)
        start.update({k: p.copy() for k, p in net.params.items()})

    monkeypatch.setattr(net, "set_codebook", keep_start)
    monkeypatch.setattr(nbof, "aggregate_vjp",
                        lambda inputs, output, upstream: (np.full(inputs[0].shape, np.inf),))
    with np.errstate(invalid="ignore"), \
            pytest.raises(TrainingDiverged, match="gradient at epoch 0, batch 0"):
        fit(net, ds, make_cfg(epochs=1, batch_size=4))
    assert all(np.array_equal(net.params[k], p) for k, p in start.items())


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_non_finite_learning_rate(rate):
    with pytest.raises(ConfigError, match="learning_rate"):
        make_cfg(learning_rate=rate)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        make_cfg(epochs=0)
    with pytest.raises(ConfigError):
        make_cfg(holdout_fraction=0.0)
    with pytest.raises(ConfigError):
        make_cfg(folds=0)
