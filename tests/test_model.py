import math
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from attnbof import model as model_mod
from attnbof import nbof, numerics
from attnbof.attention import MODES, VARIANTS
from attnbof.data import gen_noisy_timestamps
from attnbof.errors import (ChecksumError, ConfigError, DataFormatError,
                            ShapeError, VersionError)
from attnbof.model import (FRONTENDS, Model, ModelConfig, cross_entropy, frontend_conv,
                           load_checkpoint, loss_op, param_shapes,
                           save_checkpoint)
from attnbof.numerics import grad_check, softplus
from attnbof.train import TrainConfig, fit

from .oracles import loop_conv1d_relu, loop_cross_entropy, padded_window_patches

DESK = dict(feature_dim=4, classes=3, codewords=6, latent_dim=5, seq_len=8)


def desk_model(**overrides):
    cfg = ModelConfig(**{**DESK, **overrides})
    return Model.build(cfg)


# ---------------------------------------------------------------------------
# frontend


def test_conv_identity_kernel_passes_nonnegative_input():
    x = np.abs(np.random.default_rng(0).standard_normal((3, 6)))
    kernel = np.zeros((3, 3, 3))
    for c in range(3):
        kernel[c, c, 1] = 1.0  # center tap
    out = frontend_conv(x, kernel.reshape(3, 9), np.zeros((3, 1)))
    assert np.array_equal(out, x)


def test_conv_zero_input_gives_zero_output():
    kernel = np.random.default_rng(1).standard_normal((2, 3 * 5))
    out = frontend_conv(np.zeros((3, 7)), kernel, np.zeros((2, 1)))
    assert np.array_equal(out, np.zeros((2, 7)))


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((3, 9))
    k3 = rng.standard_normal((4, 3, 5))
    bias = rng.standard_normal((4, 1))
    out = frontend_conv(x, k3.reshape(4, 15), bias)
    assert np.allclose(out, loop_conv1d_relu(x, k3, bias), rtol=0, atol=1e-12)


@pytest.mark.parametrize("width", [1, 3, 5, 9])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 30])
@pytest.mark.parametrize("layout", ["item", "stack", "transposed"])
def test_conv_patches_equal_the_padded_window_oracle(width, n, layout):
    # the patches are filled column by column from x; a kernel wider than the
    # sequence leaves whole columns of zeros
    rng = np.random.default_rng(width * 100 + n)
    x = {"item": lambda: rng.standard_normal((3, n)),
         "stack": lambda: rng.standard_normal((4, 3, n)),
         "transposed": lambda: rng.standard_normal((n, 3)).T}[layout]()
    kernel, bias = rng.standard_normal((5, 3 * width)), rng.standard_normal((5, 1))
    before = x.copy()
    pre, patches = model_mod._conv_pre(x, kernel, bias)
    want = padded_window_patches(x, width)
    assert patches.shape == want.shape and np.array_equal(patches, want)
    want_pre = kernel @ want + bias
    assert np.array_equal(pre, want_pre)
    for cache in (None, {}):
        assert np.array_equal(frontend_conv(x, kernel, bias, cache=cache),
                              np.maximum(want_pre, 0.0))
    assert np.array_equal(x, before)


@pytest.mark.parametrize("layout", ["item", "stack", "transposed"])
def test_forward_only_branches_equal_their_cached_branches(layout):
    # without a cache, quantize_raw writes the memberships over its distances
    # and frontend_conv rectifies its pre-activation in place; input-mode 2da
    # hands the quantizer a transposed x
    rng = np.random.default_rng(11)
    x = 3.0 * {"item": lambda: rng.standard_normal((16, 9)),
               "stack": lambda: rng.standard_normal((3, 16, 9)),
               "transposed": lambda: rng.standard_normal((9, 16)).T}[layout]()
    last = x if x.ndim == 2 else x[-1]
    # codewords on data columns: their distances fall near zero, where the
    # GEMM form has cancelled, and are recomputed exactly
    on_data = [0, 2, 4, 5, 7, 8]
    v = last[:, on_data].T.copy()
    w_raw = rng.standard_normal(v.shape)
    kernel, bias = rng.standard_normal((4, 48)), rng.standard_normal((4, 1))
    before = x.copy()
    caches = {}
    for layer, args in ((nbof.quantize_raw, (v, w_raw)), (frontend_conv, (kernel, bias))):
        cached = layer(x, *args, cache=caches.setdefault(layer.__name__, {}))
        assert np.array_equal(layer(x, *args), cached)
        assert np.array_equal(x, before)
    dist = caches["quantize_raw"]["dist"]
    assert np.all((dist if x.ndim == 2 else dist[-1])[range(6), on_data] == 0.0)
    assert caches["frontend_conv"]["pre"].min() < 0.0


def test_conv_rejects_even_width():
    with pytest.raises(ShapeError, match="odd"):
        frontend_conv(np.zeros((2, 5)), np.zeros((1, 4)), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# loss


def test_cross_entropy_uniform_logits():
    assert math.isclose(cross_entropy(np.zeros(4), 1), math.log(4.0), rel_tol=1e-12)


def test_cross_entropy_saturated_margin():
    logits = np.zeros(3)
    logits[2] = 30.0
    assert cross_entropy(logits, 2) < 1e-12


def test_cross_entropy_matches_loop_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        logits = rng.standard_normal(5) * 2.0
        label = int(rng.integers(5))
        assert math.isclose(cross_entropy(logits, label),
                            loop_cross_entropy(logits, label), abs_tol=1e-12)


def test_cross_entropy_label_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(np.zeros(3), 3)


def two_pass_loss_and_vjp(logits, label):
    """The loss and its logits cotangent, each from its own exponentiation."""
    m = logits.max(axis=-1)
    lse = m + np.log(np.exp(logits - m[..., None]).sum(axis=-1))
    rows = logits.reshape(-1, logits.shape[-1])
    loss = lse - rows[np.arange(len(rows)), np.reshape(label, -1)].reshape(np.shape(label))
    p = np.exp(logits - m[..., None])
    p /= p.sum(axis=-1, keepdims=True)
    p -= np.arange(logits.shape[-1]) == np.asarray(label)[..., None]
    return loss, p


@pytest.mark.parametrize("shape", [(5,), (7, 4)], ids=["vector", "stack"])
def test_loss_helper_is_bitwise_the_loss_and_its_vjp(shape):
    rng = np.random.default_rng(12)
    for scale in (0.1, 3.0, 300.0):
        logits = rng.standard_normal(shape) * scale
        label = rng.integers(shape[-1], size=shape[:-1])
        label = int(label) if label.ndim == 0 else label
        loss, dlogits = model_mod._loss_and_dlogits(logits, label)
        want_loss, want_dlogits = two_pass_loss_and_vjp(logits, label)
        assert type(loss) is (float if len(shape) == 1 else np.ndarray)
        assert np.array_equal(loss, want_loss) and np.array_equal(dlogits, want_dlogits)
        assert np.array_equal(cross_entropy(logits, label), loss)


@pytest.mark.parametrize("logits, label, error, match", [
    (np.zeros(3), 3, ValueError, r"label 3 out of range \[0, 3\)"),
    (np.zeros((2, 3)), np.array([0, -1]), ValueError, "out of range"),
    (np.zeros(3), 1.0, ValueError, "labels must be integers"),
    (np.zeros((2, 3)), np.array([0, 1, 2]), ShapeError, "do not conform"),
    (np.zeros(3), np.array([1]), ShapeError, "do not conform"),
], ids=["over", "negative", "float", "stack-shape", "vector-shape"])
def test_loss_helper_raises_as_the_loss_and_its_vjp(logits, label, error, match):
    for call in (lambda: model_mod._loss_and_dlogits(logits, label),
                 lambda: cross_entropy(logits, label)):
        with pytest.raises(error, match=match):
            call()


# ---------------------------------------------------------------------------
# forward behaviour


def test_constant_columns_make_logits_length_invariant():
    net = desk_model(attention="none")
    col = np.random.default_rng(4).standard_normal(4)
    short = np.tile(col[:, None], 3)
    long = np.tile(col[:, None], 11)
    assert np.allclose(net.forward(short), net.forward(long), rtol=0, atol=1e-12)


def test_plain_model_ignores_timestamp_order():
    net = desk_model(attention="none")
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 10))
    perm = rng.permutation(10)
    assert np.allclose(net.forward(x), net.forward(x[:, perm]), rtol=0, atol=1e-12)


def test_tsa_model_logits_invariant_to_timestamp_order():
    net = desk_model(attention="tsa", heads=2)
    rng = np.random.default_rng(55)
    x = rng.standard_normal((4, 8))
    perm = rng.permutation(8)
    assert np.allclose(net.forward(x), net.forward(x[:, perm]), rtol=0, atol=1e-9)


def test_temporal_mask_model_is_position_sensitive():
    net = desk_model(attention="2da", mode="temporal")
    rng = np.random.default_rng(56)
    x = rng.standard_normal((4, 8))
    # swapping two timestamps must be able to move the logits
    worst = 0.0
    for _ in range(5):
        perm = rng.permutation(8)
        worst = max(worst, float(np.abs(net.forward(x) - net.forward(x[:, perm])).max()))
    assert worst > 1e-9


@pytest.mark.parametrize("mode", MODES)
def test_2da_attention_matrix_keeps_its_orientation(mode):
    # one row-stochastic mask in M's orientation (temporal (K, N), codeword
    # (N, K), input (N, D)), a view of the layer's transposed scores; the
    # temporal and codeword stages pool in the layer, so no aggregate follows
    net = desk_model(attention="2da", mode=mode)
    (m,) = net.attention_matrices(np.random.default_rng(57).standard_normal((4, 8)))
    assert m.shape == {"temporal": (6, 8), "codeword": (8, 6), "input": (8, 4)}[mode]
    assert not m.flags.owndata
    assert np.allclose(m.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert ("aggregate" in [stage.name for stage in net.stages]) == (mode == "input")


def test_eval_forward_is_bitwise_deterministic():
    net = desk_model(attention="ctsa", heads=2, dropout_rate=0.5)
    x = np.random.default_rng(6).standard_normal((4, 8))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_training_dropout_changes_output_but_is_seeded():
    net = desk_model(attention="csa", dropout_rate=0.4)
    x = np.random.default_rng(7).standard_normal((4, 8))
    a = net.forward(x, training=True, seed=1)
    b = net.forward(x, training=True, seed=1)
    c = net.forward(x, training=True, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forward_reports_stage_on_bad_input():
    net = desk_model()
    with pytest.raises(ShapeError, match="stage input"):
        net.forward(np.zeros((5, 8)))


def test_forward_reports_stage_on_wrong_length():
    net = desk_model(attention="csa")
    with pytest.raises(ShapeError, match="stage attention"):
        net.forward(np.zeros((4, 9)))


def test_forward_pass_peak_memory_is_a_few_membership_stacks():
    # one predict of a 2-item and of a 4-item (evaluate's) K=64, N=256 conv +
    # csa stack: no stage keeps its cache, and the attention stage folds the
    # temporal mean into each head's operator, so it returns (B, h*K)
    # histograms and forms no (B, h*K, N) array
    net = Model.build(ModelConfig(feature_dim=16, classes=4, codewords=64,
                                  attention="csa", latent_dim=16, heads=2,
                                  frontend="conv", conv_channels=16, seq_len=256))
    for batch in (2, 4):
        xs = np.random.default_rng(9).standard_normal((batch, 16, 256))
        net.predict(xs)
        tracemalloc.start()
        try:
            net.predict(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * batch * 64 * 256 * 8


def test_classifier_width_scales_with_heads():
    net = desk_model(attention="tsa", heads=3)
    assert net.params["classifier.weight"].shape == (3, 18)
    net2 = desk_model(attention="2da", mode="codeword")
    assert net2.params["classifier.weight"].shape == (3, 6)


def test_2da_diagonal_pinned_after_build_and_fit():
    net = desk_model(attention="2da", mode="temporal")
    pinned = np.full(8, 1.0 / 8.0)
    assert np.array_equal(np.diag(net.params["att.w"]), pinned)
    data = gen_noisy_timestamps(classes=3, feature_dim=4, length=8,
                                signal_fraction=0.25, snr=2.0, count=24, seed=3)
    before = net.params["att.w"].copy()
    fit(net, data, TrainConfig(epochs=3, batch_size=8, learning_rate=0.05, seed=4))
    assert not np.array_equal(net.params["att.w"], before)
    assert np.array_equal(np.diag(net.params["att.w"]), pinned)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(feature_dim=0, classes=3).validate()
    with pytest.raises(ConfigError):
        ModelConfig(feature_dim=4, classes=3, attention="csa").validate()  # no seq_len
    with pytest.raises(ConfigError):
        ModelConfig(feature_dim=4, classes=3, frontend="conv", conv_width=4).validate()
    with pytest.raises(ConfigError):
        ModelConfig(feature_dim=4, classes=3, dropout_rate=1.0).validate()


# ---------------------------------------------------------------------------
# end-to-end gradients (the full sweep lives in the acceptance suite)


@pytest.mark.parametrize("kwargs", [
    dict(attention="none"),
    dict(attention="2da", mode="input"),
    dict(attention="ctsa", heads=2),
    dict(attention="none", frontend="conv", conv_width=3, conv_channels=5),
])
def test_loss_gradient_small_configs(kwargs):
    net = desk_model(**kwargs)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((4, 8))
    op = loss_op(net, x, label=1)
    report = grad_check(op, list(net.params.values()))
    assert report.finite
    assert report.max_rel_err <= 1e-4


def test_loss_gradient_training_mode_with_dropout():
    net = desk_model(attention="tsa", dropout_rate=0.3)
    x = np.random.default_rng(9).standard_normal((4, 8))
    op = loss_op(net, x, label=2, training=True, seed=11)
    report = grad_check(op, list(net.params.values()))
    assert report.finite
    assert report.max_rel_err <= 1e-4


@pytest.mark.parametrize("training", [False, True])
def test_loss_op_leaves_the_model_alone_and_matches_it_bitwise(training):
    net = desk_model(attention="tsa", heads=2, dropout_rate=0.3)
    flat = net.flat.copy()
    x = np.random.default_rng(10).standard_normal((4, 8))
    op = loss_op(net, x, label=2, training=training, seed=11)
    assert grad_check(op, list(net.params.values())).max_rel_err <= 1e-4
    assert net.flat.tobytes() == flat.tobytes()
    # at the model's own parameters, after grad_check has written others into the op
    point = list(net.params.values())
    want = cross_entropy(net.forward(x, training, 11), 2)
    assert np.asarray(op.forward(*point)).tobytes() == np.asarray(want).tobytes()
    _, grad = net.loss_and_grad(x, 2, training=training, seed=11)
    got = op.vjp(tuple(point), op.forward(*point), np.array(1.0))
    assert [g.tobytes() for g in got] == [g.tobytes() for g in net.views(grad).values()]
    assert net.flat.tobytes() == flat.tobytes()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    net = desk_model(attention="ctsa", heads=2, dropout_rate=0.2)
    path = str(tmp_path / "model.nbaf")
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config == net.config
    assert list(loaded.params) == list(net.params)
    for name in net.params:
        assert np.array_equal(loaded.params[name], net.params[name])
    x = np.random.default_rng(10).standard_normal((4, 8))
    assert np.array_equal(loaded.forward(x), net.forward(x))


# written by the per-head code before the heads became an array axis (33eb519):
# a DESK-shaped tsa model with 3 heads after 2 epochs of ``fit``
PER_HEAD_CHECKPOINT = Path(__file__).parent / "data" / "per-head-tsa-h3.ckpt"


def test_a_per_head_checkpoint_loads_and_resaves_byte_identical(tmp_path):
    net = load_checkpoint(str(PER_HEAD_CHECKPOINT))
    assert net.config == ModelConfig(**DESK, attention="tsa", heads=3, seed=5)
    path = tmp_path / "again.nbaf"
    save_checkpoint(net, str(path))
    assert path.read_bytes() == PER_HEAD_CHECKPOINT.read_bytes()
    # the stage reads each head's block through one strided view per name
    (wq, wk, alpha_raw), *_ = net._bound[[s.name for s in net.stages].index("attention")]
    for i in range(3):
        assert np.shares_memory(wq, net.flat)
        assert np.array_equal(wq[i], net.params[f"att.head{i}.wq"])
        assert np.array_equal(wk[i], net.params[f"att.head{i}.wk"])
        assert np.array_equal(alpha_raw[i], net.params[f"att.head{i}.alpha_raw"])


@pytest.mark.parametrize("variant", VARIANTS)
def test_head_cotangents_land_in_their_registry_slots(variant):
    # the stage's cotangents, (h, rows, cols) each, against the gradient's
    # per-name views: head i's block of every name, and every other slot
    # as the other stages' VJPs give it
    net = desk_model(attention=variant, heads=3, dropout_rate=0.3)
    x = np.random.default_rng(8).standard_normal((2, 4, 8))
    labels, seeds = np.array([2, 0]), np.array([3, 9])
    _, grad = net.loss_and_grad(x, labels, training=True, seed=seeds)
    trail: list = []
    logits = net._run(x, True, seeds, trail)
    g = model_mod._loss_and_dlogits(logits, labels)[1]
    want = {}
    for stage, (ps, _, names), (h, out, cache) in reversed(
            list(zip(net.stages, net._bound, trail))):
        g, *dps = stage.vjp(h, ps, out, g, cache, True)
        for name, d in zip(names, dps):   # a repeated stage's name takes each unit's block
            want.update({name.format(i=i): d[i] for i in range(len(d))} if "{i}" in name
                        else {name: d})
    got = net.views(grad)
    assert list(got) == list(net.params) and sorted(got) == sorted(want)
    for name, d in want.items():
        assert np.array_equal(got[name], d), name


def test_checkpoint_detects_corrupted_payload_byte(tmp_path):
    net = desk_model()
    path = str(tmp_path / "model.nbaf")
    save_checkpoint(net, path)
    blob = bytearray(Path(path).read_bytes())
    header_len = struct.unpack_from("<I", blob, 8)[0]
    pos = 12 + header_len + 40  # somewhere inside the payload
    blob[pos] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_checkpoint(path)


def test_checkpoint_rejects_future_version(tmp_path):
    net = desk_model()
    path = str(tmp_path / "model.nbaf")
    save_checkpoint(net, path)
    blob = bytearray(Path(path).read_bytes())
    struct.pack_into("<I", blob, 4, 99)
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    net = desk_model()
    path = str(tmp_path / "model.nbaf")
    save_checkpoint(net, path)
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[:len(blob) // 2])
    with pytest.raises(DataFormatError):
        load_checkpoint(path)


def test_checkpoint_rejects_wrong_magic(tmp_path):
    path = str(tmp_path / "model.nbaf")
    Path(path).write_bytes(b"QQQQ" + b"\x00" * 20)
    with pytest.raises(DataFormatError, match="magic"):
        load_checkpoint(path)


def test_save_ignores_stale_tmp_directory(tmp_path):
    net = desk_model()
    path = tmp_path / "model.nbaf"
    stale = tmp_path / "model.nbaf.tmp"
    stale.mkdir()
    (stale / "keep").write_text("untouched")
    save_checkpoint(net, str(path))
    loaded = load_checkpoint(str(path))
    assert all(np.array_equal(loaded.params[k], net.params[k]) for k in net.params)
    assert (stale / "keep").read_text() == "untouched"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.nbaf", "model.nbaf.tmp"]


def test_failed_save_leaves_no_temp_file(tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        save_checkpoint(desk_model(), str(target))
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


PARAM_GROUPS = ("frontend.", "codebook.", "att.", "classifier.")


def test_param_shapes_cover_every_variant():
    # the seeded initialization and the checkpoint follow this order
    for kwargs in (dict(attention="none"), dict(attention="2da", mode="temporal"),
                   dict(attention="2da", mode="codeword"),
                   dict(attention="2da", mode="input"),
                   dict(attention="ctsa", heads=2), dict(attention="csa"),
                   dict(attention="tsa", heads=4),
                   dict(attention="none", frontend="conv", conv_channels=3),
                   dict(attention="2da", mode="input", frontend="conv", conv_channels=3)):
        cfg = ModelConfig(**{**DESK, **kwargs})
        net = Model.build(cfg)
        shapes = list(param_shapes(cfg).items())
        assert [(k, v.shape) for k, v in net.params.items()] == shapes
        groups = [next(i for i, g in enumerate(PARAM_GROUPS) if name.startswith(g))
                  for name, _ in shapes]
        assert groups == sorted(groups), shapes


@pytest.mark.parametrize("frontend", FRONTENDS)
@pytest.mark.parametrize("kind", [dict(attention="none"),
                                  *(dict(attention="2da", mode=m) for m in MODES),
                                  *(dict(attention=v, heads=3) for v in VARIANTS)],
                         ids=lambda kind: "-".join(kind.values()) if "mode" in kind
                         else kind["attention"])
def test_parameter_count_is_the_size_of_the_shapes(kind, frontend):
    cfg = ModelConfig(**DESK, **kind, frontend=frontend, conv_width=5, conv_channels=7)
    assert cfg.parameter_count() == sum(r * c for r, c in param_shapes(cfg).values())


def test_config_validation_bounds_the_parameter_count(monkeypatch):
    cfg = ModelConfig(**{**DESK, "attention": "tsa", "heads": 4})
    monkeypatch.setattr(numerics, "MAX_VALUES", cfg.parameter_count())
    cfg.validate()   # the ceiling itself is allowed
    monkeypatch.setattr(numerics, "MAX_VALUES", cfg.parameter_count() - 1)
    with pytest.raises(ConfigError, match=f"{cfg.parameter_count()} parameters"):
        cfg.validate()


@pytest.mark.parametrize("fields, n, largest", [
    (dict(codewords=5000), 30, 5000 * 30),                                 # memberships
    (dict(frontend="conv", conv_width=101, conv_channels=2), 30, 4 * 101 * 30),  # patches
    (dict(attention="tsa", latent_dim=3), 600, 600 * 600),                 # a head's scores
    (dict(attention="csa", codewords=40, latent_dim=50, seq_len=6), 6, 40 * 50),  # q or k
    (dict(attention="tsa", codewords=5, latent_dim=40), 30, 30 * 40),      # d > N
    (dict(attention="ctsa", codewords=40, latent_dim=2, seq_len=90), 90, 40 * 90),
    (dict(attention="tsa", latent_dim=3, heads=3), 600, 3 * 600 * 600),    # every head's
    (dict(attention="csa", codewords=40, latent_dim=2, heads=2, seq_len=90), 90,
     2 * 40 * 90),                                    # phi's per-head cotangent parts
], ids=["memberships", "conv-patches", "tsa-scores", "csa-projections", "tsa-projections",
        "ctsa-scores", "tsa-scores-h3", "csa-dphi-parts-h2"])
def test_stack_bound_is_the_largest_stage_array(fields, n, largest):
    cfg = ModelConfig(feature_dim=4, classes=2, **fields)
    assert cfg.stage_values(n) == largest
    cfg.check_stack(numerics.MAX_VALUES // largest, n)   # the ceiling itself is allowed
    with pytest.raises(ConfigError, match=f"{(numerics.MAX_VALUES // largest + 1) * largest}"):
        cfg.check_stack(numerics.MAX_VALUES // largest + 1, n)


def test_stack_bound_holds_every_array_the_forward_caches():
    for kind in [dict(attention="none", frontend="conv", conv_width=5),
                 *(dict(attention="2da", mode=m) for m in MODES),
                 *(dict(attention=v, heads=2) for v in VARIANTS)]:
        net = desk_model(**kind)
        xs = np.random.default_rng(3).standard_normal((3, 4, 8))
        trail = []
        net._run(xs, True, np.arange(3), trail)
        arrays = [a for _, out, cache in trail for a in [out, *cache.values()]]
        assert max(np.size(a) for a in arrays if isinstance(a, np.ndarray)) \
            <= 3 * net.config.stage_values(8), kind


def traced_peak(call) -> int:
    """The tracemalloc peak of one ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stack_bound_holds_the_quantizer_vjp_operands():
    # at D=100, K=500, N=2 the VJP's per-codeword sums, (B, K, 2D + 1), are
    # 100 times the memberships; the gradient itself is no stage array
    cfg = ModelConfig(feature_dim=100, classes=2, codewords=500)
    net = Model.build(cfg)
    xs = np.random.default_rng(0).standard_normal((3, 100, 2))
    peak = traced_peak(lambda: net.loss_and_grad(xs, np.array([0, 1, 0])))
    assert peak - 8 * net.size <= 10 * 3 * cfg.stage_values(2) * 8


def test_stack_bound_holds_the_near_zero_distance_recompute():
    # every distance from an all-zero stack to an all-zero codebook is near
    # zero, so every one is recomputed from its column's difference
    cfg = ModelConfig(feature_dim=100, classes=2, codewords=50)
    net = Model.build(cfg)
    net.set_codebook(np.zeros((50, 100)))
    xs = np.zeros((4, 100, 50))
    assert traced_peak(lambda: net.forward(xs)) <= 10 * 4 * cfg.stage_values(50) * 8


def test_config_validation_bounds_the_heads_before_listing_them(monkeypatch):
    def listed(*args):
        raise AssertionError("the heads were listed before the bound")

    monkeypatch.setattr(model_mod, "param_shapes", listed)
    monkeypatch.setattr(Model, "build", listed)
    cfg = ModelConfig(feature_dim=1, classes=2, codewords=1, latent_dim=1,
                      attention="tsa", heads=numerics.MAX_HEADS)
    cfg.validate()   # the ceiling itself is allowed
    cfg.heads += 1
    with pytest.raises(ConfigError, match=f"^{numerics.MAX_HEADS + 1} heads"):
        cfg.validate()


@pytest.mark.parametrize("kind", [dict(attention="tsa", heads=2, dropout_rate=0.25),
                                  dict(attention="2da", mode="input", frontend="conv")],
                         ids=["tsa-h2-dropout", "conv-2da-input"])
def test_built_model_never_rebuilds_its_stage_table(monkeypatch, kind):
    net = desk_model(**kind)
    xs = np.random.default_rng(0).standard_normal((3, 4, 8))

    def rebuilt(cfg):
        raise AssertionError("the stage table was rebuilt")

    monkeypatch.setattr(model_mod, "build_stages", rebuilt)
    monkeypatch.setattr(model_mod, "param_shapes", rebuilt)
    for x, label, seed in ((xs[0], 1, 5), (xs, np.array([0, 1, 2]), np.arange(3))):
        net.forward(x)
        net.predict(x)
        _, grad = net.loss_and_grad(x, label, training=True, seed=seed)
        assert grad.shape == net.flat.shape


def test_star_import_binds_every_public_name():
    # a stale ``__all__`` entry makes the star import itself fail
    namespace: dict = {}
    exec("from attnbof import *", namespace)
    assert {"Model", "att_2da", "init_codebook", "quantize_raw"} <= set(namespace)


# ---------------------------------------------------------------------------
# the parameter vector


def assert_views_of_flat(net):
    """Every parameter is a view of ``net.flat`` at its registry offset."""
    start = 0
    for name, p in net.params.items():
        assert p.ctypes.data == net.flat.ctypes.data + 8 * start, name
        start += p.size
    assert start == net.flat.size
    assert net.flat.flags.owndata


def test_params_stay_views_of_flat(tmp_path):
    net = desk_model(attention="csa", heads=2)
    assert_views_of_flat(net)
    data = gen_noisy_timestamps(classes=3, feature_dim=4, length=8,
                                signal_fraction=0.25, snr=2.0, count=12, seed=3)
    # fit sets the codebook, then takes one Adam step on flat
    fit(net, data, TrainConfig(epochs=1, batch_size=12, learning_rate=0.05, seed=4))
    assert_views_of_flat(net)
    net.flat[-1] = 7.0
    assert net.params["classifier.bias"][-1, 0] == 7.0
    path = str(tmp_path / "model.nbaf")
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert_views_of_flat(loaded)
    assert np.array_equal(loaded.flat, net.flat)


def test_set_codebook_writes_into_flat():
    net = desk_model()
    x = np.random.default_rng(2).standard_normal((4, 8))
    net.params["codebook.w_raw"][...] = 0.3
    v = nbof.init_codebook([x], 6, seed=1)
    net.set_codebook(v)
    assert_views_of_flat(net)
    assert np.array_equal(net.params["codebook.v"], v)
    # the shape weights restart at one
    assert np.array_equal(net.params["codebook.w_raw"], np.full((6, 4), nbof.W_RAW_UNIT))
    assert np.allclose(softplus(net.params["codebook.w_raw"]), 1.0, rtol=0, atol=1e-15)
    with pytest.raises(ShapeError, match="codebook"):
        net.set_codebook(nbof.init_codebook([x], 5, seed=1))


def test_wrong_length_vector_raises_shape_error():
    net = desk_model(attention="tsa", heads=2)
    size = net.flat.size
    for bad in (np.zeros(size + 1), np.zeros(size - 1), np.zeros((1, size))):
        with pytest.raises(ShapeError, match="parameter vector"):
            Model(net.config, bad)
        with pytest.raises(ShapeError, match="parameter vector"):
            net.views(bad)


@pytest.mark.parametrize("cotangents,name", [
    (lambda dh, dv, dw: (dh, dv[:, :-1], dw), "codebook.v"),
    (lambda dh, dv, dw: (dh, dv), "codebook.w_raw"),
], ids=["misshapen", "missing"])
def test_misshapen_stage_cotangent_raises_shape_error(monkeypatch, cotangents, name):
    quantize_vjp = nbof.quantize_vjp
    monkeypatch.setattr(nbof, "quantize_vjp",
                        lambda *args: cotangents(*quantize_vjp(*args)))
    net = desk_model()
    x = np.random.default_rng(3).standard_normal((4, 8))
    with pytest.raises(ShapeError, match=f"stage quantize: cotangent of '{name}'"):
        net.loss_and_grad(x, 1)
