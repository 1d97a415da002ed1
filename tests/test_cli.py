import contextlib
import errno
import functools
import hashlib
import inspect
import io
import json
import math
import os
import stat
import struct
import sys
import tempfile
import threading
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attnbof import attention, cli
from attnbof import data as data_mod
from attnbof import model as model_mod
from attnbof import numerics
from attnbof import train as train_mod
from attnbof.cli import main, parse_config
from attnbof.data import (FEATURES_MAGIC, FEATURES_VERSION, gen_noisy_timestamps,
                          gen_order_task, load_features, save_features)
from attnbof.errors import ConfigError
from attnbof.io_container import read_container, write_container, write_file
from attnbof.model import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, Model, ModelConfig,
                           load_checkpoint, save_checkpoint)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def order_file(tmp_path):
    ds = gen_order_task(feature_dim=3, length=6, count=40, seed=2)
    path = str(tmp_path / "order.fseq")
    save_features(ds, path)
    return path


TRAIN_CONF = """
# tiny run for the command-line tests
attention = 2da
mode = temporal
codewords = 4
epochs = 2
batch_size = 8
learning_rate = 0.01
holdout_fraction = 0.2
seed = 3
"""


def test_parse_config_types_and_comments(tmp_path):
    path = write(tmp_path / "c.conf", "codewords = 8 # inline\n\nsnr = 1.5\n")
    assert parse_config(path) == {"codewords": 8, "snr": 1.5}


def test_parse_config_rejects_unknown_key(tmp_path):
    path = write(tmp_path / "c.conf", "coedwords = 8\n")
    with pytest.raises(ConfigError, match="coedwords"):
        parse_config(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize("key", sorted(k for k, types in cli._SCHEMA.items()
                                       if types[0] is float))
def test_non_finite_config_value_exits_two_naming_the_key(tmp_path, capsys, key, value):
    conf = write(tmp_path / "c.conf", f"generator = noisy\ncount = 6\n{key} = {value}\n")
    out = tmp_path / "out.fseq"
    err = assert_clean_exit_two(capsys, ["gen", "--config", conf, "--out", str(out)])
    assert f"{key!r} must be finite" in err and not out.exists()


def test_config_schema_names_only_what_a_config_can_set():
    confs = sorted(CONFIGS.glob("*.conf"))
    assert confs
    for path in confs:
        parse_config(str(path))
    # the generator's name, then the parameters of ModelConfig, TrainConfig
    # and the generators, each parsed as its type hint says
    assert {key: types[0] for key, types in cli._SCHEMA.items()} == {
        "generator": str, "attention": str, "mode": str, "frontend": str,
        **dict.fromkeys(["feature_dim", "classes", "codewords", "latent_dim", "heads",
                         "conv_width", "conv_channels", "seq_len", "seed", "epochs",
                         "batch_size", "folds", "length", "count"], int),
        **dict.fromkeys(["dropout_rate", "learning_rate", "holdout_fraction",
                         "signal_fraction", "snr"], float)}


def test_adam_constants_are_not_config_keys(tmp_path, order_file, capsys):
    conf = write(tmp_path / "train.conf", TRAIN_CONF + "adam_eps = 1e-7\n")
    out = tmp_path / "m.nbaf"
    err = assert_clean_exit_two(capsys, ["train", "--config", conf, "--data", order_file,
                                         "--out", str(out)])
    assert "unknown key 'adam_eps'" in err and not out.exists()


@pytest.mark.parametrize("name, seed, checksum", [("order", 11, "9b179895"),
                                                  ("noisy", 7, "1f2c0741")])
def test_gen_defaults_are_the_generator_signature_defaults(tmp_path, capsys, name, seed,
                                                           checksum):
    # checksums of configs/gen-{order,noisy}.conf, which spell the defaults out
    conf = write(tmp_path / "gen.conf", f"generator = {name}\n")
    out = str(tmp_path / "x.fseq")
    assert main(["gen", "--config", conf, "--out", out, "--seed", str(seed)]) == 0
    assert json.loads(capsys.readouterr().out)["checksum"] == checksum


def test_gen_order_prints_frozen_checksum(tmp_path, capsys):
    conf = write(tmp_path / "gen.conf",
                 "generator = order\nfeature_dim = 4\nlength = 20\ncount = 400\n")
    out = str(tmp_path / "order.fseq")
    assert main(["gen", "--config", conf, "--out", out, "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checksum"] == "9b179895"
    assert payload["items"] == 400


# a config of each seeded command, without a seed
SEEDLESS = {"gen": "generator = order\nlength = 6\ncount = 8\n",
            "train": TRAIN_CONF.replace("seed = 3\n", ""),
            "gradcheck": "feature_dim = 4\nclasses = 3\ncodewords = 6\n"}


@pytest.mark.parametrize("command", sorted(SEEDLESS))
def test_seed_flag_beats_the_config_seed_which_beats_zero(tmp_path, order_file, capsys,
                                                          command):
    def run(file_seed=None, flag_seed=None):
        text = SEEDLESS[command] + (f"seed = {file_seed}\n" if file_seed is not None else "")
        argv = [command, "--config", write(tmp_path / "c.conf", text)]
        argv += {"gen": ["--out", str(tmp_path / "x.fseq")],
                 "train": ["--data", order_file, "--out", str(tmp_path / "m.nbaf")],
                 "gradcheck": []}[command]
        assert main(argv + (["--seed", str(flag_seed)] if flag_seed is not None else [])) == 0
        return json.loads(capsys.readouterr().out)

    assert run(11, flag_seed=7) == run(7) != run(11) != run() == run(0)
    if command == "gen":
        assert [run(7)["checksum"], run(11)["checksum"], run()["checksum"]] == [
            "e8459f04", "6b3b6048", "92054291"]


def test_gen_rejects_odd_length(tmp_path, capsys):
    conf = write(tmp_path / "gen.conf", "generator = order\nlength = 7\ncount = 10\n")
    out = str(tmp_path / "bad.fseq")
    assert main(["gen", "--config", conf, "--out", out]) == 2
    assert not (tmp_path / "bad.fseq").exists()


def test_gen_rejects_unknown_generator(tmp_path):
    conf = write(tmp_path / "gen.conf", "generator = fractal\n")
    assert main(["gen", "--config", conf, "--out", str(tmp_path / "x.fseq")]) == 2


def test_train_eval_roundtrip(tmp_path, order_file, capsys):
    conf = write(tmp_path / "train.conf", TRAIN_CONF)
    ckpt = str(tmp_path / "model.nbaf")
    assert main(["train", "--config", conf, "--data", order_file,
                 "--out", ckpt]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["checkpoint"] == ckpt
    assert len(report["folds"][0]["loss_trace"]) == 2
    assert "mean + std" in captured.err

    assert main(["eval", "--checkpoint", ckpt, "--data", order_file]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores["items"] == 40
    assert 0.0 <= scores["accuracy"] <= 1.0


def test_train_is_deterministic(tmp_path, order_file, capsys):
    conf = write(tmp_path / "train.conf", TRAIN_CONF)
    a, b = str(tmp_path / "a.nbaf"), str(tmp_path / "b.nbaf")
    assert main(["train", "--config", conf, "--data", order_file, "--out", a]) == 0
    out_a = capsys.readouterr().out
    assert main(["train", "--config", conf, "--data", order_file, "--out", b]) == 0
    out_b = capsys.readouterr().out
    assert json.loads(out_a)["folds"] == json.loads(out_b)["folds"]
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_train_missing_data_names_path(tmp_path, capsys):
    conf = write(tmp_path / "train.conf", TRAIN_CONF)
    code = main(["train", "--config", conf, "--data", str(tmp_path / "nope.fseq"),
                 "--out", str(tmp_path / "m.nbaf")])
    assert code == 2
    assert "nope.fseq" in capsys.readouterr().err
    assert not (tmp_path / "m.nbaf").exists()


def test_train_invalid_config_leaves_no_output(tmp_path, order_file):
    conf = write(tmp_path / "bad.conf", "attention = warp\n")
    out = tmp_path / "m.nbaf"
    assert main(["train", "--config", conf, "--data", order_file,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_train_rejects_more_folds_than_label_groups(tmp_path, capsys, monkeypatch):
    data = str(tmp_path / "eight.fseq")
    save_features(gen_order_task(feature_dim=3, length=6, count=8, seed=2), data)
    conf = write(tmp_path / "train.conf", TRAIN_CONF + "folds = 6\n")
    monkeypatch.setattr(train_mod, "fit", lambda *args: pytest.fail("a fold trained"))
    out = tmp_path / "m.nbaf"
    err = assert_clean_exit_two(capsys, ["train", "--config", conf, "--data", data,
                                         "--out", str(out)])
    assert err == "error: folds is 6, the data has 4 label groups\n"
    assert not out.exists()


# config lines and a feature-header edit that each make the model not fit
# the 40-item, 3-feature, 2-class order set of length 6
MISFITS = {
    "feature_dim": ("feature_dim = 5\n", None),
    "classes": ("classes = 1\n", None),
    "classes-over-items": ("", lambda h: h.update(classes=200000)),
    "seq_len": ("seq_len = 5\n", None),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_train_rejects_config_that_does_not_fit_the_data(tmp_path, order_file, capsys,
                                                         monkeypatch, case):
    lines, edit_header = MISFITS[case]
    conf = write(tmp_path / "train.conf", TRAIN_CONF + lines)
    if edit_header is not None:
        rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION, edit_header)

    def unchecked(cfg):
        raise AssertionError(f"model built from {cfg}")

    monkeypatch.setattr(model_mod.Model, "build", unchecked)
    out = tmp_path / "m.nbaf"
    err = assert_clean_exit_two(capsys, ["train", "--config", conf, "--data", order_file,
                                         "--out", str(out)])
    assert err.startswith(f"error: {case.split('-')[0]} is ")
    assert not out.exists()


def test_train_exits_one_when_gradients_are_not_finite(tmp_path, order_file, capsys,
                                                       monkeypatch):
    conf = write(tmp_path / "train.conf", TRAIN_CONF)

    def inf_vjp(phi, w, alpha_raw, mode, upstream, cache):
        return np.full(phi.shape, np.inf), np.zeros_like(w), np.zeros((1, 1))

    monkeypatch.setattr(attention, "att_2da_vjp", inf_vjp)
    out = tmp_path / "m.nbaf"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", conf, "--data", order_file,
                     "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err == "error: non-finite gradient at epoch 0, batch 0\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_usage_error_exits_two(capsys):
    assert main(["train", "--config"]) == 2
    assert main(["no-such-command"]) == 2


def test_main_builds_the_parser_once_and_looks_commands_up_by_name(capsys, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert main(["no-such-command"]) == 2
    ran = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: ran.append(args.data) or 0)
    assert main(["eval", "--checkpoint", "m.nbaf", "--data", "d.fseq"]) == 0
    assert ran == ["d.fseq"] and built == [1]


def test_gen_bounds_the_payload_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: pytest.fail("gen drew past the bound"))
    conf = write(tmp_path / "gen.conf", "generator = order\nlength = 1000000000\n")
    out = tmp_path / "big.fseq"
    err = assert_clean_exit_two(capsys, ["gen", "--config", conf, "--out", str(out)])
    assert "count * feature_dim * length" in err and not out.exists()


def test_gen_charges_each_item_an_overhead_before_drawing(tmp_path, capsys, monkeypatch):
    # 2**26 two-value items hold exactly MAX_VALUES values, but the items
    # themselves would take ~46 GB
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: pytest.fail("gen drew past the bound"))
    conf = write(tmp_path / "gen.conf",
                 "generator = order\nfeature_dim = 1\nlength = 2\ncount = 67108864\n")
    out = tmp_path / "big.fseq"
    err = assert_clean_exit_two(capsys, ["gen", "--config", conf, "--out", str(out)])
    assert f"{data_mod.ITEM_OVERHEAD} charged per item" in err and not out.exists()


def test_conv_train_exits_two_before_the_patches_are_allocated(tmp_path, capsys,
                                                               monkeypatch):
    # each item's conv patches hold 2 x 2000001 x 30 values, so the 16-item
    # training stack's (16, 2 * 2000001, 30) patches would be 14.3 GiB
    data = str(tmp_path / "noisy.fseq")
    save_features(gen_noisy_timestamps(feature_dim=2, length=30, count=20, seed=0), data)
    conf = write(tmp_path / "conv.conf", "frontend = conv\nconv_width = 2000001\n"
                 "conv_channels = 1\ncodewords = 2\nbatch_size = 16\n")
    monkeypatch.setattr(model_mod, "_conv_pre",
                        lambda *args: pytest.fail("conv patches allocated"))
    out = tmp_path / "m.nbaf"
    err = assert_clean_exit_two(capsys, ["train", "--config", conf, "--data", data,
                                         "--out", str(out)])
    assert "a stack of 16 sequence(s) of length 30" in err and not out.exists()


@pytest.mark.parametrize("command", ["eval", "inspect-attention", "train"])
def test_tsa_on_long_sequences_exits_two_before_the_scores_are_allocated(
        tmp_path, capsys, monkeypatch, command):
    # a tsa model for the order task of configs/gen-order.conf, run on 4 items
    # of length 60000: one head's scores alone are 60000 x 60000 per item
    ckpt, data = str(tmp_path / "tsa.nbaf"), str(tmp_path / "long.fseq")
    save_checkpoint(Model.build(ModelConfig(feature_dim=4, classes=2, attention="tsa")), ckpt)
    gen = write(tmp_path / "gen.conf",
                "generator = order\nfeature_dim = 4\nlength = 60000\ncount = 4\n")
    assert main(["gen", "--config", gen, "--out", data]) == 0
    capsys.readouterr()
    monkeypatch.setattr(attention, "_self_attention",
                        lambda *args, **kwargs: pytest.fail("attention scores allocated"))
    train = write(tmp_path / "tsa.conf", "attention = tsa\nfolds = 2\nepochs = 1\n")
    argv = {"eval": ["eval", "--checkpoint", ckpt, "--data", data],
            "inspect-attention": ["inspect-attention", "--checkpoint", ckpt, "--data", data,
                                  "--out", str(tmp_path / "mats")],
            "train": ["train", "--config", train, "--data", data,
                      "--out", str(tmp_path / "m.nbaf")]}[command]
    err = assert_clean_exit_two(capsys, argv)
    assert "sequence(s) of length 60000 needs a" in err


# a conv + ctsa model for the order set, where each key of the test below
# sizes some parameter
BOUNDED_MODEL = dict(attention="ctsa", frontend="conv", conv_channels=2, codewords=4,
                     latent_dim=2, heads=1, seq_len=6, feature_dim=3, classes=2)


@pytest.mark.parametrize("key", ["latent_dim", "heads", "codewords", "seq_len",
                                 "conv_channels"])
@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_oversized_model_exits_two_before_the_build(tmp_path, order_file, capsys,
                                                    monkeypatch, command, key):
    fields = {**BOUNDED_MODEL, key: 10**9}
    conf = write(tmp_path / "big.conf",
                 "".join(f"{k} = {v}\n" for k, v in fields.items()) + "epochs = 1\n")

    def unbounded(cfg):
        raise AssertionError(f"model built with {cfg.parameter_count()} parameters")

    monkeypatch.setattr(model_mod.Model, "build", unbounded)
    out = tmp_path / "m.nbaf"
    argv = {"train": ["train", "--config", conf, "--data", order_file, "--out", str(out)],
            "gradcheck": ["gradcheck", "--config", conf]}[command]
    err = assert_clean_exit_two(capsys, argv)
    assert f"{ModelConfig(**fields).parameter_count()} parameters" in err
    assert not out.exists()


def test_eval_rejects_checkpoint_config_over_the_parameter_bound(tmp_path, order_file,
                                                                capsys, monkeypatch):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            lambda h: h["config"].update(latent_dim=10**9))

    def unbounded(cfg):
        raise AssertionError(f"shapes built for latent_dim {cfg.latent_dim}")

    monkeypatch.setattr(model_mod, "param_shapes", unbounded)
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "parameters, over the limit" in err


# ---------------------------------------------------------------------------
# gradient checking


GRADCHECK_CONF = """
feature_dim = 4
classes = 3
codewords = 6
latent_dim = 5
seq_len = 8
attention = ctsa
heads = 2
"""


def test_gradcheck_passes_for_ctsa(tmp_path, capsys):
    conf = write(tmp_path / "g.conf", GRADCHECK_CONF)
    assert main(["gradcheck", "--config", conf, "--seed", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert all(err <= 1e-4 for err in report["groups"].values())


def test_gradcheck_passes_for_plain_model(tmp_path, capsys):
    conf = write(tmp_path / "g.conf",
                 "feature_dim = 4\nclasses = 3\ncodewords = 6\nattention = none\n")
    assert main(["gradcheck", "--config", conf]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["groups"]) == {"codebook.v", "codebook.w_raw",
                                     "classifier.weight", "classifier.bias"}


def test_gradcheck_bounds_its_input_before_drawing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: pytest.fail("gradcheck drew past the bound"))
    conf = write(tmp_path / "g.conf", "feature_dim = 4\nclasses = 3\nattention = none\n"
                                      "seq_len = 1000000000\n")
    err = assert_clean_exit_two(capsys, ["gradcheck", "--config", conf])
    assert ("a stack of 1 sequence(s) of length 1000000000 needs a 32000000000-value "
            "stage array") in err


def test_gradcheck_fails_on_broken_vjp(tmp_path, capsys, monkeypatch):
    conf = write(tmp_path / "g.conf",
                 "feature_dim = 4\nclasses = 3\ncodewords = 6\n"
                 "latent_dim = 5\nseq_len = 8\nattention = csa\n")
    true_vjp = attention.self_attention_vjp

    def broken(variant, phi, ps, upstream, cache):
        dphi, *dweights = true_vjp(variant, phi, ps, upstream, cache)
        return dphi * 2.0, *dweights  # negative control

    monkeypatch.setattr(attention, "self_attention_vjp", broken)
    assert main(["gradcheck", "--config", conf, "--seed", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


# ---------------------------------------------------------------------------
# attention export


def make_checkpoint(tmp_path, **kwargs):
    cfg = ModelConfig(feature_dim=3, classes=2, codewords=5, latent_dim=4,
                      seq_len=6, **kwargs)
    net = Model.build(cfg)
    path = str(tmp_path / "m.nbaf")
    save_checkpoint(net, path)
    return path


def test_inspect_attention_csa_rows_sum_to_one(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    out_dir = tmp_path / "mats"
    assert main(["inspect-attention", "--checkpoint", ckpt, "--data", order_file,
                 "--item", "0", "--out", str(out_dir)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in (out_dir / "head0.csv").read_text().splitlines()]
    m = np.array(rows)
    assert m.shape == (5, 5)
    assert np.allclose(m.sum(axis=1), 1.0, atol=1e-9)
    pgm = (out_dir / "head0.pgm").read_bytes()
    assert pgm.startswith(b"P5\n5 5\n255\n")
    assert len(pgm) == len(b"P5\n5 5\n255\n") + 25


def test_inspect_attention_ctsa_values_in_unit_interval(tmp_path, order_file):
    ckpt = make_checkpoint(tmp_path, attention="ctsa")
    out_dir = tmp_path / "mats"
    assert main(["inspect-attention", "--checkpoint", ckpt, "--data", order_file,
                 "--out", str(out_dir)]) == 0
    rows = [[float(v) for v in line.split(",")]
            for line in (out_dir / "head0.csv").read_text().splitlines()]
    m = np.array(rows)
    assert m.shape == (5, 6)
    assert np.all((m > 0.0) & (m < 1.0))


def test_inspect_attention_writes_one_pair_per_head(tmp_path, order_file):
    ckpt = make_checkpoint(tmp_path, attention="tsa", heads=4)
    out_dir = tmp_path / "mats"
    assert main(["inspect-attention", "--checkpoint", ckpt, "--data", order_file,
                 "--out", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.glob("*.csv")) == [
        f"head{i}.csv" for i in range(4)]
    assert len(list(out_dir.glob("*.pgm"))) == 4


def test_inspect_attention_csv_holds_shortest_round_trip_digits(
        tmp_path, order_file, monkeypatch):
    m = np.array([[-0.0, 5e-324, 1.0 / 3.0], [2.0 / 3.0, 1.0, 0.1]])
    monkeypatch.setattr(Model, "attention_matrices", lambda self, x: [m])
    ckpt = make_checkpoint(tmp_path, attention="csa")
    out_dir = tmp_path / "mats"
    assert main(["inspect-attention", "--checkpoint", ckpt, "--data", order_file,
                 "--item", "0", "--out", str(out_dir)]) == 0
    assert (out_dir / "head0.csv").read_bytes() == (
        b"-0,4.9406564584124654e-324,0.33333333333333331\n"
        b"0.66666666666666663,1,0.10000000000000001\n")


def test_inspect_attention_rejects_plain_model(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="none")
    code = main(["inspect-attention", "--checkpoint", ckpt, "--data", order_file,
                 "--out", str(tmp_path / "mats")])
    assert code == 2
    assert "attention=none" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# malformed but CRC-valid files


def rewrite(path, magic, version, edit_header=None, payload=None):
    """Rewrite a container with an edited header and/or payload; the CRC is
    recomputed, so only the content checks can reject it."""
    header, old_payload = read_container(path, magic, version)
    if edit_header is not None:
        edit_header(header)
    write_container(path, magic, version, header,
                    old_payload if payload is None else payload)


def assert_clean_exit_two(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("field", ["offset", "rows", "label"])
def test_eval_rejects_feature_manifest_entry_without_field(
        tmp_path, order_file, capsys, field):
    ckpt = make_checkpoint(tmp_path, attention="none")
    rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION,
            lambda h: h["items"][3].pop(field))
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "manifest entry 3" in err


def test_eval_rejects_feature_manifest_with_bad_types(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="none")
    rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION,
            lambda h: h["items"][0].update(offset="zero"))
    assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt, "--data", order_file])
    rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION,
            lambda h: h.update(items=7))
    assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt, "--data", order_file])


@pytest.mark.parametrize("field", ["name", "rows", "offset"])
def test_eval_rejects_checkpoint_manifest_entry_without_field(
        tmp_path, order_file, capsys, field):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            lambda h: h["manifest"][1].pop(field))
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "manifest entry 1" in err


@pytest.mark.parametrize("field", ["rows", "cols", "offset"])
def test_eval_rejects_huge_feature_manifest_values(tmp_path, order_file, capsys, field):
    ckpt = make_checkpoint(tmp_path, attention="none")
    rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION,
            lambda h: h["items"][5].update({field: 10**30}))
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt, "--data", order_file])
    assert "manifest" in err


def test_eval_rejects_checkpoint_manifest_with_bad_types(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="none")
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            lambda h: h["manifest"][0].update(rows=None))
    assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt, "--data", order_file])


def test_eval_rejects_non_finite_checkpoint(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="none")
    _, payload = read_container(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    nan_payload = np.full(len(payload) // 8, np.nan).astype("<f8").tobytes()
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, payload=nan_payload)
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "non-finite" in err
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("field,value", [("heads", "1"), ("codewords", 4.0),
                                         ("dropout_rate", True), ("seq_len", "6")])
def test_eval_rejects_checkpoint_config_with_wrong_types(
        tmp_path, order_file, capsys, field, value):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            lambda h: h["config"].update({field: value}))
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert field in err


def _overlap(header):
    for entry in header["items"]:
        entry["offset"] = 0


def _one_nan(payload):
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[7] = np.nan
    return values.tobytes()


# CRC-valid feature files that each break one manifest or header rule:
# (header edit, payload edit)
FEATURE_DEFECTS = {
    "cols-zero": (lambda h: h["items"][0].update(cols=0), None),
    "cols-negative": (lambda h: h["items"][0].update(cols=-6), None),
    "overlapping-offsets": (_overlap, None),
    "trailing-bytes": (None, lambda p: bytes(p) + bytes(64)),
    "classes-str": (lambda h: h.update(classes="2"), None),
    "classes-float": (lambda h: h.update(classes=2.9), None),
    "label-float": (lambda h: h["items"][1].update(label=1.5), None),
    "nan-value": (None, _one_nan),
}


@pytest.mark.parametrize("defect", sorted(FEATURE_DEFECTS))
def test_eval_rejects_defective_feature_file(tmp_path, order_file, capsys, defect):
    edit_header, edit_payload = FEATURE_DEFECTS[defect]
    ckpt = make_checkpoint(tmp_path, attention="none")
    _, payload = read_container(order_file, FEATURES_MAGIC, FEATURES_VERSION)
    rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION, edit_header,
            None if edit_payload is None else edit_payload(payload))
    assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt, "--data", order_file])


# CRC-valid feature files whose header the reader cannot take:
# (header bytes, the header length the file states)
HEADER_DEFECTS = {
    "length-past-end": (b"{}", 10**6),
    "not-utf8": (b'{"classes":\xff}', None),
    "not-json": (b'{"classes":', None),
    "not-an-object": (b"[1,2]", None),
}


@pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
def test_eval_rejects_feature_file_with_unreadable_header(tmp_path, order_file, capsys,
                                                          defect):
    header, length = HEADER_DEFECTS[defect]
    ckpt = make_checkpoint(tmp_path, attention="none")
    _, payload = read_container(order_file, FEATURES_MAGIC, FEATURES_VERSION)
    u32 = struct.Struct("<I").pack
    write_file(order_file, FEATURES_MAGIC, u32(FEATURES_VERSION),
               u32(len(header) if length is None else length), header, payload,
               u32(zlib.crc32(payload)))
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt, "--data", order_file])
    assert order_file in err


def test_eval_rejects_checkpoint_with_more_heads_than_manifest_entries(
        tmp_path, order_file, capsys, monkeypatch):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            lambda h: h["config"].update(heads=100000))

    def unbounded(cfg):
        raise AssertionError(f"shapes built for {cfg.heads} heads")

    monkeypatch.setattr(model_mod, "param_shapes", unbounded)
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "100000 heads" in err


@pytest.mark.parametrize("command", ["eval", "inspect-attention"])
def test_non_finite_model_output_exits_one(tmp_path, order_file, capsys, command):
    ckpt = make_checkpoint(tmp_path, attention="2da")
    _, payload = read_container(order_file, FEATURES_MAGIC, FEATURES_VERSION)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[1] = 1e300  # finite, but its square overflows: NaN logits and masks
    rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION, payload=values.tobytes())
    out_dir = tmp_path / "mats"
    argv = [command, "--checkpoint", ckpt, "--data", order_file]
    if command == "inspect-attention":
        argv += ["--item", "0", "--out", str(out_dir)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    out, err = capsys.readouterr()
    assert out == "" and not out_dir.exists()
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "not finite" in err


def test_eval_rejects_duplicated_checkpoint_manifest_entry(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            lambda h: h["manifest"].insert(2, dict(h["manifest"][2])))
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "manifest entry 3" in err


def test_eval_rejects_checkpoint_manifest_out_of_order(tmp_path, order_file, capsys):
    # codebook.v and codebook.w_raw have one shape: the swapped names still
    # tile the payload, and only the registry order can reject them
    ckpt = make_checkpoint(tmp_path, attention="csa")

    def swap(header):
        first, second = header["manifest"][:2]
        first["name"], second["name"] = second["name"], first["name"]

    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, swap)
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "manifest entry 0 is ('codebook.w_raw', (5, 3))" in err


def test_eval_rejects_checkpoint_with_unknown_2da_mode(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="2da")
    rewrite(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
            lambda h: h["config"].update(mode="diagonal"))
    err = assert_clean_exit_two(capsys, ["eval", "--checkpoint", ckpt,
                                         "--data", order_file])
    assert "mode" in err


@pytest.mark.parametrize("edit", [lambda h: h.update(metadata=[1]),
                                  lambda h: h["metadata"].update(group_size=0)],
                         ids=["metadata-list", "group-size-zero"])
def test_train_rejects_bad_feature_metadata(tmp_path, order_file, capsys, edit):
    conf = write(tmp_path / "train.conf", TRAIN_CONF)
    rewrite(order_file, FEATURES_MAGIC, FEATURES_VERSION, edit)
    err = assert_clean_exit_two(capsys, ["train", "--config", conf, "--data", order_file,
                                         "--out", str(tmp_path / "m.nbaf")])
    assert "metadata" in err


# ---------------------------------------------------------------------------
# the file formats themselves


def small_files(directory):
    """A small NBAF checkpoint and FSEQ feature file."""
    ckpt, fseq = str(Path(directory) / "m.nbaf"), str(Path(directory) / "s.fseq")
    save_checkpoint(Model.build(ModelConfig(
        feature_dim=3, classes=2, codewords=4, attention="csa", heads=2,
        latent_dim=3, seq_len=6, seed=5)), ckpt)
    save_features(gen_order_task(feature_dim=3, length=6, count=8, seed=2), fseq)
    return ckpt, fseq


def test_file_bytes_are_frozen(tmp_path):
    # sha256 of the files as the format's first writer wrote them
    ckpt, fseq = small_files(tmp_path)
    digests = {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (ckpt, fseq)}
    assert digests[ckpt] == "a434658ec47eaefe340890b672096fd06070842485612826a89c1343f91339da"
    assert digests[fseq] == "af0e456cb4e0ee47049704cfaf8b2929466c944aaf8555d3237ad6719847e3de"
    assert load_checkpoint(ckpt).config.attention == "csa"
    assert len(load_features(fseq)) == 8


def json_paths(node, prefix=()):
    """The key path of every value inside a JSON header, containers included;
    of a list, only the first two elements (manifest entries look alike)."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node[:2]) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


# finite values whose squares overflow, and subnormals
EXTREMES = st.sampled_from([1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308])
JSON_VALUES = st.one_of(
    st.integers(max_value=0), st.text(max_size=3), st.floats(), st.booleans(),
    st.none(), st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2), EXTREMES)
COUNTS = st.integers(1, 10**9)
# header counts that size what eval or train would allocate
COUNT_KEYS = {CHECKPOINT_MAGIC: ("classes", "codewords", "heads", "latent_dim", "seq_len"),
              FEATURES_MAGIC: ("classes", "feature_dim")}


def mutate(data, path, magic, version):
    """Rewrite ``path`` with one drawn defect: a header value replaced, a
    header count set up to 1e9, a manifest entry dropped or duplicated,
    payload bytes overwritten, or one payload value replaced by an extreme
    finite one."""
    header, payload = read_container(path, magic, version)
    payload = bytes(payload)   # concatenated below
    kind = data.draw(st.sampled_from(["value", "count", "drop", "duplicate", "payload",
                                      "extreme"]))
    if kind == "count":
        counts = header["config"] if magic == CHECKPOINT_MAGIC else header
        counts[data.draw(st.sampled_from(COUNT_KEYS[magic]))] = data.draw(COUNTS)
    elif kind == "value":
        *parents, last = data.draw(st.sampled_from(list(json_paths(header))))
        node = header
        for key in parents:
            node = node[key]
        node[last] = data.draw(JSON_VALUES | COUNTS)
    elif kind == "extreme":
        pos = 8 * data.draw(st.integers(0, len(payload) // 8 - 1))
        payload = (payload[:pos] + struct.pack("<d", data.draw(EXTREMES))
                   + payload[pos + 8:])
    elif kind == "payload":
        pos = data.draw(st.integers(0, len(payload) - 1))
        chunk = data.draw(st.binary(min_size=1, max_size=8))
        payload = payload[:pos] + chunk + payload[pos + len(chunk):]
    else:
        manifest = header["manifest" if magic == CHECKPOINT_MAGIC else "items"]
        i = data.draw(st.integers(0, len(manifest) - 1))
        if kind == "drop":
            del manifest[i]
        else:
            manifest.insert(i, dict(manifest[i]))
    write_container(path, magic, version, header, payload)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_files_keep_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as d:
        ckpt, fseq = small_files(d)
        conf = write(Path(d) / "train.conf", TRAIN_CONF.replace("epochs = 2", "epochs = 1"))
        target = data.draw(st.sampled_from([ckpt, fseq]))
        if target == ckpt:
            mutate(data, ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        else:
            mutate(data, fseq, FEATURES_MAGIC, FEATURES_VERSION)
        runs = [["eval", "--checkpoint", ckpt, "--data", fseq],
                ["inspect-attention", "--checkpoint", ckpt, "--data", fseq,
                 "--out", str(Path(d) / "att")]]
        if target == fseq:
            runs.append(["train", "--config", conf, "--data", fseq,
                         "--out", str(Path(d) / "trained.nbaf")])
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    np.errstate(all="ignore"):
                assert main(argv) in (0, 1, 2), argv


# ---------------------------------------------------------------------------
# fuzzed config files


class Reached(Exception):
    """A command passed its config checks and got to its first allocation."""


# the most values a fuzzed ``gen`` config may generate for real; above this,
# up to ``numerics.MAX_VALUES``, it stops at its first allocation
GEN_RUNS = 2 ** 18
REAL_RNG = np.random.default_rng


def stop_at_first_allocation(patch):
    """Stop each command where its config first sizes an allocation: raise
    ``Reached`` when the size is within ``numerics.MAX_VALUES``, and fail
    the test when it is not, so that nothing large is ever allocated.  A
    generator whose dataset holds at most ``GEN_RUNS`` values runs."""
    def build(cfg):
        assert cfg.parameter_count() <= numerics.MAX_VALUES, f"built {cfg}"
        raise Reached

    class Draws:   # gradcheck's input
        def __init__(self, seed):
            pass

        def standard_normal(self, size):
            values = math.prod(size) if isinstance(size, tuple) else size
            assert values <= numerics.MAX_VALUES, f"drew {values} values"
            raise Reached

    def bounded(gen):
        @functools.wraps(gen)
        def run(**kwargs):
            args = inspect.signature(gen).bind(**kwargs)
            args.apply_defaults()
            size = math.prod(args.arguments[k] for k in ("count", "feature_dim", "length"))
            if size <= GEN_RUNS:
                with pytest.MonkeyPatch.context() as real:
                    real.setattr(np.random, "default_rng", REAL_RNG)
                    return gen(**kwargs)
            if size + args.arguments["count"] * data_mod.ITEM_OVERHEAD <= numerics.MAX_VALUES:
                raise Reached
            try:   # over the ceiling: the generator must reject the config
                return gen(**kwargs)
            except Reached:
                pytest.fail(f"{gen.__name__} drew {size} values")
        return run

    patch.setattr(Model, "build", build)
    patch.setattr(np.random, "default_rng", Draws)
    patch.setattr(data_mod, "GENERATORS",
                  {name: bounded(gen) for name, gen in data_mod.GENERATORS.items()})


CONF_VALUES = {
    int: st.integers(0, 10**9) | st.sampled_from([10**300, -10**300]),
    float: st.floats() | st.sampled_from([1e300, -1e300, math.nan, math.inf, -math.inf]),
    str: st.sampled_from(model_mod.ATTENTION_KINDS + attention.MODES + model_mod.FRONTENDS
                         + tuple(data_mod.GENERATORS) + ("warp",)),
}
# each command's valid starting config, which the drawn lines override
CONF_BASES = {"gen": "generator = order\n", "train": TRAIN_CONF,
              "gradcheck": "feature_dim = 4\nclasses = 3\ncodewords = 6\n"}


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_configs_keep_the_exit_code_contract(data):
    command = data.draw(st.sampled_from(sorted(CONF_BASES)))
    keys = data.draw(st.lists(st.sampled_from(sorted(cli._SCHEMA)), min_size=1,
                              max_size=4, unique=True))
    values = {k: data.draw(CONF_VALUES[cli._SCHEMA[k][0]]) for k in keys}
    lines = "".join(f"{k} = {v}\n" for k, v in values.items())
    non_finite = [k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)]
    with tempfile.TemporaryDirectory() as d:
        conf = write(Path(d) / "run.conf", CONF_BASES[command] + lines)
        fseq, out = str(Path(d) / "s.fseq"), str(Path(d) / "out")
        save_features(gen_order_task(feature_dim=3, length=6, count=8, seed=2), fseq)
        argv = {"gen": ["gen", "--config", conf, "--out", out],
                "train": ["train", "--config", conf, "--data", fseq, "--out", out],
                "gradcheck": ["gradcheck", "--config", conf]}[command]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            stop_at_first_allocation(patch)
            try:
                code = main(argv)
            except Reached:
                assert not non_finite, f"{argv} ran with non-finite {non_finite}"
                return
        if code == 0 and command == "gen" and not non_finite:
            load_features(out)   # what gen writes, train and eval read
            return
    # every other run stops at its first allocation or exits 2
    assert code == 2, argv
    assert err.getvalue().startswith("error: ") and len(err.getvalue().splitlines()) == 1


# ---------------------------------------------------------------------------
# the write path


def test_eval_reads_a_feature_file_from_a_fifo(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="none")
    fifo = tmp_path / "pipe.fseq"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(Path(order_file).read_bytes(),),
                              daemon=True)
    writer.start()
    try:
        assert main(["eval", "--checkpoint", ckpt, "--data", str(fifo)]) == 0
    finally:
        # a reader that opens and closes the FIFO releases a writer still waiting
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert json.loads(capsys.readouterr().out)["items"] == 40


def _destination(tmp_path, kind):
    """An ``--out`` of one refused kind, and a check that it is left as it was."""
    target = tmp_path / "target.bin"
    target.write_bytes(b"target")
    path = tmp_path / "out"
    if kind == "symlink":
        path.symlink_to(target)
        return path, lambda: os.readlink(path) == str(target) and target.read_bytes() == b"target"
    if kind == "dangling-symlink":
        path.symlink_to(tmp_path / "nowhere")
        return path, lambda: path.is_symlink() and not (tmp_path / "nowhere").exists()
    if kind == "fifo":
        os.mkfifo(path)
        return path, lambda: stat.S_ISFIFO(os.lstat(path).st_mode)
    if kind == "directory":
        path.mkdir()
        return path, lambda: path.is_dir() and not any(path.iterdir())
    path = tmp_path / "missing" / "out"
    return path, lambda: not path.parent.exists()


@pytest.mark.parametrize("kind", ["symlink", "dangling-symlink", "fifo", "directory",
                                  "missing-directory"])
@pytest.mark.parametrize("command", ["gen", "train"])
def test_out_is_checked_before_any_work_and_left_as_it_was(tmp_path, order_file, capsys,
                                                           monkeypatch, command, kind):
    out, unchanged = _destination(tmp_path, kind)
    monkeypatch.setattr(cli, "generate", lambda conf: pytest.fail("gen generated"))
    monkeypatch.setattr(data_mod, "load_features", lambda path: pytest.fail("train loaded"))
    monkeypatch.setattr(train_mod, "train", lambda *args: pytest.fail("train trained"))
    conf = write(tmp_path / "c.conf", {"gen": "generator = order\n", "train": TRAIN_CONF}[command])
    argv = [command, "--config", conf, "--out", str(out)]
    err = assert_clean_exit_two(capsys, argv + (["--data", order_file] if command == "train"
                                                else []))
    assert err.startswith(f"error: --out {out}") and ".tmp" not in err
    assert unchanged()
    assert not list(tmp_path.rglob("*.tmp"))


def test_inspect_attention_refuses_a_symlinked_head_file(tmp_path, order_file, capsys):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    out_dir = tmp_path / "mats"
    out_dir.mkdir()
    target = tmp_path / "target.csv"
    target.write_bytes(b"target")
    (out_dir / "head0.csv").symlink_to(target)
    err = assert_clean_exit_two(capsys, ["inspect-attention", "--checkpoint", ckpt,
                                         "--data", order_file, "--out", str(out_dir)])
    assert str(out_dir / "head0.csv") in err
    assert os.readlink(out_dir / "head0.csv") == str(target)
    assert target.read_bytes() == b"target"


def test_inspect_attention_checks_every_head_file_before_writing_any(tmp_path, order_file,
                                                                     capsys):
    ckpt = make_checkpoint(tmp_path, attention="tsa", heads=2)
    out_dir = tmp_path / "mats"
    out_dir.mkdir()
    (out_dir / "head0.csv").write_bytes(b"old csv")
    (out_dir / "head0.pgm").write_bytes(b"old pgm")
    (out_dir / "head1.csv").symlink_to(tmp_path / "target.csv")
    err = assert_clean_exit_two(capsys, ["inspect-attention", "--checkpoint", ckpt,
                                         "--data", order_file, "--out", str(out_dir)])
    assert str(out_dir / "head1.csv") in err
    assert (out_dir / "head0.csv").read_bytes() == b"old csv"
    assert (out_dir / "head0.pgm").read_bytes() == b"old pgm"
    assert sorted(p.name for p in out_dir.iterdir()) == ["head0.csv", "head0.pgm",
                                                         "head1.csv"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_written_files_get_the_mode_open_gives_under_the_umask(tmp_path, order_file, umask,
                                                               mode):
    conf = write(tmp_path / "gen.conf", "generator = order\nlength = 6\ncount = 8\n")
    old = os.umask(umask)
    try:
        ckpt = make_checkpoint(tmp_path, attention="csa")
        assert main(["gen", "--config", conf, "--out", str(tmp_path / "x.fseq")]) == 0
        assert main(["inspect-attention", "--checkpoint", ckpt, "--data", order_file,
                     "--out", str(tmp_path / "mats")]) == 0
    finally:
        os.umask(old)
    written = [tmp_path / "m.nbaf", tmp_path / "x.fseq", *(tmp_path / "mats").iterdir()]
    assert len(written) == 4
    assert {stat.S_IMODE(p.stat().st_mode) for p in written} == {mode}


def test_memory_error_exits_two_with_one_error_line(tmp_path, capsys, monkeypatch):
    def exhausted(seed: int = 0):
        raise MemoryError

    monkeypatch.setitem(data_mod.GENERATORS, "order", exhausted)
    conf = write(tmp_path / "gen.conf", "generator = order\n")
    out = tmp_path / "x.fseq"
    err = assert_clean_exit_two(capsys, ["gen", "--config", conf, "--out", str(out)])
    assert err == "error: MemoryError\n" and not out.exists()


class BrokenStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_stdout_failing_after_the_commit_exits_two_with_the_file_complete(
        tmp_path, capsys, monkeypatch):
    # files are committed before the JSON is printed: a non-zero exit means
    # the result was not reported, not that the file is missing
    conf = write(tmp_path / "gen.conf",
                 "generator = order\nfeature_dim = 4\nlength = 20\ncount = 400\n")
    out = str(tmp_path / "order.fseq")
    monkeypatch.setattr(sys, "stdout", BrokenStdout())
    err = assert_clean_exit_two(capsys, ["gen", "--config", conf, "--out", out, "--seed", "11"])
    assert "Broken pipe" in err
    assert load_features(out).checksum() == "9b179895"
    assert not list(tmp_path.rglob("*.tmp"))


def _raises(code):
    def fail(*args):
        raise OSError(code, os.strerror(code))
    return fail


@pytest.mark.parametrize("step", ["write", "replace"])
@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EACCES, errno.EIO],
                         ids=errno.errorcode.get)
@pytest.mark.parametrize("command", ["gen", "train", "inspect-attention"])
def test_a_failed_write_exits_two_and_leaves_the_destination_alone(
        tmp_path, order_file, capsys, monkeypatch, command, code, step):
    ckpt = make_checkpoint(tmp_path, attention="csa")
    conf = write(tmp_path / "c.conf", {"gen": "generator = order\nlength = 6\ncount = 8\n",
                                       "train": TRAIN_CONF}.get(command, ""))
    (tmp_path / "mats").mkdir()
    argv, dest = {
        "gen": (["gen", "--config", conf, "--out", str(tmp_path / "x.fseq")],
                tmp_path / "x.fseq"),
        "train": (["train", "--config", conf, "--data", order_file,
                   "--out", str(tmp_path / "t.nbaf")], tmp_path / "t.nbaf"),
        "inspect-attention": (["inspect-attention", "--checkpoint", ckpt, "--data", order_file,
                               "--out", str(tmp_path / "mats")], tmp_path / "mats" / "head0.csv"),
    }[command]
    dest.write_bytes(b"old")

    class Unwritable(io.FileIO):
        write = _raises(code)

    monkeypatch.setattr(os, *{"write": ("fdopen", lambda fd, mode: Unwritable(fd, "wb")),
                              "replace": ("replace", _raises(code))}[step])
    err = assert_clean_exit_two(capsys, argv)
    assert os.strerror(code) in err
    assert dest.read_bytes() == b"old"
    assert not list(tmp_path.rglob("*.tmp"))
