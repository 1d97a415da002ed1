"""Command-line entry points: train, eval, gradcheck, gen, inspect-attention.

Runs are declarative: a flat ``key = value`` config file describes the model,
the training protocol, or a generator (schema in the README).  Machine output
(JSON) goes to stdout, human-readable tables to stderr.  Exit codes: 0 ok,
1 a check or training failure or non-finite model output, 2 usage, I/O or
out-of-memory errors.  A command writes its files before it prints its JSON,
so a non-zero exit means the result was not reported; a file the command
names may still be complete.  Commands are deterministic given their flags
and seeds.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import model as model_mod
from . import numerics
from . import train as train_mod
from .errors import ConfigError, DataFormatError, NonFiniteError
from .io_container import check_destination, field_types, write_file

GRAD_TOLERANCE = 1e-4

# the generator's name, and the hinted parameters of the configs and generators
_SCHEMA = {"generator": (str,),
           **{name: types for source in (model_mod.ModelConfig, train_mod.TrainConfig,
                                         *data_mod.GENERATORS.values())
              for name, types in field_types(source).items()}}


def parse_config(path: str) -> dict:
    conf: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                conf[key] = _SCHEMA[key][0](value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
            if isinstance(conf[key], float) and not math.isfinite(conf[key]):
                raise ConfigError(f"{path}:{lineno}: {key!r} must be finite, got {value}")
    return conf


def _uniform_length(dataset: data_mod.LabeledSequenceSet) -> int | None:
    lengths = {x.shape[1] for x, _ in dataset.items}
    return lengths.pop() if len(lengths) == 1 else None


def _named(fn, conf: dict) -> dict:
    """The keys of ``conf`` that ``fn``'s signature names."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in conf.items() if k in params}


def model_config(conf: dict, dataset: data_mod.LabeledSequenceSet | None
                 ) -> model_mod.ModelConfig:
    if dataset is not None:
        conf = {"feature_dim": dataset.feature_dim, "classes": dataset.classes, **conf}
    for key in ("feature_dim", "classes"):
        if key not in conf:
            raise ConfigError(f"config needs {key!r} (no dataset to derive it from)")
    cfg = model_mod.ModelConfig(**_named(model_mod.ModelConfig, conf))
    if cfg.needs_seq_len and cfg.seq_len is None and dataset is not None:
        n = _uniform_length(dataset)
        if n is None:
            raise ConfigError(
                "sequences have mixed lengths; set seq_len and pad_or_clip the data")
        cfg.seq_len = n
    cfg.validate()
    if dataset is not None:
        _check_fits(cfg, dataset, training=True)
    return cfg


def _check_fits(cfg: model_mod.ModelConfig, dataset: data_mod.LabeledSequenceSet,
                training: bool) -> None:
    """Reject a model config that does not fit the data, before anything is
    sized by it; each message names the config key.  Only training needs at
    least as many items as classes."""
    top = max((label for _, label in dataset.items), default=0)
    lengths = sorted({x.shape[1] for x, _ in dataset.items})
    for key, misfit, data_has in (
            ("feature_dim", cfg.feature_dim != dataset.feature_dim,
             f"{dataset.feature_dim} feature rows"),
            ("classes", top >= cfg.classes, f"label {top}"),
            ("classes", training and cfg.classes > len(dataset), f"only {len(dataset)} items"),
            ("seq_len", cfg.needs_seq_len and lengths != [cfg.seq_len],
             f"sequence lengths {lengths}")):
        if misfit:
            raise ConfigError(f"{key} is {getattr(cfg, key)}, the data has {data_has}")


def train_config(conf: dict) -> train_mod.TrainConfig:
    cfg = train_mod.TrainConfig(**_named(train_mod.TrainConfig, conf))
    cfg.validate()
    return cfg


def generate(conf: dict) -> data_mod.LabeledSequenceSet:
    """The dataset a generator config describes; keys the generator's
    signature does not name are ignored, and unset ones take its defaults."""
    name = conf.get("generator")
    if name not in data_mod.GENERATORS:
        raise ConfigError(
            f"unknown generator {name!r}; expected one of {tuple(data_mod.GENERATORS)}")
    gen = data_mod.GENERATORS[name]
    return gen(**_named(gen, conf))


def _check_out(args) -> None:
    """``--out``, checked before any work with the rule the write applies."""
    try:
        check_destination(args.out)
    except OSError as exc:
        raise ConfigError(f"--out {exc}") from None


def _load_data(path: str) -> data_mod.LabeledSequenceSet:
    """The feature file at ``path``, which must hold at least one item."""
    dataset = data_mod.load_features(path)
    if len(dataset) == 0:
        raise ConfigError(f"{path} holds no items")
    return dataset


def _read_config(args) -> dict:
    """The ``--config`` file's keys; ``--seed``, when given, is its ``seed``."""
    conf = parse_config(args.config)
    if args.seed is not None:
        conf["seed"] = args.seed
    return conf


# ---------------------------------------------------------------------------
# commands


def cmd_train(args) -> int:
    _check_out(args)
    conf = _read_config(args)
    dataset = _load_data(args.data)
    model_cfg = model_config(conf, dataset)
    train_cfg = train_config(conf)
    net = model_mod.Model.build(model_cfg)
    net, report = train_mod.train(net, dataset, train_cfg)
    model_mod.save_checkpoint(net, args.out)
    print(report.to_markdown(), file=sys.stderr)
    out = report.to_dict()
    out["checkpoint"] = args.out
    print(json.dumps(out, indent=2))
    return 0


def cmd_eval(args) -> int:
    net = model_mod.load_checkpoint(args.checkpoint)
    dataset = _load_data(args.data)
    _check_fits(net.config, dataset, training=False)
    acc, f1 = train_mod.evaluate(net, dataset)
    print(json.dumps({"items": len(dataset), "accuracy": acc, "macro_f1": f1},
                     indent=2))
    return 0


def cmd_gradcheck(args) -> int:
    model_cfg = model_config(_read_config(args), None)
    n = model_cfg.seq_len if model_cfg.seq_len is not None else 8
    model_cfg.check_stack(1, n)
    rng = np.random.default_rng(model_cfg.seed)
    x = rng.standard_normal((model_cfg.feature_dim, n))
    label = int(rng.integers(model_cfg.classes))
    net = model_mod.Model.build(model_cfg)
    op = model_mod.loss_op(net, x, label)
    report = numerics.grad_check(op, list(net.params.values()))
    groups = dict(zip(net.params, report.per_input))
    passed = report.finite and report.max_rel_err <= GRAD_TOLERANCE
    print(json.dumps({
        "attention": model_cfg.attention,
        "max_rel_err": report.max_rel_err,
        "tolerance": GRAD_TOLERANCE,
        "pass": passed,
        "groups": groups,
    }, indent=2))
    for name, err in groups.items():
        status = "ok" if err <= GRAD_TOLERANCE else "FAIL"
        print(f"{status:4s} {name:24s} {err:.3e}", file=sys.stderr)
    return 0 if passed else 1


def cmd_gen(args) -> int:
    _check_out(args)
    dataset = generate(_read_config(args))
    data_mod.save_features(dataset, args.out)
    print(json.dumps({"path": args.out, "items": len(dataset),
                      "classes": dataset.classes, "checksum": dataset.checksum()},
                     indent=2))
    return 0


def _pgm(m: np.ndarray) -> bytes:
    lo, hi = float(m.min()), float(m.max())
    if hi > lo:
        scaled = np.round((m - lo) / (hi - lo) * 255.0)
    else:
        scaled = np.zeros_like(m)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    return header + scaled.astype(np.uint8).tobytes()


def cmd_inspect_attention(args) -> int:
    net = model_mod.load_checkpoint(args.checkpoint)
    dataset = _load_data(args.data)
    if not 0 <= args.item < len(dataset):
        raise ConfigError(f"item {args.item} out of range [0, {len(dataset)})")
    x, _ = dataset.items[args.item]
    matrices = net.attention_matrices(x)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [str(out_dir / f"head{i}.{ext}") for i in range(len(matrices))
               for ext in ("csv", "pgm")]
    for path in written:  # every destination, before the first is replaced
        check_destination(path)
    for m, csv_path, pgm_path in zip(matrices, written[::2], written[1::2]):
        write_file(csv_path, "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                     for row in m.tolist()).encode("ascii"))
        write_file(pgm_path, _pgm(m))
    print(json.dumps({"attention": net.config.attention, "heads": len(matrices),
                      "files": written}, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnbof",
        description="Bag-of-features sequence classification with learned attention")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("eval", help="score a checkpoint on a feature file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the full loss gradient")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", help="generate a synthetic feature file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("inspect-attention",
                       help="export per-head attention matrices as CSV and PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--item", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    # looked up by name at call time, so a patched or traced command runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        # the finite checks decide the exit code, with no numpy warning first
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return command(args)
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DataFormatError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
