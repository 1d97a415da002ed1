"""The two sequence experiments, each defined once in ``EXPERIMENTS``: its
generator and training configs in configs/ (read as ``attnbof gen`` and
``attnbof train`` read them) and the attention variants it compares.
Acceptance criteria 5 and 6 call :func:`run`.

    python scripts/experiments.py [order] [denoising] [--epochs N]

order: both classes share identical column multisets and differ only in
block order, so a model blind to timestamp order is at chance by
construction; the learned temporal mask separates them (holdout).
denoising: only 10% of the columns carry the class prototype, the rest are
Gaussian noise (5-fold cross-validation).

Each experiment prints its dataset checksum, then per variant accuracy and
macro-F1 in % (mean +/- std over folds), the accuracy difference from
"none", the final loss (mean over folds) and the seconds taken.
"""

import argparse
import time
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from attnbof.data import LabeledSequenceSet
    from attnbof.train import TrainReport

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class Experiment(NamedTuple):
    gen_conf: str
    train_conf: str
    variants: tuple[str, ...]  # "none", the baseline, first


EXPERIMENTS = {
    "order": Experiment("gen-order.conf", "order-2da.conf", ("none", "tsa", "2da")),
    "denoising": Experiment("gen-noisy.conf", "denoise-tsa.conf",
                            ("none", "tsa", "ctsa", "csa")),
}


# attnbof is imported inside the functions below, so that perf_pairs.py can
# read the table above with no attnbof on the import path.
def dataset(name: str) -> "LabeledSequenceSet":
    from attnbof.cli import generate, parse_config

    return generate(parse_config(str(CONFIGS / EXPERIMENTS[name].gen_conf)))


def run(name: str, attention: str, epochs: int | None = None) -> "TrainReport":
    """Train one attention variant on the experiment's data: a holdout
    ``train``, scored on the trained model itself, when the config has one
    fold, and ``cross_validate`` otherwise."""
    from attnbof.cli import model_config, parse_config, train_config
    from attnbof.model import Model
    from attnbof.train import cross_validate, train

    data = dataset(name)
    conf = {**parse_config(str(CONFIGS / EXPERIMENTS[name].train_conf)),
            "attention": attention}
    if epochs is not None:
        conf["epochs"] = epochs
    model_cfg = model_config(conf, data)
    train_cfg = train_config(conf)
    if train_cfg.folds == 1:
        return train(Model.build(model_cfg), data, train_cfg)[1]
    return cross_validate(model_cfg, data, train_cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("names", nargs="*", metavar="experiment",
                        help=f"any of {', '.join(EXPERIMENTS)} (default: all)")
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the config's epoch count")
    args = parser.parse_args(argv)
    if unknown := set(args.names) - set(EXPERIMENTS):
        parser.error(f"unknown experiment(s) {sorted(unknown)}")
    for name in args.names or EXPERIMENTS:
        data = dataset(name)
        print(f"{name}: {len(data)} items, checksum {data.checksum()}")
        base = None
        for attention in EXPERIMENTS[name].variants:
            t0 = time.perf_counter()
            report = run(name, attention, args.epochs)
            dt = time.perf_counter() - t0
            base = report.accuracy_mean if base is None else base
            loss = sum(f.loss_trace[-1] for f in report.folds) / len(report.folds)
            print(f"  {attention:5s} acc {100 * report.accuracy_mean:6.2f} +/- "
                  f"{100 * report.accuracy_std:5.2f}  F1 {100 * report.f1_mean:6.2f} +/- "
                  f"{100 * report.f1_std:5.2f}  vs none {report.accuracy_mean - base:+.4f}  "
                  f"final loss {loss:.4f}  ({dt:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
