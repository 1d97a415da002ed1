"""Noisy-timestamp benchmark: 5-fold comparison of the self-attention
variants against the plain bag-of-features baseline.

Only 10% of the columns carry the class prototype; the rest are Gaussian
noise, so suppressing irrelevant timestamps or codewords pays off directly.

Data and hyperparameters come from configs/gen-noisy.conf and
configs/denoise-tsa.conf, read as ``attnbof gen`` and ``attnbof train`` read
them; only the attention variant (and the epoch count, with --epochs) is
overridden.
"""

import argparse
import time
from pathlib import Path

from attnbof.cli import generate, model_config, parse_config, train_config
from attnbof.train import cross_validate

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the config's epoch count")
    args = parser.parse_args()

    gen = parse_config(str(CONFIGS / "gen-noisy.conf"))
    dataset = generate(gen, gen["seed"])
    print(f"dataset: {len(dataset)} items, checksum {dataset.checksum()}")
    conf = parse_config(str(CONFIGS / "denoise-tsa.conf"))
    if args.epochs is not None:
        conf["epochs"] = args.epochs
    results = {}
    for attention in ("none", "tsa", "ctsa", "csa"):
        run = {**conf, "attention": attention}
        t0 = time.perf_counter()
        report = cross_validate(model_config(run, dataset, run["seed"]), dataset,
                                train_config(run, run["seed"]))
        dt = time.perf_counter() - t0
        results[attention] = report.accuracy_mean
        print(f"{attention:5s}  acc {100 * report.accuracy_mean:.2f} + "
              f"{100 * report.accuracy_std:.2f}  "
              f"F1 {100 * report.f1_mean:.2f} + {100 * report.f1_std:.2f}  ({dt:.1f}s)")
    base = results["none"]
    for attention in ("tsa", "ctsa", "csa"):
        print(f"{attention:5s} vs baseline: {results[attention] - base:+.4f}")


if __name__ == "__main__":
    main()
