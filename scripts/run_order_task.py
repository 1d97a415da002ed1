"""Order-discrimination benchmark.

The two classes share identical column multisets and differ only in block
order, so any pipeline that is invariant to timestamp permutation is stuck at
accuracy 1/2 by construction.  The learned-mask temporal attention sees
positions through its N x N weight and can separate the classes.

Data and hyperparameters come from configs/gen-order.conf and
configs/order-2da.conf, read as ``attnbof gen`` and ``attnbof train`` read
them; only the attention variant (and the epoch count, with --epochs) is
overridden.
"""

import argparse
import time
from pathlib import Path

from attnbof.cli import generate, model_config, parse_config, train_config
from attnbof.model import Model
from attnbof.train import train

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the config's epoch count")
    args = parser.parse_args()

    gen = parse_config(str(CONFIGS / "gen-order.conf"))
    dataset = generate(gen, gen["seed"])
    print(f"dataset: {len(dataset)} items, checksum {dataset.checksum()}")
    conf = parse_config(str(CONFIGS / "order-2da.conf"))
    if args.epochs is not None:
        conf["epochs"] = args.epochs
    for attention in ("none", "tsa", "2da"):
        run = {**conf, "attention": attention}
        t0 = time.perf_counter()
        net = Model.build(model_config(run, dataset, run["seed"]))
        _, report = train(net, dataset, train_config(run, run["seed"]))
        dt = time.perf_counter() - t0
        fold = report.folds[0]
        print(f"{attention:5s}  test acc {fold.accuracy:.3f}  "
              f"macro-F1 {fold.macro_f1:.3f}  final loss {fold.loss_trace[-1]:.4f}  "
              f"({dt:.1f}s)")


if __name__ == "__main__":
    main()
