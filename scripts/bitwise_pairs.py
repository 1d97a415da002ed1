"""Bitwise comparison of two source checkouts over a fixed set of training runs.

    python scripts/bitwise_pairs.py --parent DIR --change DIR

In each checkout, as a subprocess from the checkout's root with its ``src``
first on the import path, every configuration of ``CONFIGS`` is built,
trained by ``fit`` for 3 epochs on a 48-item noisy-timestamps set and then
probed.  For each configuration it prints a sha256 of every field of
``FIELDS``, then the fields whose digests differ between the two checkouts.
Exit status: 0 when none differ, 1 when some do, 2 when a checkout fails to
run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = {
    "none": {},
    "2da-temporal": {"attention": "2da", "mode": "temporal"},
    "2da-codeword": {"attention": "2da", "mode": "codeword"},
    "2da-input": {"attention": "2da", "mode": "input"},
    "ctsa-h2": {"attention": "ctsa", "heads": 2},
    "csa-h2-dropout": {"attention": "csa", "heads": 2, "dropout_rate": 0.25},
    "tsa-h2-dropout": {"attention": "tsa", "heads": 2, "dropout_rate": 0.1},
    "conv-csa": {"frontend": "conv", "attention": "csa"},
    "conv-2da-input": {"frontend": "conv", "attention": "2da", "mode": "input"},
}
FIELDS = ("initial_params", "loss_trace", "final_params", "loss_and_grad", "logits",
          "attention_matrices", "checkpoint")
LENGTH = 12


def digests() -> dict:
    """Field digests of every configuration, run against the importable attnbof."""
    import numpy as np

    import attnbof
    from attnbof.data import gen_noisy_timestamps
    from attnbof.model import Model, ModelConfig, save_checkpoint
    from attnbof.train import TrainConfig, fit

    data = gen_noisy_timestamps(classes=3, feature_dim=4, length=LENGTH,
                                signal_fraction=0.25, snr=2.0, count=48, seed=5)
    xs = np.stack([x for x, _ in data.items])
    labels = data.labels()
    out: dict = {"module": attnbof.__file__}
    for name, extra in CONFIGS.items():
        net = Model.build(ModelConfig(feature_dim=4, classes=3, codewords=8, latent_dim=4,
                                      seq_len=LENGTH, seed=11, **extra))
        arrays = {"initial_params": [a.copy() for a in net.params.values()]}
        trace = fit(net, data, TrainConfig(epochs=3, batch_size=16, learning_rate=0.01), 3)
        arrays["loss_trace"] = [np.array(trace)]
        arrays["final_params"] = list(net.params.values())
        losses, grads = net.loss_and_grad(xs, labels, training=True,
                                          seed=np.arange(len(xs)) + 1000)
        arrays["loss_and_grad"] = [losses] + [grads[p] for p in net.params]
        arrays["logits"] = [net.forward(xs)]
        arrays["attention_matrices"] = [] if net.config.attention == "none" else [
            m for x in xs[:4] for m in net.attention_matrices(x)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.nbaf")
            save_checkpoint(net, path)
            checkpoint = Path(path).read_bytes()
        for field, values in arrays.items():
            h = hashlib.sha256()
            for a in values:
                h.update(repr(a.shape).encode())
                h.update(np.ascontiguousarray(a, dtype=float).tobytes())
            out[f"{name}.{field}"] = h.hexdigest()
        out[f"{name}.checkpoint"] = hashlib.sha256(checkpoint).hexdigest()
    return out


def run_checkout(checkout: Path) -> dict | None:
    """The digests of one checkout, or None (with the reason on stderr)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digest"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"{checkout}: exited {proc.returncode}\n{proc.stderr}")
        return None
    result = json.loads(proc.stdout)
    if not Path(result["module"]).resolve().is_relative_to((checkout / "src").resolve()):
        sys.stderr.write(f"{checkout}: imported attnbof from {result['module']}\n")
        return None
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digest:
        print(json.dumps(digests()))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    parent, change = run_checkout(args.parent), run_checkout(args.change)
    if parent is None or change is None:
        return 2
    keys = [f"{name}.{field}" for name in CONFIGS for field in FIELDS]
    differ = [key for key in keys if parent[key] != change[key]]
    for key in keys:
        mark = f"  DIFFERS, parent {parent[key]}" if key in differ else ""
        print(f"{key:34s} {change[key]}{mark}")
    print(f"{len(differ)} differing fields of {len(keys)}"
          + (": " + ", ".join(differ) if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
