"""Bitwise comparison of two source checkouts over a fixed set of training runs.

    python scripts/bitwise_pairs.py --parent DIR --change DIR

In each checkout, as a subprocess from the checkout's root with its ``src``
first on the import path, every configuration of ``CONFIGS`` is built,
trained by ``fit`` for 3 epochs on a 48-item noisy-timestamps set and then
probed; and every dataset of ``DATASETS`` is generated, written by
``save_features`` and loaded back.  For each configuration and dataset it
prints a sha256 of every field of ``FIELDS`` and ``DATA_FIELDS``; for every
differing array field, the largest |change - parent| relative to the
field's largest parent magnitude (checkpoint and feature-file bytes are
compared by digest only); then the fields whose digests differ between the
two checkouts.  Exit status: 0 when none differ, 1 when some do, 2 when a
checkout fails to run.
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
    "ctsa-h2-dropout": {"attention": "ctsa", "heads": 2, "dropout_rate": 0.25},
    "csa-h2-dropout": {"attention": "csa", "heads": 2, "dropout_rate": 0.25},
    "tsa-h2-dropout": {"attention": "tsa", "heads": 2, "dropout_rate": 0.1},
    "conv-csa": {"frontend": "conv", "attention": "csa"},
    "conv-2da-input": {"frontend": "conv", "attention": "2da", "mode": "input"},
}
FIELDS = ("initial_params", "loss_trace", "final_params", "loss_and_grad", "logits",
          "attention_matrices", "checkpoint")
LENGTH = 12
# the data path: generator, seed
DATASETS = {f"{generator}-seed{seed}": (generator, seed)
            for generator in ("order", "noisy") for seed in (3, 4)}
# the file's bytes; the loaded items, labels and checksum()
DATA_FIELDS = ("fseq", "loaded")


def digest(arrays: list, *extra: bytes) -> str:
    """sha256 over each array's shape and float64 bytes, then ``extra``."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    for chunk in extra:
        h.update(chunk)
    return h.hexdigest()


def probe(arrays_path: str) -> dict:
    """Field digests of every configuration, run against the importable
    attnbof; the arrays of every field go to the ``.npz`` at ``arrays_path``
    as ``<field key>/<index>``."""
    import numpy as np

    import attnbof
    from attnbof.data import gen_noisy_timestamps, gen_order_task, load_features, save_features
    from attnbof.model import Model, ModelConfig, save_checkpoint
    from attnbof.train import TrainConfig, fit

    data = gen_noisy_timestamps(classes=3, feature_dim=4, length=LENGTH,
                                signal_fraction=0.25, snr=2.0, count=48, seed=5)
    xs = np.stack([x for x, _ in data.items])
    labels = data.labels()
    out: dict = {"module": attnbof.__file__}
    saved: dict = {}
    for name, extra in CONFIGS.items():
        net = Model.build(ModelConfig(feature_dim=4, classes=3, codewords=8, latent_dim=4,
                                      seq_len=LENGTH, seed=11, **extra))
        arrays = {"initial_params": [a.copy() for a in net.params.values()]}
        trace = fit(net, data, TrainConfig(epochs=3, batch_size=16, learning_rate=0.01), 3)
        arrays["loss_trace"] = [np.array(trace)]
        arrays["final_params"] = list(net.params.values())
        losses, grad = net.loss_and_grad(xs, labels, training=True,
                                         seed=np.arange(len(xs)) + 1000)
        # a name -> array dict from older checkouts, one vector laid out like
        # ``net.flat`` from newer ones: either is digested per parameter
        grads = grad if isinstance(grad, dict) else net.views(grad)
        arrays["loss_and_grad"] = [losses] + [grads[p] for p in net.params]
        arrays["logits"] = [net.forward(xs)]
        arrays["attention_matrices"] = [] if net.config.attention == "none" else [
            m for x in xs[:4] for m in net.attention_matrices(x)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.nbaf")
            save_checkpoint(net, path)
            checkpoint = Path(path).read_bytes()
        for field, values in arrays.items():
            out[f"{name}.{field}"] = digest(values)
            saved.update({f"{name}.{field}/{i}": a for i, a in enumerate(values)})
        out[f"{name}.checkpoint"] = hashlib.sha256(checkpoint).hexdigest()
    for name, (generator, seed) in DATASETS.items():
        dataset = (gen_order_task(feature_dim=4, length=LENGTH, count=48, seed=seed)
                   if generator == "order" else
                   gen_noisy_timestamps(classes=3, feature_dim=4, length=LENGTH,
                                        signal_fraction=0.25, snr=2.0, count=48, seed=seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.fseq")
            save_features(dataset, path)
            fseq = Path(path).read_bytes()
            loaded = load_features(path)
        values = [x for x, _ in loaded.items] + [loaded.labels()]
        out[f"{name}.fseq"] = hashlib.sha256(fseq).hexdigest()
        out[f"{name}.loaded"] = digest(values, loaded.checksum().encode())
        saved.update({f"{name}.loaded/{i}": a for i, a in enumerate(values)})
    np.savez(arrays_path, **saved)
    return out


def load_fields(path: Path) -> dict[str, list]:
    """Field key -> its arrays in order, from a ``probe`` archive."""
    import numpy as np

    fields: dict[str, list] = {}
    with np.load(path) as archive:
        for name in sorted(archive.files, key=lambda f: int(f.rsplit("/", 1)[1])):
            fields.setdefault(name.rsplit("/", 1)[0], []).append(archive[name])
    return fields


def relative_drift(parent: list, change: list) -> float:
    """max |change - parent| over a field's arrays, relative to the largest
    parent magnitude; inf when the shapes differ, or when the parent is all
    zero and the change is not."""
    import numpy as np

    if [a.shape for a in parent] != [a.shape for a in change]:
        return float("inf")
    diff = max((float(np.max(np.abs(c - p), initial=0.0)) for p, c in zip(parent, change)),
               default=0.0)
    scale = max((float(np.max(np.abs(p), initial=0.0)) for p in parent), default=0.0)
    return diff / scale if scale > 0.0 else (0.0 if diff == 0.0 else float("inf"))


def drift_lines(parent: dict[str, list], change: dict[str, list], keys: list[str]) -> list[str]:
    """One report line per array field of ``keys``: its ``relative_drift``."""
    return [f"{key:34s} max |change - parent| / max |parent| = "
            f"{relative_drift(parent[key], change[key]):.3e}"
            for key in keys if key in parent and key in change]


def run_checkout(checkout: Path, arrays_path: Path) -> dict | None:
    """The digests of one checkout, its arrays saved to ``arrays_path``, or
    None (with the reason on stderr)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digest",
                           str(arrays_path)],
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
    parser.add_argument("--digest", metavar="ARRAYS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.digest:
        print(json.dumps(probe(args.digest)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {side: Path(tmp) / f"{side}.npz" for side in ("parent", "change")}
        parent = run_checkout(args.parent, paths["parent"])
        change = run_checkout(args.change, paths["change"])
        if parent is None or change is None:
            return 2
        keys = ([f"{name}.{field}" for name in CONFIGS for field in FIELDS]
                + [f"{name}.{field}" for name in DATASETS for field in DATA_FIELDS])
        differ = [key for key in keys if parent[key] != change[key]]
        for key in keys:
            mark = f"  DIFFERS, parent {parent[key]}" if key in differ else ""
            print(f"{key:34s} {change[key]}{mark}")
        if differ:
            print("\n".join(drift_lines(load_fields(paths["parent"]),
                                        load_fields(paths["change"]), differ)))
    print(f"{len(differ)} differing fields of {len(keys)}"
          + (": " + ", ".join(differ) if differ else ""))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
