"""The frozen numerics reference: this checkout against ``tests/data/reference.npz``.

    python scripts/reference.py               # compare; exit 1 on drift over 1e-12
    python scripts/reference.py --write       # rewrite the reference from this checkout
    python scripts/reference.py --against DIR # compare with DIR's checkout, on this host

``probe(pkg)`` is the one definition of what is pinned: for each configuration
of ``CONFIGS``, trained by ``fit`` for 3 epochs on a 48-item noisy set, its
parameters before and after, loss trace, a training ``loss_and_grad``,
logits, attention matrices and checkpoint (header bytes, float64 payload);
for each dataset of ``DATASETS``, its feature-file bytes, the items and
labels loaded back, and the checksums of its holdout and 5-fold splits;
for each configuration of ``SHAPES``, built at a shape the benchmark runs
(BLAS picks its kernels by shape and memory order, so drift can show there
and not at the small shape), a training ``loss_and_grad`` of a 16-item stack
and an evaluation ``loss_and_grad`` of its first item; for the long-sequence
model of ``LONGSEQ``, the logits of one item and of a 4-item stack.  A
float64 field passes within ``TOLERANCE`` of the reference, relative to the
field's largest reference magnitude; a byte field passes only when equal.
BLAS picks its kernels by host too, so the archive is bitwise only on a
host like the one that wrote it; ``--against`` probes ``DIR/src/attnbof``,
imported as ``scripts/perf_pairs.py`` imports a checkout, in this process,
and compares it with this checkout field by field.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import attnbof
from perf_pairs import load

REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "data" / "reference.npz"
TOLERANCE = 1e-12

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
LENGTH = 12
# the denoising experiment's model (D=8, K=16, N=30, d=8, 2 heads); "wide"
# csa and tsa take 3 heads and d=40 > K, N, so that a head's projection is
# the largest stage array
DENOISE = {"feature_dim": 8, "classes": 3, "codewords": 16, "latent_dim": 8, "heads": 2,
           "seq_len": 30}
WIDE = {**DENOISE, "heads": 3, "latent_dim": 40, "dropout_rate": 0.1}
SHAPES = {
    **{f"denoise-{kind}": {**DENOISE, "attention": kind}
       for kind in ("none", "ctsa", "csa", "tsa")},
    "denoise-2da-temporal": {**DENOISE, "attention": "2da", "mode": "temporal"},
    "denoise-2da-input": {**DENOISE, "attention": "2da", "mode": "input"},
    "wide-csa-h3": {**WIDE, "attention": "csa"},
    "wide-tsa-h3": {**WIDE, "attention": "tsa"},
}
# longseq-eval's conv + csa model
LONGSEQ = {"feature_dim": 16, "classes": 4, "codewords": 64, "latent_dim": 16, "heads": 2,
           "seq_len": 256, "attention": "csa", "frontend": "conv", "conv_width": 3,
           "conv_channels": 16}
# the data path: generator, seed (which also seeds the splits)
DATASETS = {f"{generator}-seed{seed}": (generator, seed)
            for generator in ("order", "noisy") for seed in (3, 4)}


def _noisy(pkg, seed: int):
    return pkg.gen_noisy_timestamps(classes=3, feature_dim=4, length=LENGTH,
                                    signal_fraction=0.25, snr=2.0, count=48, seed=seed)


def _shape_model(pkg, extra: dict) -> tuple:
    """``pkg``'s model of ``extra``, built with seed 11, its codebook drawn
    from its data's quantizer inputs as ``fit`` draws it, and that data: 16
    stacked items and their labels."""
    cfg = pkg.ModelConfig(seed=11, **extra)
    data = pkg.gen_noisy_timestamps(classes=cfg.classes, feature_dim=cfg.feature_dim,
                                    length=cfg.seq_len, signal_fraction=0.1, snr=2.0,
                                    count=16, seed=7)
    xs = np.stack([x for x, _ in data.items])
    net = pkg.Model.build(cfg)
    net.set_codebook(pkg.init_codebook([net.quantizer_input(x) for x in xs],
                                       cfg.codewords, 7))
    return net, xs, data.labels()


def _bytes(data: bytes | str) -> list[np.ndarray]:
    return [np.frombuffer(data.encode() if isinstance(data, str) else data, np.uint8)]


def probe(pkg=attnbof) -> dict[str, list[np.ndarray]]:
    """Field key -> its arrays, numeric values or one uint8 array of bytes,
    as the ``attnbof`` package ``pkg`` computes them."""
    data = _noisy(pkg, 5)
    xs = np.stack([x for x, _ in data.items])
    labels = data.labels()
    fields: dict[str, list[np.ndarray]] = {}
    for name, extra in CONFIGS.items():
        net = pkg.Model.build(pkg.ModelConfig(feature_dim=4, classes=3, codewords=8,
                                              latent_dim=4, seq_len=LENGTH, seed=11, **extra))
        initial = [a.copy() for a in net.params.values()]
        trace = pkg.train.fit(net, data, pkg.TrainConfig(epochs=3, batch_size=16,
                                                         learning_rate=0.01, seed=3))
        losses, grad = net.loss_and_grad(xs, labels, training=True,
                                         seed=np.arange(len(xs)) + 1000)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.nbaf")
            pkg.save_checkpoint(net, path)
            blob = Path(path).read_bytes()
        # magic, version, header length, JSON header | payload | CRC32 of the payload
        end = 12 + int.from_bytes(blob[8:12], "little")
        fields.update({
            f"{name}.initial_params": initial,
            f"{name}.loss_trace": [np.array(trace)],
            f"{name}.final_params": list(net.params.values()),
            f"{name}.loss_and_grad": [losses, *net.views(grad).values()],
            f"{name}.logits": [net.forward(xs)],
            f"{name}.attention_matrices": [] if net.config.attention == "none" else [
                m for x in xs[:4] for m in net.attention_matrices(x)],
            f"{name}.checkpoint_header": _bytes(blob[:end]),
            f"{name}.checkpoint_payload": [np.frombuffer(blob[end:-4], dtype="<f8")]})
    for name, (generator, seed) in DATASETS.items():
        dataset = (pkg.gen_order_task(feature_dim=4, length=LENGTH, count=48, seed=seed)
                   if generator == "order" else _noisy(pkg, seed))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.fseq")
            pkg.save_features(dataset, path)
            fields[f"{name}.fseq"] = _bytes(Path(path).read_bytes())
            loaded = pkg.load_features(path)
        fields[f"{name}.loaded"] = [x for x, _ in loaded.items] + [loaded.labels()]
        halves = pkg.train.holdout_split(dataset, 0.2, seed)
        for side, part in zip(("train", "test"), halves):
            fields[f"{name}.holdout_{side}"] = _bytes(part.checksum())
        for f, (train, val) in enumerate(pkg.kfold(dataset, 5, seed)):
            fields[f"{name}.fold{f}"] = _bytes(f"{train.checksum()} {val.checksum()}")
    for name, extra in SHAPES.items():
        net, xs, labels = _shape_model(pkg, extra)
        losses, grad = net.loss_and_grad(xs, labels, training=True,
                                         seed=np.arange(len(xs)) + 2000)
        loss, grad_one = net.loss_and_grad(xs[0], int(labels[0]))
        fields[f"{name}.loss_and_grad"] = [losses, *net.views(grad).values()]
        fields[f"{name}.loss_and_grad_one"] = [np.array(loss), *net.views(grad_one).values()]
    net, xs, _ = _shape_model(pkg, LONGSEQ)
    fields["longseq-conv-csa.logits_one"] = [net.forward(xs[0])]
    fields["longseq-conv-csa.logits_stack"] = [net.forward(xs[:4])]
    return fields


def archived(fields: dict[str, list[np.ndarray]]) -> dict[str, np.ndarray]:
    """The archive's form of ``probe()``: per field, its values in one flat
    array, and under ``<field>:shapes`` the repr of its arrays' shapes."""
    out = {}
    for key, arrays in fields.items():
        out[key] = np.concatenate([np.ravel(a) for a in arrays] or [np.zeros(0)])
        out[key + ":shapes"] = np.array(repr([a.shape for a in arrays]))
    return out


def relative_drift(reference: np.ndarray, current: np.ndarray) -> float:
    """max |current - reference| relative to the largest reference magnitude;
    for bytes, 0 when equal; inf when the dtypes or sizes differ, when bytes
    differ, or when the reference is all zero and the current field is not."""
    if reference.dtype != current.dtype or reference.shape != current.shape:
        return float("inf")
    if reference.dtype == np.uint8:
        return 0.0 if np.array_equal(reference, current) else float("inf")
    diff = float(np.max(np.abs(current - reference), initial=0.0))
    scale = float(np.max(np.abs(reference), initial=0.0))
    return diff / scale if scale > 0.0 else (0.0 if diff == 0.0 else float("inf"))


def drifts(path: Path) -> tuple[dict[str, float], int]:
    """``compare`` of the reference at ``path`` with this checkout."""
    with np.load(path) as archive:
        return compare({key: archive[key] for key in archive.files}, archived(probe()))


def compare(reference: dict[str, np.ndarray],
            current: dict[str, np.ndarray]) -> tuple[dict[str, float], int]:
    """The ``relative_drift`` of every ``current`` field that is not bitwise
    equal to its ``reference`` field, both in ``archived`` form, and the
    number of fields; a field on one side only, or whose shapes differ,
    drifts by inf."""
    keys = [key for key in {**reference, **current} if not key.endswith(":shapes")]
    out = {}
    for key in keys:
        ref, cur = reference.get(key), current.get(key)
        if ref is None or cur is None or (str(reference[key + ":shapes"])
                                          != str(current[key + ":shapes"])):
            out[key] = float("inf")
        elif ref.dtype != cur.dtype or ref.tobytes() != cur.tobytes():
            out[key] = relative_drift(ref, cur)
    return out, len(keys)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the reference from this checkout")
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="compare with the checkout at DIR instead of the reference")
    args = parser.parse_args(argv)
    if args.write:
        fields = probe()
        np.savez_compressed(REFERENCE, **archived(fields))
        print(f"wrote {len(fields)} fields to {REFERENCE}")
        return 0
    if args.against is None:
        moved, total = drifts(REFERENCE)
    else:
        try:
            pkg = load("against", args.against)
            if pkg is None:   # the traceback is on stderr
                return 2
            moved, total = compare(archived(probe(pkg)), archived(probe()))
        finally:   # the package and its submodules leave the interpreter
            for name in [n for n in sys.modules if n.split(".")[0] == "attnbof_against"]:
                del sys.modules[name]
    for key, drift in moved.items():
        print(f"{key:40s} max |change - reference| / max |reference| = {drift:.3e}")
    over = sum(not drift <= TOLERANCE for drift in moved.values())   # NaN is over
    largest = max(moved.values(), default=0.0)
    print(f"{total - len(moved)} of {total} fields bitwise equal, {over} over {TOLERANCE:g}"
          + ("" if args.against is None else f", largest drift {largest:.3e}"))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
