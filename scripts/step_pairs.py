"""Paired in-process timing of the training step and the forward pass of two
source checkouts, per attention kind.

    python scripts/step_pairs.py --parent DIR --change DIR --pairs 10

Each side of a pair is one subprocess, run from the checkout's root with its
``src`` first on the import path; which side runs first alternates.  The
subprocess builds one model per attention kind at D=8, N=30, K=16, d=8, with
2 heads for ctsa/csa/tsa and dropout 0, and times on one B=16 stack:

* ``step``: ``Model.loss_and_grad(xs, labels, training=True, seed=...)``;
* ``forward``: ``Model.forward(xs)``.

A figure is the fastest of ``REPEATS`` means over ``CALLS`` calls, in µs per
item: the repeat least disturbed by other load on the host.  The report
gives, per kind and figure, each side's median over the pairs, their ratio
and how many pairs the change was faster.  Exit status: 0 on a report, 2
when a checkout fails to run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

KINDS = ("none", "2da", "ctsa", "csa", "tsa")
FIGURES = ("step", "forward")
BATCH, REPEATS, CALLS = 16, 9, 20
SIDES = ("parent", "change")


def measure() -> dict:
    """µs per item of every (kind, figure), against the importable attnbof."""
    import numpy as np

    import attnbof
    from attnbof.data import gen_noisy_timestamps
    from attnbof.model import Model, ModelConfig

    data = gen_noisy_timestamps(classes=3, feature_dim=8, length=30, signal_fraction=0.1,
                                snr=2.0, count=BATCH, seed=3)
    xs = np.stack([x for x, _ in data.items])
    labels, seeds = data.labels(), np.arange(BATCH) + 100
    out: dict = {"module": attnbof.__file__}
    for kind in KINDS:
        net = Model.build(ModelConfig(
            feature_dim=8, classes=3, codewords=16, attention=kind, latent_dim=8,
            heads=1 if kind in ("none", "2da") else 2, seq_len=30, seed=1))
        calls = {"step": lambda: net.loss_and_grad(xs, labels, training=True, seed=seeds),
                 "forward": lambda: net.forward(xs)}
        for figure, call in calls.items():
            call()
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                for _ in range(CALLS):
                    call()
                times.append(time.perf_counter() - t0)
            out[f"{kind}.{figure}"] = 1e6 * min(times) / (CALLS * BATCH)
    return out


def run_checkout(checkout: Path) -> dict | None:
    """One measurement of one checkout, or None (with the reason on stderr)."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--measure"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"{checkout}: exited {proc.returncode}\n{proc.stderr}")
        return None
    result = json.loads(proc.stdout)
    if not Path(result["module"]).resolve().is_relative_to((checkout / "src").resolve()):
        sys.stderr.write(f"{checkout}: imported attnbof from {result['module']}\n")
        return None
    return result


def summarize(runs: dict[str, list[dict]]) -> list[str]:
    """Report lines; ``runs[side][i]`` is pair i's measurement."""
    pairs = len(runs["parent"])
    lines = [f"B={BATCH} µs/item, median of {pairs} pairs (parent -> change)",
             f"{'kind':6s} {'figure':8s} {'parent':>9s} {'change':>9s} {'ratio':>7s}  won"]
    for kind in KINDS:
        for figure in FIGURES:
            key = f"{kind}.{figure}"
            p = statistics.median(r[key] for r in runs["parent"])
            c = statistics.median(r[key] for r in runs["change"])
            won = sum(cr[key] < pr[key] for pr, cr in zip(runs["parent"], runs["change"]))
            lines.append(f"{kind:6s} {figure:8s} {p:9.1f} {c:9.1f} {c / p:7.3f}  "
                         f"{won}/{pairs}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure()))
        return 0
    if args.parent is None or args.change is None or args.pairs < 1:
        parser.error("--parent, --change and --pairs >= 1 are required")
    dirs = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            result = run_checkout(dirs[side])
            if result is None:
                return 2
            runs[side].append(result)
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print("\n".join(summarize(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
