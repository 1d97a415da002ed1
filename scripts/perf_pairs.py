"""Paired runs of two source checkouts: one benchmark workload, or the
training step and forward pass of every attention kind.

    python scripts/perf_pairs.py --parent DIR --change DIR --workload longseq-eval \
        --pairs 10 --seed-base 7001
    python scripts/perf_pairs.py --parent DIR --change DIR --workload step \
        --pairs 10 --seed-base 7001

Pair i runs each checkout once with seed S+i, as a subprocess from the
checkout's root, and alternates which side runs first.  A benchmark workload
runs ``perfbench/run.py --workload W --seed S+i --trace 0`` for the
``run_seconds`` of the change's BENCHMARK.json, and its metrics are the
end-to-end ones that file declares.  ``step`` runs this script's
:func:`measure` with the checkout's ``src`` first on the import path; its
metrics are ``<kind>.step`` and ``<kind>.forward`` in µs per item, lower is
better.

For every metric the report gives each side's median and quartiles, the
pairs the change won (by the metric's direction) and the parent's IQR, then
every run's value in pair order.  A run that exits non-zero or prints no
result counts as one failed, attempted run, and the pairs go on.
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

SIDES = ("parent", "change")
KINDS = ("none", "2da", "ctsa", "csa", "tsa")
BATCH, REPEATS, CALLS = 16, 9, 20
STEP_METRICS = [{"name": f"{kind}.{figure}", "better": "lower"}
                for kind in KINDS for figure in ("step", "forward")]
# a step run: this script's ``measure`` in a fresh interpreter, seed as argv[1]
MEASURE = "import json, sys, perf_pairs; print(json.dumps(perf_pairs.measure(int(sys.argv[1]))))"


def measure(seed: int) -> dict:
    """One step run, against the attnbof of ``./src``: every kind built from
    the denoising experiment's configs, timed on a B-item stack of its
    generator drawn with ``seed``.  ``step`` is a training ``loss_and_grad``
    and ``forward`` a ``Model.forward``; a figure is the fastest of
    ``REPEATS`` means over ``CALLS`` calls, the repeat least disturbed by
    other load on the host."""
    import numpy as np

    import attnbof
    from attnbof.cli import generate, model_config, parse_config
    from attnbof.model import Model
    from experiments import CONFIGS, EXPERIMENTS

    if not Path(attnbof.__file__).resolve().is_relative_to(Path("src").resolve()):
        raise ImportError(f"imported attnbof from {attnbof.__file__}, not ./src")
    experiment = EXPERIMENTS["denoising"]
    data = generate({**parse_config(str(CONFIGS / experiment.gen_conf)),
                     "count": BATCH, "seed": seed})
    conf = parse_config(str(CONFIGS / experiment.train_conf))
    xs = np.stack([x for x, _ in data.items])
    labels, seeds = data.labels(), np.arange(BATCH) + 100
    metrics = {}
    for kind in KINDS:
        net = Model.build(model_config({**conf, "attention": kind}, data))
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
            metrics[f"{kind}.{figure}"] = {"value": 1e6 * min(times) / (CALLS * BATCH),
                                           "unit": "µs/item"}
    return {"attempted": 1, "failed": 0, "metrics": metrics}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one run, or None (with the reason on stderr)."""
    env = None
    if workload == "step":
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(checkout.resolve() / "src"), str(Path(__file__).resolve().parent)]))
        argv = ["-c", MEASURE, str(seed)]
    else:
        argv = ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"{checkout}: seed {seed} exited {proc.returncode}\n{proc.stderr}")
        return None
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(metrics: list[dict], runs: dict[str, list[dict | None]]) -> list[str]:
    """Report lines for paired runs; ``runs[side][i]`` is pair i's result."""
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if p and c]
    lines = [f"{len(pairs)} complete pairs of {len(runs['parent'])}"]
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "higher" else -1.0
        vals = {side: [r["metrics"][name]["value"] if r else None for r in runs[side]]
                for side in SIDES}
        done = {side: [v for v in vals[side] if v is not None] for side in SIDES}
        if not done["parent"] or not done["change"]:
            lines.append(f"{name}: no values")
        else:
            (p1, p2, p3), (c1, c2, c3) = quartiles(done["parent"]), quartiles(done["change"])
            won = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                      for p, c in pairs)
            rel = (c2 - p2) / p2 if p2 else float("nan")
            lines.append(f"{name} ({m['better']} is better): parent {p2:.6g} [{p1:.6g}, "
                         f"{p3:.6g}] -> change {c2:.6g} [{c1:.6g}, {c3:.6g}], {rel:+.1%}, "
                         f"change won {won}/{len(pairs)}, parent IQR {p3 - p1:.6g}")
        for side in SIDES:
            lines.append(f"  {side} runs: " + " ".join(
                "failed" if v is None else f"{v:.6g}" for v in vals[side]))
    for side in SIDES:
        done = [r for r in runs[side] if r]
        failed = sum(r["failed"] for r in done) + len(runs[side]) - len(done)
        attempted = sum(r["attempted"] for r in done) + len(runs[side]) - len(done)
        lines.append(f"{side}: failed/attempted {failed}/{attempted}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or step")
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed-base", required=True, type=int)
    args = parser.parse_args(argv)
    if args.workload == "step":
        metrics, seconds, unit = STEP_METRICS, 0.0, f"µs per item at B={BATCH}"
    else:
        spec = json.loads((args.change / "BENCHMARK.json").read_text())
        metrics, seconds = spec["end_to_end"], spec["run_seconds"]
        unit = f"{seconds:g} s per run"
    dirs = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict | None]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(dirs[side], args.workload, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, seeds {args.seed_base}..{args.seed_base + args.pairs - 1},"
          f" {unit}")
    print("\n".join(summarize(metrics, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
