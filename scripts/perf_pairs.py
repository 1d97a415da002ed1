"""Paired runs of two source checkouts: one benchmark workload, or the
training step and forward pass of every attention kind.

    python scripts/perf_pairs.py --parent DIR --change DIR --workload longseq-eval \
        --pairs 10 --seed-base 7001
    python scripts/perf_pairs.py --parent DIR --change DIR --workload step \
        --pairs 10 --seed-base 7001

Pair i runs each checkout once with seed S+i, and alternates which side runs
first.  A benchmark workload runs ``perfbench/run.py --workload W --seed S+i
--trace 0`` in a subprocess from the checkout's root, for the ``run_seconds``
of the change's BENCHMARK.json, with the end-to-end metrics declared there.
``step`` imports each checkout's ``src/attnbof`` once, as ``attnbof_<side>``,
into this process, and a pair is one round: each side builds the models of
:func:`figures`, then every figure is timed on both sides before the next
one, so the two timings of a figure are milliseconds apart.  Its metrics are
``<kind>.{step,step1,forward}`` and ``longseq.{forward,forward1}`` in µs per
item, each with ``<figure>.faults``, the minor page faults per call, lower is
better.

For every metric the report gives each side's median and quartiles, the
median over complete pairs of the ratio change/parent, the pairs the change
won, tied and lost (by the metric's direction), the parent's IQR and whether
the median gain (the change's median minus the parent's, in the metric's
better direction) exceeds that IQR, then every run's value in pair order.  A
metric whose parent median is 0 (a page-fault count, say) is reported by the
absolute difference of the medians and the median pair difference instead.
The two runs of a pair are adjacent in time, so host drift that spans several
pairs cancels in the ratio.  A run that exits non-zero or prints no result,
and each round of a checkout whose package fails to import, counts as one
failed, attempted run, and the pairs go on.
"""

import argparse
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from experiments import CONFIGS, EXPERIMENTS

SIDES = ("parent", "change")
KINDS = ("none", "2da", "ctsa", "csa", "tsa")
BATCH, LONG_BATCH, CALLS = 16, 4, 20
FIGURES = [f"{kind}.{figure}" for kind in KINDS
           for figure in ("step", "step1", "forward")] + ["longseq.forward", "longseq.forward1"]
STEP_METRICS = [{"name": name + suffix, "better": "lower"}
                for name in FIGURES for suffix in ("", ".faults")]


def figures(pkg, seed: int) -> dict:
    """``pkg``'s figures for one round, name -> (items per call, call).  Every
    kind is built from the denoising experiment's configs and run on a B-item
    stack of its generator drawn with ``seed``: ``step`` is a training
    ``loss_and_grad`` and ``forward`` a ``Model.forward`` of the stack;
    ``step1`` is the evaluation-mode ``loss_and_grad`` of its first item, the
    call denoise-train times for its latency.  ``longseq.forward`` is the
    forward of longseq-eval's conv + csa model (K=64, N=256), its codebook
    drawn from the conv features, on a stack of LONG_BATCH items, the
    smallest stack its ``evaluate`` runs; ``longseq.forward1`` is that
    model's ``predict`` of one item, the call longseq-eval times for its
    latency."""
    cli = importlib.import_module(f"{pkg.__name__}.cli")
    exp = EXPERIMENTS["denoising"]
    gen, conf = (cli.parse_config(str(CONFIGS / f)) for f in (exp.gen_conf, exp.train_conf))
    data = cli.generate({**gen, "count": BATCH, "seed": seed})
    xs = np.stack([x for x, _ in data.items])
    labels, seeds = data.labels(), np.arange(BATCH) + 100
    calls = {}
    for kind in KINDS:
        net = pkg.model.Model.build(cli.model_config({**conf, "attention": kind}, data))
        calls[f"{kind}.step"] = (BATCH, lambda net=net: net.loss_and_grad(
            xs, labels, training=True, seed=seeds))
        calls[f"{kind}.step1"] = (1, lambda net=net: net.loss_and_grad(xs[0], int(labels[0])))
        calls[f"{kind}.forward"] = (BATCH, lambda net=net: net.forward(xs))
    long = pkg.data.gen_noisy_timestamps(classes=4, feature_dim=16, length=256,
                                         signal_fraction=0.1, snr=2.0, count=LONG_BATCH,
                                         seed=seed)
    net = pkg.model.Model.build(pkg.model.ModelConfig(
        feature_dim=16, classes=4, codewords=64, attention="csa", latent_dim=16, heads=2,
        frontend="conv", conv_width=3, conv_channels=16, seq_len=256, seed=seed))
    long_xs = np.stack([x for x, _ in long.items])
    net.set_codebook(pkg.nbof.init_codebook(list(net.quantizer_input(long_xs)), 64, seed))
    calls["longseq.forward"] = (LONG_BATCH, lambda: net.forward(long_xs))
    calls["longseq.forward1"] = (1, lambda: net.predict(long_xs[0]))
    return calls


def time_figure(items: int, call) -> dict:
    """µs per item and minor page faults per call of one figure: one mean of
    ``CALLS`` calls after a warm-up call."""
    call()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for _ in range(CALLS):
        call()
    seconds = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return {"value": 1e6 * seconds / (CALLS * items), "unit": "µs/item"}, \
        {"value": faults / CALLS, "unit": "faults/call"}


def step_round(pkgs: dict, seed: int, order) -> dict:
    """One round's result per side: each figure timed on the sides in
    ``order``, one after the other, before the next figure; None for a side
    whose package failed to import."""
    calls = {side: figures(pkgs[side], seed) for side in order if pkgs[side]}
    metrics: dict = {side: {} for side in calls}
    for name in FIGURES:
        for side in calls:
            metrics[side][name], metrics[side][f"{name}.faults"] = time_figure(*calls[side][name])
    return {side: side in calls and {"attempted": 1, "failed": 0, "metrics": metrics[side]}
            or None for side in SIDES}


def load(side: str, checkout: Path):
    """``checkout/src/attnbof`` imported as ``attnbof_<side>``, or None if that raises."""
    init = checkout.resolve() / "src" / "attnbof" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        f"attnbof_{side}", init, submodule_search_locations=[str(init.parent)])
    pkg = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(pkg)
        return pkg
    except Exception:  # its frames name the checkout
        traceback.print_exc()
        return None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run's result, or None (the reason on stderr) if it has none."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode == 0 and isinstance(result["metrics"], dict):
            return result
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        pass
    sys.stderr.write(f"{checkout}: seed {seed} exited {proc.returncode}, no result\n{proc.stderr}")
    return None


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
            pair_vals = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                         for p, c in pairs]
            signed = [sign * (c - p) for p, c in pair_vals]
            won, tied = sum(d > 0 for d in signed), sum(d == 0 for d in signed)
            if p2:
                ratios = [c / p for p, c in pair_vals if p]
                ratio = statistics.median(ratios) if ratios else float("nan")
                change = (f"{(c2 - p2) / p2:+.1%}, median pair ratio {ratio:.6g} "
                          f"({ratio - 1:+.1%})")
            else:   # no change is relative to 0: the absolute ones
                diffs = [c - p for p, c in pair_vals]
                diff = statistics.median(diffs) if diffs else float("nan")
                change = f"{c2 - p2:+.6g} absolute, median pair difference {diff:+.6g}"
            gain, iqr = sign * (c2 - p2) + 0.0, p3 - p1     # + 0.0 turns -0.0 into 0
            lines.append(f"{name} ({m['better']} is better): parent {p2:.6g} [{p1:.6g}, "
                         f"{p3:.6g}] -> change {c2:.6g} [{c1:.6g}, {c3:.6g}], {change}, "
                         f"change won/tied/lost {won}/{tied}/{len(pairs) - won - tied}, "
                         f"parent IQR {iqr:.6g}, median gain {gain:.6g} "
                         f"{'exceeds' if gain > iqr else 'does not exceed'} it")
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
    step = args.workload == "step"
    if step:
        metrics = STEP_METRICS
        unit = (f"µs per item at B={BATCH}, step1 at B=1, longseq.forward at "
                f"B={LONG_BATCH}, longseq.forward1 at B=1")
    else:
        spec = json.loads((args.change / "BENCHMARK.json").read_text())
        metrics, seconds = spec["end_to_end"], spec["run_seconds"]
        unit = f"{seconds:g} s per run"
    runs: dict[str, list[dict | None]] = {side: [] for side in SIDES}
    try:
        pkgs = {side: load(side, getattr(args, side)) for side in SIDES} if step else {}
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = step_round(pkgs, seed, order) if step else {
                side: run_once(getattr(args, side), args.workload, seed, seconds)
                for side in order}
            for side in SIDES:
                runs[side].append(results[side])
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
    finally:  # both packages and their submodules leave the interpreter
        for name in [n for n in sys.modules if n.split(".")[0] in {f"attnbof_{s}" for s in SIDES}]:
            del sys.modules[name]
    print(f"workload {args.workload}, seeds {args.seed_base}..{args.seed_base + args.pairs - 1},"
          f" {unit}")
    print("\n".join(summarize(metrics, runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
