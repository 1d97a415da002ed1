"""Paired benchmark runs of two source checkouts, one workload.

    python scripts/perf_pairs.py --parent DIR --change DIR --workload longseq-eval \
        --pairs 10 --seed-base 7001

Pair i runs ``perfbench/run.py --workload W --seed S+i --trace 0`` once in
each checkout, as a subprocess from the checkout's root, for the
``run_seconds`` of the change's BENCHMARK.json, and alternates which side
runs first.  For every end-to-end metric that file declares, it prints
each side's median and quartiles and how many pairs the change won (by the metric's ``better`` direction), then the
failed/attempted operation counts of each side.  A run that exits non-zero
or prints no result counts as one failed, attempted run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result object of one benchmark run, or None if it produced none."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
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
        vals = {side: [r["metrics"][name]["value"] for r in runs[side] if r] for side in SIDES}
        if not vals["parent"] or not vals["change"]:
            lines.append(f"{name}: no values")
            continue
        (p1, p2, p3), (c1, c2, c3) = quartiles(vals["parent"]), quartiles(vals["change"])
        won = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                  for p, c in pairs)
        rel = (c2 - p2) / p2 if p2 else float("nan")
        lines.append(f"{name} ({m['better']} is better): parent {p2:.6g} [{p1:.6g}, {p3:.6g}]"
                     f" -> change {c2:.6g} [{c1:.6g}, {c3:.6g}], {rel:+.1%}, "
                     f"change won {won}/{len(pairs)}, parent IQR {p3 - p1:.6g}")
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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seed-base", required=True, type=int)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    dirs = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict | None]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seed_base + i
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run_once(dirs[side], args.workload, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, seeds {args.seed_base}..{args.seed_base + args.pairs - 1},"
          f" {seconds:g} s per run")
    print("\n".join(summarize(spec["end_to_end"], runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
