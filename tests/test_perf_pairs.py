"""The checkout-pair script: perf_pairs.py against two stub checkouts whose
benchmark prints a fixed result, so the pairing, the order, the counts and the
per-run lines can be checked; its step workload against this checkout, on
both sides and against a checkout whose package fails to import."""

import json
from pathlib import Path

import perf_pairs

ROOT = Path(__file__).resolve().parents[1]

STUB = """import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open("../order.log", "a") as log:
    log.write(f"{SIDE} {seed}\\n")
if SIDE == "change" and seed == FAIL_SEED:
    sys.exit(2)
rate = RATE + seed % 2
print(json.dumps({"correct": True, "attempted": 10, "failed": int(SIDE == "parent"),
                  "metrics": {"items_per_s": {"value": rate, "unit": "1/s"},
                              "latency_ms_p50": {"value": 1000.0 / rate, "unit": "ms"}}}))
"""

SPEC = {"run_seconds": 20, "end_to_end": [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}]}


def checkout(root: Path, side: str, rate: float, fail_seed: int) -> Path:
    path = root / side
    (path / "perfbench").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (path / "perfbench" / "run.py").write_text(
        f"SIDE = {side!r}\nRATE = {rate}\nFAIL_SEED = {fail_seed}\n" + STUB)
    return path


def test_pairs_alternate_and_count_wins_and_failures(tmp_path, capsys):
    parent = checkout(tmp_path, "parent", 100.0, -1)
    change = checkout(tmp_path, "change", 150.0, 12)
    assert perf_pairs.main(["--parent", str(parent), "--change", str(change),
                            "--workload", "w", "--pairs", "3", "--seed-base", "10"]) == 0
    order = (tmp_path / "order.log").read_text().split("\n")[:-1]
    assert order == ["parent 10", "change 10", "change 11", "parent 11",
                     "parent 12", "change 12"]
    out = capsys.readouterr().out
    assert "2 complete pairs of 3" in out
    assert ("items_per_s (higher is better): parent 100 [100, 100.5] -> "
            "change 150.5 [150.25, 150.75], +50.5%, change won 2/2") in out
    assert "latency_ms_p50 (lower is better)" in out and "change won 2/2" in out
    assert ("  parent runs: 100 101 100\n  change runs: 150 151 failed\n"
            "latency_ms_p50") in out
    assert "  parent runs: 10 9.90099 10\n  change runs: 6.66667 6.62252 failed\n" in out
    assert "parent: failed/attempted 3/30" in out
    assert "change: failed/attempted 1/21" in out


def run_step(parent: Path, change: Path, capsys) -> str:
    assert perf_pairs.main(["--parent", str(parent), "--change", str(change),
                            "--workload", "step", "--pairs", "1", "--seed-base", "5"]) == 0
    return capsys.readouterr().out


def test_step_workload_runs_this_checkout_against_itself(capsys):
    lines = run_step(ROOT, ROOT, capsys).splitlines()
    assert lines[:2] == ["workload step, seeds 5..5, µs per item at B=16",
                         "1 complete pairs of 1"]
    names = [f"{kind}.{figure}" for kind in ("none", "2da", "ctsa", "csa", "tsa")
             for figure in ("step", "forward")]
    for i, name in enumerate(names):
        head, *runs = lines[2 + 3 * i:5 + 3 * i]
        assert head.startswith(f"{name} (lower is better): parent ")
        assert head.endswith(("change won 0/1, parent IQR 0", "change won 1/1, parent IQR 0"))
        for side, line in zip(perf_pairs.SIDES, runs):
            assert line.startswith(f"  {side} runs: ") and float(line.split()[-1]) > 0.0
    assert lines[32:] == ["parent: failed/attempted 0/1", "change: failed/attempted 0/1"]


def test_step_workload_counts_a_checkout_that_fails_to_import(tmp_path, capsys):
    broken = tmp_path / "broken"
    (broken / "src" / "attnbof").mkdir(parents=True)
    (broken / "src" / "attnbof" / "__init__.py").write_text("raise ImportError('broken')\n")
    out = run_step(broken, ROOT, capsys)
    assert "0 complete pairs of 1" in out
    assert "tsa.step: no values\n  parent runs: failed\n  change runs: " in out
    assert "parent: failed/attempted 1/1" in out
    assert "change: failed/attempted 0/1" in out
