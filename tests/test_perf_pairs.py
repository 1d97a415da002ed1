"""The checkout-pair scripts: perf_pairs.py against two stub checkouts whose
benchmark prints a fixed result, so the pairing, the order and the counts can
be checked; step_pairs.py against this checkout on both sides."""

import json
from pathlib import Path

import perf_pairs
import step_pairs

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
    assert "parent: failed/attempted 3/30" in out
    assert "change: failed/attempted 1/21" in out


def test_step_pairs_runs_this_checkout_against_itself(capsys):
    assert step_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--pairs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "B=16 µs/item, median of 1 pairs (parent -> change)"
    rows = [line.split() for line in lines[2:]]
    assert [(r[0], r[1]) for r in rows] == [(k, f) for k in step_pairs.KINDS
                                            for f in step_pairs.FIGURES]
    for row in rows:
        assert float(row[2]) > 0.0 and float(row[3]) > 0.0 and row[5] in ("0/1", "1/1")
