"""The checkout-pair script: perf_pairs.py against two stub checkouts whose
benchmark prints a fixed result, so the pairing, the order, the counts and the
per-run lines can be checked; its step workload against this checkout, on
both sides and against a checkout whose package fails to import, run in-process
and as a script with no PYTHONPATH, the interpreter state it leaves, and the
order in which a round times its figures."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import attnbof
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
                              "latency_ms_p50": {"value": 1000.0 / rate, "unit": "ms"},
                              "setup_s": {"value": seed - 0.25 * (SIDE == "change"),
                                          "unit": "s"}}}))
"""

SPEC = {"run_seconds": 20, "end_to_end": [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}


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
    # the pair ratios, 150/100 and 151/101, leave out the pair whose change run failed
    assert ("items_per_s (higher is better): parent 100 [100, 100.5] -> "
            "change 150.5 [150.25, 150.75], +50.5%, median pair ratio 1.49752 (+49.8%), "
            "change won/tied/lost 2/0/0, parent IQR 0.5, median gain 50.5 exceeds it\n") in out
    assert ("latency_ms_p50 (lower is better): parent 10 [9.9505, 10] -> change 6.64459 "
            "[6.63355, 6.65563], -33.6%, median pair ratio 0.66777 (-33.2%), "
            "change won/tied/lost 2/0/0, parent IQR 0.049505, median gain 3.35541 "
            "exceeds it\n") in out
    # every pair won, yet the medians differ by less than the parent's IQR
    assert ("setup_s (lower is better): parent 11 [10.5, 11.5] -> change 10.25 [10, 10.5], "
            "-6.8%, median pair ratio 0.976136 (-2.4%), change won/tied/lost 2/0/0, parent IQR 1, "
            "median gain 0.75 does not exceed it\n") in out
    assert ("  parent runs: 100 101 100\n  change runs: 150 151 failed\n"
            "latency_ms_p50") in out
    assert "  parent runs: 10 9.90099 10\n  change runs: 6.66667 6.62252 failed\n" in out
    assert "parent: failed/attempted 3/30" in out
    assert "change: failed/attempted 1/21" in out


@pytest.mark.parametrize("last_line", ["warning: something", "[1, 2]", '"text"',
                                       '{"attempted": 1, "failed": 0}',
                                       '{"attempted": 1, "failed": 0, "metrics": 3}'])
def test_a_run_that_exits_0_without_a_result_counts_as_failed(tmp_path, capsys, last_line):
    parent = checkout(tmp_path, "parent", 100.0, -1)
    change = checkout(tmp_path, "change", 150.0, -1)
    (change / "perfbench" / "run.py").write_text(f"print({last_line!r})\n")
    assert perf_pairs.main(["--parent", str(parent), "--change", str(change),
                            "--workload", "w", "--pairs", "2", "--seed-base", "10"]) == 0
    captured = capsys.readouterr()
    assert "0 complete pairs of 2" in captured.out
    assert "  parent runs: 100 101\n  change runs: failed failed\n" in captured.out
    assert "change: failed/attempted 2/2" in captured.out
    assert "seed 10 exited 0, no result" in captured.err


def test_a_zero_parent_median_reads_as_an_absolute_difference():
    # a page-fault count is 0 in most rounds: there is no ratio to 0, and
    # equal pairs are ties, not losses
    def run(value):
        return {"attempted": 1, "failed": 0, "metrics": {"x.faults": {"value": value}}}

    parent = [run(v) for v in (0.0, 0.0, 0.05, 0.0, 0.0)]
    metric = [{"name": "x.faults", "better": "lower"}]
    lines = perf_pairs.summarize(metric, {"parent": parent, "change": [
        run(v) for v in (0.0, 0.1, 0.0, 0.0, 0.0)]})
    assert lines[1] == ("x.faults (lower is better): parent 0 [0, 0] -> change 0 [0, 0], "
                        "+0 absolute, median pair difference +0, change won/tied/lost 1/3/1, "
                        "parent IQR 0, median gain 0 does not exceed it")
    lines = perf_pairs.summarize(metric, {"parent": parent, "change": [
        run(v) for v in (0.1, 0.1, 0.0, 0.2, 0.0)]})
    assert lines[1] == ("x.faults (lower is better): parent 0 [0, 0] -> change 0.1 [0, 0.1], "
                        "+0.1 absolute, median pair difference +0.1, "
                        "change won/tied/lost 1/1/3, parent IQR 0, median gain -0.1 "
                        "does not exceed it")


def run_step(parent: Path, change: Path, capsys) -> str:
    assert perf_pairs.main(["--parent", str(parent), "--change", str(change),
                            "--workload", "step", "--pairs", "1", "--seed-base", "5"]) == 0
    return capsys.readouterr().out


def test_step_workload_runs_this_checkout_against_itself(capsys):
    lines = run_step(ROOT, ROOT, capsys).splitlines()
    assert lines[:2] == ["workload step, seeds 5..5, µs per item at B=16, step1 at B=1, "
                         "longseq.forward at B=4, longseq.forward1 at B=1",
                         "1 complete pairs of 1"]
    figures = [f"{kind}.{figure}" for kind in ("none", "2da", "ctsa", "csa", "tsa")
               for figure in ("step", "step1", "forward")] + ["longseq.forward",
                                                              "longseq.forward1"]
    names = [name + suffix for name in figures for suffix in ("", ".faults")]
    for i, name in enumerate(names):
        head, *runs = lines[2 + 3 * i:5 + 3 * i]
        assert head.startswith(f"{name} (lower is better): parent ")
        if name.endswith(".faults"):   # a count per call, which may be 0 on both sides
            assert all(float(line.split()[-1]) >= 0.0 for line in runs)
            continue
        # one pair: the IQR is 0, so the gain exceeds it exactly when the change won
        assert re.search(r"change won/tied/lost (0/[01]/[01], parent IQR 0, median gain \S+ "
                         r"does not exceed|1/0/0, parent IQR 0, median gain \S+ exceeds) it$",
                         head)
        for side, line in zip(perf_pairs.SIDES, runs):
            assert line.startswith(f"  {side} runs: ") and float(line.split()[-1]) > 0.0
    assert lines[2 + 3 * len(names):] == ["parent: failed/attempted 0/1",
                                          "change: failed/attempted 0/1"]


def test_step_rounds_time_each_figure_on_both_sides_before_the_next(capsys, monkeypatch):
    log = []

    def logged_figures(pkg, seed):
        side = pkg.__name__.split("_")[-1]
        return {name: (1, lambda name=name: log.append((name, side)))
                for name in perf_pairs.FIGURES}

    monkeypatch.setattr(perf_pairs, "figures", logged_figures)
    assert perf_pairs.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload",
                            "step", "--pairs", "2", "--seed-base", "5"]) == 0
    calls = perf_pairs.CALLS + 1   # and the warm-up
    want = []
    for order in (perf_pairs.SIDES, perf_pairs.SIDES[::-1]):
        want += [(name, side) for name in perf_pairs.FIGURES for side in order
                 for _ in range(calls)]
    assert log == want


def test_step_workload_counts_a_checkout_that_fails_to_import(tmp_path, capsys):
    broken = tmp_path / "broken"
    (broken / "src" / "attnbof").mkdir(parents=True)
    (broken / "src" / "attnbof" / "__init__.py").write_text("raise ImportError('broken')\n")
    out = run_step(broken, ROOT, capsys)
    assert "0 complete pairs of 1" in out
    assert "tsa.step: no values\n  parent runs: failed\n  change runs: " in out
    assert "parent: failed/attempted 1/1" in out
    assert "change: failed/attempted 0/1" in out


def broken_checkout(root: Path) -> Path:
    """A checkout whose package imports one of its modules, then raises."""
    package = root / "broken" / "src" / "attnbof"
    package.mkdir(parents=True)
    (package / "part.py").write_text("")
    (package / "__init__.py").write_text("from . import part\nraise ImportError('broken')\n")
    return root / "broken"


@pytest.mark.parametrize("broken_parent", [False, True])
def test_step_workload_leaves_the_interpreter_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                             broken_parent):
    parent = broken_checkout(tmp_path) if broken_parent else ROOT
    seen = {}

    def fake_figures(pkg, seed):
        seen[pkg.__name__] = pkg
        assert sys.modules[pkg.__name__] is pkg
        return {name: (1, lambda: None) for name in perf_pairs.FIGURES}

    monkeypatch.setattr(perf_pairs, "figures", fake_figures)
    before = sys.modules["attnbof"]
    out = run_step(parent, ROOT, capsys)
    assert sys.modules["attnbof"] is before is attnbof
    assert not [name for name in sys.modules if name.startswith("attnbof_")]
    assert "change: failed/attempted 0/1" in out
    if broken_parent:
        assert list(seen) == ["attnbof_change"]
        assert "parent: failed/attempted 1/1" in out
    else:
        # two imports of the same files: separate modules, so separate caches
        assert sorted(seen) == ["attnbof_change", "attnbof_parent"]
        numerics = [seen[f"attnbof_{side}"].numerics for side in perf_pairs.SIDES]
        assert numerics[0] is not numerics[1]
        assert attnbof.numerics not in numerics
        assert "parent: failed/attempted 0/1" in out


def test_step_workload_runs_as_a_script_with_no_pythonpath():
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "scripts/perf_pairs.py", "--parent", ".",
                           "--change", ".", "--workload", "step", "--pairs", "1",
                           "--seed-base", "5"], cwd=ROOT, env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["parent: failed/attempted 0/1",
                                             "change: failed/attempted 0/1"]
