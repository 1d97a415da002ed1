"""scripts/experiments.py: the table of experiments and the report it prints."""

import experiments
import pytest


def test_main_prints_each_dataset_checksum_and_one_line_per_variant(capsys):
    assert experiments.main(["--epochs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines if line.startswith("  ")]
    assert [line for line in lines if not line.startswith("  ")] == [
        "order: 400 items, checksum 9b179895", "denoising: 600 items, checksum 1f2c0741"]
    assert [row[0] for row in rows] == [
        att for exp in experiments.EXPERIMENTS.values() for att in exp.variants]
    # one epoch leaves the order task at chance; each baseline row is its own reference
    assert rows[0][:5] == ["none", "acc", "50.00", "+/-", "0.00"]
    assert all(row[row.index("vs") + 2] == "+0.0000" for row in rows if row[0] == "none")


def test_main_runs_only_the_named_experiments_and_rejects_unknown_ones(capsys):
    assert experiments.main(["order", "--epochs", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if not line.startswith("  ")] == ["order"]
    with pytest.raises(SystemExit) as exc:
        experiments.main(["orders"])
    assert exc.value.code == 2
    assert "unknown experiment(s) ['orders']" in capsys.readouterr().err
