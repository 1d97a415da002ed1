"""Tests of the benchmark itself: tracer arithmetic and discovery, the tail
percentile rule, metric names, and seed handling on shrunken workloads."""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = run.load_spec(run.ROOT)
LAYERS = ("numerics", "nbof", "attention", "model", "train", "data", "io_container", "cli")


@pytest.fixture(scope="module")
def ab():
    return run.import_package(run.ROOT)


def test_self_time_of_nested_calls():
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tr = Tracer(types.ModuleType("pkg"), clock=lambda: next(ticks))
    inner = tr.spanned("m.inner", lambda: None)
    outer = tr.spanned("m.outer", lambda: (inner(), inner()))
    outer()
    stats = tr.stats()
    assert stats["m.outer"] == {"calls": 1, "total_ms": 10_000.0, "self_ms": 5_000.0}
    assert stats["m.inner"] == {"calls": 2, "total_ms": 5_000.0, "self_ms": 5_000.0}
    table = tr.span_table()
    assert table["parent"].tolist() == [-1, 0, 0]


def test_errors_are_counted_and_reraised():
    tr = Tracer(types.ModuleType("pkg"))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tr.spanned("m.boom", boom)()
    assert tr.stats()["m.boom"]["errors"] == 1


def test_discovery_wraps_where_callers_look_up(tmp_path, monkeypatch):
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from . import a, b\n")
    (pkg / "a.py").write_text(
        "def helper():\n    return 1\n\n"
        "def _private():\n    return 2\n\n"
        "class Thing:\n"
        "    def method(self):\n        return helper()\n\n"
        "    @classmethod\n    def make(cls):\n        return cls()\n")
    # b binds a's function by name, as nbof does with numerics.softplus
    (pkg / "b.py").write_text(
        "from .a import helper\n\n"
        "def added_later():\n    return helper() + 1\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import toypkg
    original = toypkg.b.helper
    tr = Tracer(toypkg)
    with tr:
        assert toypkg.b.added_later() == 2
        assert toypkg.a.Thing.make().method() == 1
        assert toypkg.a._private() == 2
    assert toypkg.b.helper is original
    stats = tr.stats()
    assert stats["b.added_later"]["calls"] == 1
    assert stats["a.helper"]["calls"] == 2
    assert stats["a.Thing.make"]["calls"] == 1
    assert stats["a.Thing.method"]["calls"] == 1
    assert not any("_private" in name for name in stats)
    for mod in ("toypkg", "toypkg.a", "toypkg.b"):
        sys.modules.pop(mod, None)


def test_tail_percentile_rule():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(999) == 90.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(10_000) == 99.9


def test_spec_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(run.NAME_RE.fullmatch(n) for n in names)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert all(f"{layer}.calls" in per_layer for layer in LAYERS)


def _tiny(ab, name: str, seed: int, tmp_path: Path):
    if name == "denoise-train":
        return workloads.DenoiseTrain(ab, run.ROOT, seed, count=30, epochs=2,
                                      latency_calls=5)
    if name == "longseq-eval":
        return workloads.LongseqEval(ab, run.ROOT, seed, count=10, length=16,
                                     feature_dim=4, codewords=8)
    return workloads.CliRoundtrip(ab, run.ROOT, seed, work=tmp_path / f"cli-{seed}",
                                  rounds_per_pass=1, count=20)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_metric_set(ab, name, tmp_path):
    results = {}
    for seed in (1, 2):
        w = _tiny(ab, name, seed, tmp_path)
        result, report, _ = run.run_workload(SPEC, w, seconds=0.0, trace=False)
        results[seed] = (report["input_digest"], set(result["metrics"]), result)
        json.dumps(result)
    assert results[1][0] != results[2][0]
    assert results[1][1] == results[2][1] == {m["name"] for m in SPEC["end_to_end"]}
    for _, _, result in results.values():
        assert result["attempted"] >= 1
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_names_and_layers(ab, tmp_path):
    w = _tiny(ab, "cli-roundtrip", 3, tmp_path)
    result, report, tracer = run.run_workload(SPEC, w, seconds=0.0, trace=True)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"]
    emitted = set(report["per_layer"]) | set(result["metrics"])
    assert all(run.NAME_RE.fullmatch(n) for n in emitted)
    for layer in LAYERS:
        assert report["per_layer"][f"{layer}.calls"] > 0, layer
    assert report["per_layer"]["nbof.quantize_raw.bytes"] > 0
    assert report["per_layer"]["io_container.write_container.bytes"] > 0
