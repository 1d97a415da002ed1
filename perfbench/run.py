"""attnbof benchmark: one seeded workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload denoise-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  BLAS is pinned to one thread.  The workload is set up several
times (``setup_s`` is the import time plus the median set-up), then runs
whole passes until ``--seconds`` have elapsed and at least the workload's
minimum number of passes is done.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes: the traced ones give the
per-layer metrics (per pass), the pair ratio gives ``trace.overhead_ratio``.
The last stdout line is the result object; the line before it is a report
with the environment, sample counts, the metrics under their per-workload
names and, for traced runs, every traced name.  Both are also written under
``.perfbench_out/`` together with the raw spans of the last traced run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent   # the source checkout
OUT_DIR = ".perfbench_out"
BLAS_THREADS = 1
TAIL_LADDER = (50.0, 90.0, 99.0, 99.9)
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
SETUP_REPEATS = 3
COUNT_ONLY = frozenset({"numerics"})


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of ``n`` samples beyond it."""
    best = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def git_commit(root: Path) -> str:
    """Read HEAD from .git without running git; sources without .git say so."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
            "git_commit": git_commit(root)}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(values_s: list[float], p: float) -> float:
    import numpy as np
    return 1e3 * float(np.percentile(values_s, p))


# ---------------------------------------------------------------------------
# per-layer metrics from tracer stats


def quantize_bytes(args, kwargs, result) -> int:
    """Computed, not measured: the three live (K, D, N) float64 temporaries
    of the distance computation plus inputs and output."""
    x, v = args[0], args[1]
    k, d = v.shape
    n = x.shape[1]
    return 8 * (3 * k * d * n + d * n + 2 * k * d + k * n)


BYTE_PROBES = {  # the other bytes figures are the sizes of the files touched
    "nbof.quantize_raw": quantize_bytes,
    "data.save_features": lambda a, k, r: os.path.getsize(a[1]),
    "data.load_features": lambda a, k, r: os.path.getsize(a[0]),
    "io_container.write_container": lambda a, k, r: os.path.getsize(a[0]),
    "io_container.read_container": lambda a, k, r: os.path.getsize(a[0]),
}


def per_layer_values(stats: dict, passes: int) -> dict[str, float]:
    """Every traced name's stats and each layer's totals, per traced pass."""
    out: dict[str, float] = {}
    layers: dict[str, dict[str, float]] = {}
    for name, st in stats.items():
        layer = name.split(".", 1)[0]
        agg = layers.setdefault(layer, {"calls": 0.0, "self_ms": 0.0, "errors": 0.0})
        for stat, value in st.items():
            out[f"{name}.{stat}"] = value / passes
            if stat in agg:
                agg[stat] += value / passes
    for layer, agg in layers.items():
        for stat, value in agg.items():
            out[f"{layer}.{stat}"] = value
    return out


# ---------------------------------------------------------------------------


def import_package(root: Path):
    src = root / "src"
    if not (src / "attnbof" / "__init__.py").is_file():
        raise FileNotFoundError(f"no attnbof sources under {src}")
    sys.path.insert(0, str(src))
    import attnbof
    from tracer import package_modules
    if Path(attnbof.__file__).resolve().parent != (src / "attnbof").resolve():
        raise ImportError(f"attnbof imported from {attnbof.__file__}, not {src}")
    package_modules(attnbof)  # binds every submodule (cli, io_container) on the package
    return attnbof


def make_workload(name: str, ab, root: Path, seed: int, out_dir: Path):
    from workloads import WORKLOADS, CliRoundtrip
    cls = WORKLOADS[name]
    if cls is CliRoundtrip:
        return cls(ab, root, seed, work=out_dir / f"cli-work-{os.getpid()}")
    return cls(ab, root, seed)


def measure(workload, seconds: float, trace: bool, tracer) -> dict:
    """Run passes; returns pass results, traced stats and overhead ratios."""
    results, traced, ratios = [], [], []
    t_start = time.perf_counter()
    while (len(results) < workload.min_passes
           or time.perf_counter() - t_start < seconds):
        t0 = time.perf_counter()
        res = workload.run_pass()
        plain_s = time.perf_counter() - t0
        workload.check_pass(res)
        results.append(res)
        if trace:
            with tracer:
                t0 = time.perf_counter()
                tres = workload.run_pass()
                ratios.append((time.perf_counter() - t0) / plain_s - 1.0)
            workload.check_pass(tres)
            traced.append(tres)
    return {"results": results, "traced": traced, "ratios": ratios}


def summarize(spec: dict, workload, import_s: float, setup_times: list[float],
              run: dict, trace: bool, tracer, setup_tracer,
              final: tuple[int, int]) -> tuple[dict, dict]:
    """(result object, report)."""
    results = run["results"]
    groups: dict[str, list[float]] = {}
    for r in results:
        for group, values in r.latencies_s.items():
            groups.setdefault(group, []).extend(values)
    # a fixed number of passes, so the figure does not depend on speed
    acc = [v for r in results[:workload.min_passes] for v in r.accuracy]
    tail = tail_percentile(workload.min_passes * workload.samples_per_pass) or 50.0
    attempted = sum(r.attempted for r in results + run["traced"]) + final[0]
    failed = sum(r.failed for r in results + run["traced"]) + final[1]
    e2e = {
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib(),
        "items_per_s": sum(r.items for r in results) / sum(r.busy_s for r in results),
        "latency_ms_p50": statistics.fmean(percentile_ms(v, 50.0) for v in groups.values()),
        "latency_ms_tail": statistics.fmean(percentile_ms(v, tail) for v in groups.values()),
    }
    layer: dict[str, float] = {}
    if trace:
        passes = len(run["traced"])
        layer = per_layer_values(tracer.stats(), passes)
        layer["numerics.calls_per_item"] = layer.get("numerics.calls", 0.0) * passes / max(
            sum(r.sequences for r in run["traced"]), 1)
        layer["trace.overhead_ratio"] = statistics.median(run["ratios"])
        for name, value in per_layer_values(setup_tracer.stats(), 1).items():
            layer[f"setup.{name}"] = value
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    values = layer if trace else e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in chosen}
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {
        "workload": workload.name, "passes": len(results),
        "latency_samples": {g: len(v) for g, v in groups.items()},
        "tail_percentile": tail,
        "input_digest": workload.input_digest(),
        "setup_runs_s": setup_times, "import_s": import_s,
        "end_to_end": e2e, "ops_failed_ratio": failed / max(attempted, 1),
        # accuracy depends on the seed's inputs, so it is reported without a bound
        "named": workload.named(e2e, statistics.fmean(acc) if acc else None,
                                results[-1].detail),
        "detail": results[-1].detail,
    }
    if trace:
        report["traced_passes"] = len(run["traced"])
        report["traced_detail"] = run["traced"][-1].detail
        report["overhead_ratios"] = run["ratios"]
        report["per_layer"] = layer
    return result, report


def run_workload(spec: dict, workload, seconds: float, trace: bool,
                 import_s: float = 0.0):
    """Set up, measure and check one workload; (result, report, tracer)."""
    from tracer import Tracer

    tracer, setup_tracer = (Tracer(workload.ab, count_only=COUNT_ONLY,
                                   byte_probes=BYTE_PROBES) for _ in range(2))
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            # a traced run traces its last set-up, for the setup.* names
            traced = trace and i == SETUP_REPEATS - 1
            with setup_tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
        run = measure(workload, seconds, trace, tracer)
        final = workload.final_check()
        result, report = summarize(spec, workload, import_s, setup_times, run,
                                   trace, tracer, setup_tracer, final)
    finally:
        workload.close()
    return result, report, tracer


def main(argv=None) -> int:
    t_import = time.perf_counter()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec(ROOT)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        bad = [n for n in names if not NAME_RE.fullmatch(n)]
        if bad:
            raise ValueError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise ValueError(f"unknown workload {args.workload!r}")
        ab = import_package(ROOT)
        import_s = time.perf_counter() - t_import
        out_dir = ROOT / OUT_DIR
        out_dir.mkdir(exist_ok=True)
        workload = make_workload(args.workload, ab, ROOT, args.seed, out_dir)
        result, report, tracer = run_workload(spec, workload, args.seconds,
                                              bool(args.trace), import_s)
    except Exception:  # the run cannot produce a result: say why, print none
        traceback.print_exc()
        return 2
    report = {"seed": args.seed, "trace": args.trace, "env": environment(ROOT), **report}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps({"report": report, "result": result},
                                                     indent=1))
    if args.trace:
        tracer.dump(str(out_dir / f"spans-{args.workload}.npz"))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
