"""The benchmark's workloads: each is one caller in a closed loop.

A workload is built from a seed (``setup``), then runs fixed-size passes
(``run_pass``).  A pass returns what it measured; checks that would call
into the library are deferred to ``check_pass`` so that a traced pass
records only the workload's own calls.  Inputs come from public library
calls and depend only on the seed.

* ``denoise-train``: training on the noisy-timestamp task for the four
  denoising variants; small shapes, so call overhead, VJPs and Adam dominate.
* ``longseq-eval``: forward only on long, wide sequences with a conv
  frontend; the (K, D, N) distance temporaries of quantization dominate.
* ``cli-roundtrip``: gen -> train -> eval -> inspect-attention through the
  in-process CLI, the only path through file I/O and the CLI.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import math
import re
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from types import ModuleType

import numpy as np

clock = time.perf_counter


@dataclass
class PassResult:
    items: int                     # sequences handled in the throughput phase
    busy_s: float                  # wall time of the throughput phase
    latencies_s: dict[str, list[float]]  # latency group -> one entry per timed call
    accuracy: list[float]          # accuracies the workload's user sees
    sequences: int = 0             # every sequence through the model in the pass
    attempted: int = 0
    failed: int = 0
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------


class DenoiseTrain:
    """Holdout training (80/20) of none/tsa/ctsa/csa on the noisy-timestamp
    task with the criterion-6 model shapes, then single-item training-step
    latency (``Model.loss_and_grad``) on held-out items of each model; each
    variant is its own latency group."""

    name = "denoise-train"
    variants = ("none", "tsa", "ctsa", "csa")

    def __init__(self, ab: ModuleType, root: Path, seed: int, count: int = 600,
                 epochs: int = 8, latency_calls: int = 250):
        self.ab, self.seed = ab, seed
        self.count, self.epochs, self.latency_calls = count, epochs, latency_calls
        self.min_passes = 1
        self.samples_per_pass = latency_calls

    def setup(self) -> None:
        ab = self.ab
        self.dataset = ab.data.gen_noisy_timestamps(
            classes=3, feature_dim=8, length=30, signal_fraction=0.1, snr=2.0,
            count=self.count, seed=self.seed)
        self.train_cfg = ab.train.TrainConfig(
            epochs=self.epochs, batch_size=16, learning_rate=5e-3, folds=1,
            seed=self.seed)
        train_set, self.heldout = ab.train.holdout_split(
            self.dataset, self.train_cfg.holdout_fraction, self.seed)
        self.train_items = len(train_set)
        self.configs = {v: ab.model.ModelConfig(
            feature_dim=8, classes=3, codewords=16, attention=v, latent_dim=8,
            heads=2 if v != "none" else 1, seq_len=30, seed=self.seed)
            for v in self.variants}
        x, y = self.heldout.items[0]
        for cfg in self.configs.values():
            ab.model.Model.build(cfg).loss_and_grad(x, y)

    def input_digest(self) -> str:
        return self.dataset.checksum()

    def run_pass(self) -> PassResult:
        ab = self.ab
        res = PassResult(items=0, busy_s=0.0, latencies_s={}, accuracy=[])
        us_per_step, final_loss = {}, {}
        for variant in self.variants:
            net = ab.model.Model.build(self.configs[variant])
            t0 = clock()
            net, report = ab.train.train(net, self.dataset, self.train_cfg)
            dt = clock() - t0
            steps = self.train_items * self.epochs
            res.busy_s += dt
            res.items += steps
            res.sequences += steps + len(self.heldout) + self.latency_calls
            us_per_step[variant] = 1e6 * dt / steps
            trace = report.folds[0].loss_trace
            final_loss[variant] = trace[-1]
            res.accuracy.append(report.accuracy_mean)
            res.attempted += 1
            if not (all(math.isfinite(v) for v in trace) and trace[-1] < trace[0]):
                res.failed += 1
            held = self.heldout.items
            lat = res.latencies_s[variant] = []
            for i in range(self.latency_calls):
                x, y = held[i % len(held)]
                t0 = clock()
                loss, _ = net.loss_and_grad(x, y)
                lat.append(clock() - t0)
                res.attempted += 1
                res.failed += not math.isfinite(loss)
        res.detail = {"us_per_item_step": us_per_step, "final_loss": final_loss,
                      "final_loss_mean": float(np.mean(list(final_loss.values())))}
        return res

    def check_pass(self, res: PassResult) -> None:
        pass

    def final_check(self) -> tuple[int, int]:
        return 0, 0

    def named(self, e2e: dict, accuracy: float | None, detail: dict) -> dict:
        return {"train_items_per_s": e2e["items_per_s"],
                "train_step_us_p50": 1e3 * e2e["latency_ms_p50"],
                "train_step_us_p90": 1e3 * e2e["latency_ms_tail"],
                "heldout_accuracy": accuracy, "final_loss": detail["final_loss_mean"]}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


def _load_oracles(root: Path) -> ModuleType:
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("attnbof_loop_oracles", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class LongseqEval:
    """Untrained conv + csa model on long sequences: one ``train.evaluate``
    sweep, then one ``Model.predict`` per item."""

    name = "longseq-eval"

    def __init__(self, ab: ModuleType, root: Path, seed: int, count: int = 600,
                 length: int = 256, feature_dim: int = 16, codewords: int = 64):
        self.ab, self.root, self.seed = ab, root, seed
        self.count, self.length = count, length
        self.feature_dim, self.codewords = feature_dim, codewords
        # 600 samples per pass give a p90 tail; a p99 over more passes
        # follows the host's bursts of slowness rather than the program
        self.min_passes = 1
        self.samples_per_pass = count

    def setup(self) -> None:
        ab = self.ab
        self.dataset = ab.data.gen_noisy_timestamps(
            classes=4, feature_dim=self.feature_dim, length=self.length,
            signal_fraction=0.1, snr=2.0, count=self.count, seed=self.seed)
        cfg = ab.model.ModelConfig(
            feature_dim=self.feature_dim, classes=4, codewords=self.codewords,
            attention="csa", latent_dim=16, heads=2, frontend="conv", conv_width=3,
            conv_channels=16, seq_len=self.length, seed=self.seed)
        net = ab.model.Model.build(cfg)
        kernel, bias = net.params["frontend.kernel"], net.params["frontend.bias"]
        # codewords are drawn from what the quantizer sees: conv features
        features = [ab.model.frontend_conv(x, kernel, bias)
                    for x, _ in self.dataset.items[:32]]
        net.set_codebook(ab.nbof.init_codebook(features, self.codewords, self.seed))
        self.net = net
        net.predict(self.dataset.items[0][0])

    def input_digest(self) -> str:
        return self.dataset.checksum()

    def run_pass(self) -> PassResult:
        ab, net, items = self.ab, self.net, self.dataset.items
        t0 = clock()
        acc, _ = ab.train.evaluate(net, self.dataset)
        busy = clock() - t0
        lat: list[float] = []
        res = PassResult(items=len(items), busy_s=busy, latencies_s={"predict": lat},
                         accuracy=[acc])
        preds = []
        for x, _ in items:
            t0 = clock()
            preds.append(net.predict(x))
            lat.append(clock() - t0)
        res.sequences = 2 * len(items)
        res.attempted = 1 + len(items)
        labels = np.array([y for _, y in items])
        res.failed = int(float(np.mean(np.array(preds) == labels)) != acc)
        return res

    def check_pass(self, res: PassResult) -> None:
        pass

    def final_check(self) -> tuple[int, int]:
        """Logits of one seed-chosen probe item against the loop oracles."""
        oracles = _load_oracles(self.root)
        net = self.net
        p = net.params
        x, _ = self.dataset.items[self.seed % len(self.dataset)]
        c = p["frontend.kernel"].shape[0]
        k3 = p["frontend.kernel"].reshape(c, self.feature_dim, -1)
        h = oracles.loop_conv1d_relu(x, k3, p["frontend.bias"])
        w = np.vectorize(lambda r: math.log1p(math.exp(r)))(p["codebook.w_raw"])
        phi = oracles.loop_quantize(h, p["codebook.v"], w)
        heads = [(p[f"att.head{i}.wq"], p[f"att.head{i}.wk"],
                  1.0 / (1.0 + math.exp(-float(p[f"att.head{i}.alpha_raw"][0, 0]))))
                 for i in range(net.config.heads)]
        hist = oracles.loop_mean_cols(oracles.loop_csa(phi, heads, net.config.latent_dim))
        want = oracles.loop_matmul(p["classifier.weight"], hist[:, None])[:, 0]
        want = want + p["classifier.bias"][:, 0]
        got = net.forward(x)
        return 1, int(not np.max(np.abs(got - want)) <= 1e-9)

    def named(self, e2e: dict, accuracy: float | None, detail: dict) -> dict:
        return {"eval_items_per_s": e2e["items_per_s"],
                "predict_us_p50": 1e3 * e2e["latency_ms_p50"],
                "predict_us_p90": 1e3 * e2e["latency_ms_tail"],
                "untrained_accuracy": accuracy}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


def _with_epochs(text: str, epochs: int) -> str:
    return re.sub(r"(?m)^epochs\s*=.*$", f"epochs = {epochs}", text)


class CliRoundtrip:
    """Rounds of in-process ``cli.main``: gen (order task, per-round seed),
    train 2da-temporal for one epoch, eval, inspect-attention."""

    name = "cli-roundtrip"
    rounds_per_pass = 20

    def __init__(self, ab: ModuleType, root: Path, seed: int, work: Path,
                 rounds_per_pass: int | None = None, count: int | None = None):
        self.ab, self.root, self.seed, self.work = ab, root, seed, work
        if rounds_per_pass is not None:
            self.rounds_per_pass = rounds_per_pass
        self.count = count
        self.min_passes = 5
        self.samples_per_pass = self.rounds_per_pass
        self.next_round = 0

    def setup(self) -> None:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        gen_text = (self.root / "configs" / "gen-order.conf").read_text()
        if self.count is not None:
            gen_text = re.sub(r"(?m)^count\s*=.*$", f"count = {self.count}", gen_text)
        self.gen_conf = self.work / "gen-order.conf"
        self.gen_conf.write_text(gen_text)
        self.train_conf = self.work / "order-2da.conf"
        self.train_conf.write_text(
            _with_epochs((self.root / "configs" / "order-2da.conf").read_text(), 1))
        self.gen_params = self.ab.cli.parse_config(str(self.gen_conf))
        self.gen_count = self.gen_params.get("count", 400)
        self.next_round = 0
        self.round(-1)  # warm-up; its checks are not counted

    def round_seed(self, r: int) -> int:
        return (self.seed * 100_003 + r) % (2 ** 31)

    def _cli(self, argv: list[str]) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ab.cli.main(argv)
        return clock() - t0, code, out.getvalue()

    def round(self, r: int) -> dict:
        w = self.work
        fseq, ckpt, att = str(w / "data.fseq"), str(w / "model.nbaf"), w / "att"
        seed = self.round_seed(r)
        runs = [
            self._cli(["gen", "--config", str(self.gen_conf), "--out", fseq,
                       "--seed", str(seed)]),
            self._cli(["train", "--config", str(self.train_conf), "--data", fseq,
                       "--out", ckpt, "--seed", str(seed)]),
            self._cli(["eval", "--checkpoint", ckpt, "--data", fseq]),
            self._cli(["inspect-attention", "--checkpoint", ckpt, "--data", fseq,
                       "--item", str(max(r, 0) % self.gen_count), "--out", str(att)]),
        ]
        bad = sum(code != 0 for _, code, _ in runs)
        out = {"seed": seed, "seconds": sum(dt for dt, _, _ in runs), "bad_exits": bad,
               "checksum": None, "accuracy": None, "items": 0, "mask_ok": False}
        if not bad:
            gen, ev = json.loads(runs[0][2]), json.loads(runs[2][2])
            out.update(checksum=gen["checksum"], accuracy=ev["accuracy"],
                       items=ev["items"])
            masks = [np.loadtxt(f, delimiter=",", ndmin=2) for f in sorted(att.glob("*.csv"))]
            out["mask_ok"] = bool(masks) and all(
                np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-9) for m in masks)
        return out

    def input_digest(self) -> str:
        crc = 0
        for r in range(3):
            crc = zlib.crc32(str(self.round_seed(r)).encode(), crc)
        return f"{crc & 0xFFFFFFFF:08x}"

    def run_pass(self) -> PassResult:
        res = PassResult(items=0, busy_s=0.0, latencies_s={"round": []}, accuracy=[])
        rounds = []
        for _ in range(self.rounds_per_pass):
            rd = self.round(self.next_round)
            self.next_round += 1
            rounds.append(rd)
            res.busy_s += rd["seconds"]
            res.latencies_s["round"].append(rd["seconds"])
            res.attempted += 4
            if not rd["bad_exits"]:
                # train (one epoch of item-steps + holdout) + eval + one inspected item
                res.items += 2 * rd["items"] + 1
                res.accuracy.append(rd["accuracy"])
        res.sequences = res.items
        res.detail = {"rounds": rounds}
        return res

    def check_pass(self, res: PassResult) -> None:
        """Deferred checks: exit codes, gen checksum, mask row sums."""
        p = self.gen_params
        for rd in res.detail.pop("rounds"):
            res.failed += rd["bad_exits"]
            if rd["bad_exits"]:
                continue
            want = self.ab.data.gen_order_task(
                feature_dim=p.get("feature_dim", 4), length=p.get("length", 20),
                count=p.get("count", 400), seed=rd["seed"]).checksum()
            res.failed += (rd["checksum"] != want) + (not rd["mask_ok"])

    def final_check(self) -> tuple[int, int]:
        return 0, 0

    def named(self, e2e: dict, accuracy: float | None, detail: dict) -> dict:
        return {"cli_round_ms_p50": e2e["latency_ms_p50"],
                "cli_round_ms_p90": e2e["latency_ms_tail"], "eval_accuracy": accuracy}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (DenoiseTrain, LongseqEval, CliRoundtrip)}
