"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The training-based criteria (5 and 6) are seeded end to end and run
the experiments of scripts/experiments.py, which defines their data,
hyperparameters and attention variants.
"""

import math
import time
from pathlib import Path

import experiments
import numpy as np
import pytest

from attnbof.attention import att_2da, att_csa, att_ctsa, att_tsa
from attnbof.data import gen_order_task, load_features, save_features
from attnbof.errors import ChecksumError
from attnbof.model import (Model, ModelConfig, load_checkpoint, loss_op,
                           save_checkpoint)
from attnbof.nbof import aggregate, quantize_raw
from attnbof.numerics import grad_check
from attnbof.train import TrainConfig, train

from .oracles import loop_2da, loop_csa, loop_ctsa, loop_tsa
from .test_attention import COUNTER_PERM, COUNTER_PHI, COUNTER_W

INF = float("inf")

DESK = dict(feature_dim=4, classes=3, codewords=6, latent_dim=5, seq_len=8)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    configs = [dict(attention="none")]
    configs += [dict(attention="2da", mode=m) for m in ("input", "codeword", "temporal")]
    for variant in ("ctsa", "csa", "tsa"):
        configs += [dict(attention=variant, heads=h) for h in (1, 2)]
    rng = np.random.default_rng(1)
    worst = 0.0
    for kwargs in configs:
        net = Model.build(ModelConfig(**{**DESK, **kwargs}))
        x = rng.standard_normal((4, 8))
        label = int(rng.integers(3))
        result = grad_check(loss_op(net, x, label), list(net.params.values()))
        assert result.finite, f"non-finite gradient for {kwargs}"
        worst = max(worst, result.max_rel_err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 120.0
    report(1, "gradient suite", ok,
           f"worst rel err {worst:.3e} over {len(configs)} configs, {elapsed:.1f}s")


def test_criterion_2_simplex_invariant():
    rng = np.random.default_rng(2)
    worst_sum_err = 0.0
    min_entry = np.inf
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 10))
        phi = quantize_raw(rng.standard_normal((d, n)) * 3.0,
                           rng.standard_normal((k, d)),
                           rng.standard_normal((k, d)))
        worst_sum_err = max(worst_sum_err, float(np.abs(phi.sum(axis=0) - 1.0).max()))
        min_entry = min(min_entry, float(phi.min()))
    ok = worst_sum_err <= 1e-9 and min_entry >= 0.0
    report(2, "simplex invariant", ok,
           f"1000 calls, worst column-sum error {worst_sum_err:.2e}, "
           f"min entry {min_entry:.2e}")


def stack_heads(flat):
    """Self-attention parameters from a (wq, wk, alpha_raw)-per-head list:
    each stacked over the heads."""
    return [np.stack(flat[j::3]) for j in range(3)]


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst = 0.0

    def rand_heads(variant, k, n, d, h):
        q_cols = {"ctsa": n, "csa": n, "tsa": k}[variant]
        k_cols = {"ctsa": k, "csa": n, "tsa": k}[variant]
        return [(rng.standard_normal((d, q_cols)) / math.sqrt(q_cols),
                 rng.standard_normal((d, k_cols)) / math.sqrt(k_cols),
                 rng.uniform(0.05, 0.95)) for _ in range(h)]

    loops = {"ctsa": loop_ctsa, "csa": loop_csa, "tsa": loop_tsa}
    fwds = {"ctsa": att_ctsa, "csa": att_csa, "tsa": att_tsa}
    for trial in range(100):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        phi = rng.random((k, n)) + 0.05

        mode = ("temporal", "codeword", "input")[trial % 3]
        side = n if mode == "temporal" else k
        w = rng.standard_normal((side, side)) / math.sqrt(side)
        alpha = float(rng.uniform(0.05, 0.95))
        got = att_2da(phi, w, np.array([[math.log(alpha / (1 - alpha))]]), mode)
        worst = max(worst, float(np.abs(got - loop_2da(phi, w, alpha, mode)).max()))

        d = int(rng.integers(1, 7))
        h = int(rng.integers(1, 5))
        for variant in ("ctsa", "csa", "tsa"):
            heads = rand_heads(variant, k, n, d, h)
            ps = stack_heads([arr for wq, wk, a in heads
                              for arr in (wq, wk, np.array([[math.log(a / (1 - a))]]))])
            got = fwds[variant](phi, ps)
            want = loops[variant](phi, heads, d)
            assert got.shape == (h * k, n)
            worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-10
    report(3, "oracle equivalence", ok,
           f"100 instances x 4 variants, worst abs deviation {worst:.2e}")


def test_criterion_4_equivariance_suite():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 7))
        n = int(rng.integers(2, 9))
        phi = rng.random((k, n)) + 0.05
        d = int(rng.integers(1, 5))

        p_tsa = stack_heads([arr for _ in range(2)
                             for arr in (rng.standard_normal((d, k)) / math.sqrt(k),
                                         rng.standard_normal((d, k)) / math.sqrt(k),
                                         rng.standard_normal((1, 1)))])
        perm = rng.permutation(n)
        diff = np.abs(att_tsa(phi[:, perm], p_tsa) - att_tsa(phi, p_tsa)[:, perm])
        worst = max(worst, float(diff.max()))

        p_csa = stack_heads([rng.standard_normal((d, n)) / math.sqrt(n),
                             rng.standard_normal((d, n)) / math.sqrt(n),
                             rng.standard_normal((1, 1))])
        rperm = rng.permutation(k)
        diff = np.abs(att_csa(phi[rperm], p_csa) - att_csa(phi, p_csa)[rperm])
        worst = max(worst, float(diff.max()))

        x = rng.standard_normal((3, n))
        v, w_raw = rng.standard_normal((k, 3)), rng.standard_normal((k, 3))
        diff = np.abs(aggregate(quantize_raw(x[:, perm], v, w_raw))
                      - aggregate(quantize_raw(x, v, w_raw)))
        worst = max(worst, float(diff.max()))

    p2da = (COUNTER_W, np.zeros((1, 1)), "temporal")
    violation = float(np.abs(att_2da(COUNTER_PHI[:, COUNTER_PERM], *p2da)
                             - att_2da(COUNTER_PHI, *p2da)[:, COUNTER_PERM]).max())

    ok = worst <= 1e-12 and violation >= 1e-3
    report(4, "equivariance suite", ok,
           f"worst equivariance defect {worst:.2e}, frozen 2da violation "
           f"{violation:.2e}")


# ---------------------------------------------------------------------------
# seeded synthetic-task thresholds (hyperparameters frozen after calibration)


@pytest.mark.slow
def test_criterion_5_order_task_discrimination():
    start = time.perf_counter()
    acc = {att: experiments.run("order", att).accuracy_mean
           for att in experiments.EXPERIMENTS["order"].variants}
    elapsed = time.perf_counter() - start
    ok = (0.45 <= acc["none"] <= 0.55 and 0.45 <= acc["tsa"] <= 0.55
          and acc["2da"] >= 0.90 and elapsed < 300.0)
    report(5, "order task discrimination", ok,
           f"none {acc['none']:.3f}, tsa {acc['tsa']:.3f} (chance by "
           f"construction), 2da-temporal {acc['2da']:.3f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_6_denoising_task():
    # observed at this pinned seed: none 0.9167, tsa 1.0000, ctsa 0.9350,
    # csa 0.9817 (none takes the config's heads = 2, but has no head
    # parameters, so it builds the same model as with 1 head)
    means = {att: experiments.run("denoising", att).accuracy_mean
             for att in experiments.EXPERIMENTS["denoising"].variants}
    base = means["none"]
    others = [mean for att, mean in means.items() if att != "none"]
    floor_ok = all(mean >= base - 0.02 for mean in others)
    gain_ok = max(others) >= base + 0.03
    ok = floor_ok and gain_ok
    report(6, "denoising task", ok,
           "5-fold means: " + ", ".join(f"{a} {means[a]:.4f}" for a in means))


def test_criterion_7_alpha_reductions_exact():
    rng = np.random.default_rng(7)
    phi = rng.random((4, 6))
    exact = True

    for variant, fwd in (("ctsa", att_ctsa), ("csa", att_csa), ("tsa", att_tsa)):
        q_cols = {"ctsa": 6, "csa": 6, "tsa": 4}[variant]
        k_cols = {"ctsa": 4, "csa": 6, "tsa": 4}[variant]
        ps = stack_heads([arr for _ in range(2)
                          for arr in (rng.standard_normal((3, q_cols)),
                                      rng.standard_normal((3, k_cols)),
                                      np.array([[INF]]))])  # logistic(+inf) = 1 exactly
        out = fwd(phi, ps)
        exact = exact and np.array_equal(out, np.concatenate([phi, phi], axis=0))

    for mode in ("input", "codeword", "temporal"):
        side = 6 if mode == "temporal" else 4
        w = rng.standard_normal((side, side))
        out = att_2da(phi, w, np.array([[-INF]]), mode)  # alpha = 0 exactly
        exact = exact and np.array_equal(out, phi)

    report(7, "alpha reductions", exact,
           "alpha=1 self-attention and alpha=0 learned-mask outputs equal input "
           "bitwise")


def test_criterion_8_persistence(tmp_path):
    rng = np.random.default_rng(8)
    net = Model.build(ModelConfig(**DESK, attention="ctsa", heads=2))
    ckpt = str(tmp_path / "model.nbaf")
    save_checkpoint(net, ckpt)
    loaded = load_checkpoint(ckpt)
    roundtrip_ok = all(np.array_equal(loaded.params[k], net.params[k])
                       for k in net.params)

    dataset = gen_order_task(feature_dim=3, length=6, count=20, seed=8)
    fpath = str(tmp_path / "set.fseq")
    save_features(dataset, fpath)
    reloaded = load_features(fpath)
    roundtrip_ok = roundtrip_ok and reloaded.checksum() == dataset.checksum()

    ckpt_blob = Path(ckpt).read_bytes()
    f_blob = Path(fpath).read_bytes()
    detected = 0
    for trial in range(100):
        path, blob = ((ckpt, ckpt_blob) if trial % 2 == 0 else (fpath, f_blob))
        corrupted = bytearray(blob)
        # flip one random payload byte; the payload sits between the JSON
        # header and the trailing CRC32
        header_len = int.from_bytes(blob[8:12], "little")
        payload_lo, payload_hi = 12 + header_len, len(blob) - 4
        pos = int(rng.integers(payload_lo, payload_hi))
        corrupted[pos] ^= int(rng.integers(1, 256))
        Path(path).write_bytes(bytes(corrupted))
        try:
            (load_checkpoint if trial % 2 == 0 else load_features)(path)
        except ChecksumError:
            detected += 1
        finally:
            Path(path).write_bytes(blob)
    ok = roundtrip_ok and detected == 100
    report(8, "persistence", ok,
           f"bitwise round-trips {'ok' if roundtrip_ok else 'BROKEN'}, "
           f"corruption detected {detected}/100")


def test_criterion_9_determinism(tmp_path):
    dataset = gen_order_task(feature_dim=3, length=6, count=60, seed=9)
    cfg = ModelConfig(feature_dim=3, classes=2, codewords=5, attention="csa",
                      latent_dim=4, seq_len=6, dropout_rate=0.2, seed=9)
    tcfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.01, seed=9)
    blobs, traces = [], []
    for run in range(2):
        net, rep = train(Model.build(cfg), dataset, tcfg)
        path = str(tmp_path / f"run{run}.nbaf")
        save_checkpoint(net, path)
        blobs.append(Path(path).read_bytes())
        traces.append(rep.folds[0].loss_trace)
    ok = traces[0] == traces[1] and blobs[0] == blobs[1]
    report(9, "determinism", ok,
           f"loss traces identical: {traces[0] == traces[1]}, checkpoints "
           f"identical: {blobs[0] == blobs[1]}")
