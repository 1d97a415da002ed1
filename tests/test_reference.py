"""The frozen numerics reference: this checkout within 1e-12 of
``tests/data/reference.npz``, and the drift measure that gate reads."""

import math

import numpy as np
import reference

from attnbof.attention import projection_widths
from attnbof.model import ModelConfig


def test_this_checkout_is_within_tolerance_of_the_committed_reference():
    moved, total = reference.drifts(reference.REFERENCE)
    assert total == 134
    over = {key: drift for key, drift in moved.items() if not drift <= reference.TOLERANCE}
    assert not over, f"{len(over)} fields over {reference.TOLERANCE:g}: {over}"


def test_the_wide_probes_are_bounded_by_a_projection():
    for name in ("wide-csa-h3", "wide-tsa-h3"):
        cfg = ModelConfig(**reference.SHAPES[name])
        q_len, _ = projection_widths(cfg.attention, cfg.seq_len, cfg.codewords)
        assert cfg.latent_dim > max(cfg.codewords, cfg.seq_len)
        assert cfg.stage_values(cfg.seq_len) == cfg.heads * cfg.latent_dim * q_len, name


def test_relative_drift_is_relative_to_the_reference_field():
    drift = reference.relative_drift
    assert drift(np.array([1.0, -4.0, 2.0]),
                 np.array([1.0, -4.0 + 2.0 ** -44, 2.0 - 2.0 ** -40])) == 2.0 ** -42
    assert drift(np.array([0.5, 0.25]), np.array([0.5, 0.25])) == 0.0
    assert math.isinf(drift(np.zeros(2), np.array([0.0, 1e-300])))
    assert math.isinf(drift(np.ones(4), np.ones(6)))
    magic, other = np.frombuffer(b"NBAF", np.uint8), np.frombuffer(b"NBAG", np.uint8)
    assert drift(magic, magic.copy()) == 0.0
    assert math.isinf(drift(magic, other))
    assert math.isinf(drift(np.zeros(4, np.uint8), np.zeros(4)))


def test_the_report_names_each_moved_field_and_exits_1_over_tolerance(tmp_path, monkeypatch,
                                                                     capsys):
    fields = reference.probe()
    written = dict(fields)
    written["none.logits"] = [fields["none.logits"][0] * (1.0 + 1e-10)]
    written["noisy-seed3.loaded"] = [np.nextafter(a, np.inf)
                                     for a in fields["noisy-seed3.loaded"]]
    written["order-seed3.fold0"] = [np.frombuffer(b"00000000 00000000", np.uint8)]
    written["gone.logits"] = [np.ones(3)]
    monkeypatch.setattr(reference, "REFERENCE", tmp_path / "reference.npz")
    monkeypatch.setattr(reference, "probe", lambda: written)
    assert reference.main(["--write"]) == 0
    current = {**fields, "none.loss_trace": [np.full(3, np.nan)]}
    monkeypatch.setattr(reference, "probe", lambda: current)
    capsys.readouterr()
    assert reference.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    drift = {line.split()[0]: float(line.split()[-1]) for line in lines[:-1]}
    assert list(drift) == ["none.loss_trace", "none.logits", "order-seed3.fold0",
                           "noisy-seed3.loaded", "gone.logits"]
    assert math.isnan(drift["none.loss_trace"])
    assert 9e-11 < drift["none.logits"] < 1.1e-10
    assert 0.0 < drift["noisy-seed3.loaded"] <= reference.TOLERANCE
    assert math.isinf(drift["order-seed3.fold0"]) and math.isinf(drift["gone.logits"])
    assert lines[-1] == "130 of 135 fields bitwise equal, 4 over 1e-12"
