"""Tests of the benchmark's own checker and tracer, at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench/selftest.py``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import import_program  # noqa: E402

import_program()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracing import LAYERS, Tracer, layer_metrics  # noqa: E402
from ucamimo import channel, sim  # noqa: E402


def tiny_config(**overrides) -> sim.TrialConfig:
    fields = dict(seed=11, n_trials=3, n_antennas_list=(4,), distances=(100.0,), wavelength=0.004)
    fields.update(overrides)
    return sim.TrialConfig(**fields)


def check(cfg, rows):
    csv = sim.rows_to_csv(rows).encode("utf-8")
    return checks.check_rate_sweep(cfg, rows, csv, {}, np.random.default_rng(0), 1)


def test_checker_flags_a_corrupted_rate():
    cfg = tiny_config()
    rows = sim.run_rate_sweep(cfg)
    assert not check(cfg, rows).failed

    at = next(i for i, r in enumerate(rows) if r.trial == 1 and r.scheme == "zf")
    capacity = next(r for r in rows if r.trial == 1 and r.scheme == "capacity").rate_bps_hz
    corrupted = list(rows)
    corrupted[at] = dataclasses.replace(rows[at], rate_bps_hz=capacity + 1e-6)
    report = check(cfg, corrupted)
    assert (0, 1) in report.failed
    assert any("(0, 1): zf" in m and "exceeds capacity" in m for m in report.messages)


def test_checker_accepts_clamped_separable_trials():
    cfg = tiny_config(n_trials=8, n_antennas_list=(16,), angle_range_small=math.radians(15.0))
    rows = sim.run_rate_sweep(cfg)
    clamped = [r for r in rows if r.trial >= 0 and r.scheme == "zf" and math.isinf(r.cond_number)]
    assert clamped and all(r.rate_bps_hz == 0.0 for r in clamped)
    report = check(cfg, rows)
    assert not report.failed, report.messages
    assert report.stats["inf_cond_rows"] == 6 * len(clamped)


def test_traced_run_has_a_span_for_every_layer(tmp_path):
    cfg = tiny_config(n_trials=2, exact_geometry=True)
    original = sim.build_channel
    tracer = Tracer()
    with tracer.installed():
        assert sim.build_channel is not original
        sim.write_csv(sim.run_rate_sweep(cfg, jobs=2), tmp_path / "rows.csv")
    assert sim.build_channel is original and channel.build_channel is original
    spans = tracer.take()
    names = {span[0] for span in spans}
    assert {name.partition(".")[0] for name in names} == set(LAYERS)
    for name in ("channel.build_channel", "transceiver.select_codebook_index",
                 "geometry.distance_matrix_exact", "sim.write_csv"):
        assert name in names
    m = layer_metrics(spans)
    assert m["design.search_calls"] == 1 and m["transceiver.codebook_calls"] == 2
    assert m["transceiver.codebook_entries"] == 2 * 2**8
    assert all(m[f"{layer}.self_s"] > 0.0 for layer in LAYERS)
