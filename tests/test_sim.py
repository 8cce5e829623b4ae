import dataclasses
import itertools
import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import campaign_cells, svd_of
from ucamimo import (
    APPROXIMATE,
    EXACT_DISTANCE,
    Codebook,
    Misalignment,
    approx_power_allocation,
    build_channel,
    build_codebook,
    codebook_rates_many,
    nulling_rates,
    numerical_svd,
    precoder_from_angles,
    search_beta_opt,
)
from ucamimo.design import capacity, condition_numbers, water_fill
from ucamimo import sim
from ucamimo.geometry import ANGLE_NAMES, ArrayConfig
from ucamimo.sim import (
    AGGREGATE_TRIAL,
    CSV_HEADER,
    RATE_SWEEP_SCHEMES,
    ResultRow,
    TrialConfig,
    draw_misalignment,
    rows_to_csv,
    run_codebook_bit_sweep,
    run_rate_sweep,
    trial_rng,
)
from ucamimo.spectrum import singular_values
from ucamimo.transceiver import precoded_rate


def small_config(**kw):
    defaults = dict(
        seed=77,
        n_trials=5,
        wavelength=0.004,
        n_antennas_list=(4,),
        distances=(100.0, 300.0),
        codebook_bits=(3, 2),
    )
    defaults.update(kw)
    return TrialConfig(**defaults)


def cell_array(cfg, n, dist):
    radius = search_beta_opt(
        n, 0.0, cfg.snr_db, wavelength=cfg.wavelength, distance=cfg.design_distance
    ).radius_equal
    return ArrayConfig(n_antennas=n, wavelength=cfg.wavelength, radius_tx=radius, radius_rx=radius, distance=dist)


def trial_channel(cfg, arr, trial):
    mis = draw_misalignment(trial_rng(cfg.seed, trial), cfg, arr.n_antennas)
    return build_channel(arr, mis, EXACT_DISTANCE if cfg.exact_geometry else APPROXIMATE)


def reference_rate_sweep(cfg):
    """The per-trial engine the batched one replaced.

    Each trial builds its channel alone and scores every scheme on it: the
    optimal precoder with `precoded_rate`, the codebook, the identity (the
    DFT precoder, the t = 1 entry of `build_codebook(0, 0)`) and the
    nulling receivers with the stacked kernels on a stack of one, so a row
    cannot depend on the rest of its cell.  Under the separable model the
    nulling receivers read the trial's closed-form SVD, its spectrum and
    V = `precoder_from_angles` of the true shift, and the optimal precoder
    takes the capacity (the properties in test_properties.py hold both to
    the numerical receivers and to the SVD precoder).  Under exact
    geometry the nulling receivers read the LAPACK SVD and the optimal
    precoder is `precoded_rate`.  A singular channel scores zero for ZF
    and ZF-SIC.  Capacity row and condition number come from the
    closed-form spectrum.
    """
    p_total = 10.0 ** (cfg.snr_db / 10.0)
    cb = build_codebook(*cfg.codebook_bits)

    rows = []
    for n in cfg.n_antennas_list:
        for dist in cfg.distances:
            arr = cell_array(cfg, n, dist)
            approx_powers = approx_power_allocation(arr, cfg.snr_db)
            trials = []
            for t in range(cfg.n_trials):
                h = trial_channel(cfg, arr, t)
                sig = singular_values(n, arr.beta, h.mis.theta_o)
                exact_powers = water_fill(sig, p_total)
                optimal = precoder_from_angles(arr, h.mis.theta_cs, h.mis.phi_cs)
                if cfg.exact_geometry:
                    nulling = nulling_rates(*svd_of(h.entries[None]), p_total)
                    optimal_rate = precoded_rate(h, optimal, exact_powers).rate
                else:
                    nulling = nulling_rates(sig[None], optimal[None], p_total)
                    optimal_rate = capacity(sig, p_total, 1.0)
                zf, zf_sic = (float(rate[0]) for rate in nulling)
                rates = {
                    "capacity": capacity(sig, p_total, 1.0),
                    "optimal-precoder": optimal_rate,
                    "codebook": codebook_rates_many(arr, h.entries[None], cb, approx_powers)[0].max(),
                    "identity": codebook_rates_many(arr, h.entries[None], build_codebook(0, 0), approx_powers)[0, 0],
                    "zf": zf,
                    "zf-sic": zf_sic,
                }
                trials.append((rates, float(condition_numbers(singular_values(n, arr.beta, h.mis.theta_o)))))
            for t, (rates, cond) in enumerate(trials):
                rows += [ResultRow("rate_sweep", n, dist, s, t, rates[s], arr.beta, cond)
                         for s in RATE_SWEEP_SCHEMES]
            mean_cond = float(np.mean([cond for _, cond in trials]))
            rows += [
                ResultRow("rate_sweep", n, dist, s, AGGREGATE_TRIAL,
                          float(np.mean([rates[s] for rates, _ in trials])), arr.beta, mean_cond)
                for s in RATE_SWEEP_SCHEMES
            ]
    return rows


def assert_rows_equal(rows, ref, check_capacity_and_cond=True):
    """Bit-for-bit equality of two row lists, optionally leaving out capacity rows and cond."""
    assert len(rows) == len(ref)
    for r, e in zip(rows, ref):
        assert (r.scenario, r.n_antennas, r.distance_m, r.scheme, r.trial, r.beta) == (
            e.scenario, e.n_antennas, e.distance_m, e.scheme, e.trial, e.beta)
        if check_capacity_and_cond or r.scheme != "capacity":
            assert r.rate_bps_hz == e.rate_bps_hz, (r, e)
        if check_capacity_and_cond:
            assert r.cond_number == e.cond_number, (r, e)


class TestBatchedEngineMatchesPerTrialReference:
    def test_separable(self):
        cfg = small_config(n_trials=6, n_antennas_list=(4, 8), distances=(100.0, 400.0))
        assert_rows_equal(run_rate_sweep(cfg), reference_rate_sweep(cfg))

    def test_exact_geometry_outside_capacity_row_and_cond(self):
        cfg = small_config(n_trials=6, n_antennas_list=(8,), distances=(100.0, 500.0),
                           angle_range_small=math.radians(15.0), exact_geometry=True)
        assert_rows_equal(run_rate_sweep(cfg), reference_rate_sweep(cfg), check_capacity_and_cond=False)

    def test_clamped_singular_draws(self):
        cfg = small_config(n_trials=40, n_antennas_list=(20,), distances=(100.0,),
                           angle_range_small=math.radians(12.0))
        rows = run_rate_sweep(cfg)
        assert_rows_equal(rows, reference_rate_sweep(cfg))
        singular = {r.trial for r in rows if r.trial >= 0 and math.isinf(r.cond_number)}
        assert singular and len(singular) < cfg.n_trials
        for r in rows:
            if r.trial in singular and r.scheme in ("zf", "zf-sic"):
                assert r.rate_bps_hz == 0.0

    def test_bit_sweep(self):
        # a linear row is the best rate over the codebook's first half of azimuths, which holds
        # each precoder once, bit for bit; over the full codebook it is the same up to the
        # rounding that tells twin entries apart
        cfg = small_config(n_trials=4, n_antennas_list=(8,), distances=(300.0,))
        grid = ((2, 1), (1, 3))
        rows = run_codebook_bit_sweep(cfg, grid)
        arr = cell_array(cfg, 8, 300.0)
        alloc = approx_power_allocation(arr, cfg.snr_db)
        channels = [trial_channel(cfg, arr, t) for t in range(cfg.n_trials)]
        k = 0
        for l1, l2 in grid:
            for method in ("sine", "linear"):
                full = build_codebook(l1, l2, quantization=method)
                scored = full
                if method == "linear":
                    scored = Codebook(full.theta_angles[: len(full.theta_angles) // 2], full.phi_angles)
                for t, h in enumerate(channels):
                    assert rows[k].rate_bps_hz == codebook_rates_many(arr, h.entries[None], scored, alloc)[0].max()
                    assert rows[k].rate_bps_hz == pytest.approx(
                        codebook_rates_many(arr, h.entries[None], full, alloc)[0].max(), rel=1e-12, abs=0.0)
                    assert rows[k].cond_number == float(condition_numbers(singular_values(8, arr.beta, h.mis.theta_o)))
                    k += 1
                k += 1  # the mean row


class TestExactGeometryCapacityRow:
    CFG = small_config(n_trials=8, n_antennas_list=(8, 16), distances=(100.0, 500.0),
                       angle_range_small=math.radians(15.0), exact_geometry=True)

    def test_row_is_capacity_of_the_built_channel(self):
        cfg = self.CFG
        p_total = 10.0 ** (cfg.snr_db / 10.0)
        rows = run_rate_sweep(cfg)
        checked = 0
        for n in cfg.n_antennas_list:
            for dist in cfg.distances:
                arr = cell_array(cfg, n, dist)
                for t in range(cfg.n_trials):
                    sigma = numerical_svd(trial_channel(cfg, arr, t).entries).sigma
                    trial = {r.scheme: r for r in rows
                             if (r.n_antennas, r.distance_m, r.trial) == (n, dist, t)}
                    assert trial["capacity"].rate_bps_hz == pytest.approx(
                        capacity(sigma, p_total, 1.0), rel=1e-12)
                    assert trial["capacity"].cond_number == pytest.approx(
                        sigma[0] / sigma[-1], rel=1e-9)
                    checked += 1
        assert checked == 4 * cfg.n_trials

    def test_no_scheme_beats_the_row(self):
        rows = run_rate_sweep(self.CFG)
        caps = {(r.n_antennas, r.distance_m, r.trial): r.rate_bps_hz
                for r in rows if r.scheme == "capacity"}
        for r in rows:
            assert r.rate_bps_hz <= caps[(r.n_antennas, r.distance_m, r.trial)] + 1e-9


class TestTrialRng:
    def test_small_seeds_keep_their_streams(self):
        for seed, trial in ((0, 0), (2024, 7), (2**63 - 1, 3)):
            legacy = np.random.Generator(np.random.Philox(key=[seed, trial]))
            np.testing.assert_array_equal(trial_rng(seed, trial).random(4), legacy.random(4))

    @pytest.mark.parametrize("a, b", [(2**63 + 5, 2**63 + 6), (-1, 0), (2**64 - 1, 0)])
    def test_large_and_negative_seeds_get_distinct_streams(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws_a = trial_rng(a, 0).random(4)
            draws_b = trial_rng(b, 0).random(4)
        assert not np.array_equal(draws_a, draws_b)


class TestDrawMisalignment:
    def test_deterministic_per_key(self):
        cfg = small_config()
        a = draw_misalignment(trial_rng(cfg.seed, 3), cfg, 8)
        b = draw_misalignment(trial_rng(cfg.seed, 3), cfg, 8)
        assert a == b
        c = draw_misalignment(trial_rng(cfg.seed, 4), cfg, 8)
        assert a != c

    def test_zero_ranges_give_aligned_draws(self):
        cfg = small_config(angle_range_small=0.0, theta_cs_range=0.0)
        mis = draw_misalignment(trial_rng(1, 0), cfg, 8)
        assert mis == Misalignment()

    def test_ranges_and_polar_fold(self):
        cfg = small_config()
        small = cfg.angle_range_small
        rng = trial_rng(5, 0)
        raw = trial_rng(5, 0)
        for _ in range(500):
            mis = draw_misalignment(rng, cfg, 8)
            assert 0.0 <= mis.phi_cs <= small
            assert -math.pi <= mis.theta_cs <= math.pi
            assert abs(mis.theta_o) <= small
            assert abs(mis.phi_x) <= small
            # a negative polar draw is reflected to the opposite azimuth
            raw.uniform(-small, small)
            theta_cs = raw.uniform(-math.pi, math.pi)
            phi_cs = raw.uniform(-small, small)
            raw.uniform(-small, small, size=2)
            if phi_cs < 0.0:
                phi_cs, theta_cs = -phi_cs, theta_cs + math.pi
            assert mis.phi_cs == phi_cs
            assert math.remainder(mis.theta_cs - theta_cs, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_rotation_clamped_to_antenna_bound(self):
        cfg = small_config()
        rng = trial_rng(6, 0)
        bound = math.pi / 20
        clamped = 0
        for _ in range(2000):
            mis = draw_misalignment(rng, cfg, 20)
            assert abs(mis.theta_o) <= bound + 1e-15
            clamped += abs(mis.theta_o) == bound
        assert clamped > 0

    def test_sample_means(self):
        cfg = small_config()
        rng = trial_rng(8, 0)
        n = 100_000
        # n one-trial draws from one generator, as n `draw_misalignment(rng, cfg, 8)` calls make them
        theta_o, theta_cs, phi, phi_x, phi_y = sim._draw_angles(itertools.repeat(rng, n), cfg)
        draws = np.column_stack([sim._clamp_rotation(theta_o, 8), theta_cs, phi_x, phi_y])
        half = np.array([cfg.angle_range_small, math.pi, cfg.angle_range_small, cfg.angle_range_small])
        tol = 3.0 * (half / math.sqrt(3.0)) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) <= tol)
        # the polar angle is folded to nonnegative values: mean is half-range
        assert abs(phi.mean() - cfg.angle_range_small / 2) <= 3.0 * (cfg.angle_range_small / math.sqrt(12)) / math.sqrt(n)


class TestCampaignDraws:
    """Each trial is drawn once per campaign; only the rotation clamp depends on the cell."""

    def test_cell_draws_equal_one_trial_draws(self):
        cfg = small_config(n_trials=40, angle_range_small=math.radians(15.0), n_antennas_list=(4, 8, 16, 64))
        for acfg, mis, *_ in campaign_cells(cfg):
            n = acfg.n_antennas
            for t in range(cfg.n_trials):
                one = draw_misalignment(trial_rng(cfg.seed, t), cfg, n)
                for name in ANGLE_NAMES:
                    assert getattr(mis, name)[t] == getattr(one, name), (n, t, name)
                    assert math.copysign(1.0, getattr(mis, name)[t]) == math.copysign(1.0, getattr(one, name))

    def test_one_misalignment_per_antenna_count(self):
        cfg = small_config(n_antennas_list=(4, 8), distances=(100.0, 200.0, 300.0))
        cells = [(acfg.n_antennas, mis) for acfg, mis, *_ in campaign_cells(cfg)]
        assert [n for n, _ in cells] == [4, 4, 4, 8, 8, 8]
        assert len({id(mis) for _, mis in cells}) == 2
        assert all(mis is cells[0][1] for n, mis in cells if n == 4)

    def test_hand_count_of_clamped_draws(self):
        # 13 of the 40 rotations at 15 degrees exceed pi/16 for seed 3 and are clamped onto it
        cfg = TrialConfig(seed=3, n_trials=40, angle_range_small=math.radians(15.0),
                          n_antennas_list=(16,), distances=(500.0,), wavelength=0.004)
        [(_, mis, *_)] = campaign_cells(cfg)
        assert np.count_nonzero(np.abs(mis.theta_o) == math.pi / 16) == 13
        assert np.count_nonzero(np.abs(mis.theta_o) > math.pi / 16) == 0

    @pytest.mark.parametrize("exact_geometry", [False, True])
    def test_one_substream_per_trial_and_one_build_per_cell(self, monkeypatch, exact_geometry):
        cfg = small_config(n_antennas_list=(4, 8), distances=(100.0, 200.0, 300.0),
                           exact_geometry=exact_geometry)
        keys, builds = [], []
        trial_rng_, build_channels_ = sim.trial_rng, sim.build_channels

        def counted_rng(seed, trial):
            keys.append((seed, trial))
            return trial_rng_(seed, trial)

        def counted_build(cfg_, mis, model):
            builds.append(np.shape(mis.theta_o))
            return build_channels_(cfg_, mis, model)

        monkeypatch.setattr(sim, "trial_rng", counted_rng)
        monkeypatch.setattr(sim, "build_channels", counted_build)
        run_rate_sweep(cfg)
        assert keys == [(cfg.seed, t) for t in range(cfg.n_trials)]
        assert builds == [(cfg.n_trials,)] * 6
        keys.clear()
        builds.clear()
        run_codebook_bit_sweep(cfg, ((1, 1),))
        assert keys == [(cfg.seed, t) for t in range(cfg.n_trials)]
        assert builds == [(cfg.n_trials,)] * 6

    @pytest.mark.parametrize("exact_geometry", [False, True])
    def test_stacked_svds_per_cell(self, monkeypatch, exact_geometry):
        # `_cells` takes one full stacked SVD per exact-geometry cell, whose (sigma, V) the
        # capacity row, the condition number, the nulling receivers and the codebook's bound
        # share; the separable campaigns read the closed form and take no factorisation of a
        # channel.  No scheme inverts a matrix or takes an eigendecomposition
        cfg = small_config(n_antennas_list=(4, 8), distances=(100.0, 300.0), exact_geometry=exact_geometry)
        calls = []

        def counted(name, f):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a), args, kwargs))
                return f(a, *args, **kwargs)
            return wrapper

        for name in ("svd", "eigh", "eig", "eigvalsh", "inv", "solve", "pinv"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        per_cell = [("svd", (cfg.n_trials, n, n), (), {}) for n in (4, 4, 8, 8)] if exact_geometry else []
        run_rate_sweep(cfg)
        assert calls == per_cell
        calls.clear()
        run_codebook_bit_sweep(cfg, ((1, 1), (2, 1)))
        assert calls == per_cell


class TestRateSweep:
    def test_row_layout_and_aggregates(self):
        cfg = small_config()
        rows = run_rate_sweep(cfg)
        schemes = ("capacity", "optimal-precoder", "codebook", "identity", "zf", "zf-sic")
        assert len(rows) == len(cfg.distances) * len(schemes) * (cfg.n_trials + 1)
        for scheme in schemes:
            for dist in cfg.distances:
                trials = [r.rate_bps_hz for r in rows if r.scheme == scheme and r.distance_m == dist and r.trial >= 0]
                agg = [r for r in rows if r.scheme == scheme and r.distance_m == dist and r.trial == AGGREGATE_TRIAL]
                assert len(trials) == cfg.n_trials and len(agg) == 1
                assert agg[0].rate_bps_hz == pytest.approx(float(np.mean(trials)), abs=1e-12)

    def test_per_trial_scheme_ordering(self):
        cfg = small_config(n_trials=10, n_antennas_list=(8,), distances=(100.0, 400.0))
        rows = run_rate_sweep(cfg)
        per_trial = {}
        for r in rows:
            if r.trial >= 0:
                per_trial.setdefault((r.distance_m, r.trial), {})[r.scheme] = r.rate_bps_hz
        for rates in per_trial.values():
            assert rates["optimal-precoder"] <= rates["capacity"] + 1e-9
            assert rates["codebook"] <= rates["optimal-precoder"] + 1e-9
            assert rates["zf"] <= rates["capacity"] + 1e-9
            assert rates["zf-sic"] <= rates["capacity"] + 1e-9

    def test_deterministic_output(self):
        cfg = small_config()
        assert rows_to_csv(run_rate_sweep(cfg)) == rows_to_csv(run_rate_sweep(cfg))

    def test_parallel_execution_matches_serial(self):
        cfg = small_config(n_trials=6)
        assert rows_to_csv(run_rate_sweep(cfg, jobs=1)) == rows_to_csv(run_rate_sweep(cfg, jobs=4))

    def test_zero_ranges_match_direct_evaluation(self):
        from ucamimo import search_beta_opt

        cfg = small_config(n_trials=1, angle_range_small=0.0, theta_cs_range=0.0, distances=(100.0,))
        rows = {r.scheme: r.rate_bps_hz for r in run_rate_sweep(cfg) if r.trial == 0}
        radius = search_beta_opt(4, 0.0, 15.0, wavelength=0.004, distance=100.0).radius_equal
        arr = ArrayConfig(n_antennas=4, wavelength=0.004, radius_tx=radius, radius_rx=radius, distance=100.0)
        h = build_channel(arr, draw_misalignment(trial_rng(cfg.seed, 0), cfg, 4))
        sig = singular_values(4, arr.beta, 0.0)
        powers = water_fill(sig, 10**1.5)
        cap = float(np.sum(np.log2(1.0 + powers * sig**2)))
        assert rows["capacity"] == pytest.approx(cap, abs=1e-9)
        zf, zf_sic = nulling_rates(*svd_of(h.entries[None]), 10**1.5)
        assert rows["zf"] == pytest.approx(zf[0], abs=1e-9)
        assert rows["zf-sic"] == pytest.approx(zf_sic[0], abs=1e-9)

    def test_singular_clamped_draws_score_zero_for_nulling(self):
        # ranges beyond the rotation bound clamp onto it, where the channel
        # is rank-deficient: the sweep must finish, scoring zero for the
        # nulling receivers and flagging the trial with an infinite
        # condition number
        cfg = small_config(
            n_trials=40, n_antennas_list=(20,), distances=(100.0,),
            angle_range_small=math.radians(12.0),
        )
        rows = run_rate_sweep(cfg)
        singular = [r for r in rows if r.trial >= 0 and math.isinf(r.cond_number)]
        assert singular
        for r in singular:
            if r.scheme in ("zf", "zf-sic"):
                assert r.rate_bps_hz == 0.0
            if r.scheme == "capacity":
                assert r.rate_bps_hz > 0.0

    def test_receiver_faults_are_not_scored_as_zero(self, monkeypatch):
        # only a singular channel scores zero; any other error propagates.
        # The exact-geometry cell's SVD is the only factorisation of a channel in the package;
        # separable channels take the closed form, which factorises nothing.
        def broken(a):
            raise ValueError("receiver fault")

        monkeypatch.setattr(np.linalg, "svd", broken)
        with pytest.raises(ValueError, match="receiver fault"):
            run_rate_sweep(small_config(n_trials=1, distances=(100.0,), exact_geometry=True))

    def test_exact_geometry_flag(self):
        approx = run_rate_sweep(small_config(n_trials=2, distances=(100.0,)))
        exact = run_rate_sweep(small_config(n_trials=2, distances=(100.0,), exact_geometry=True))
        a = [r.rate_bps_hz for r in approx if r.scheme == "zf" and r.trial >= 0]
        e = [r.rate_bps_hz for r in exact if r.scheme == "zf" and r.trial >= 0]
        assert a != e
        np.testing.assert_allclose(a, e, rtol=1e-2)

    @pytest.mark.parametrize("cfg", [
        small_config(seed=2024, n_trials=20, n_antennas_list=(4, 16), codebook_bits=(5, 0)),
        small_config(seed=2024, n_trials=20, n_antennas_list=(8, 16), codebook_bits=(5, 0), snr_db=-20.0),
        small_config(seed=3, n_trials=10, n_antennas_list=(16,), distances=(500.0,), codebook_bits=(3, 0),
                     angle_range_small=math.radians(15.0), exact_geometry=True),
    ])
    def test_csv_equals_full_zero_polar_codebook(self, monkeypatch, cfg):
        # with L2 = 0 every entry is the DFT precoder and the rate sweep scores one; it prints
        # the bytes that scoring all 2^L1 printed, one active stream (-20 dB) included
        csv = rows_to_csv(run_rate_sweep(cfg))
        monkeypatch.setattr(sim, "_distinct_codebook",
                            lambda l1, l2, method: build_codebook(l1, l2, quantization=method))
        assert csv == rows_to_csv(run_rate_sweep(cfg))


class TestCodebookBitSweep:
    def test_rows_cover_both_quantizations(self):
        cfg = small_config(n_trials=3, n_antennas_list=(4,), distances=(300.0,))
        rows = run_codebook_bit_sweep(cfg, bit_grid=((2, 1), (1, 2)))
        schemes = {r.scheme for r in rows}
        assert schemes == {"codebook-sine", "codebook-linear"}
        scenarios = {r.scenario for r in rows}
        assert scenarios == {"bit_sweep_L12_L21", "bit_sweep_L11_L22"}
        assert len(rows) == 2 * 2 * (3 + 1)

    def test_empty_bit_grid_rejected(self):
        with pytest.raises(ValueError, match="bit_grid must not be empty"):
            run_codebook_bit_sweep(small_config(), ())

    def test_deterministic(self):
        cfg = small_config(n_trials=3, n_antennas_list=(4,), distances=(300.0,))
        grid = ((2, 1),)
        assert rows_to_csv(run_codebook_bit_sweep(cfg, grid)) == rows_to_csv(run_codebook_bit_sweep(cfg, grid, jobs=3))

    def test_every_cell_equals_its_one_cell_sweep(self):
        # the sweep used to run only the first antenna count and distance
        cfg = small_config(n_trials=3, n_antennas_list=(4, 8), distances=(100.0, 300.0))
        grid = ((2, 1), (1, 2))
        rows = run_codebook_bit_sweep(cfg, grid)
        one_cell = [
            row
            for n in cfg.n_antennas_list
            for dist in cfg.distances
            for row in run_codebook_bit_sweep(replace(cfg, n_antennas_list=(n,), distances=(dist,)), grid)
        ]
        assert rows_to_csv(rows) == rows_to_csv(one_cell)
        assert rows == one_cell

    @pytest.mark.parametrize("cells", [((4,), (300.0,)), ((4, 8), (100.0, 300.0))])
    def test_one_call_per_cell_scores_the_distinct_entries(self, monkeypatch, cells):
        # each cell scores every sine codebook whole and every linear one's distinct half,
        # all of them in one call of `codebook_best_rates`'s kernel
        calls = []

        def counted(cfg, h, sigma, v, entries, powers, score=sim._best_entry_rates):
            calls.append(entries.sizes)
            return score(cfg, h, sigma, v, entries, powers)

        monkeypatch.setattr(sim, "_best_entry_rates", counted)
        n_antennas_list, distances = cells
        run_codebook_bit_sweep(small_config(n_trials=2, n_antennas_list=n_antennas_list, distances=distances))
        per_cell = [2 ** (l1 + l2) // d for l1, l2 in sim.DEFAULT_BIT_GRID for d in (1, 2)]
        assert calls == [per_cell] * (len(n_antennas_list) * len(distances))

    @pytest.mark.parametrize("cfg", [
        small_config(seed=2024, n_trials=3, n_antennas_list=(16,), distances=(300.0,)),
        small_config(seed=4242, n_trials=3, n_antennas_list=(4, 8), distances=(100.0, 500.0)),
        small_config(seed=3, n_trials=3, n_antennas_list=(8,), distances=(100.0,),
                     angle_range_small=math.radians(15.0), exact_geometry=True),
    ])
    def test_csv_equals_full_linear_codebooks(self, monkeypatch, cfg):
        # scoring the linear codebooks' distinct halves prints the bytes that scoring them whole
        # printed, on the separable model and with exact geometry
        csv = rows_to_csv(run_codebook_bit_sweep(cfg))
        monkeypatch.setattr(sim, "_distinct_codebook",
                            lambda l1, l2, method: build_codebook(l1, l2, quantization=method))
        assert csv == rows_to_csv(run_codebook_bit_sweep(cfg))

    def test_exact_geometry_cond_matches_rate_sweep(self):
        # clamped draws are singular only under the separable model
        cfg = TrialConfig(seed=3, n_trials=40, wavelength=0.004, angle_range_small=math.radians(15.0),
                          n_antennas_list=(16,), distances=(500.0,), codebook_bits=(1, 1),
                          exact_geometry=True)
        bit_cond = [r.cond_number for r in run_codebook_bit_sweep(cfg, ((1, 1),))
                    if r.scheme == "codebook-sine" and r.trial >= 0]
        rate_cond = [r.cond_number for r in run_rate_sweep(cfg) if r.scheme == "capacity" and r.trial >= 0]
        assert bit_cond == rate_cond
        assert all(map(math.isfinite, bit_cond))


class TestCsv:
    def test_header_and_formatting(self):
        cfg = small_config(n_trials=1, distances=(100.0,))
        text = rows_to_csv(run_rate_sweep(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert len(fields) == 8
        float(fields[5])
        assert fields[4] == "0"
        assert text.endswith("\n")

    def test_aggregate_marker(self):
        cfg = small_config(n_trials=2, distances=(100.0,))
        rows = run_rate_sweep(cfg)
        assert any(r.trial == AGGREGATE_TRIAL for r in rows)

    def test_write_csv_pins_newlines(self, tmp_path):
        from ucamimo.sim import write_csv

        cfg = small_config(n_trials=1, distances=(100.0,))
        rows = run_rate_sweep(cfg)
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        data = path.read_bytes()
        assert data == rows_to_csv(rows).encode("utf-8")
        assert b"\r" not in data
        assert data.endswith(b"\n")


    @pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
    def test_number_rule_reused_within_a_call_prints_each_value_alone(self, zeros):
        # table_texts formats each distinct nonzero float or int once per call; every value must
        # still print what its own .9g prints, 0.0 next to -0.0 and equal values of other types
        values = [*zeros, 0, -0.0, 1, 1.0, True, 1, 1.0, math.nan, float("nan"), math.inf, -math.inf,
                  5e-324, 1e308, 1e308, np.float64(1.0), np.float64(-0.0), np.float32(0.1), 0.10000000149011612,
                  np.int64(7), 7, 7.0, np.float64(math.nan), "x", 2.5, np.float32(2.5)]
        expected = [v if isinstance(v, str) else f"{v:.9g}" for v in values]
        assert sim.table_texts([values, values[::-1]]) == [expected, expected[::-1]]


class TestResultRow:
    ROW = ResultRow("rate_sweep", 8, 100.0, "zf", 3, 12.5, 2.0, 1.25)

    def test_replace_eq_and_hash(self):
        # bench/selftest.py corrupts a row with dataclasses.replace
        other = replace(self.ROW, rate_bps_hz=13.0)
        assert other.rate_bps_hz == 13.0 and other.trial == 3 and other != self.ROW
        assert replace(other, rate_bps_hz=12.5) == self.ROW
        assert hash(replace(other, rate_bps_hz=12.5)) == hash(self.ROW)

    def test_pickle_round_trip(self):
        assert pickle.loads(pickle.dumps(self.ROW)) == self.ROW

    def test_frozen_with_slots(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.ROW.rate_bps_hz = 0.0
        assert not hasattr(self.ROW, "__dict__")


class TestPerAntennaCountInputs:
    """Each antenna count's distance-free inputs are built once per campaign call, and never kept."""

    @pytest.mark.parametrize("exact_geometry", [False, True])
    def test_build_counts(self, monkeypatch, exact_geometry):
        cfg = small_config(n_trials=3, n_antennas_list=(4, 8, 12, 16), distances=(100.0, 200.0, 300.0, 400.0, 500.0),
                           exact_geometry=exact_geometry)
        built = {"phasors": [], "v": []}

        def counted(key, f):
            def wrapper(cfg_, *args):
                built[key].append(cfg_.n_antennas)
                return f(cfg_, *args)
            return wrapper

        monkeypatch.setattr(sim, "_codebook_entries", counted("phasors", sim._codebook_entries))
        monkeypatch.setattr(sim, "precoder_matrices", counted("v", sim.precoder_matrices))
        first = rows_to_csv(run_rate_sweep(cfg))
        assert built == {"phasors": [4, 8, 12, 16], "v": [4, 8, 12, 16]}
        # a second call builds them again: nothing is carried from one call to the next
        assert rows_to_csv(run_rate_sweep(cfg)) == first
        assert built == {"phasors": [4, 8, 12, 16] * 2, "v": [4, 8, 12, 16] * 2}
        built["phasors"].clear()
        built["v"].clear()
        run_codebook_bit_sweep(cfg, ((1, 1), (2, 1)))
        assert built == {"phasors": [4, 8, 12, 16], "v": [] if exact_geometry else [4, 8, 12, 16]}

    def test_separable_v_is_shared_by_every_distance(self):
        cfg = small_config(n_trials=3, n_antennas_list=(4, 8), distances=(100.0, 300.0, 500.0))
        for design, mis, cells in sim._cells(cfg):
            n = cells.cfgs[0].n_antennas
            assert design == search_beta_opt(n, 0.0, cfg.snr_db, wavelength=cfg.wavelength,
                                             distance=cfg.design_distance)
            assert all(c.radius_tx == c.radius_rx == design.radius_equal for c in cells.cfgs)
            assert cells.v.strides[0] == 0
            np.testing.assert_array_equal(cells.v[0], precoder_from_angles(cells.cfgs[0], mis.theta_cs, mis.phi_cs))

    @pytest.mark.parametrize("exact_geometry", [False, True])
    def test_stacked_powers_equal_each_cells_allocation(self, monkeypatch, exact_geometry):
        # the designed powers are one stacked call per antenna count; each cell's row must be
        # approx_power_allocation of the cell's own array, bit for bit
        cfg = small_config(n_trials=2, n_antennas_list=(4, 8, 16), distances=(100.0, 250.0, 500.0),
                           exact_geometry=exact_geometry)
        seen = []

        def counted(acfg, h, sigma, v, entries, powers, score=sim._best_entry_rates):
            seen.append((acfg, powers))
            return score(acfg, h, sigma, v, entries, powers)

        monkeypatch.setattr(sim, "_best_entry_rates", counted)
        run_rate_sweep(cfg)
        run_codebook_bit_sweep(cfg, ((1, 1),))
        assert len(seen) == 2 * 3 * 3
        for acfg, powers in seen:
            assert powers.tobytes() == approx_power_allocation(acfg, cfg.snr_db).tobytes(), acfg


class TestTrialConfigValidation:
    @pytest.mark.parametrize("seed, alias", [(2**64, 0), (-1, 2**64 - 1)])
    def test_seed_outside_64_bits_rejected(self, seed, alias):
        # trial_rng keys on the low 64 bits, where each seed equals its alias
        assert trial_rng(seed, 3).random(2).tolist() == trial_rng(alias, 3).random(2).tolist()
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            TrialConfig(seed=seed)
        assert TrialConfig(seed=alias).seed == alias

    def test_non_integer_antenna_count_rejected(self):
        # 4.0 passed the even test and then failed inside the design search
        with pytest.raises(ValueError, match="antenna count must be an even integer >= 2, got 4.0"):
            TrialConfig(seed=1, n_antennas_list=(4.0,))
        assert TrialConfig(seed=1, n_antennas_list=(np.int64(4),)).n_antennas_list == (4,)

    @pytest.mark.parametrize("name, value", [("seed", 1.5), ("seed", 2.0), ("n_trials", 2.5), ("n_trials", 3.0)])
    def test_non_integer_seed_and_trial_count_rejected(self, name, value):
        # both constructed, and the run then failed with TypeError in trial_rng or range
        with pytest.raises(ValueError, match=f"{name} must .*an integer.*, got {value}"):
            TrialConfig(**{"seed": 1, name: value})
        assert getattr(TrialConfig(**{"seed": 1, name: np.int64(3)}), name) == 3

    @pytest.mark.parametrize("bits", [(1.5, 2), (2, 2.0), (-1, 2)])
    def test_non_integer_codebook_bits_rejected(self, bits):
        # (1.5, 2) ran a whole campaign on an off-centre 3-entry azimuth grid
        with pytest.raises(ValueError, match="bit counts must be nonnegative integers"):
            TrialConfig(seed=1, codebook_bits=bits)
        assert TrialConfig(seed=1, codebook_bits=(np.int64(2), 0)).codebook_bits == (2, 0)

    @pytest.mark.parametrize("bits", [(1024, 1), (5, 53)])
    def test_oversized_codebook_bits_rejected(self, bits):
        # (1024, 1) was accepted, and the campaign then failed with OverflowError in build_codebook
        with pytest.raises(ValueError, match=f"of at most 52, got {max(bits)}$"):
            TrialConfig(seed=1, codebook_bits=bits)

    @pytest.mark.parametrize("bits", [(5,), (1, 2, 3)])
    def test_codebook_bits_need_exactly_two_counts(self, bits):
        # both raised TypeError naming the private bit-count check
        message = r"codebook_bits must hold exactly two bit counts \(L1, L2\), got " + re.escape(repr(bits))
        with pytest.raises(ValueError, match=message):
            TrialConfig(seed=1, codebook_bits=bits)

    def test_bad_values(self):
        with pytest.raises(ValueError):
            TrialConfig(seed=1, n_trials=0)
        with pytest.raises(ValueError):
            TrialConfig(seed=1, distances=())
        with pytest.raises(ValueError):
            TrialConfig(seed=1, n_antennas_list=(5,))
        with pytest.raises(ValueError):
            TrialConfig(seed=1, wavelength=0.0)
        # out-of-range angle ranges fail here, whatever the seed
        with pytest.raises(ValueError, match="theta_cs_range"):
            TrialConfig(seed=1, theta_cs_range=3.3)
        with pytest.raises(ValueError, match="angle_range_small"):
            TrialConfig(seed=1, angle_range_small=math.pi / 2)
        TrialConfig(seed=1, theta_cs_range=math.pi, angle_range_small=math.nextafter(math.pi / 2, 0.0))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("snr_db", math.nan),
            ("snr_db", math.inf),
            ("angle_range_small", math.nan),
            ("angle_range_small", math.inf),
            ("theta_cs_range", math.nan),
            ("wavelength", math.inf),
            ("wavelength", math.nan),
            ("design_distance", math.inf),
            ("distances", (100.0, math.nan)),
            ("distances", (math.inf,)),
        ],
    )
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            TrialConfig(seed=1, **{name: value})
