import math
import warnings

import numpy as np
import pytest

from ucamimo import (
    APPROXIMATE,
    EXACT_DISTANCE,
    Misalignment,
    SingularChannelError,
    approx_power_allocation,
    build_channel,
    build_codebook,
    condition_number,
    dft_matrix,
    numerical_svd,
    precoder_from_angles,
    search_beta_opt,
    select_codebook_index,
    transceiver,
    zf_rate,
    zf_sic_rate,
)
from ucamimo.design import allocated_capacity, capacity, water_fill
from ucamimo.geometry import ArrayConfig
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
    """The per-trial engine the batched one replaced, built from the scalar API.

    Each trial builds its channel and scores every scheme with one call of
    the public scalar functions; a singular channel scores zero for ZF and
    ZF-SIC.  Capacity row and condition number come from the closed-form
    spectrum.
    """
    p_total = 10.0 ** (cfg.snr_db / 10.0)
    cb = build_codebook(*cfg.codebook_bits)

    def nulling(receiver, h):
        try:
            return receiver(h, p_total, 1.0).rate
        except SingularChannelError:
            return 0.0

    rows = []
    for n in cfg.n_antennas_list:
        for dist in cfg.distances:
            arr = cell_array(cfg, n, dist)
            approx_alloc = approx_power_allocation(arr, cfg.snr_db)
            trials = []
            for t in range(cfg.n_trials):
                h = trial_channel(cfg, arr, t)
                sig = singular_values(n, arr.beta, h.mis.theta_o)
                exact_alloc = water_fill(sig, p_total, 1.0)
                optimal = precoder_from_angles(arr, h.mis.theta_cs, h.mis.phi_cs)
                rates = {
                    "capacity": allocated_capacity(sig, exact_alloc),
                    "optimal-precoder": precoded_rate(h, optimal, exact_alloc).rate,
                    "codebook": select_codebook_index(h, cb, approx_alloc)[1],
                    "identity": precoded_rate(h, dft_matrix(n), approx_alloc).rate,
                    "zf": nulling(zf_rate, h),
                    "zf-sic": nulling(zf_sic_rate, h),
                }
                trials.append((rates, condition_number(n, arr.beta, h.mis.theta_o)))
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
        cfg = small_config(n_trials=4, n_antennas_list=(8,), distances=(300.0,))
        grid = ((2, 1), (1, 3))
        rows = run_codebook_bit_sweep(cfg, grid)
        arr = cell_array(cfg, 8, 300.0)
        alloc = approx_power_allocation(arr, cfg.snr_db)
        channels = [trial_channel(cfg, arr, t) for t in range(cfg.n_trials)]
        k = 0
        for l1, l2 in grid:
            for method in ("sine", "linear"):
                cb = build_codebook(l1, l2, quantization=method)
                for t, h in enumerate(channels):
                    assert rows[k].rate_bps_hz == select_codebook_index(h, cb, alloc)[1]
                    assert rows[k].cond_number == condition_number(8, arr.beta, h.mis.theta_o)
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
        draws = np.empty((n, 4))
        phi = np.empty(n)
        for i in range(n):
            mis = draw_misalignment(rng, cfg, 8)
            draws[i] = (mis.theta_o, mis.theta_cs, mis.phi_x, mis.phi_y)
            phi[i] = mis.phi_cs
        half = np.array([cfg.angle_range_small, math.pi, cfg.angle_range_small, cfg.angle_range_small])
        tol = 3.0 * (half / math.sqrt(3.0)) / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0)) <= tol)
        # the polar angle is folded to nonnegative values: mean is half-range
        assert abs(phi.mean() - cfg.angle_range_small / 2) <= 3.0 * (cfg.angle_range_small / math.sqrt(12)) / math.sqrt(n)


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
        alloc = water_fill(sig, 10**1.5, 1.0)
        cap = float(np.sum(np.log2(1.0 + alloc.powers * sig**2)))
        assert rows["capacity"] == pytest.approx(cap, abs=1e-9)
        assert rows["zf"] == pytest.approx(zf_rate(h, 10**1.5, 1.0).rate, abs=1e-9)
        assert rows["zf-sic"] == pytest.approx(zf_sic_rate(h, 10**1.5, 1.0).rate, abs=1e-9)

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
        # only a singular channel scores zero; any other error propagates
        def broken(h, p_total, noise):
            raise ValueError("receiver fault")

        monkeypatch.setattr(transceiver, "_zf_per_stream", broken)
        with pytest.raises(ValueError, match="receiver fault"):
            run_rate_sweep(small_config(n_trials=1, distances=(100.0,)))

    def test_exact_geometry_flag(self):
        approx = run_rate_sweep(small_config(n_trials=2, distances=(100.0,)))
        exact = run_rate_sweep(small_config(n_trials=2, distances=(100.0,), exact_geometry=True))
        a = [r.rate_bps_hz for r in approx if r.scheme == "zf" and r.trial >= 0]
        e = [r.rate_bps_hz for r in exact if r.scheme == "zf" and r.trial >= 0]
        assert a != e
        np.testing.assert_allclose(a, e, rtol=1e-2)


class TestCodebookBitSweep:
    def test_rows_cover_both_quantizations(self):
        cfg = small_config(n_trials=3, n_antennas_list=(4,), distances=(300.0,))
        rows = run_codebook_bit_sweep(cfg, bit_grid=((2, 1), (1, 2)))
        schemes = {r.scheme for r in rows}
        assert schemes == {"codebook-sine", "codebook-linear"}
        scenarios = {r.scenario for r in rows}
        assert scenarios == {"bit_sweep_L12_L21", "bit_sweep_L11_L22"}
        assert len(rows) == 2 * 2 * (3 + 1)

    def test_deterministic(self):
        cfg = small_config(n_trials=3, n_antennas_list=(4,), distances=(300.0,))
        grid = ((2, 1),)
        assert rows_to_csv(run_codebook_bit_sweep(cfg, grid)) == rows_to_csv(run_codebook_bit_sweep(cfg, grid, jobs=3))

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


class TestTrialConfigValidation:
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
