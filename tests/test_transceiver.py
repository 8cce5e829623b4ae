import math

import numpy as np
import pytest

from conftest import random_misalignment
from ucamimo import (
    APPROXIMATE,
    EXACT_DISTANCE,
    ArrayConfig,
    Misalignment,
    approx_power_allocation,
    build_channel,
    build_codebook,
    closed_form_svd,
    dft_matrix,
    select_codebook_index,
    zf_rate,
    zf_sic_rate,
)
from ucamimo.design import PowerAllocation, allocated_capacity, water_fill
from ucamimo.spectrum import singular_values
from ucamimo.transceiver import (
    PrecoderMatrix,
    RateReport,
    SingularChannelError,
    codebook_rates_many,
    precoded_rate,
    precoder_from_angles,
)

SNR15 = 10**1.5


def design_point(n=8, dist=100.0):
    radius = {4: 0.3162, 8: 0.4451, 12: 0.5396, 16: 0.6176}[n]
    return ArrayConfig(n_antennas=n, wavelength=0.004, radius_tx=radius, radius_rx=radius, distance=dist)


class TestCodebook:
    def test_single_entry_is_origin(self):
        cb = build_codebook(0, 0)
        assert cb.size == 1
        assert cb.angles(1) == (pytest.approx(0.0, abs=1e-15), pytest.approx(0.0, abs=1e-15))

    def test_production_bit_budget(self):
        cb = build_codebook(5, 3)
        assert cb.size == 256
        assert cb.l1_bits + cb.l2_bits == 8

    def test_sine_domain_spacing(self):
        cb = build_codebook(5, 3)
        sines = np.sin(cb.theta_angles)
        np.testing.assert_allclose(np.diff(sines), 2.0 / 32.0, atol=1e-12)
        assert sines[0] == pytest.approx(-1.0 + 1.0 / 32.0, abs=1e-12)
        phi_sines = np.sin(cb.phi_angles)
        span = math.sin(0.175) - math.sin(-0.175)
        np.testing.assert_allclose(np.diff(phi_sines), span / 8.0, atol=1e-12)

    def test_linear_variant_uses_raw_angle_ranges(self):
        cb = build_codebook(3, 2, quantization="linear")
        np.testing.assert_allclose(np.diff(cb.theta_angles), 2 * math.pi / 8, atol=1e-12)
        assert cb.theta_angles[0] == pytest.approx(-math.pi + math.pi / 8, abs=1e-12)
        np.testing.assert_allclose(np.diff(cb.phi_angles), 0.35 / 4, atol=1e-12)

    def test_entry_order_is_azimuth_major(self):
        cb = build_codebook(1, 1)
        thetas, phis = cb.angle_pairs()
        assert thetas[0] == thetas[1] == cb.theta_angles[0]
        assert phis[0] == cb.phi_angles[0] and phis[1] == cb.phi_angles[1]
        assert cb.angles(2) == (pytest.approx(thetas[1]), pytest.approx(phis[1]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_codebook(-1, 0)
        with pytest.raises(ValueError):
            build_codebook(1, 1, quantization="other")
        with pytest.raises(ValueError):
            build_codebook(1, 1).angles(5)


class TestPrecoders:
    def test_zero_polar_shift_reduces_to_dft(self):
        cfg = design_point()
        f = precoder_from_angles(cfg, 1.1, 0.0)
        np.testing.assert_array_equal(f.matrix, dft_matrix(8))

    def test_unitary_for_random_angles(self):
        cfg = design_point()
        rng = np.random.default_rng(60)
        for _ in range(20):
            f = precoder_from_angles(cfg, float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(0, 0.17)))
            np.testing.assert_allclose(f.matrix.conj().T @ f.matrix, np.eye(8), atol=1e-10)

    def test_true_angles_reproduce_right_singular_matrix(self):
        cfg = design_point()
        rng = np.random.default_rng(61)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            f = precoder_from_angles(cfg, mis.theta_cs, mis.phi_cs)
            np.testing.assert_allclose(f.matrix, closed_form_svd(cfg, mis).v, atol=1e-14)

    def test_true_angle_precoder_achieves_capacity(self):
        cfg = design_point()
        rng = np.random.default_rng(62)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            sig = singular_values(8, cfg.beta, mis.theta_o)
            alloc = water_fill(sig, SNR15, 1.0)
            f = precoder_from_angles(cfg, mis.theta_cs, mis.phi_cs)
            rate = precoded_rate(h, f, alloc, "optimal").rate
            assert rate == pytest.approx(allocated_capacity(sig, alloc), abs=1e-9)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            PrecoderMatrix(matrix=np.array([[1.0, 0.0], [0.0, 0.5]]))


class TestRateReports:
    def test_rate_is_per_stream_sum(self):
        report = RateReport(scheme="x", per_stream=np.array([1.0, 2.5, 0.25]))
        assert report.rate == pytest.approx(3.75, rel=1e-15)

    def test_precoded_rate_matches_log_det(self):
        cfg = design_point()
        rng = np.random.default_rng(63)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            alloc = approx_power_allocation(cfg, 15.0)
            f = dft_matrix(8)
            report = precoded_rate(h, f, alloc, "identity")
            g = h.entries @ f @ np.diag(np.sqrt(alloc.powers / alloc.noise))
            ref = math.log2(np.linalg.det(np.eye(8) + g @ g.conj().T).real)
            assert report.rate == pytest.approx(ref, abs=1e-9)
            assert report.rate == pytest.approx(float(np.sum(report.per_stream)), abs=1e-12)


class TestCodebookSelection:
    def test_exact_grid_point_reaches_optimal_rate(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(4, 2)
        alloc = approx_power_allocation(cfg, 15.0)
        theta, phi = cb.angles(23)
        mis = Misalignment(theta_o=0.1, theta_cs=theta, phi_cs=phi)
        h = build_channel(cfg, mis)
        _, rate = select_codebook_index(h, cb, alloc)
        optimal = precoded_rate(h, precoder_from_angles(cfg, theta, phi), alloc, "optimal").rate
        assert rate == pytest.approx(optimal, abs=1e-9)

    def test_selection_matches_exhaustive_rescan(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(3, 2)
        alloc = approx_power_allocation(cfg, 15.0)
        rng = np.random.default_rng(64)
        for _ in range(5):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            index, rate = select_codebook_index(h, cb, alloc)
            # independent pass: per-entry log-det rates in shuffled order
            order = rng.permutation(cb.size)
            best_rate, best_index = -np.inf, None
            for pos in order:
                theta, phi = cb.angles(int(pos) + 1)
                f = precoder_from_angles(cfg, theta, phi)
                r = precoded_rate(h, f, alloc, "entry").rate
                if r > best_rate + 1e-12:
                    best_rate, best_index = r, int(pos) + 1
            assert rate == pytest.approx(best_rate, abs=1e-9)
            assert index == best_index

    def test_rates_vector_matches_entry_evaluation(self):
        cfg = design_point(4, 300.0)
        cb = build_codebook(2, 1)
        alloc = approx_power_allocation(cfg, 15.0)
        h = build_channel(cfg, Misalignment(theta_o=0.2, theta_cs=1.0, phi_cs=0.1))
        rates = codebook_rates_many(cfg, h.entries[None], cb, alloc)[0]
        for l in range(1, cb.size + 1):
            theta, phi = cb.angles(l)
            f = precoder_from_angles(cfg, theta, phi)
            assert rates[l - 1] == pytest.approx(precoded_rate(h, f, alloc, "entry").rate, abs=1e-9)

    def test_zero_shift_equality_with_dft_baseline(self):
        # with the zero entry available and no centre shift, the selected
        # precoder and the no-correction baseline coincide
        cfg = design_point(8, 300.0)
        cb = build_codebook(4, 0)
        alloc = approx_power_allocation(cfg, 15.0)
        rng = np.random.default_rng(65)
        for _ in range(10):
            mis = Misalignment(
                theta_o=float(rng.uniform(-0.17, 0.17)),
                theta_cs=float(rng.uniform(-np.pi, np.pi)),
                phi_cs=0.0,
                phi_x=float(rng.uniform(-0.17, 0.17)),
                phi_y=float(rng.uniform(-0.17, 0.17)),
            )
            h = build_channel(cfg, mis)
            _, rate = select_codebook_index(h, cb, alloc)
            baseline = precoded_rate(h, dft_matrix(8), alloc, "identity").rate
            assert rate == pytest.approx(baseline, abs=1e-9)

    def test_mean_beats_no_correction_baseline(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(5, 3)
        alloc = approx_power_allocation(cfg, 15.0)
        rng = np.random.default_rng(66)
        selected, baseline = [], []
        for _ in range(30):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            selected.append(select_codebook_index(h, cb, alloc)[1])
            baseline.append(precoded_rate(h, dft_matrix(8), alloc, "identity").rate)
        assert np.mean(selected) >= np.mean(baseline)

    def test_single_entry_codebook_selects_it(self):
        cfg = design_point(4)
        h = build_channel(cfg, Misalignment())
        alloc = approx_power_allocation(cfg, 15.0)
        index, rate = select_codebook_index(h, build_codebook(0, 0), alloc)
        assert index == 1
        assert rate > 0.0

    def test_ties_break_toward_smallest_index(self):
        # with zero polar bits every entry has phi = 0, so all rates tie
        cfg = design_point(8, 300.0)
        cb = build_codebook(3, 0)
        alloc = approx_power_allocation(cfg, 15.0)
        h = build_channel(cfg, Misalignment(theta_o=0.1, theta_cs=0.7, phi_cs=0.05))
        rates = codebook_rates_many(cfg, h.entries[None], cb, alloc)[0]
        assert np.ptp(rates) <= 1e-12
        index, _ = select_codebook_index(h, cb, alloc)
        assert index == 1


def stream_allocation(n, active):
    """Equal power on the first `active` streams, none on the others."""
    powers = np.zeros(n)
    powers[:active] = SNR15 / active
    return PowerAllocation(powers=powers, total=SNR15, noise=1.0)


class TestStackedCodebookScorer:
    def stack(self, cfg, model, count, seed=67):
        rng = np.random.default_rng(seed)
        channels = [build_channel(cfg, random_misalignment(rng, cfg.n_antennas), model) for _ in range(count)]
        return channels, np.stack([h.entries for h in channels])

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("active", [1, 8])
    def test_rows_equal_one_channel_scorer(self, count, model, active):
        cfg = design_point(8, 300.0)
        cb = build_codebook(3, 2)
        alloc = stream_allocation(8, active)
        channels, h = self.stack(cfg, model, count)
        rates = codebook_rates_many(cfg, h, cb, alloc)
        assert rates.shape == (count, cb.size)
        for row, channel in zip(rates, channels):
            np.testing.assert_array_equal(row, codebook_rates_many(cfg, channel.entries[None], cb, alloc)[0])

    def test_row_does_not_depend_on_its_position(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(3, 2)
        alloc = approx_power_allocation(cfg, 15.0)
        _, h = self.stack(cfg, EXACT_DISTANCE, 5)
        rates = codebook_rates_many(cfg, h, cb, alloc)
        order = np.array([3, 0, 4, 2, 1])
        np.testing.assert_array_equal(codebook_rates_many(cfg, h[order], cb, alloc), rates[order])
        np.testing.assert_array_equal(codebook_rates_many(cfg, h[2:3], cb, alloc), rates[2:3])


class TestApproxPowerAllocation:
    def test_matches_exact_waterfilling_without_rotation(self):
        cfg = design_point()
        alloc = approx_power_allocation(cfg, 15.0)
        exact = water_fill(singular_values(8, cfg.beta, 0.0), SNR15, 1.0)
        np.testing.assert_array_equal(alloc.powers, exact.powers)

    def test_small_loss_under_rotation(self):
        cfg = design_point()
        theta_o = math.pi / 16
        sig_true = singular_values(8, cfg.beta, theta_o)
        exact = water_fill(sig_true, SNR15, 1.0)
        approx = approx_power_allocation(cfg, 15.0)
        approx_on_true = allocated_capacity(sig_true, PowerAllocation(approx.powers, approx.total, approx.noise))
        loss = allocated_capacity(sig_true, exact) - approx_on_true
        assert 0.0 <= loss <= 0.005 * allocated_capacity(sig_true, exact)

    def test_tiny_beta_concentrates_power(self):
        cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=1e-4, radius_rx=1e-4, distance=100.0)
        alloc = approx_power_allocation(cfg, 15.0)
        assert alloc.powers[0] == pytest.approx(SNR15, rel=1e-9)
        np.testing.assert_array_equal(alloc.powers[1:], 0.0)


class TestZfReceivers:
    def test_zf_achieves_capacity_at_flat_point(self):
        cfg = design_point(4)
        rng = np.random.default_rng(67)
        mis = random_misalignment(rng, 4)
        h = build_channel(cfg, mis)
        sig = singular_values(4, cfg.beta, mis.theta_o)
        cap = allocated_capacity(sig, water_fill(sig, SNR15, 1.0))
        assert zf_rate(h, SNR15, 1.0).rate == pytest.approx(cap, abs=0.01)

    def test_scaled_unitary_equalises_streams(self):
        rng = np.random.default_rng(68)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        h = 3.0 * q
        report = zf_rate(h, 12.0, 1.0)
        np.testing.assert_allclose(report.per_stream, math.log2(1.0 + 2.0 * 9.0), atol=1e-9)

    def test_zf_below_capacity(self):
        cfg = design_point(8, 200.0)
        rng = np.random.default_rng(69)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            sig = singular_values(8, cfg.beta, mis.theta_o)
            cap = allocated_capacity(sig, water_fill(sig, SNR15, 1.0))
            assert zf_rate(h, SNR15, 1.0).rate <= cap + 1e-9

    def test_singular_channel_rejected(self):
        cfg = design_point(8)
        h = build_channel(cfg, Misalignment(theta_o=math.pi / 8))
        with pytest.raises(SingularChannelError):
            zf_rate(h, SNR15, 1.0)
        with pytest.raises(SingularChannelError):
            zf_sic_rate(h, SNR15, 1.0)


class TestZfSic:
    def test_sum_rate_equals_log_det(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            n = int(rng.choice([2, 4, 8]))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            p_total = float(rng.uniform(0.5, 100.0))
            noise = float(rng.uniform(0.2, 3.0))
            report = zf_sic_rate(h, p_total, noise)
            scale = p_total / (n * noise)
            ref = math.log2(np.linalg.det(np.eye(n) + scale * h.conj().T @ h).real)
            assert report.rate == pytest.approx(ref, abs=1e-9)

    def test_orthogonal_columns_match_plain_zf(self):
        rng = np.random.default_rng(71)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        h = 2.5 * q
        assert zf_sic_rate(h, 10.0, 1.0).rate == pytest.approx(zf_rate(h, 10.0, 1.0).rate, abs=1e-9)

    def test_close_to_capacity_at_design_point(self):
        cfg = design_point(8)
        rng = np.random.default_rng(72)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            sig = singular_values(8, cfg.beta, mis.theta_o)
            cap = allocated_capacity(sig, water_fill(sig, SNR15, 1.0))
            assert abs(zf_sic_rate(h, SNR15, 1.0).rate - cap) <= 0.1

    def test_sum_rate_independent_of_stream_order(self):
        rng = np.random.default_rng(73)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        base = zf_sic_rate(h, 5.0, 1.0).rate
        for _ in range(5):
            perm = rng.permutation(6)
            assert zf_sic_rate(h[:, perm], 5.0, 1.0).rate == pytest.approx(base, abs=1e-12)
