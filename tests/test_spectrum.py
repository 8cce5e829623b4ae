import math

import numpy as np
import pytest

from conftest import bits
from ucamimo import ArrayConfig, singular_values
from ucamimo.channel import circulant_factor
from ucamimo.spectrum import leading_dominance_bound, singular_values_many


def sigma_n4_closed(beta):
    """Hand-derived spectrum for four antennas without rotation."""
    return np.array(
        [
            abs(2.0 + 2.0 * math.cos(beta)),
            2.0 * abs(math.sin(beta)),
            abs(2.0 * math.cos(beta) - 2.0),
            2.0 * abs(math.sin(beta)),
        ]
    )


class TestSingularValue:
    def test_zero_beta_concentrates_on_first_mode(self):
        sig = singular_values(8, 0.0, 0.0)
        assert sig[0] == pytest.approx(8.0, abs=1e-12)
        assert np.max(sig[1:]) <= 1e-10

    def test_half_mode_null_at_max_rotation(self):
        for beta in (0.5, 2.0, 3.1, 7.7):
            assert singular_values(8, beta, math.pi / 8)[4] <= 1e-10

    def test_four_antenna_closed_form(self):
        rng = np.random.default_rng(40)
        for beta in rng.uniform(0.0, 10.0, 25):
            np.testing.assert_allclose(
                singular_values(4, float(beta), 0.0), sigma_n4_closed(float(beta)), atol=1e-12
            )

    def test_flat_spectrum_at_quarter_period(self):
        # all four values coincide (at 2) exactly at beta = pi/2
        np.testing.assert_allclose(singular_values(4, math.pi / 2, 0.0), 2.0, atol=1e-12)

    def test_index_and_parity_validation(self):
        with pytest.raises(ValueError):
            singular_values(7, 1.0, 0.0)
        with pytest.raises(ValueError):
            singular_values_many(5, [1.0], 0.0)
        with pytest.raises(ValueError):
            singular_values(8, -0.5, 0.0)

    def test_many_matches_single(self):
        # one kernel: a stacked row is bit-for-bit the scalar call
        betas = np.array([0.3, 1.7, 4.2])
        stacked = singular_values_many(8, betas, 0.11)
        for g, beta in enumerate(betas):
            np.testing.assert_array_equal(stacked[g], singular_values(8, float(beta), 0.11))

    def test_many_broadcasts_beta_against_rotation(self):
        thetas = np.array([-0.3, 0.0, 0.25])
        by_theta = singular_values_many(16, 5.9, thetas)
        assert by_theta.shape == (3, 16)
        for g, theta in enumerate(thetas):
            np.testing.assert_array_equal(by_theta[g], singular_values(16, 5.9, float(theta)))
        grid = singular_values_many(16, np.array([[1.0], [5.9]]), thetas)
        assert grid.shape == (2, 3, 16)
        np.testing.assert_array_equal(grid[1], by_theta)

    @pytest.mark.parametrize("n", [2, 4, 8, 12, 16, 64])
    def test_phasors_from_cos_and_sin_keep_the_bits_of_the_complex_exponential(self, n):
        # the kernel writes cos and sin into the phasors' real and imaginary
        # parts; on the design grid this must give the bits of exp(1j*x)
        grid = np.arange(0.01, 14.005, 0.01)
        thetas = np.array([0.0, math.pi / n, -math.pi / n, 0.37 * math.pi / n, 1.0])
        angles = 2.0 * math.pi * np.arange(n) / n + thetas[:, None, None]
        expected = np.abs(np.fft.fft(np.exp(1j * grid[:, None] * np.cos(angles)), axis=-1))
        got = singular_values_many(n, grid, thetas[:, None])
        np.testing.assert_array_equal(bits(got), bits(expected))

    def test_matches_circulant_eigenvalues(self):
        # independent code path: direct sum vs FFT of the circulant core
        for n, beta, theta_o in ((4, 1.54, 0.0), (8, 3.09, 0.17), (16, 5.98, -0.1)):
            radius = math.sqrt(beta * 0.004 * 100.0 / (2 * math.pi))
            cfg = ArrayConfig(n_antennas=n, wavelength=0.004, radius_tx=radius, radius_rx=radius, distance=100.0)
            _, delta = circulant_factor(cfg, theta_o)
            np.testing.assert_allclose(singular_values(n, cfg.beta, theta_o), np.abs(delta), atol=1e-10)


class TestSpectrumSweep:
    def test_degenerate_point(self):
        sig = singular_values_many(8, [0.0], 0.0)
        np.testing.assert_allclose(sig, [[8, 0, 0, 0, 0, 0, 0, 0]], atol=1e-12)

    def test_grid_order_and_energy(self):
        grid = np.arange(0.0, 6.0, 0.01)
        sig = singular_values_many(4, grid, 0.0)
        assert sig.shape == (grid.size, 4)
        np.testing.assert_allclose(sig, [sigma_n4_closed(b) for b in grid], atol=1e-12)
        np.testing.assert_allclose(np.sum(sig[::25] ** 2, axis=-1), 16.0, atol=1e-9)

    def test_all_modes_cross_near_quarter_period(self):
        grid = np.arange(0.0, 6.0, 0.01)
        sig = singular_values_many(4, grid, 0.0)
        best = int(np.argmin(np.max(sig, axis=-1) - np.min(sig, axis=-1)))
        assert 1.45 <= grid[best] <= 1.7
        np.testing.assert_allclose(sig[best], 2.0, atol=0.05)


class TestStructureChecks:
    def test_all_pass_at_nominal_point(self):
        # pairing holds at the N = 8 design point, which lies beyond the dominance bound
        sig = singular_values(8, 3.09, 0.0)
        np.testing.assert_allclose(sig[1:], sig[1:][::-1], atol=1e-10)
        assert 3.09 > leading_dominance_bound(8, 0.0)

    def test_dominance_applies_below_bound(self):
        bound = leading_dominance_bound(4, math.pi / 8)
        total = sum(abs(math.cos(2 * math.pi * i / 4 + math.pi / 8)) for i in range(4))
        assert bound == pytest.approx(math.pi * 4 / (4 * total), rel=1e-12)
        assert bound > 0.5
        sig = singular_values(4, 0.5, math.pi / 8)
        assert sig[0] >= np.max(sig[1:])

    def test_rotation_sign_symmetry(self):
        for theta in (0.1, math.pi / 8, 0.3):
            np.testing.assert_allclose(
                singular_values(8, 2.0, theta), singular_values(8, 2.0, -theta), atol=1e-10
            )

    def test_half_mode_null_applies_at_bound(self):
        for theta in (math.pi / 8, -math.pi / 8):
            assert singular_values(8, 2.0, theta)[4] <= 1e-10

    def test_small_beta_limit_applies(self):
        for beta in (0.0, 1e-8):
            sig = singular_values(8, beta, 0.05)
            assert abs(sig[0] - 8) <= 1e-6
            assert np.max(sig[1:]) <= 1e-6

    def test_pair_symmetry_random_grid(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.choice([4, 6, 8, 12, 16]))
            sig = singular_values(n, float(rng.uniform(0, 10)), float(rng.uniform(-np.pi / n, np.pi / n)))
            np.testing.assert_allclose(sig[1:], sig[1:][::-1], atol=1e-10)

    def test_odd_count_rejected(self):
        for n in (1, 3, 5):
            with pytest.raises(ValueError):
                leading_dominance_bound(n, 0.0)
