import math

import numpy as np
import pytest

from conftest import random_config, random_misalignment
from ucamimo import (
    APPROXIMATE,
    EXACT_DISTANCE,
    ArrayConfig,
    Misalignment,
    ModelValidityError,
    build_channel,
    circulant_factor,
    closed_form_svd,
    dft_matrix,
    numerical_svd,
)
from ucamimo.geometry import distance_matrix_exact, rx_displacement, tx_displacement
from ucamimo.spectrum import singular_values


def mmwave_config(n=8, radius=0.31, dist=100.0):
    return ArrayConfig(n_antennas=n, wavelength=0.004, radius_tx=radius, radius_rx=radius, distance=dist)


class TestDftMatrix:
    def test_single_point(self):
        np.testing.assert_array_equal(dft_matrix(1), [[1.0 + 0.0j]])

    def test_two_point(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(dft_matrix(2), expected, atol=1e-15)

    def test_unitary(self):
        q = dft_matrix(8)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(8), atol=1e-14)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            dft_matrix(0)


class TestBuildChannel:
    def test_unit_modulus_entries(self):
        rng = np.random.default_rng(20)
        for model in (APPROXIMATE, EXACT_DISTANCE):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            h = build_channel(cfg, mis, model)
            np.testing.assert_allclose(np.abs(h.entries), 1.0, atol=1e-12)

    def test_aligned_first_column_phases(self):
        # rotation-free core: exp(-j*2*pi*D/lambda) * exp(+j*beta*cos(theta_n - theta_1))
        cfg = mmwave_config(8)
        h = build_channel(cfg, Misalignment())
        expected = np.exp(-1j * 2 * np.pi * cfg.distance / cfg.wavelength) * np.exp(
            1j * cfg.beta * np.cos(2 * np.pi * np.arange(8) / 8)
        )
        np.testing.assert_allclose(h.entries[:, 0], expected, atol=1e-12)

    def test_circulant_structure_is_exact(self):
        cfg = mmwave_config(8)
        h_a, _ = circulant_factor(cfg, 0.21)
        col = h_a[:, 0]
        for n in range(8):
            for m in range(8):
                assert h_a[n, m] == col[(n - m) % 8]

    def test_phase_factorisation_reconstructs(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            h = build_channel(cfg, mis)
            h_a, _ = circulant_factor(cfg, mis.theta_o)
            k = -1j * 2 * np.pi / cfg.wavelength
            t_t = np.exp(k * tx_displacement(cfg, mis.theta_cs, mis.phi_cs))
            t_r = np.exp(k * rx_displacement(cfg, mis))
            recon = t_r[:, None] * h_a * t_t.conj()[None, :]
            np.testing.assert_allclose(h.entries, recon, atol=1e-12)

    def test_exact_model_uses_exact_distances(self):
        rng = np.random.default_rng(22)
        cfg = random_config(rng)
        mis = random_misalignment(rng, cfg.n_antennas)
        h = build_channel(cfg, mis, EXACT_DISTANCE)
        expected = np.exp(-1j * 2 * np.pi / cfg.wavelength * distance_matrix_exact(cfg, mis))
        np.testing.assert_allclose(h.entries, expected, atol=1e-12)

    def test_exact_vs_approximate_phase_spread_small_angles(self):
        # after removing the best common phase, the models agree closely
        # for small misalignments (bound frozen from oracle runs at +-2 deg)
        cfg = mmwave_config(8)
        rng = np.random.default_rng(23)
        small = math.radians(2.0)
        worst = 0.0
        for _ in range(25):
            mis = random_misalignment(rng, 8, small=small)
            exact = build_channel(cfg, mis, EXACT_DISTANCE).entries
            approx = build_channel(cfg, mis).entries
            z = exact * np.conj(approx)
            zbar = z.mean()
            spread = np.max(np.abs(np.angle(z * np.conj(zbar / abs(zbar)))))
            worst = max(worst, spread)
        assert worst <= 2 * math.pi * 1e-3

    def test_close_range_guard_propagates(self):
        cfg = ArrayConfig(n_antennas=4, wavelength=0.004, radius_tx=2.0, radius_rx=2.0, distance=10.0)
        with pytest.raises(ModelValidityError):
            build_channel(cfg, Misalignment())
        h = build_channel(cfg, Misalignment(), allow_close_range=True)
        np.testing.assert_allclose(np.abs(h.entries), 1.0, atol=1e-12)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_channel(mmwave_config(), Misalignment(), "other")


class TestCirculantFactor:
    def test_eigendecomposition(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            cfg = random_config(rng)
            theta_o = float(rng.uniform(-np.pi / cfg.n_antennas, np.pi / cfg.n_antennas))
            h_a, delta = circulant_factor(cfg, theta_o)
            q = dft_matrix(cfg.n_antennas)
            np.testing.assert_allclose(h_a, q @ np.diag(delta) @ q.conj().T, atol=1e-10)

    def test_rank_collapse_at_tiny_beta(self):
        cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=1e-6, radius_rx=1e-6, distance=100.0)
        _, delta = circulant_factor(cfg, 0.0)
        lead = 8 * np.exp(-1j * 2 * np.pi * cfg.distance / cfg.wavelength)
        assert abs(delta[0] - lead) <= 1e-6
        assert np.max(np.abs(delta[1:])) <= 1e-6

    def test_eigenvalue_magnitudes_match_direct_formula(self):
        cfg = mmwave_config(4)
        _, delta = circulant_factor(cfg, 0.0)
        np.testing.assert_allclose(
            np.abs(delta), singular_values(4, cfg.beta, 0.0), atol=1e-10
        )


class TestClosedFormSvd:
    def test_aligned_factors(self):
        cfg = mmwave_config(8)
        triple = closed_form_svd(cfg, Misalignment())
        q = dft_matrix(8)
        _, delta = circulant_factor(cfg, 0.0)
        s = delta / np.abs(delta)
        np.testing.assert_allclose(triple.v, q, atol=1e-14)
        np.testing.assert_allclose(triple.u, q * s[None, :], atol=1e-14)

    def test_unitarity_and_reconstruction(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            h = build_channel(cfg, mis)
            triple = closed_form_svd(cfg, mis)
            eye = np.eye(cfg.n_antennas)
            assert np.max(np.abs(triple.u.conj().T @ triple.u - eye)) <= 1e-10
            assert np.max(np.abs(triple.v.conj().T @ triple.v - eye)) <= 1e-10
            assert np.max(np.abs(triple.reconstruct() - h.entries)) <= 1e-10

    def test_matches_numerical_svd(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            closed = np.sort(closed_form_svd(cfg, mis).sigma)
            numeric = np.sort(numerical_svd(build_channel(cfg, mis).entries).sigma)
            np.testing.assert_allclose(closed, numeric, atol=1e-9)

    def test_sigma_independent_of_tilt_and_shift(self):
        cfg = mmwave_config(8)
        rng = np.random.default_rng(27)
        theta_o = 0.21
        reference = closed_form_svd(cfg, Misalignment(theta_o=theta_o)).sigma
        for _ in range(100):
            mis = Misalignment(
                theta_o=theta_o,
                theta_cs=float(rng.uniform(-np.pi, np.pi)),
                phi_cs=float(rng.uniform(0, 0.17)),
                phi_x=float(rng.uniform(-0.17, 0.17)),
                phi_y=float(rng.uniform(-0.17, 0.17)),
            )
            np.testing.assert_allclose(closed_form_svd(cfg, mis).sigma, reference, atol=1e-10)

    def test_zero_singular_value_keeps_u_unitary(self):
        cfg = mmwave_config(8)
        triple = closed_form_svd(cfg, Misalignment(theta_o=math.pi / 8))
        assert np.min(triple.sigma) <= 1e-12
        np.testing.assert_allclose(triple.u.conj().T @ triple.u, np.eye(8), atol=1e-10)

    def test_energy_identity(self):
        rng = np.random.default_rng(28)
        for _ in range(20):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            sigma = closed_form_svd(cfg, mis).sigma
            assert float(np.sum(sigma**2)) == pytest.approx(cfg.n_antennas**2, abs=1e-9)

    def test_capacity_invariant_under_phase_factors(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            h = build_channel(cfg, mis).entries
            h_a, _ = circulant_factor(cfg, mis.theta_o)
            scale = 10**1.5 / (cfg.n_antennas * 1.0)
            eye = np.eye(cfg.n_antennas)
            cap_h = np.log2(np.linalg.det(eye + scale * h @ h.conj().T).real)
            cap_a = np.log2(np.linalg.det(eye + scale * h_a @ h_a.conj().T).real)
            assert cap_h == pytest.approx(cap_a, abs=1e-9)


class TestNumericalSvd:
    def test_identity(self):
        np.testing.assert_allclose(numerical_svd(np.eye(5)).sigma, np.ones(5), atol=1e-14)

    def test_diagonal(self):
        triple = numerical_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(triple.sigma, [3.0, 1.0], atol=1e-14)

    def test_random_unitary_has_unit_spectrum(self):
        rng = np.random.default_rng(30)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q, _ = np.linalg.qr(m)
        np.testing.assert_allclose(numerical_svd(q).sigma, np.ones(8), atol=1e-10)

    def test_sorted_descending_and_reconstructs(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        triple = numerical_svd(m)
        assert np.all(np.diff(triple.sigma) <= 0)
        np.testing.assert_allclose(triple.reconstruct(), m, atol=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerical_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(3, 4, 4), (4,), ()])
    def test_rejects_non_matrix_input(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            numerical_svd(np.ones(shape))
