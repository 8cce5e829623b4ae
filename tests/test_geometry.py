import math

import numpy as np
import pytest

from conftest import random_config, random_misalignment
from ucamimo import ArrayConfig, Misalignment, ModelValidityError
from ucamimo.geometry import (
    attitude_matrix,
    center_vector,
    distance_approx,
    distance_exact,
    distance_matrix_exact,
    rotation_matrix,
    rx_antenna_position,
    rx_ring_harmonics,
    tx_antenna_position,
)


def mmwave_config(n=8):
    return ArrayConfig(n_antennas=n, wavelength=0.004, radius_tx=0.31, radius_rx=0.31, distance=100.0)


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        np.testing.assert_array_equal(rotation_matrix("xz", 0.0), np.eye(3))

    def test_inverse_rotation(self):
        r = rotation_matrix("xz", 0.83) @ rotation_matrix("xz", -0.83)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_quarter_turn_in_plane(self):
        # (xy, pi/2) sends the x unit vector to the y unit vector
        out = rotation_matrix("xy", math.pi / 2) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0, 0.0], atol=1e-15)

    def test_xz_matrix_layout(self):
        c, s = math.cos(0.4), math.sin(0.4)
        np.testing.assert_allclose(
            rotation_matrix("xz", 0.4), [[c, 0, -s], [0, 1, 0], [s, 0, c]]
        )

    @pytest.mark.parametrize("plane", ["xy", "xz", "yz"])
    def test_proper_rotation(self, plane):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = rotation_matrix(plane, float(rng.uniform(-10, 10)))
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-14)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-14)

    def test_bad_plane(self):
        with pytest.raises(ValueError):
            rotation_matrix("zz", 0.1)

    def test_nonfinite_angle(self):
        with pytest.raises(ValueError):
            rotation_matrix("xy", math.nan)


class TestConfigAndMisalignment:
    def test_odd_antenna_count_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=5, wavelength=0.004, radius_tx=0.3, radius_rx=0.3, distance=100)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=4, wavelength=0.0, radius_tx=0.3, radius_rx=0.3, distance=100)

    def test_beta_definition(self):
        cfg = ArrayConfig(n_antennas=4, wavelength=1.0, radius_tx=1.0, radius_rx=1.0, distance=2 * math.pi)
        assert cfg.beta == pytest.approx(1.0, rel=1e-15)

    def test_polar_shift_range_enforced(self):
        with pytest.raises(ValueError):
            Misalignment(phi_cs=-0.1)
        with pytest.raises(ValueError):
            Misalignment(phi_cs=math.pi / 2)

    def test_azimuth_range_enforced(self):
        with pytest.raises(ValueError):
            Misalignment(theta_cs=3.5)


class TestAntennaPositions:
    def test_tx_last_element_on_x_axis(self):
        cfg = mmwave_config(8)
        pos = tx_antenna_position(cfg, 8)
        np.testing.assert_allclose(pos.as_array(), [0.31, 0.0, 0.0], atol=1e-12)

    def test_tx_half_turn(self):
        cfg = mmwave_config(8)
        np.testing.assert_allclose(
            tx_antenna_position(cfg, 4).as_array(), [-0.31, 0.0, 0.0], atol=1e-12
        )

    def test_tx_quarter_turn(self):
        cfg = mmwave_config(8)
        np.testing.assert_allclose(
            tx_antenna_position(cfg, 2).as_array(), [0.0, 0.31, 0.0], atol=1e-12
        )

    def test_index_range_checked(self):
        cfg = mmwave_config(8)
        with pytest.raises(ValueError):
            tx_antenna_position(cfg, 0)
        with pytest.raises(ValueError):
            rx_antenna_position(cfg, Misalignment(), 9)

    def test_rx_aligned_last_element(self):
        cfg = mmwave_config(8)
        pos = rx_antenna_position(cfg, Misalignment(), 8)
        np.testing.assert_allclose(pos.as_array(), [0.31, 0.0, 100.0], atol=1e-12)

    def test_zero_polar_shift_centers_on_boresight(self):
        cfg = mmwave_config(8)
        for theta_cs in (-2.0, 0.4, 3.0):
            mis = Misalignment(theta_cs=max(min(theta_cs, math.pi), -math.pi))
            np.testing.assert_allclose(center_vector(cfg, mis), [0.0, 0.0, 100.0], atol=1e-12)

    def test_shift_frame_closed_form_matches_rotated_position(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            amps, phases = rx_ring_harmonics(cfg, mis)
            offset = cfg.distance * np.array([0.0, math.sin(mis.phi_cs), math.cos(mis.phi_cs)])
            for n in (1, cfg.n_antennas // 2, cfg.n_antennas):
                direct = rotation_matrix("xy", mis.theta_cs) @ rx_antenna_position(cfg, mis, n).as_array()
                closed = offset + amps * np.cos(2 * math.pi * n / cfg.n_antennas - phases)
                np.testing.assert_allclose(closed, direct, atol=1e-12)

    def test_center_vector_rotates_into_yz_plane(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas, small=1.2)
            rotated = rotation_matrix("xy", mis.theta_cs) @ center_vector(cfg, mis)
            expected = [0.0, cfg.distance * math.sin(mis.phi_cs), cfg.distance * math.cos(mis.phi_cs)]
            np.testing.assert_allclose(rotated, expected, atol=1e-12 * cfg.distance)

    def test_attitude_matrix_first_two_columns_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mis = random_misalignment(rng, 8, small=1.0)
            b = attitude_matrix(mis)
            assert float(np.sum(b[:, :2] ** 2)) == pytest.approx(2.0, abs=1e-12)


class TestDistanceExact:
    def test_facing_elements_aligned(self):
        cfg = mmwave_config(8)
        for n in range(1, 9):
            assert distance_exact(cfg, Misalignment(), n, n) == pytest.approx(100.0, abs=1e-12)

    def test_aligned_closed_form(self):
        # no misalignment: sqrt(D^2 + Rt^2 + Rr^2 - 2 Rt Rr cos(theta_n - theta_m))
        cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.25, radius_rx=0.4, distance=80.0)
        for n in range(1, 9):
            for m in range(1, 9):
                ang = 2 * math.pi * (n - m) / 8
                ref = math.sqrt(80.0**2 + 0.25**2 + 0.4**2 - 2 * 0.25 * 0.4 * math.cos(ang))
                assert distance_exact(cfg, Misalignment(), n, m) == pytest.approx(ref, rel=1e-14)

    def test_matches_coordinate_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cfg = random_config(rng, far_field=False)
            mis = random_misalignment(rng, cfg.n_antennas)
            n = int(rng.integers(1, cfg.n_antennas + 1))
            m = int(rng.integers(1, cfg.n_antennas + 1))
            ref = float(
                np.linalg.norm(
                    rx_antenna_position(cfg, mis, n).as_array()
                    - tx_antenna_position(cfg, m).as_array()
                )
            )
            assert abs(distance_exact(cfg, mis, n, m) - ref) <= 1e-12 * ref

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(7)
        cfg = random_config(rng)
        mis = random_misalignment(rng, cfg.n_antennas)
        mat = distance_matrix_exact(cfg, mis)
        for n in (1, 3, cfg.n_antennas):
            for m in (2, cfg.n_antennas):
                assert mat[n - 1, m - 1] == pytest.approx(distance_exact(cfg, mis, n, m), rel=1e-15)


class TestDistanceApprox:
    def test_zero_polar_shift_kills_tx_displacement(self):
        cfg = mmwave_config(8)
        mis = Misalignment(theta_o=0.1, theta_cs=1.0, phi_x=0.1, phi_y=-0.1)
        for m in range(1, 9):
            assert distance_approx(cfg, mis, 1, m).tau_t == 0.0

    def test_rotation_only_decomposition(self):
        cfg = mmwave_config(8)
        mis = Misalignment(theta_o=0.17)
        for n, m in ((1, 5), (3, 3), (8, 2)):
            dec = distance_approx(cfg, mis, n, m)
            ang = 2 * math.pi * (n - m) / 8 + 0.17
            assert dec.d_a == pytest.approx(100.0 - (0.31 * 0.31 / 100.0) * math.cos(ang), rel=1e-14)
            assert dec.tau_t == 0.0
            # the per-axis ring curvature terms cancel pairwise without tilt
            assert abs(dec.tau_r) < 1e-15

    def test_total_identity(self):
        rng = np.random.default_rng(8)
        cfg = random_config(rng)
        mis = random_misalignment(rng, cfg.n_antennas)
        dec = distance_approx(cfg, mis, 2, 3)
        assert dec.total == dec.d_a - dec.tau_t + dec.tau_r

    def test_rotation_only_error_is_second_order_remainder(self):
        # the separable model drops the constant (Rt^2+Rr^2)/(2D); after
        # removing it, only the second-order Taylor remainder is left
        cfg = mmwave_config(8)
        const = (cfg.radius_tx**2 + cfg.radius_rx**2) / (2 * cfg.distance)
        rng = np.random.default_rng(9)
        for _ in range(100):
            mis = Misalignment(theta_o=float(rng.uniform(-math.pi / 8, math.pi / 8)))
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            err = distance_exact(cfg, mis, n, m) - distance_approx(cfg, mis, n, m).total
            assert abs(err - const) <= 1e-5 * cfg.wavelength

    def test_general_error_bounds_at_production_scale(self):
        # bounds frozen from exact-distance comparisons at +-10 degree draws
        cfg = mmwave_config(8)
        rng = np.random.default_rng(10)
        for _ in range(40):
            mis = random_misalignment(rng, 8)
            errs = np.array(
                [
                    [
                        distance_exact(cfg, mis, n, m) - distance_approx(cfg, mis, n, m).total
                        for m in range(1, 9)
                    ]
                    for n in range(1, 9)
                ]
            )
            assert np.max(np.abs(errs)) <= 1.2e-3
            assert np.max(np.abs(errs - errs.mean())) <= 1.5e-4

    def test_error_decays_with_distance(self):
        mis = Misalignment(theta_o=0.1, theta_cs=0.9, phi_cs=0.12, phi_x=0.1, phi_y=-0.15)
        errs = []
        for dist in (1e2, 1e3, 1e4):
            cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.31, radius_rx=0.31, distance=dist)
            errs.append(
                max(
                    abs(distance_exact(cfg, mis, n, m) - distance_approx(cfg, mis, n, m).total)
                    for n in range(1, 9)
                    for m in range(1, 9)
                )
            )
        assert errs[0] > errs[1] > errs[2]

    def test_rotation_only_residual_decays_cubically(self):
        mis = Misalignment(theta_o=0.12)
        residuals = []
        for dist in (1e2, 1e3):
            cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.31, radius_rx=0.31, distance=dist)
            const = (cfg.radius_tx**2 + cfg.radius_rx**2) / (2 * dist)
            residuals.append(
                max(
                    abs(distance_exact(cfg, mis, n, m) - distance_approx(cfg, mis, n, m).total - const)
                    for n in range(1, 9)
                    for m in range(1, 9)
                )
            )
        assert residuals[0] / residuals[1] > 100.0

    def test_close_range_guard(self):
        cfg = ArrayConfig(n_antennas=4, wavelength=0.004, radius_tx=2.0, radius_rx=2.0, distance=10.0)
        with pytest.raises(ModelValidityError):
            distance_approx(cfg, Misalignment(), 1, 1)
        dec = distance_approx(cfg, Misalignment(), 1, 1, allow_close_range=True)
        assert math.isfinite(dec.total)
