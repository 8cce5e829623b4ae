import math
import re

import numpy as np
import pytest

from conftest import (
    coordinate_distances,
    element_coordinates,
    random_config,
    random_misalignment,
    separable_distances,
)
from ucamimo import ArrayConfig, Misalignment, ModelValidityError, build_channels
from ucamimo.geometry import (
    attitude_matrix,
    distance_matrix_exact,
    rotation_matrix,
    rx_displacement,
    rx_ring_harmonics,
    tx_displacement,
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

    @pytest.mark.parametrize("n", [4.0, np.float64(4.0), "4"])
    def test_non_integer_antenna_count_rejected(self, n):
        with pytest.raises(ValueError, match="n_antennas must be an even integer >= 2"):
            ArrayConfig(n_antennas=n, wavelength=0.004, radius_tx=0.3, radius_rx=0.3, distance=100)
        cfg = ArrayConfig(n_antennas=np.int32(4), wavelength=0.004, radius_tx=0.3, radius_rx=0.3, distance=100)
        assert cfg.antenna_angles.shape == (4,)

    def test_nonpositive_dimensions_rejected(self):
        with pytest.raises(ValueError):
            ArrayConfig(n_antennas=4, wavelength=0.0, radius_tx=0.3, radius_rx=0.3, distance=100)

    @pytest.mark.parametrize("wavelength, distance, radius", [
        (1e-307, 100.0, 0.3),  # the phase 2*pi*D/wavelength overflows
        (1.0, 1e308, 1e308),  # D + R_t + R_r itself overflows
        (np.float64(1e-307), np.float64(100.0), np.float64(0.3)),  # NumPy floats would warn as they overflow
    ])
    def test_phase_beyond_float_range_rejected(self, wavelength, distance, radius):
        # the channel phasors overflowed, with a RuntimeWarning, before the unit-magnitude check
        # rejected the channel; the suite turns warnings into errors, so this also shows none is raised
        message = f"the phases at wavelength {wavelength:g} m and distance {distance:g} m are outside"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            ArrayConfig(n_antennas=4, wavelength=wavelength, radius_tx=radius, radius_rx=radius, distance=distance)

    def test_finite_phase_accepted(self):
        # 2*pi*(D + R_t + R_r)/wavelength is 6.3e300: the check bounds the phase, not the wavelength
        ArrayConfig(n_antennas=4, wavelength=1e-300, radius_tx=1e-10, radius_rx=1e-10, distance=1.0)

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
    """The coordinate oracle in conftest, and the production closed forms checked against it."""

    def test_tx_last_element_on_x_axis(self):
        tx, _ = element_coordinates(mmwave_config(8), Misalignment())
        np.testing.assert_allclose(tx[7], [0.31, 0.0, 0.0], atol=1e-12)

    def test_tx_half_turn(self):
        tx, _ = element_coordinates(mmwave_config(8), Misalignment())
        np.testing.assert_allclose(tx[3], [-0.31, 0.0, 0.0], atol=1e-12)

    def test_tx_quarter_turn(self):
        tx, _ = element_coordinates(mmwave_config(8), Misalignment())
        np.testing.assert_allclose(tx[1], [0.0, 0.31, 0.0], atol=1e-12)

    def test_rx_aligned_last_element(self):
        _, rx = element_coordinates(mmwave_config(8), Misalignment())
        np.testing.assert_allclose(rx[7], [0.31, 0.0, 100.0], atol=1e-12)

    def test_zero_polar_shift_centers_on_boresight(self):
        cfg = mmwave_config(8)
        for theta_cs in (-2.0, 0.4, 3.0):
            mis = Misalignment(theta_cs=max(min(theta_cs, math.pi), -math.pi))
            _, rx = element_coordinates(cfg, mis)
            np.testing.assert_allclose(rx.mean(axis=0), [0.0, 0.0, 100.0], atol=1e-12)

    def test_shift_frame_closed_form_matches_rotated_position(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            amps, phases = rx_ring_harmonics(cfg, mis)
            offset = cfg.distance * np.array([0.0, math.sin(mis.phi_cs), math.cos(mis.phi_cs)])
            _, rx = element_coordinates(cfg, mis)
            for n in (1, cfg.n_antennas // 2, cfg.n_antennas):
                direct = rotation_matrix("xy", mis.theta_cs) @ rx[n - 1]
                closed = offset + amps * np.cos(2 * math.pi * n / cfg.n_antennas - phases)
                np.testing.assert_allclose(closed, direct, atol=1e-12)

    def test_center_vector_rotates_into_yz_plane(self):
        # the ring's elements sum to zero, so the mean of the Rx coordinates is the shifted centre
        rng = np.random.default_rng(4)
        for _ in range(50):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas, small=1.2)
            _, rx = element_coordinates(cfg, mis)
            rotated = rotation_matrix("xy", mis.theta_cs) @ rx.mean(axis=0)
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
        dist = distance_matrix_exact(mmwave_config(8), Misalignment())
        for n in range(1, 9):
            assert dist[n - 1, n - 1] == pytest.approx(100.0, abs=1e-12)

    def test_aligned_closed_form(self):
        # no misalignment: sqrt(D^2 + Rt^2 + Rr^2 - 2 Rt Rr cos(theta_n - theta_m))
        cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.25, radius_rx=0.4, distance=80.0)
        dist = distance_matrix_exact(cfg, Misalignment())
        for n in range(1, 9):
            for m in range(1, 9):
                ang = 2 * math.pi * (n - m) / 8
                ref = math.sqrt(80.0**2 + 0.25**2 + 0.4**2 - 2 * 0.25 * 0.4 * math.cos(ang))
                assert dist[n - 1, m - 1] == pytest.approx(ref, rel=1e-14)

    def test_matches_coordinate_norm(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cfg = random_config(rng, far_field=False)
            mis = random_misalignment(rng, cfg.n_antennas)
            n = int(rng.integers(1, cfg.n_antennas + 1))
            m = int(rng.integers(1, cfg.n_antennas + 1))
            ref = coordinate_distances(cfg, mis)[n - 1, m - 1]
            assert abs(distance_matrix_exact(cfg, mis)[n - 1, m - 1] - ref) <= 1e-12 * ref


class TestDistanceApprox:
    def test_zero_polar_shift_kills_tx_displacement(self):
        cfg = mmwave_config(8)
        mis = Misalignment(theta_o=0.1, theta_cs=1.0, phi_x=0.1, phi_y=-0.1)
        assert (tx_displacement(cfg, mis.theta_cs, mis.phi_cs) == 0.0).all()

    def test_rotation_only_decomposition(self):
        cfg = mmwave_config(8)
        mis = Misalignment(theta_o=0.17)
        dist = separable_distances(cfg, mis)
        tau_t = tx_displacement(cfg, mis.theta_cs, mis.phi_cs)
        tau_r = rx_displacement(cfg, mis)
        for n, m in ((1, 5), (3, 3), (8, 2)):
            ang = 2 * math.pi * (n - m) / 8 + 0.17
            assert dist[n - 1, m - 1] == pytest.approx(100.0 - (0.31 * 0.31 / 100.0) * math.cos(ang), rel=1e-14)
            assert tau_t[m - 1] == 0.0
            # an untilted, unshifted ring has no offset along the shift direction
            assert abs(tau_r[n - 1]) < 1e-15

    def test_separable_channel_is_the_phasor_of_the_distances(self):
        # the channel assembles T_r H_a T_t^H, whose phases are the separable distances
        rng = np.random.default_rng(8)
        for _ in range(20):
            cfg = random_config(rng)
            mis = random_misalignment(rng, cfg.n_antennas)
            k = 2 * math.pi / cfg.wavelength
            expected = np.exp(-1j * k * separable_distances(cfg, mis))
            np.testing.assert_allclose(build_channels(cfg, mis), expected, rtol=0.0, atol=1e-14 * k * cfg.distance)

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
            err = (distance_matrix_exact(cfg, mis) - separable_distances(cfg, mis))[n - 1, m - 1]
            assert abs(err - const) <= 1e-5 * cfg.wavelength

    def test_general_error_bounds_at_production_scale(self):
        # bounds frozen from exact-distance comparisons at +-10 degree draws
        cfg = mmwave_config(8)
        rng = np.random.default_rng(10)
        for _ in range(40):
            mis = random_misalignment(rng, 8)
            errs = distance_matrix_exact(cfg, mis) - separable_distances(cfg, mis)
            assert np.max(np.abs(errs)) <= 1.2e-3
            assert np.max(np.abs(errs - errs.mean())) <= 1.5e-4

    def test_error_decays_with_distance(self):
        mis = Misalignment(theta_o=0.1, theta_cs=0.9, phi_cs=0.12, phi_x=0.1, phi_y=-0.15)
        errs = []
        for dist in (1e2, 1e3, 1e4):
            cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.31, radius_rx=0.31, distance=dist)
            errs.append(np.max(np.abs(distance_matrix_exact(cfg, mis) - separable_distances(cfg, mis))))
        assert errs[0] > errs[1] > errs[2]

    def test_rotation_only_residual_decays_cubically(self):
        mis = Misalignment(theta_o=0.12)
        residuals = []
        for dist in (1e2, 1e3):
            cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.31, radius_rx=0.31, distance=dist)
            const = (cfg.radius_tx**2 + cfg.radius_rx**2) / (2 * dist)
            err = distance_matrix_exact(cfg, mis) - separable_distances(cfg, mis)
            residuals.append(np.max(np.abs(err - const)))
        assert residuals[0] / residuals[1] > 100.0

    def test_close_range_guard(self):
        cfg = ArrayConfig(n_antennas=4, wavelength=0.004, radius_tx=2.0, radius_rx=2.0, distance=10.0)
        with pytest.raises(ModelValidityError):
            separable_distances(cfg, Misalignment())
        assert np.isfinite(distance_matrix_exact(cfg, Misalignment())).all()
