import math
import warnings

import numpy as np
import pytest

from ucamimo import capacity, condition_number, radii_from_beta, search_beta_opt, water_fill
from ucamimo.design import TIE_TOLERANCE_BITS, allocated_capacity
from ucamimo.spectrum import singular_values

SNR15 = 10**1.5


def reference_water_fill(sigmas, p_total, noise):
    """Water-filling by the scalar active-set loop, kept as the reference.

    Scans active-set sizes from the largest down and takes the first whose
    level lies above its weakest stream's inverse gain.  Accurate to
    rounding while every positive gain has noise/sigma^2 <= p_total; beyond
    that its level cancels against the inverse gains.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    active = sigmas > 0.0
    inv_gain = np.full(sigmas.shape, np.inf)
    inv_gain[active] = noise / sigmas[active] ** 2
    order = np.argsort(inv_gain, kind="stable")
    sorted_inv = inv_gain[order]
    powers = np.zeros_like(sigmas)
    for size in range(int(np.count_nonzero(active)), 0, -1):
        level = (p_total + float(np.sum(sorted_inv[:size]))) / size
        if level > sorted_inv[size - 1]:
            chosen = order[:size]
            powers[chosen] = level - inv_gain[chosen]
            break
    return powers


def random_gain_stack(rng, n, rows, smallest):
    """Gains of at least `smallest`, with some zeroed and some tied."""
    gains = smallest * rng.uniform(1.0, 30.0, size=(rows, n))
    gains[rng.random((rows, n)) < 0.2] = 0.0
    ties = rng.random((rows, n)) < 0.2
    gains[ties] = gains[:, :1].repeat(n, axis=1)[ties]
    gains[:, rng.integers(n)] = smallest * rng.uniform(1.0, 30.0, size=rows)
    return gains


def assert_kkt(sigmas, powers, p_total, noise):
    """Budget, equal water level over active streams, none below it idle."""
    assert float(np.sum(powers)) == pytest.approx(p_total, rel=1e-9)
    active = powers > 0.0
    levels = powers[active] + noise / sigmas[active] ** 2
    assert np.ptp(levels) <= 1e-12 * np.max(levels)
    inactive = ~active & (sigmas > 0)
    if np.any(inactive):
        assert np.min(noise / sigmas[inactive] ** 2) >= np.max(levels) * (1.0 - 1e-12)


class TestWaterFill:
    def test_equal_gains_get_equal_power(self):
        alloc = water_fill(np.full(4, 2.0), 10.0, 1.0)
        np.testing.assert_allclose(alloc.powers, 2.5, atol=1e-12)

    def test_single_active_stream(self):
        sigmas = np.array([8.0, 0.0, 0.0, 0.0])
        alloc = water_fill(sigmas, SNR15, 1.0)
        np.testing.assert_array_equal(alloc.powers[1:], 0.0)
        assert alloc.powers[0] == pytest.approx(SNR15, rel=1e-12)
        assert capacity(sigmas, SNR15, 1.0) == pytest.approx(math.log2(1.0 + SNR15 * 64.0), rel=1e-12)

    def test_two_stream_hand_solution(self):
        # level = (1 + 1/4 + 1)/2 = 1.125 -> powers (0.875, 0.125)
        alloc = water_fill(np.array([2.0, 1.0]), 1.0, 1.0)
        np.testing.assert_allclose(alloc.powers, [0.875, 0.125], atol=1e-12)

    def test_weak_streams_get_exact_zero(self):
        alloc = water_fill(np.array([5.0, 1e-3, 0.0]), 1.0, 1.0)
        assert alloc.powers[1] == 0.0
        assert alloc.powers[2] == 0.0

    def test_kkt_conditions_random(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            sigmas = rng.uniform(0.0, 5.0, size=rng.integers(2, 17))
            if not np.any(sigmas > 0):
                continue
            p_total = float(rng.uniform(0.1, 100.0))
            noise = float(rng.uniform(0.1, 4.0))
            assert_kkt(sigmas, water_fill(sigmas, p_total, noise).powers, p_total, noise)

    def test_beats_equal_split(self):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            sigmas = rng.uniform(0.0, 4.0, size=8)
            sigmas[0] = max(sigmas[0], 0.1)
            wf = capacity(sigmas, 10.0, 1.0)
            eq = float(np.sum(np.log2(1.0 + (10.0 / 8) * sigmas**2)))
            assert wf >= eq - 1e-12

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(52)
        for n in range(2, 65):
            p_total = float(10.0 ** rng.uniform(-1.0, 3.0))
            noise = float(rng.uniform(0.1, 4.0))
            stack = random_gain_stack(rng, n, 6, math.sqrt(noise / p_total))
            caps = capacity(stack, p_total, noise)
            for sigmas, cap in zip(stack, caps):
                expected = reference_water_fill(sigmas, p_total, noise)
                powers = water_fill(sigmas, p_total, noise).powers
                np.testing.assert_allclose(powers, expected, rtol=0.0, atol=1e-12 * p_total)
                ref_cap = float(np.sum(np.log2(1.0 + expected * sigmas**2 / noise)))
                assert cap == pytest.approx(ref_cap, rel=1e-12)

    def test_kkt_conditions_at_low_snr(self):
        # inverse gains 1e6 to 1e12 times the budget, where the reference
        # loop loses digits to cancellation
        rng = np.random.default_rng(53)
        for n in range(2, 65):
            p_total = float(10.0 ** rng.uniform(-2.0, 1.0))
            noise = float(rng.uniform(0.1, 4.0))
            smallest = math.sqrt(noise / p_total) * 10.0 ** rng.uniform(-6.0, -3.0)
            stack = random_gain_stack(rng, n, 6, smallest)
            for sigmas in stack:
                assert_kkt(sigmas, water_fill(sigmas, p_total, noise).powers, p_total, noise)

    def test_low_snr_equal_gains(self):
        alloc = water_fill(np.full(16, 1e-4), 31.6, 1.0)
        np.testing.assert_allclose(alloc.powers, 31.6 / 16, rtol=1e-15)

    def test_underflowing_gain_gets_zero_power_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alloc = water_fill(np.array([1.0, 1e-170]), 31.6, 1.0)
        np.testing.assert_array_equal(alloc.powers, [31.6, 0.0])

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            water_fill(np.zeros(4), 1.0, 1.0)
        with pytest.raises(ValueError):
            water_fill(np.ones(4), 0.0, 1.0)
        with pytest.raises(ValueError):
            water_fill(np.array([-1.0, 2.0]), 1.0, 1.0)


class TestCapacity:
    def test_stack_gives_one_capacity_per_row(self):
        rng = np.random.default_rng(54)
        stack = rng.uniform(0.0, 4.0, size=(50, 8))
        caps = capacity(stack, SNR15, 1.0)
        assert caps.shape == (50,)
        np.testing.assert_array_equal(caps, [capacity(row, SNR15, 1.0) for row in stack])
        assert isinstance(capacity(stack[0], SNR15, 1.0), float)

    def test_stack_with_a_dead_row_rejected(self):
        with pytest.raises(ValueError):
            capacity(np.array([[1.0, 2.0], [0.0, 0.0]]), SNR15, 1.0)

    def test_rank_one_limit_matches_high_snr_expansion(self):
        snr = 1e4
        n = 8
        cap = capacity(np.array([8.0] + [0.0] * 7), snr, 1.0)
        assert cap == pytest.approx(math.log2(snr) + 2 * math.log2(n), abs=1e-3)

    def test_production_geometry_capacity(self):
        # equal radii 0.31 m, 4 mm carrier, 100 m: known working point
        beta = 2 * math.pi * 0.31 * 0.31 / (0.004 * 100.0)
        cap = capacity(singular_values(4, beta, 0.0), SNR15, 1.0)
        assert cap == pytest.approx(20.11, abs=0.1)

    def test_upper_bound_at_high_snr(self):
        # capacity never exceeds N*log2(1 + SNR) (total-power SNR), and the
        # bound is met exactly when the spectrum is flat
        rng = np.random.default_rng(52)
        for n in (4, 8, 16):
            snr = float(n * n * rng.uniform(1.0, 50.0))
            for beta in rng.uniform(0.2, 8.0, 5):
                cap = capacity(singular_values(n, float(beta), 0.0), snr, 1.0)
                assert cap <= n * math.log2(1.0 + snr) + 1e-9
        flat = capacity(singular_values(4, math.pi / 2, 0.0), 1e4, 1.0)
        assert flat == pytest.approx(4 * math.log2(1.0 + 1e4), abs=1e-9)


class TestSearchBetaOpt:
    def test_refined_optima_at_15db(self):
        expected = {4: 1.5708, 8: 3.1116, 12: 4.5743, 16: 5.9923}
        for n, beta in expected.items():
            assert search_beta_opt(n, 0.0, 15.0).beta_opt == pytest.approx(beta, abs=2e-3)

    def test_smallest_of_tied_optima_wins(self):
        # the four-antenna capacity repeats its maximum periodically; the
        # search must return the first peak
        result = search_beta_opt(4, 0.0, 15.0)
        assert result.beta_opt < 2.0
        flat = capacity(singular_values(4, result.beta_opt + math.pi, 0.0), SNR15, 1.0)
        assert result.capacity >= flat - 1e-6

    def test_stable_between_10_and_20_db(self):
        b10 = search_beta_opt(8, 0.0, 10.0).beta_opt
        b20 = search_beta_opt(8, 0.0, 20.0).beta_opt
        assert abs(b10 - b20) <= 0.05

    def test_low_snr_optimum_moves_to_higher_beta(self):
        # at 5 dB the global optimum for eight antennas genuinely leaves
        # the high-SNR location: the capacity gap is far beyond tie noise
        result = search_beta_opt(8, 0.0, 5.0)
        assert result.beta_opt == pytest.approx(3.7477, abs=5e-3)
        at_high_snr_location = capacity(singular_values(8, 3.1116, 0.0), 10**0.5, 1.0)
        assert result.capacity > at_high_snr_location + 0.3

    def test_grid_optimality(self):
        result = search_beta_opt(8, 0.0, 15.0)
        grid = np.arange(0.01, 14.005, 0.01)
        caps = [capacity(singular_values(8, float(b), 0.0), SNR15, 1.0) for b in grid]
        assert result.capacity >= max(caps) - TIE_TOLERANCE_BITS

    def test_rotation_sign_invariance(self):
        plus = search_beta_opt(8, 0.3, 15.0).beta_opt
        minus = search_beta_opt(8, -0.3, 15.0).beta_opt
        assert plus == pytest.approx(minus, abs=1e-6)

    def test_geometry_fields(self):
        bare = search_beta_opt(4, 0.0, 15.0)
        assert bare.radii_product is None and bare.radius_equal is None
        sized = search_beta_opt(4, 0.0, 15.0, wavelength=0.004, distance=100.0)
        assert sized.radius_equal == pytest.approx(math.sqrt(sized.beta_opt * 0.004 * 100 / (2 * math.pi)))
        assert sized.radii_product == pytest.approx(sized.radius_equal**2)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            search_beta_opt(8, 0.0, 15.0, beta_max=0.0)
        with pytest.raises(ValueError):
            search_beta_opt(8, 0.0, 15.0, resolution=-0.1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("snr_db", math.nan),
            ("snr_db", math.inf),
            ("theta_o", math.nan),
            ("theta_o", -math.inf),
            ("beta_max", math.nan),
            ("beta_max", math.inf),
            ("resolution", math.nan),
            ("resolution", math.inf),
        ],
    )
    def test_non_finite_arguments_rejected(self, name, value):
        args = {"n_s": 8, "theta_o": 0.0, "snr_db": 15.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            search_beta_opt(**args)


class TestRadiiFromBeta:
    def test_equal_radius_values(self):
        r, _ = radii_from_beta(1.54, 0.004, 100.0)
        assert r == pytest.approx(0.3131, abs=1e-3)
        r, _ = radii_from_beta(5.98, 0.004, 100.0)
        assert r == pytest.approx(0.617, abs=1e-3)

    def test_product_inversion_exact(self):
        rt, rr = radii_from_beta(2 * math.pi, 1.0, 1.0)
        assert rt * rr == pytest.approx(1.0, rel=1e-15)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            radii_from_beta(0.0, 1.0, 1.0)


class TestConditionNumber:
    def test_flat_point_is_exactly_conditioned(self):
        assert condition_number(4, math.pi / 2, 0.0) == pytest.approx(1.0, abs=0.01)

    def test_half_beta_closed_form(self):
        # four antennas at beta = pi/4: (1+cos)/(1-cos) = 3 + 2*sqrt(2)
        assert condition_number(4, math.pi / 4, 0.0) == pytest.approx(3 + 2 * math.sqrt(2), rel=1e-12)

    def test_values_at_refined_optima(self):
        assert condition_number(8, 3.1116, 0.0) == pytest.approx(1.796, abs=5e-3)
        assert condition_number(16, 5.9923, 0.0) == pytest.approx(3.333, abs=5e-3)

    def test_infinite_when_mode_vanishes(self):
        assert math.isinf(condition_number(8, 2.0, math.pi / 8))


class TestAllocatedCapacity:
    def test_matches_capacity_for_waterfilled_powers(self):
        sigmas = singular_values(8, 2.5, 0.1)
        alloc = water_fill(sigmas, SNR15, 1.0)
        assert allocated_capacity(sigmas, alloc) == pytest.approx(capacity(sigmas, SNR15, 1.0), rel=1e-15)
