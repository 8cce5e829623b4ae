import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import bits, previous_water_fill_powers
from ucamimo import (
    TrialConfig,
    capacity,
    radii_from_beta,
    search_beta_opt,
    water_fill,
)
from ucamimo import design
from ucamimo.design import TIE_TOLERANCE_BITS, condition_numbers, power_from_db
from ucamimo.spectrum import singular_values, singular_values_many

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


def sequential_golden_max(fun, lo, hi, xtol):
    """Golden-section maximiser with one objective call per step, kept as the reference.

    `fun` is called on one abscissa at a time.  The batched `_golden_max`
    must return the same abscissa bit for bit.
    """
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def result_bits(result):
    """The floats of a DesignResult as float.hex, and its edge flag."""
    floats = (result.beta_opt, result.capacity, result.condition_number)
    return (*(float(x).hex() for x in floats), result.at_edge)


def assert_recorded_bits(filename, count):
    """search_beta_opt reproduces every case of a float.hex golden in tests/data."""
    cases = json.loads((Path(__file__).parent / "data" / filename).read_text())
    assert len(cases) == count
    for case in cases:
        grid = {k: float.fromhex(case[k]) for k in ("beta_max", "resolution") if k in case}
        result = search_beta_opt(case["n_s"], float.fromhex(case["theta_o"]), case["snr_db"], **grid)
        want = tuple(case[k] for k in ("beta_opt", "capacity", "condition_number", "at_edge"))
        assert result_bits(result) == want, case


def water_fill_at_noise(sigmas, p_total, noise):
    """Water-filling powers at noise power `noise`: the core that `water_fill` runs at unit noise."""
    return design._water_fill_powers(np.asarray(sigmas, dtype=float), p_total, noise)


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
        powers = water_fill(np.full(4, 2.0), 10.0)
        np.testing.assert_allclose(powers, 2.5, atol=1e-12)

    def test_single_active_stream(self):
        sigmas = np.array([8.0, 0.0, 0.0, 0.0])
        powers = water_fill(sigmas, SNR15)
        np.testing.assert_array_equal(powers[1:], 0.0)
        assert powers[0] == pytest.approx(SNR15, rel=1e-12)
        assert capacity(sigmas, SNR15, 1.0) == pytest.approx(math.log2(1.0 + SNR15 * 64.0), rel=1e-12)

    def test_two_stream_hand_solution(self):
        # level = (1 + 1/4 + 1)/2 = 1.125 -> powers (0.875, 0.125)
        powers = water_fill(np.array([2.0, 1.0]), 1.0)
        np.testing.assert_allclose(powers, [0.875, 0.125], atol=1e-12)

    def test_weak_streams_get_exact_zero(self):
        powers = water_fill(np.array([5.0, 1e-3, 0.0]), 1.0)
        assert powers[1] == 0.0
        assert powers[2] == 0.0

    def test_kkt_conditions_random(self):
        rng = np.random.default_rng(50)
        for _ in range(300):
            sigmas = rng.uniform(0.0, 5.0, size=rng.integers(2, 17))
            if not np.any(sigmas > 0):
                continue
            p_total = float(rng.uniform(0.1, 100.0))
            noise = float(rng.uniform(0.1, 4.0))
            assert_kkt(sigmas, water_fill_at_noise(sigmas, p_total, noise), p_total, noise)

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
                powers = water_fill_at_noise(sigmas, p_total, noise)
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
                assert_kkt(sigmas, water_fill_at_noise(sigmas, p_total, noise), p_total, noise)

    def test_low_snr_equal_gains(self):
        powers = water_fill(np.full(16, 1e-4), 31.6)
        np.testing.assert_allclose(powers, 31.6 / 16, rtol=1e-15)

    def test_underflowing_gain_gets_zero_power_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            powers = water_fill(np.array([1.0, 1e-170]), 31.6)
        np.testing.assert_array_equal(powers, [31.6, 0.0])

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            water_fill(np.zeros(4), 1.0)
        with pytest.raises(ValueError):
            water_fill(np.ones(4), 0.0)
        with pytest.raises(ValueError):
            water_fill(np.array([-1.0, 2.0]), 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            water_fill([math.nan, 1.0], 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            capacity(np.array([[1.0, 2.0], [1.0, math.nan]]), 1.0, 1.0)
        for empty in ([], np.zeros((3, 0)), 2.0):
            with pytest.raises(ValueError, match="at least one stream gain"):
                water_fill(empty, 1.0)
        for p_total in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                water_fill([1.0, 2.0], p_total)
        for noise in (math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                water_fill_at_noise([1.0, 2.0], 1.0, noise)
        # a subnormal budget can underflow the water level of tied streams
        with pytest.raises(ValueError, match="normal float"):
            water_fill([1.0, 1.0], 5e-324)
        water_fill([1.0, 1.0], sys.float_info.min)

    @pytest.mark.parametrize("gains", [
        [math.inf, 1.0],
        [1e200, 1.0],  # the squared gain overflows
        [[1.0, 2.0], [1.0, math.inf]],
    ])
    @pytest.mark.parametrize("fn", [
        pytest.param(water_fill, id="water_fill"),
        pytest.param(lambda gains, p_total: capacity(gains, p_total, 1.0), id="capacity"),
    ])
    def test_infinite_or_overflowing_gain_rejected(self, gains, fn):
        with pytest.raises(ValueError, match="within float range"):
            fn(gains, 1.0)

    def test_snr_at_the_float_limit(self):
        # p * sigma^2 / noise = 1e308 is a float, so its capacity is finite
        assert capacity([1e154, 1.0], 1.0, 1.0) == pytest.approx(math.log2(1e308), rel=1e-15)
        # so is it where p * sigma^2 alone would overflow but the SNR sigma^2 / noise is formed first
        assert capacity([1e154, 1.0], 1e4, 1e4) == pytest.approx(math.log2(1e308), rel=1e-15)
        # the rate sum of that SNR's powers at unit noise
        powers = water_fill([1e154, 1.0], 1e4 / 1e4)
        assert design._rate_sum(powers * np.array([1e154, 1.0]) ** 2) == pytest.approx(math.log2(1e308), rel=1e-15)
        # a larger budget or a smaller noise takes it past the largest float
        for p_total, noise in ((100.0, 1.0), (1.0, 1e-10)):
            with pytest.raises(ValueError, match="within float range"):
                capacity([1e154, 1.0], p_total, noise)


class TestWaterFillMatchesPreviousRule:
    """The value-sort rule gives the same bits as the stable-argsort/scatter rule it replaced."""

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 64])
    def test_design_grid_spectra_with_exact_ties(self, n):
        grid = np.arange(0.01, 14.005, 0.01)
        aligned = singular_values_many(n, grid, 0.0)
        # at theta_o = 0 many rows pair sigma_k with sigma_{N+2-k} exactly
        # (the middle mode always matches itself)
        assert np.count_nonzero(aligned[:, 1:] == aligned[:, 1:][:, ::-1]) > aligned.shape[0]
        # at theta_o = pi/N the middle mode is a null
        sigmas = np.concatenate([aligned, singular_values_many(n, grid, math.pi / n)])
        for snr_db in (-10.0, 0.0, 15.0, 30.0, 60.0):
            p_total = 10.0 ** (snr_db / 10.0)
            for noise in (1.0, 0.37):
                expected = previous_water_fill_powers(sigmas, p_total, noise)
                np.testing.assert_array_equal(bits(water_fill_at_noise(sigmas, p_total, noise)), bits(expected))

    def test_random_stacks_with_zeros_ties_and_underflow(self):
        rng = np.random.default_rng(55)
        for n in range(1, 65):
            p_total = float(10.0 ** rng.uniform(-3.0, 6.0))
            stack = random_gain_stack(rng, n, 8, math.sqrt(1.0 / p_total) * 10.0 ** rng.uniform(-4.0, 1.0))
            # gains that underflow when squared, sparing each row's largest
            stack[(rng.random(stack.shape) < 0.1) & (stack < stack.max(axis=1, keepdims=True))] = 1e-170
            expected = previous_water_fill_powers(stack, p_total, 1.0)
            np.testing.assert_array_equal(bits(water_fill(stack, p_total)), bits(expected))
            for row, want in zip(stack, expected):
                np.testing.assert_array_equal(bits(water_fill(row, p_total)), bits(want))

    def test_ties_straddling_the_active_set_share_power(self):
        # Inverse gains (1, 4, 4) with a budget two ulps above 3: the water
        # level of the first two streams lies above the tied inverse gain 4,
        # that of all three rounds down onto it.  The previous rule gave the
        # first tied stream a power of a few ulps and the second none; the
        # value sort gives both that power, and the budget holds to rounding.
        sigmas = np.array([1.0, 0.5, 0.5])
        p_total = float.fromhex("0x1.8000000000002p+1")
        powers = water_fill(sigmas, p_total)
        previous = previous_water_fill_powers(sigmas, p_total, 1.0)
        assert previous[2] == 0.0 < previous[1]
        np.testing.assert_array_equal(bits(powers[:2]), bits(previous[:2]))
        assert powers[2] == powers[1]
        assert abs(float(np.sum(powers)) - p_total) <= 2 * math.ulp(p_total)


class TestPowerFromDb:
    def test_same_bits_as_the_expression_it_replaced(self):
        for snr_db in np.linspace(-3000.0, 3000.0, 4001):
            assert power_from_db(snr_db) == 10.0 ** (float(snr_db) / 10.0)
        assert power_from_db(np.float64(15.0)) == 10.0 ** (15.0 / 10.0)

    @pytest.mark.parametrize("snr_db", [4000.0, 3085.0, -3100.0, math.inf, math.nan])
    def test_out_of_range_levels_rejected(self, snr_db):
        with pytest.raises(ValueError, match="snr_db"):
            power_from_db(snr_db)

    def test_campaign_config_rejects_an_overflowing_snr(self):
        with pytest.raises(ValueError, match="snr_db 4000"):
            TrialConfig(seed=1, snr_db=4000.0)


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


class TestGridCapacities:
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16, 32, 64])
    def test_blocks_match_one_stacked_call(self, n):
        # the blocked curve keeps the bits of one call over the whole grid
        block = design._GRID_BLOCK // n
        fine = np.arange(0.003, 14.0015, 0.003)
        assert fine.size == 4667
        grids = [fine[:rows] for rows in (1, block - 1, block, block + 1)]
        grids += [np.arange(0.01, 14.005, 0.01), fine]
        for theta_o in (0.0, math.pi / (2 * n)):
            for snr_db in (-10.0, 15.0, 40.0):
                p_total = power_from_db(snr_db)
                for grid in grids:
                    got = design._grid_capacities(n, grid, theta_o, p_total)
                    want = capacity(singular_values_many(n, grid, theta_o), p_total, 1.0)
                    assert list(map(float.hex, got.tolist())) == list(map(float.hex, want.tolist()))


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

    def test_optimum_clipped_by_beta_max_is_at_edge(self):
        # the four-antenna optimum at 15 dB is beta = 1.5708; a range ending at 1.0 clips it
        clipped = search_beta_opt(4, 0.0, 15.0, beta_max=1.0)
        assert clipped.at_edge
        assert 1.0 - 0.01 <= clipped.beta_opt <= 1.0

    def test_interior_optimum_is_not_at_edge(self):
        for beta_max in (14.0, 1.6):
            result = search_beta_opt(4, 0.0, 15.0, beta_max=beta_max)
            assert result.beta_opt == pytest.approx(1.5708, abs=2e-3)
            assert not result.at_edge

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            search_beta_opt(8, 0.0, 15.0, beta_max=0.0)
        with pytest.raises(ValueError):
            search_beta_opt(8, 0.0, 15.0, resolution=-0.1)
        with pytest.raises(ValueError, match="snr_db 4000"):
            search_beta_opt(8, 0.0, 4000.0)

    @pytest.mark.parametrize("beta_max, resolution", [(0.005, 0.01), (14.0, 20.0), (14.0, 14.5)])
    def test_grid_beyond_beta_max_rejected(self, beta_max, resolution):
        with pytest.raises(ValueError, match=f"resolution {resolution:g} exceeds beta_max {beta_max:g}"):
            search_beta_opt(8, 0.0, 15.0, beta_max=beta_max, resolution=resolution)

    def test_resolution_equal_to_beta_max_is_one_grid_point(self):
        result = search_beta_opt(4, 0.0, 15.0, beta_max=1.0, resolution=1.0)
        assert 0.0 < result.beta_opt <= 1.0 and result.at_edge

    @pytest.mark.parametrize("snr_db, printed", [(-100.0, "9.23324822e-09"), (-150.0, "9.23324825e-14")])
    def test_far_below_0_db_matches_extended_precision_oracle(self, snr_db, printed):
        # far below 0 dB, 1 + SNR keeps only a few of the SNR's digits and turns the grid's
        # capacities into rounding noise; summed in log1p form the curve falls from its first
        # cell, as at -60 dB, and the capacity prints the 50-digit rate sum over the optimum's
        # own water-filled powers
        first_cell = search_beta_opt(8, 0.0, -60.0).beta_opt
        assert first_cell == 4.104067205134285e-05
        result = search_beta_opt(8, 0.0, snr_db)
        assert result.beta_opt == first_cell
        sigmas = singular_values(8, result.beta_opt, 0.0)
        powers = water_fill(sigmas, power_from_db(snr_db))
        with mpmath.workdps(50):
            oracle = float(mpmath.fsum(mpmath.log(1 + mpmath.mpf(p) * mpmath.mpf(s) ** 2)
                                       for p, s in zip(powers.tolist(), sigmas.tolist())) / mpmath.log(2))
        assert f"{result.capacity:.9g}" == f"{oracle:.9g}" == printed

    def test_results_match_recorded_bits(self):
        # recorded as float.hex before the value-sort water-filling and the
        # cos/sin phasor kernel; every returned float must keep its bits
        assert_recorded_bits("search_beta_opt_hex.json", 24)

    def test_edge_cells_match_recorded_bits(self):
        # recorded as float.hex with one spectrum evaluation per golden-section
        # step: winners in the first grid cell (lo clipped to resolution * 1e-3)
        # and within one cell of beta_max, intervals already below 1e-4, one
        # grid point, and coarse and fine grids
        assert_recorded_bits("search_beta_opt_edges_hex.json", 13)

    def test_batched_refinement_matches_one_point_rule(self, monkeypatch):
        rng = np.random.default_rng(12)
        queries = [
            (16, 0.1, -20.0, 14.0, 0.01),  # first grid cell wins
            (4, 0.0, 15.0, 1.0, 0.01),  # winner within one cell of beta_max
            (8, 0.0, 15.0, 0.01, 4e-5),  # interval already <= 1e-4
        ]
        for n in (4, 6, 8, 12, 16, 32, 64):
            for _ in range(72):
                resolution = float(10.0 ** rng.uniform(-2.3, -1.3))
                queries.append((n, float(rng.uniform(-math.pi / n, math.pi / n)), float(rng.uniform(-20.0, 45.0)),
                                float(rng.uniform(resolution, 14.0)), resolution))
        batched = [search_beta_opt(n, t, s, beta_max=m, resolution=r) for n, t, s, m, r in queries]
        assert batched[0].beta_opt < 0.01 and batched[1].at_edge
        # the search's objective takes an array of abscissae; the reference steps one at a time
        monkeypatch.setattr(design, "_golden_max", lambda fun, lo, hi, xtol: sequential_golden_max(
            lambda x: fun(np.array([x]))[0], lo, hi, xtol))
        for (n, t, s, m, r), got in zip(queries, batched):
            want = search_beta_opt(n, t, s, beta_max=m, resolution=r)
            assert result_bits(got) == result_bits(want), (n, t, s, m, r)

    def test_ties_replay_like_the_one_point_rule(self):
        # flat and stepped objectives tie exactly, and a tie must take the same branch in both rules
        objectives = (lambda x: 0.0 * x, lambda x: np.floor(8.0 * np.sin(3.0 * x)), lambda x: -np.abs(x - 0.3))
        for fun in objectives:
            for lo, hi, xtol in ((0.0, 1.0, 1e-4), (0.2, 0.21, 1e-6), (0.0, 2.0, 1e-9)):
                got = design._golden_max(fun, lo, hi, xtol)
                assert got.hex() == sequential_golden_max(fun, lo, hi, xtol).hex()

    def test_spectrum_evaluations_per_search(self, monkeypatch):
        # the grid in blocks of at most _GRID_BLOCK spectrum values, then one
        # golden-section pair, three batches of four steps and the final
        # point; one point per step would make 14-16 after the grid
        calls = []
        for name in ("singular_values", "singular_values_many"):
            def counted(*args, spectrum=getattr(design, name), **kwargs):
                calls.append(np.atleast_1d(args[1]))
                return spectrum(*args, **kwargs)

            monkeypatch.setattr(design, name, counted)
        grid = np.arange(0.01, 14.005, 0.01)
        for n, grid_calls in ((16, 3), (64, 11)):
            calls.clear()
            search_beta_opt(n, 0.0, 15.0)
            assert grid_calls == math.ceil(grid.size / (design._GRID_BLOCK // n))
            assert np.array_equal(np.concatenate(calls[:grid_calls]), grid)
            assert all(betas.size * n <= design._GRID_BLOCK for betas in calls)
            assert len(calls) - grid_calls <= 5

    @pytest.mark.parametrize("n", [16, 64])
    def test_search_peak_memory(self, n):
        # NumPy reports its data buffers to tracemalloc; one stacked call over
        # the whole grid peaked at 1.45 MiB (N = 16) and 5.6 MiB (N = 64)
        search_beta_opt(n, 0.0, 15.0)
        tracemalloc.start()
        try:
            search_beta_opt(n, 0.0, 15.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("given", [{"wavelength": 0.004}, {"distance": 100.0}])
    def test_half_given_length_rejected(self, given):
        with pytest.raises(ValueError, match="wavelength and distance must be given together"):
            search_beta_opt(8, 0.0, 15.0, **given)

    @pytest.mark.parametrize("name, value", [("wavelength", math.nan), ("wavelength", math.inf),
                                             ("distance", math.nan), ("distance", -math.inf)])
    def test_non_finite_lengths_rejected_before_the_search(self, monkeypatch, name, value):
        monkeypatch.setattr(design, "singular_values_many", None)
        args = {"n_s": 8, "theta_o": 0.0, "snr_db": 15.0, "wavelength": 0.004, "distance": 100.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            search_beta_opt(**args)

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
        r = radii_from_beta(1.54, 0.004, 100.0)
        assert r == pytest.approx(0.3131, abs=1e-3)
        r = radii_from_beta(5.98, 0.004, 100.0)
        assert r == pytest.approx(0.617, abs=1e-3)

    def test_product_inversion_exact(self):
        r = radii_from_beta(2 * math.pi, 1.0, 1.0)
        assert r * r == pytest.approx(1.0, rel=1e-15)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            radii_from_beta(0.0, 1.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_non_finite_inputs_rejected(self, position, value):
        args = [1.54, 0.004, 100.0]
        args[position] = value
        with pytest.raises(ValueError, match="finite"):
            radii_from_beta(*args)

    @pytest.mark.parametrize("length", [1e200, 1e-200])
    def test_radius_out_of_float_range_rejected(self, length):
        # the product overflows to inf or underflows to 0; an optimum from the
        # search is a NumPy float, whose overflow would also warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the range of a positive finite float"):
                radii_from_beta(np.float64(3.0), length, length)

    def test_subnormal_product_rejected(self):
        # beta*lambda*D/(2*pi) = 2.5e-321 is subnormal, with about 3 significant digits;
        # the radius was wrong from its 5th
        beta = search_beta_opt(4, 0.0, 15.0).beta_opt
        with pytest.raises(ValueError, match=r"radii product 2.49997e-321 m\^2 is not a normal float"):
            radii_from_beta(beta, 1e-160, 1e-160)
        # a product of twice the smallest normal float passes with all its digits, half of it does not
        wavelength = sys.float_info.min * 2.0 * math.pi / beta
        r = radii_from_beta(beta, 2.0 * wavelength, 1.0)
        assert r * r == pytest.approx(2.0 * sys.float_info.min, rel=1e-15, abs=0.0)
        with pytest.raises(ValueError, match="not a normal float"):
            radii_from_beta(beta, 0.5 * wavelength, 1.0)


class TestConditionNumber:
    def test_flat_point_is_exactly_conditioned(self):
        assert float(condition_numbers(singular_values(4, math.pi / 2, 0.0))) == pytest.approx(1.0, abs=0.01)

    def test_half_beta_closed_form(self):
        # four antennas at beta = pi/4: (1+cos)/(1-cos) = 3 + 2*sqrt(2)
        assert float(condition_numbers(singular_values(4, math.pi / 4, 0.0))) == pytest.approx(3 + 2 * math.sqrt(2), rel=1e-12)

    def test_values_at_refined_optima(self):
        assert float(condition_numbers(singular_values(8, 3.1116, 0.0))) == pytest.approx(1.796, abs=5e-3)
        assert float(condition_numbers(singular_values(16, 5.9923, 0.0))) == pytest.approx(3.333, abs=5e-3)

    def test_infinite_when_mode_vanishes(self):
        assert math.isinf(float(condition_numbers(singular_values(8, 2.0, math.pi / 8))))


class TestCapacityRateSum:
    """`capacity` is water-filling followed by the one rate sum over the powers it gives."""

    def test_matches_rate_sum_of_waterfilled_powers(self):
        sigmas = singular_values(8, 2.5, 0.1)
        powers = water_fill(sigmas, SNR15)
        rate_sum = float(np.sum(np.log2(1.0 + powers * sigmas**2)))
        assert capacity(sigmas, SNR15, 1.0) == pytest.approx(rate_sum, rel=1e-15)

    def test_stack_gives_one_rate_per_row(self):
        # a (2, 4) stack water-filled at p = 31.6: one rate per row, the bits of each row alone
        stack = np.array([singular_values(4, 1.2, 0.1), singular_values(4, 1.6, 0.0)])
        rates = capacity(stack, 31.6, 1.0)
        assert rates.shape == (2,)
        np.testing.assert_array_equal(bits(rates), bits(np.array([capacity(row, 31.6, 1.0) for row in stack])))
        assert isinstance(capacity(stack[0], 31.6, 1.0), float)
