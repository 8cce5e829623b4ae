import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import campaign_cells, channels_svd, random_misalignment, stack_of, svd_of
from ucamimo import (
    APPROXIMATE,
    EXACT_DISTANCE,
    ArrayConfig,
    Misalignment,
    approx_power_allocation,
    build_channel,
    build_channels,
    build_codebook,
    closed_form_svd,
    codebook_best_rates,
    codebook_rates_many,
    dft_matrix,
    nulling_rates,
)
from ucamimo import sim, transceiver
from ucamimo.channel import _phasors
from ucamimo.design import capacity, water_fill
from ucamimo.geometry import tx_displacement
from ucamimo.spectrum import singular_values, singular_values_many
from ucamimo.transceiver import (
    RateReport,
    precoded_rate,
    precoded_rates,
    precoder_from_angles,
)

SNR15 = 10**1.5
SNR30 = 1e3


def best_codebook_rate(cfg, h, cb, powers):
    """The campaigns' codebook rate: the row maximum of the stacked scorer, on a stack of one."""
    return codebook_rates_many(cfg, h.entries[None], cb, powers)[0].max()


def rate_sum(sigmas, powers):
    """Sum of log2(1 + p_k sigma_k^2) over the given stream powers at unit noise."""
    return float(np.sum(np.log2(1.0 + powers * sigmas**2)))


def nulling(h, p_total):
    """Both nulling receivers on a stack of one channel: sum rates (zf, zf_sic), each (1,)."""
    return nulling_rates(*svd_of(np.asarray(h)[None]), p_total)


def design_point(n=8, dist=100.0):
    radius = {4: 0.3162, 8: 0.4451, 12: 0.5396, 16: 0.6176}[n]
    return ArrayConfig(n_antennas=n, wavelength=0.004, radius_tx=radius, radius_rx=radius, distance=dist)


class TestCodebook:
    def test_single_entry_is_origin(self):
        cb = build_codebook(0, 0)
        assert cb.size == 1
        thetas, phis = cb.angle_pairs()
        assert (thetas[0], phis[0]) == (pytest.approx(0.0, abs=1e-15), pytest.approx(0.0, abs=1e-15))

    def test_production_bit_budget(self):
        cb = build_codebook(5, 3)
        assert cb.size == 256
        assert (len(cb.theta_angles), len(cb.phi_angles)) == (32, 8)

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
        assert thetas[2] == cb.theta_angles[1] and phis[2] == cb.phi_angles[0]

    def test_size_and_entries_follow_the_grids(self):
        # any two grids give their full product, scored entry by entry
        theta, phi = np.linspace(-1.0, 1.0, 4), np.linspace(0.0, 0.15, 4)
        cb = transceiver.Codebook(theta_angles=theta, phi_angles=phi)
        assert cb.size == 16
        pairs = set(zip(*cb.angle_pairs()))
        assert pairs == {(t, p) for t in theta for p in phi}
        cfg = design_point(4, 300.0)
        h = build_channel(cfg, Misalignment(theta_o=0.2, theta_cs=1.0, phi_cs=0.1))
        rates = codebook_rates_many(cfg, h.entries[None], cb, approx_power_allocation(cfg, 15.0))
        assert rates.shape == (1, 16)

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_phasors_follow_the_angle_pairs(self, n):
        # the scorers' phasors come from the two angle grids, one sine per azimuth and per
        # polar, with the bits of the entry-by-entry displacement of every angle pair
        cfg = ArrayConfig(n_antennas=n, wavelength=sim.DEFAULT_WAVELENGTH, radius_tx=0.6, radius_rx=0.5,
                          distance=300.0)
        for l1, l2 in [*sim.DEFAULT_BIT_GRID, (0, 3), (4, 0), (0, 0)]:
            for cb in (build_codebook(l1, l2), build_codebook(l1, l2, quantization="linear"),
                       sim._distinct_codebook(l1, l2, "linear")):
                t = transceiver._codebook_phasors(cfg, cb)
                np.testing.assert_array_equal(t, _phasors(cfg, tx_displacement(cfg, *cb.angle_pairs())))
                assert t.shape == (cb.size, n)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_codebook(-1, 0)
        with pytest.raises(ValueError):
            build_codebook(1, 1, quantization="other")

    @pytest.mark.parametrize("bits", [(1.5, 3), (2, 3.0), (np.float64(2.0), 1)])
    def test_non_integer_bit_counts_rejected(self, bits):
        # (1.5, 3) gave a 3 x 8 grid with azimuths (-0.703, 0.061, 0.875), not symmetric
        with pytest.raises(ValueError, match="bit counts must be nonnegative integers"):
            build_codebook(*bits)
        assert build_codebook(np.int64(2), np.int32(1)).size == 8

    @pytest.mark.parametrize("bits", [(53, 0), (1, 1024)])
    def test_oversized_bit_counts_rejected(self, bits):
        # 1024 bits raised OverflowError while the grid's cell count was converted to float
        with pytest.raises(ValueError, match=f"of at most 52, got {max(bits)}$"):
            build_codebook(*bits)


class TestPrecoders:
    def test_zero_polar_shift_reduces_to_dft(self):
        cfg = design_point()
        f = precoder_from_angles(cfg, 1.1, 0.0)
        np.testing.assert_array_equal(f, dft_matrix(8))

    def test_unitary_for_random_angles(self):
        cfg = design_point()
        rng = np.random.default_rng(60)
        for _ in range(20):
            f = precoder_from_angles(cfg, float(rng.uniform(-np.pi, np.pi)), float(rng.uniform(0, 0.17)))
            np.testing.assert_allclose(f.conj().T @ f, np.eye(8), atol=1e-10)

    def test_true_angles_reproduce_right_singular_matrix(self):
        cfg = design_point()
        rng = np.random.default_rng(61)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            f = precoder_from_angles(cfg, mis.theta_cs, mis.phi_cs)
            np.testing.assert_allclose(f, closed_form_svd(cfg, mis).v, atol=1e-14)

    def test_true_angle_precoder_achieves_capacity(self):
        cfg = design_point()
        rng = np.random.default_rng(62)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            sig = singular_values(8, cfg.beta, mis.theta_o)
            powers = water_fill(sig, SNR15)
            f = precoder_from_angles(cfg, mis.theta_cs, mis.phi_cs)
            rate = precoded_rate(h, f, powers).rate
            assert rate == pytest.approx(capacity(sig, SNR15, 1.0), abs=1e-9)


class TestRateReports:
    def test_rate_is_per_stream_sum(self):
        report = RateReport(per_stream=np.array([1.0, 2.5, 0.25]))
        assert report.rate == pytest.approx(3.75, rel=1e-15)

    def test_precoded_rate_matches_log_det(self):
        cfg = design_point()
        rng = np.random.default_rng(63)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            powers = approx_power_allocation(cfg, 15.0)
            f = dft_matrix(8)
            report = precoded_rate(h, f, powers)
            g = h.entries @ f @ np.diag(np.sqrt(powers))
            ref = math.log2(np.linalg.det(np.eye(8) + g @ g.conj().T).real)
            assert report.rate == pytest.approx(ref, abs=1e-9)
            assert report.rate == pytest.approx(float(np.sum(report.per_stream)), abs=1e-12)


class TestCodebookSelection:
    def test_exact_grid_point_reaches_optimal_rate(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(4, 2)
        powers = approx_power_allocation(cfg, 15.0)
        thetas, phis = cb.angle_pairs()
        theta, phi = float(thetas[22]), float(phis[22])
        mis = Misalignment(theta_o=0.1, theta_cs=theta, phi_cs=phi)
        h = build_channel(cfg, mis)
        rate = best_codebook_rate(cfg, h, cb, powers)
        optimal = precoded_rate(h, precoder_from_angles(cfg, theta, phi), powers).rate
        assert rate == pytest.approx(optimal, abs=1e-9)

    def test_selection_matches_exhaustive_rescan(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(3, 2)
        powers = approx_power_allocation(cfg, 15.0)
        thetas, phis = cb.angle_pairs()
        rng = np.random.default_rng(64)
        for _ in range(5):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            rate = best_codebook_rate(cfg, h, cb, powers)
            # independent pass: per-entry log-det rates in shuffled order
            order = rng.permutation(cb.size)
            best_rate = max(
                precoded_rate(h, precoder_from_angles(cfg, float(thetas[pos]), float(phis[pos])), powers).rate
                for pos in order
            )
            assert rate == pytest.approx(best_rate, abs=1e-9)

    def test_rates_vector_matches_entry_evaluation(self):
        cfg = design_point(4, 300.0)
        cb = build_codebook(2, 1)
        powers = approx_power_allocation(cfg, 15.0)
        h = build_channel(cfg, Misalignment(theta_o=0.2, theta_cs=1.0, phi_cs=0.1))
        rates = codebook_rates_many(cfg, h.entries[None], cb, powers)[0]
        for l, (theta, phi) in enumerate(zip(*cb.angle_pairs())):
            f = precoder_from_angles(cfg, float(theta), float(phi))
            assert rates[l] == pytest.approx(precoded_rate(h, f, powers).rate, abs=1e-9)

    def test_zero_shift_equality_with_dft_baseline(self):
        # with the zero entry available and no centre shift, the selected
        # precoder and the no-correction baseline coincide
        cfg = design_point(8, 300.0)
        cb = build_codebook(4, 0)
        powers = approx_power_allocation(cfg, 15.0)
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
            rate = best_codebook_rate(cfg, h, cb, powers)
            baseline = precoded_rate(h, dft_matrix(8), powers).rate
            assert rate == pytest.approx(baseline, abs=1e-9)

    def test_mean_beats_no_correction_baseline(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(5, 3)
        powers = approx_power_allocation(cfg, 15.0)
        rng = np.random.default_rng(66)
        selected, baseline = [], []
        for _ in range(30):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            selected.append(best_codebook_rate(cfg, h, cb, powers))
            baseline.append(precoded_rate(h, dft_matrix(8), powers).rate)
        assert np.mean(selected) >= np.mean(baseline)

    def test_single_entry_codebook_selects_it(self):
        cfg = design_point(4)
        h = build_channel(cfg, Misalignment())
        powers = approx_power_allocation(cfg, 15.0)
        rates = codebook_rates_many(cfg, h.entries[None], build_codebook(0, 0), powers)
        assert rates.shape == (1, 1)
        assert rates.max() > 0.0

    def test_zero_polar_bits_tie_every_entry(self):
        # with zero polar bits phi is exactly 0.0 in either rule, so every entry is the DFT
        # precoder and all rates tie; the campaigns score the first azimuth alone, whose rate is
        # the best entry's (bit for bit under OpenBLAS's SkylakeX kernel, where it was measured)
        cfg = design_point(8, 300.0)
        mis = Misalignment(theta_o=0.1, theta_cs=0.7, phi_cs=0.05)
        h = np.stack([build_channel(cfg, mis, model).entries for model in (APPROXIMATE, EXACT_DISTANCE)])
        for quantization in ("sine", "linear"):
            for l1 in (0, 1, 3, 7):
                cb = build_codebook(l1, 0, quantization)
                assert cb.phi_angles.tolist() == [0.0]
                distinct = transceiver._distinct_codebook(l1, 0, quantization)
                assert_same_grids(distinct, transceiver.Codebook(cb.theta_angles[:1], cb.phi_angles))
                for powers in (approx_power_allocation(cfg, 15.0), stream_allocation(8, 1)):
                    rates = codebook_rates_many(cfg, h, cb, powers)
                    assert np.ptp(rates, axis=-1).max() <= 1e-12
                    one = codebook_rates_many(cfg, h, distinct, powers)
                    np.testing.assert_allclose(one[:, 0], rates.max(axis=-1), rtol=1e-12, atol=0.0)


def stream_allocation(n, active):
    """Equal power on the first `active` streams, none on the others."""
    powers = np.zeros(n)
    powers[:active] = SNR15 / active
    return powers


def spread_allocation(n, spread, total=SNR15):
    """Powers on all n streams falling geometrically from p_max to p_max / spread, summing to about `total`.

    The scale is the power of two nearest total / sum, so p_max / p_min is exactly `spread`.
    """
    weights = spread ** np.linspace(1.0, 0.0, n)
    return weights * 2.0 ** np.round(np.log2(total / weights.sum()))


def pair_block(pairs, n, r):
    """The `_SCORE_BLOCK` at which the pair scorer takes `pairs` (channel, entry) pairs of r streams per block.

    A block holds 2 _SCORE_BLOCK // (N + r)^2 pairs, so twice this block, c (N + r)^2 or one more, gives c.
    """
    return -(-pairs * (n + r) ** 2 // 2)


class TestStackedCodebookScorer:
    def stack(self, cfg, model, count, seed=67):
        rng = np.random.default_rng(seed)
        channels = [build_channel(cfg, random_misalignment(rng, cfg.n_antennas), model) for _ in range(count)]
        return channels, np.stack([h.entries for h in channels])

    @pytest.mark.parametrize("count", [1, 5])
    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("n, active", [pytest.param(8, 1, id="1"), pytest.param(8, 8, id="8"),
                                           pytest.param(12, 12, id="12")])
    def test_rows_equal_one_channel_scorer(self, count, model, n, active):
        cfg = design_point(n, 300.0)
        cb = build_codebook(3, 2)
        powers = stream_allocation(n, active)
        channels, h = self.stack(cfg, model, count)
        rates = codebook_rates_many(cfg, h, cb, powers)
        assert rates.shape == (count, cb.size)
        for row, channel in zip(rates, channels):
            np.testing.assert_array_equal(row, codebook_rates_many(cfg, channel.entries[None], cb, powers)[0])

    def test_row_does_not_depend_on_its_position(self):
        cfg = design_point(8, 300.0)
        cb = build_codebook(3, 2)
        powers = approx_power_allocation(cfg, 15.0)
        _, h = self.stack(cfg, EXACT_DISTANCE, 5)
        rates = codebook_rates_many(cfg, h, cb, powers)
        order = np.array([3, 0, 4, 2, 1])
        np.testing.assert_array_equal(codebook_rates_many(cfg, h[order], cb, powers), rates[order])
        np.testing.assert_array_equal(codebook_rates_many(cfg, h[2:3], cb, powers), rates[2:3])

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("n, l1, l2, active", [(8, 3, 2, 1), (8, 3, 2, 5), (8, 3, 2, 8), (12, 5, 3, 12),
                                                   (16, 7, 3, 1), (16, 7, 3, 9), (16, 7, 3, 16)])
    def test_rates_do_not_depend_on_the_entry_block(self, monkeypatch, model, n, l1, l2, active):
        # blocks of 1, per - 1, per and per + 1 (channel, entry) pairs, where per is the
        # default block's pair count when that splits the stack's pairs in at least three,
        # each against one block larger than all of them
        cfg = design_point(n, 300.0)
        cb = build_codebook(l1, l2)
        powers = stream_allocation(n, active)
        _, h = self.stack(cfg, model, 3)
        pairs = len(h) * cb.size
        per = min(2 * transceiver._SCORE_BLOCK // (n + active) ** 2, pairs // 3)
        monkeypatch.setattr(transceiver, "_SCORE_BLOCK", pair_block(pairs + 1, n, active))
        whole = codebook_rates_many(cfg, h, cb, powers)
        for count in (1, per - 1, per, per + 1):
            monkeypatch.setattr(transceiver, "_SCORE_BLOCK", pair_block(count, n, active))
            np.testing.assert_array_equal(codebook_rates_many(cfg, h, cb, powers), whole)

    @pytest.mark.parametrize("score", [codebook_rates_many, lambda cfg, h, cb, powers: codebook_best_rates(
        cfg, h, *svd_of(h), [cb], powers)], ids=["all-entries", "best-entry"])
    def test_peak_memory(self, score):
        # NumPy reports its data buffers to tracemalloc; buffers over the
        # whole 1,024-entry codebook peaked at 8.9 MiB.  The designed
        # allocation gives 9 streams power, the equal and the spread ones all 16, where a pair's
        # buffers are largest, about (2N)^2 values
        cfg = design_point(16, 300.0)
        cb = build_codebook(7, 3)
        _, h = self.stack(cfg, APPROXIMATE, 8)
        for powers in (approx_power_allocation(cfg, 15.0), stream_allocation(16, 16), spread_allocation(16, 1e9)):
            score(cfg, h, cb, powers)
            tracemalloc.start()
            try:
                score(cfg, h, cb, powers)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20

    @pytest.mark.parametrize("n, l1, l2, active, block", [(8, 3, 2, 8, None), (16, 7, 3, 9, None),
                                                          (16, 7, 3, 1, None), (16, 7, 3, 1, 5 * 16 * 16)])
    def test_cholesky_calls_per_block(self, monkeypatch, n, l1, l2, active, block):
        calls = []

        def counted(a, *args, cholesky=np.linalg.cholesky, **kwargs):
            calls.append(a.shape)
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        if block is not None:
            monkeypatch.setattr(transceiver, "_SCORE_BLOCK", block)
        cfg = design_point(n, 300.0)
        cb = build_codebook(l1, l2)
        _, h = self.stack(cfg, APPROXIMATE, 4)
        codebook_rates_many(cfg, h, cb, stream_allocation(n, active))
        # one Cholesky per block of (channel, entry) pairs, (N + r)^2 values per pair: the pair's
        # H^H H, its two r-row products and its r x r Gram matrix
        per = max(1, 2 * transceiver._SCORE_BLOCK // (n + active) ** 2)
        assert len(calls) == math.ceil(4 * cb.size / per)
        assert all(shape[0] <= per and shape[1:] == (active, active) for shape in calls)

    @pytest.mark.parametrize("powers, rank", [
        pytest.param(stream_allocation(8, 8), 8, id="equal"),
        pytest.param(spread_allocation(8, 1e3), 8, id="spread-1e3"),
        pytest.param(spread_allocation(8, 1e9), 8, id="spread-1e9"),
        pytest.param(np.append(stream_allocation(7, 7), 0.0), 7, id="one-zero-power"),
    ])
    def test_one_form_for_every_allocation(self, monkeypatch, powers, rank):
        # whatever the powers, one Cholesky per block of (channel, entry) pairs, here all 96 of
        # them, of the active streams' r x r Gram matrices, and two matrix products per Cholesky
        calls = []

        def counted(name, f):
            def wrapper(a, *args, **kwargs):
                calls.append((name, a.shape))
                return f(a, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
        monkeypatch.setattr(np, "matmul", counted("matmul", np.matmul))
        cfg = design_point(8, 300.0)
        cb = build_codebook(3, 2)
        _, h = self.stack(cfg, APPROXIMATE, 3)
        codebook_rates_many(cfg, h, cb, powers)
        shapes = [shape for name, shape in calls if name == "cholesky"]
        assert shapes == [(3 * cb.size, rank, rank)]
        assert sum(name == "matmul" for name, _ in calls) == 2 * len(shapes)

    @pytest.mark.parametrize(
        "h_shape, powers_shape, match",
        [
            ((2, 8, 8), (2, 8), r"powers must have shape \(8,\)"),
            ((2, 4, 4), (8,), r"channels must have shape \(T, 8, 8\)"),
            ((2, 8, 4), (8,), r"channels must have shape \(T, 8, 8\)"),
            ((8, 8), (8,), r"channels must have shape \(T, 8, 8\)"),
        ],
    )
    def test_malformed_inputs_rejected(self, h_shape, powers_shape, match):
        cfg = design_point(8, 300.0)
        powers = np.full(powers_shape, SNR15 / 8)
        with pytest.raises(ValueError, match=match):
            codebook_rates_many(cfg, np.ones(h_shape, dtype=complex), build_codebook(3, 2), powers)


class TestBestEntryScorer:
    CODEBOOKS = (build_codebook(0, 0), build_codebook(1, 2), build_codebook(3, 2),
                 build_codebook(5, 3, quantization="linear"), build_codebook(7, 3))

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("n, powers", [
        pytest.param(8, stream_allocation(8, 1), id="8-one"),
        pytest.param(8, stream_allocation(8, 5), id="8-five"),
        pytest.param(16, None, id="16-designed"),
        pytest.param(12, stream_allocation(12, 12), id="12-equal"),
        pytest.param(8, spread_allocation(8, 1e4), id="8-spread-1e4"),
    ])
    def test_rows_equal_the_row_maximum(self, model, n, powers):
        # bit for bit, with r < N, with every stream powered equally and with a wide spread
        # (r = N, no weak modes), and for one-entry codebooks
        cfg = design_point(n, 300.0)
        powers = approx_power_allocation(cfg, 15.0) if powers is None else powers
        channels, h = TestStackedCodebookScorer().stack(cfg, model, 5)
        best = codebook_best_rates(cfg, h, *channels_svd(cfg, channels, model), self.CODEBOOKS, powers)
        assert best.shape == (len(self.CODEBOOKS), 5)
        for row, cb in zip(best, self.CODEBOOKS):
            np.testing.assert_array_equal(row, codebook_rates_many(cfg, h, cb, powers).max(axis=-1))

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("dist, active", [pytest.param(300.0, 5, id="five"),
                                              pytest.param(100.0, None, id="designed")])
    @pytest.mark.parametrize("books", [
        pytest.param([(3, 2, "sine")], id="one"),
        pytest.param([(3, 2, "sine"), (3, 2, "sine")], id="repeated"),
        pytest.param([(0, 0, "sine"), (3, 2, "sine"), (1, 0, "linear"), (0, 1, "sine"), (3, 2, "sine"),
                      (4, 2, "linear")], id="mixed"),
        pytest.param([(l1, l2, method) for l1, l2 in sim.DEFAULT_BIT_GRID for method in ("sine", "linear")],
                     id="bit-grid"),
        pytest.param([], id="empty"),
    ])
    def test_one_bound_pass_and_two_exact_rounds(self, monkeypatch, model, dist, active, books):
        # whatever the number of codebooks, one call takes one bound pass over all their entries and
        # two rounds of exact scores: each (codebook, channel)'s first entries, then the survivors.
        # Codebooks of 1 and 2 entries hold no more than the first round takes, and a repeated
        # codebook scores as itself.  The designed 100 m powers give every stream power (antenna
        # path), five of eight streams the Gram path with weak modes
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)
            return wrapper

        for name in ("_entry_bounds", "_pair_rates"):
            monkeypatch.setattr(transceiver, name, counted(name, getattr(transceiver, name)))
        cfg = design_point(8, dist)
        powers = approx_power_allocation(cfg, 15.0) if active is None else stream_allocation(8, active)
        codebooks = [sim._distinct_codebook(l1, l2, method) for l1, l2, method in books]
        channels, h = TestStackedCodebookScorer().stack(cfg, model, 5)
        best = codebook_best_rates(cfg, h, *channels_svd(cfg, channels, model), codebooks, powers)
        assert sorted(calls) == (["_entry_bounds"] + 2 * ["_pair_rates"] if codebooks else [])
        assert best.shape == (len(codebooks), 5)
        for row, cb in zip(best, codebooks):
            np.testing.assert_array_equal(row, codebook_rates_many(cfg, h, cb, powers).max(axis=-1))

    def test_empty_inputs(self):
        cfg = design_point(8, 300.0)
        channels, h = TestStackedCodebookScorer().stack(cfg, APPROXIMATE, 3)
        sigma, v = channels_svd(cfg, channels, APPROXIMATE)
        for powers in (stream_allocation(8, 3), stream_allocation(8, 8)):
            assert codebook_best_rates(cfg, h, sigma, v, [], powers).shape == (0, 3)
            assert codebook_best_rates(cfg, h[:0], sigma[:0], v[:0], self.CODEBOOKS[:2], powers).shape == (2, 0)

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    def test_stacked_cells_equal_one_cell_calls(self, monkeypatch, model):
        # a stack of three distance cells of one array, each with its own designed powers (every
        # stream powered at 100 m, some at 500 m), scores each cell as a call on that cell alone
        # does, bit for bit.  On the separable model the cells share one V = T_t Q, broadcast
        # with stride 0 as the campaigns pass it, and every cell's V reaches the bound unchanged
        cells = [design_point(8, dist) for dist in (100.0, 250.0, 500.0)]
        rng = np.random.default_rng(5)
        mis = stack_of([random_misalignment(rng, 8) for _ in range(4)])
        h = np.stack([build_channels(cfg, mis, model) for cfg in cells])
        if model == EXACT_DISTANCE:
            sigma, v = svd_of(h)
        else:
            sigma, v = sim._closed_form(cells[0], [cfg.beta for cfg in cells], mis)
            v = np.broadcast_to(v, h.shape)
            assert v.strides[0] == 0
        powers = np.stack([approx_power_allocation(cfg, 15.0) for cfg in cells])
        assert (powers[0] > 0).all() and not (powers[-1] > 0).all()
        seen = []

        def modes(sigma_, v_, *args, f=transceiver._modes):
            seen.append(v_)
            return f(sigma_, v_, *args)

        monkeypatch.setattr(transceiver, "_modes", modes)
        best = codebook_best_rates(cells[0], h, sigma, v, self.CODEBOOKS, powers)
        assert best.shape == (3, len(self.CODEBOOKS), 4)
        assert [v_.strides for v_ in seen] == [v.strides[1:]] * 3
        assert all(np.shares_memory(v_, v) for v_ in seen)
        for d, cfg in enumerate(cells):
            np.testing.assert_array_equal(best[d], codebook_best_rates(cfg, h[d], sigma[d], v[d], self.CODEBOOKS,
                                                                       powers[d]))

    def test_bound_prunes_most_entries(self, monkeypatch):
        # on the `codebook` campaign's cell (N = 16, r = 9) the eigenbasis bound, on the closed-form
        # (sigma, V) the separable campaigns pass, leaves 66 of each copy of the 1,024-entry
        # codebook's 8,192 (entry, channel) pairs to the Cholesky: the first 2 of each channel and
        # 50 more.  The scorer takes no factorisation of its own
        calls = []

        def counted(name, f):
            def wrapper(a, *args, **kwargs):
                calls.append((name, a.shape))
                return f(a, *args, **kwargs)
            return wrapper

        cfg = design_point(16, 300.0)
        channels, h = TestStackedCodebookScorer().stack(cfg, APPROXIMATE, 8)
        sigma, v = channels_svd(cfg, channels, APPROXIMATE)
        for name in ("cholesky", "svd", "eigh", "eig", "inv", "qr"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        cb = build_codebook(7, 3)
        codebook_best_rates(cfg, h, sigma, v, [cb, cb], approx_power_allocation(cfg, 15.0))
        assert {name for name, _ in calls} == {"cholesky"}
        scored = sum(shape[0] for name, shape in calls if name == "cholesky")
        assert 2 * 8 * transceiver._FIRST_SCORED <= scored < 0.02 * 2 * 8 * cb.size

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("n", [8, 16])
    def test_bound_prunes_most_entries_at_full_rank(self, monkeypatch, n, model):
        # on the 100 m designs of N = 8 and 16 every stream has power, nearly equal (spread 1.04
        # and 1.17).  With its second-order term the bound leaves 16 and 34
        # (separable, closed-form V) and 17 and 36 (exact, the SVD's V) of the 256-entry
        # codebook's 2,048 pairs to the Cholesky: the first 16 and a few more.  Hadamard's
        # bound alone, exact only to first order in the spread, left 225 and 724 (separable)
        # and 150 and 623 (exact)
        cholesky = np.linalg.cholesky
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        cfg = design_point(n, 100.0)
        powers = approx_power_allocation(cfg, 15.0)
        assert (powers > 0).all()
        channels, h = TestStackedCodebookScorer().stack(cfg, model, 8)
        cb = build_codebook(5, 3)
        codebook_best_rates(cfg, h, *channels_svd(cfg, channels, model), [cb], powers)
        scored = sum(shape[0] for shape in calls)
        assert 8 * transceiver._FIRST_SCORED <= scored < 0.025 * 8 * cb.size

    @pytest.mark.parametrize(
        "h_shape, sigma_shape, powers_shape, match",
        [
            ((2, 8, 8), (2, 8), (2, 8), r"powers must have shape \(8,\)"),
            ((2, 8, 4), (2, 8), (8,), r"channels must have shape \(T, 8, 8\)"),
            ((2, 8, 8), (3, 8), (8,), r"singular values and vectors"),
            ((2, 8, 8), (2, 4), (8,), r"singular values and vectors"),
            # a stack of three cells: sigma's (and so v's) leading axes, v's alone (one that would
            # broadcast), the powers' leading axes, and one power row for the whole stack
            ((3, 2, 8, 8), (2, 2, 8), (3, 8), r"singular values and vectors"),
            ((3, 2, 8, 8), ((3, 2, 8), (1, 2, 8, 8)), (3, 8), r"singular values and vectors"),
            ((3, 2, 8, 8), (3, 2, 8), (2, 8), r"powers must have shape \(3, 8\)"),
            ((3, 2, 8, 8), (3, 2, 8), (8,), r"powers must have shape \(3, 8\)"),
        ],
    )
    def test_malformed_inputs_rejected(self, h_shape, sigma_shape, powers_shape, match):
        # sigma_shape is sigma's shape, whose v is (*sigma_shape, N), or a (sigma's, v's) pair
        cfg = design_point(8, 300.0)
        powers = np.full(powers_shape, SNR15 / 8)
        sigma_shape, v_shape = sigma_shape if isinstance(sigma_shape[0], tuple) else (
            sigma_shape, (*sigma_shape, sigma_shape[-1]))
        sigma, v = np.ones(sigma_shape), np.ones(v_shape, dtype=complex)
        with pytest.raises(ValueError, match=match):
            codebook_best_rates(cfg, np.ones(h_shape, dtype=complex), sigma, v, [build_codebook(3, 2)], powers)

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("part, value", [("sigma", math.nan), ("sigma", -1.0), ("sigma", math.inf),
                                             ("v", math.nan), ("v", math.inf)])
    def test_malformed_decomposition_rejected(self, model, part, value):
        # unchecked, a NaN value in sigma prunes every entry but the first two and gives a lower best rate
        cfg = design_point(8, 300.0)
        channels, h = TestStackedCodebookScorer().stack(cfg, model, 2)
        svd = dict(zip(("sigma", "v"), channels_svd(cfg, channels, model)))
        svd[part][0, 0] = value
        with pytest.raises(ValueError, match="finite"):
            codebook_best_rates(cfg, h, svd["sigma"], svd["v"], [build_codebook(5, 3)],
                                approx_power_allocation(cfg, 15.0))

    def test_one_dft_per_scorer_call(self, monkeypatch):
        # Q~ P~^(1/2), the DFT columns of the powered streams, is built once per call and serves
        # the bound's K~ and every exact score
        calls = []
        monkeypatch.setattr(transceiver, "dft_matrix", lambda n, dft=transceiver.dft_matrix: calls.append(n) or dft(n))
        cfg = design_point(8, 300.0)
        channels, h = TestStackedCodebookScorer().stack(cfg, EXACT_DISTANCE, 3)
        powers = approx_power_allocation(cfg, 15.0)
        codebook_best_rates(cfg, h, *channels_svd(cfg, channels, EXACT_DISTANCE), self.CODEBOOKS, powers)
        assert calls == [8]
        codebook_rates_many(cfg, h, self.CODEBOOKS[2], powers)
        assert calls == [8, 8]

    def test_second_order_term_by_hand(self):
        # at r = N the bound is sum_m log2(1 + w_m e_m) - gamma O (1/2 - h sqrt(O) / 3) / ln 2
        # where 0 < h sqrt(O) / 3 < 1/2, with e_m the squared norm of row m of Z_l = V^H D_l Q~ P~^(1/2)
        # in ascending mode order and O = sum p^2 - sum_m e_m^2.  Powers with spread 2 put
        # reach sqrt(O) near 0.3, where the cubic correction is about 1e-3 of the bound
        cfg = design_point(8, 100.0)
        channels, _ = TestStackedCodebookScorer().stack(cfg, APPROXIMATE, 2)
        sigma, v = channels_svd(cfg, channels, APPROXIMATE)
        powers = spread_allocation(8, 2.0)
        q = transceiver._stream_columns(8, powers)
        modes = transceiver._modes(sigma, v, powers, q)
        t = transceiver._codebook_phasors(cfg, build_codebook(3, 2))
        bounds = transceiver._entry_bounds(t, modes)
        order = np.argsort(sigma, axis=-1, kind="stable")
        w = np.take_along_axis(sigma, order, axis=-1) ** 2
        np.testing.assert_allclose(modes.inv_w, 1.0 / w, rtol=1e-15)
        assert modes.square == np.sum(powers**2)
        for c, vc in enumerate(np.take_along_axis(v, order[:, None, :], axis=-1)):
            for entry, t_l in enumerate(t):
                e = np.sum(np.abs(vc.conj().T @ (t_l[:, None] * q)) ** 2, axis=-1)
                off = modes.square - np.sum(e**2)
                reach = modes.reach[c] * np.sqrt(off)
                assert 0.1 < reach < 0.5
                by_hand = np.sum(np.log2(1.0 + e / modes.inv_w[c])) - modes.gamma[c] * off * (0.5 - reach)
                np.testing.assert_allclose(bounds[c, entry], by_hand, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("weakest", [0.0, 1e-160])
    def test_zero_or_subnormal_mode_keeps_hadamards_bound(self, weakest):
        # a w_m = sigma_m^2 that is zero or subnormal has no finite inverse, so that channel's
        # full-rank bound drops its second-order term: finite, with no floating-point warning
        cfg = design_point(8, 100.0)
        channels, _ = TestStackedCodebookScorer().stack(cfg, APPROXIMATE, 2)
        sigma, v = channels_svd(cfg, channels, APPROXIMATE)
        sigma = sigma.copy()
        sigma[0, np.argmin(sigma[0])] = weakest
        powers = approx_power_allocation(cfg, 15.0)
        modes = transceiver._modes(sigma, v, powers, transceiver._stream_columns(8, powers))
        t = transceiver._codebook_phasors(cfg, build_codebook(3, 2))
        bounds = transceiver._entry_bounds(t, modes)
        hadamard = transceiver._entry_bounds(t, modes._replace(gamma=np.zeros(2)))
        assert modes.gamma[0] == 0.0 < modes.gamma[1]
        assert np.isfinite(bounds).all()
        np.testing.assert_array_equal(bounds[0], hadamard[0])
        assert (bounds[1] < hadamard[1]).all()


def log_det_oracle(cfg, h, cb, powers):
    """log2 det(I + G_l^H G_l) of every entry at 40 digits, G_l = H diag(t_l) Q P^(1/2).

    The float64 channel, shift phasors, DFT and powers enter exactly.
    """
    thetas, phis = cb.angle_pairs()
    t = _phasors(cfg, tx_displacement(cfg, thetas, phis))
    n = cfg.n_antennas
    with mpmath.workdps(40):
        hm = mpmath.matrix(h.tolist())
        gram = hm.H * hm
        q_sqrt_p = mpmath.matrix(dft_matrix(n).tolist()) * mpmath.diag([mpmath.sqrt(p) for p in powers.tolist()])
        rates = []
        for t_l in t:
            f = mpmath.diag(t_l.tolist()) * q_sqrt_p
            rates.append(float(mpmath.log(mpmath.re(mpmath.det(mpmath.eye(n) + f.H * gram * f)), 2)))
    return np.array(rates)


def precoded_log_det_oracle(h, f, powers):
    """log2 det(I + G^H G) of one channel at 40 digits, G = H F P^(1/2); the float64 inputs enter exactly."""
    with mpmath.workdps(40):
        g = mpmath.matrix(h.tolist()) * mpmath.matrix(f.tolist()) * mpmath.diag([mpmath.sqrt(p) for p in powers.tolist()])
        return float(mpmath.log(mpmath.re(mpmath.det(mpmath.eye(len(powers)) + g.H * g)), 2))


class TestScorerOracle:
    """The scorers against an extended-precision log-det of the same float64 inputs."""

    MISALIGNMENT = Misalignment(theta_o=0.1, theta_cs=0.7, phi_cs=0.1, phi_x=0.05, phi_y=-0.08)

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("total, tolerance", [
        pytest.param(SNR30, {"rtol": 1e-15, "atol": 0.0}, id="30dB"),
        pytest.param(1e-2, {"rtol": 0.0, "atol": 1e-14}, id="-20dB"),
    ])
    def test_rates_match_extended_precision_oracle(self, model, total, tolerance):
        # full-rank powers of spreads from 1 to 1e9 and a single active stream.  At -20 dB the
        # rates are near 0.1, so an absolute error shows most; the scorer was within 2.1e-15
        # bit/s/Hz of the oracle on every spread.  The one entry of build_codebook(0, 0), t = 1,
        # is the DFT precoder that the campaigns score as the identity row
        cfg = design_point(8, 100.0)
        h = build_channel(cfg, self.MISALIGNMENT, model).entries
        one_stream = np.append(total, np.zeros(7))
        spreads = (1.0, 1e2, 1e3, 1e9)
        for powers in [*(spread_allocation(8, spread, total) for spread in spreads), one_stream]:
            for cb in (build_codebook(1, 1), build_codebook(0, 0)):
                rates = codebook_rates_many(cfg, h[None], cb, powers)[0]
                np.testing.assert_allclose(rates, log_det_oracle(cfg, h, cb, powers), **tolerance)

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("total, tolerance", [
        pytest.param(SNR30, {"rtol": 1e-15, "atol": 0.0}, id="30dB"),
        pytest.param(1e-2, {"rtol": 0.0, "atol": 1e-13}, id="-20dB"),
    ])
    def test_precoded_rates_with_per_trial_powers_match_the_oracle(self, model, total, tolerance):
        # the exact optimal-precoder row's inputs: each trial's paper precoder at its true shift and
        # its own water-filled powers, (T, N).  The Cholesky's per-stream split is held to the
        # |r_kk| of a QR of [G; I], the interference-cancellation chain in natural order; it was
        # within 2.9 eps max(1, |rate|) of it here, and within 42 eps on ill-conditioned random
        # channels at 45-60 dB, where the Cholesky of I + G^H G squares G's condition number
        cfg = design_point(8, 100.0)
        rng = np.random.default_rng(23)
        mis = stack_of([self.MISALIGNMENT, *(random_misalignment(rng, 8) for _ in range(3))])
        h = build_channels(cfg, mis, model)
        f = transceiver.precoder_matrices(cfg, mis.theta_cs, mis.phi_cs)
        powers = water_fill(singular_values_many(8, cfg.beta, mis.theta_o), total)
        rates = precoded_rates(h, f, powers)
        oracle = [precoded_log_det_oracle(*trial) for trial in zip(h, f, powers)]
        np.testing.assert_allclose(rates.sum(axis=-1), oracle, **tolerance)
        g = (h @ f) * np.sqrt(powers)[:, None, :]
        r = np.linalg.qr(np.concatenate([g, np.broadcast_to(np.eye(8), g.shape)], axis=1), mode="r")
        qr_split = 2.0 * np.log2(np.abs(np.diagonal(r, axis1=1, axis2=2)))
        scale = np.maximum(1.0, np.abs(oracle))[:, None]
        assert (np.abs(rates - qr_split) <= 8.0 * np.finfo(float).eps * scale).all()

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    def test_best_entry_matches_the_oracle_at_low_snr(self, monkeypatch, model):
        # at -20 dB the rates are near 0.1, so an absolute error shows most.  The bound leaves
        # only the first 2 of the 32 entries to the Cholesky on either model, and the best entry
        # is the oracle's within 1e-14
        cholesky = np.linalg.cholesky
        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a.shape) or cholesky(a))
        cfg = design_point(8, 100.0)
        channel = build_channel(cfg, self.MISALIGNMENT, model)
        h = channel.entries
        cb = build_codebook(3, 2)
        powers = spread_allocation(8, 1e3, 1e-2)
        best = codebook_best_rates(cfg, h[None], *channels_svd(cfg, [channel], model), [cb], powers)[0, 0]
        assert sum(shape[0] for shape in calls) < cb.size
        assert best == codebook_rates_many(cfg, h[None], cb, powers).max()
        np.testing.assert_allclose(best, log_det_oracle(cfg, h, cb, powers).max(), rtol=0.0, atol=1e-14)


def twin_of_each_entry(cb):
    """Entry order index of each entry's twin (k + K/2, J-1-j) in a grid of K azimuths and J polars."""
    k_count, j_count = len(cb.theta_angles), len(cb.phi_angles)
    k, j = np.divmod(np.arange(cb.size), j_count)
    return (k + k_count // 2) % k_count * j_count + (j_count - 1 - j)


def shift_vectors(cb):
    """Each entry's centre-shift vector sin(phi) (cos(theta), sin(theta)), as a complex number."""
    thetas, phis = cb.angle_pairs()
    return np.sin(phis) * np.exp(1j * thetas)


def closest_pair(z):
    """Smallest distance between two distinct points of a 1-D complex array."""
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min()


def assert_same_grids(a, b):
    np.testing.assert_array_equal(a.theta_angles, b.theta_angles)
    np.testing.assert_array_equal(a.phi_angles, b.phi_angles)


LINEAR_GRIDS = [(l1, l2) for l1 in range(1, 8) for l2 in range(6)]


class TestLinearCodebookTwins:
    """A linear codebook holds every precoder twice; the bit sweep scores its distinct half."""

    @pytest.mark.parametrize("n", [4, 16])
    def test_twin_precoders_agree(self, n):
        cfg = design_point(n, 300.0)
        for l1, l2 in LINEAR_GRIDS:
            cb = build_codebook(l1, l2, quantization="linear")
            f = transceiver.precoder_matrices(cfg, *cb.angle_pairs())
            assert np.abs(f - f[twin_of_each_entry(cb)]).max() <= 1e-12, (l1, l2)

    @pytest.mark.parametrize("model", [APPROXIMATE, EXACT_DISTANCE])
    @pytest.mark.parametrize("n, l1, l2", [(8, 1, 3), (8, 3, 2), (16, 5, 3), (16, 7, 1)])
    def test_twin_rates_agree(self, model, n, l1, l2):
        cfg = design_point(n, 300.0)
        cb = build_codebook(l1, l2, quantization="linear")
        _, h = TestStackedCodebookScorer().stack(cfg, model, 4)
        rates = codebook_rates_many(cfg, h, cb, approx_power_allocation(cfg, 15.0))
        np.testing.assert_allclose(rates[:, twin_of_each_entry(cb)], rates, rtol=1e-12, atol=0.0)
        distinct = transceiver._distinct_codebook(l1, l2, "linear")
        assert distinct.size == cb.size // 2
        best = codebook_rates_many(cfg, h, distinct, approx_power_allocation(cfg, 15.0)).max(axis=-1)
        np.testing.assert_allclose(best, rates.max(axis=-1), rtol=1e-12, atol=0.0)

    def test_distinct_half_holds_each_shift_once(self):
        for l1, l2 in LINEAR_GRIDS:
            if l1 + l2 > 10 or l2 == 0:  # one polar puts every entry at the zero shift
                continue
            cb = build_codebook(l1, l2, quantization="linear")
            distinct = transceiver._distinct_codebook(l1, l2, "linear")
            assert_same_grids(distinct, transceiver.Codebook(cb.theta_angles[: 2 ** (l1 - 1)], cb.phi_angles))
            assert closest_pair(shift_vectors(cb)) <= 1e-15  # every shift twice
            assert closest_pair(shift_vectors(distinct)) > 1e-4  # and here once

    def test_sine_codebooks_have_no_twins(self):
        # the azimuths lie in (-pi/2, pi/2), so theta + pi is never an entry, and no two
        # entries of a sine codebook share a shift vector: the fold never applies
        for l1 in range(8):
            for l2 in range(1, 6):
                if l1 + l2 > 10:
                    continue
                cb = build_codebook(l1, l2)
                assert closest_pair(shift_vectors(cb)) > 1e-4, (l1, l2)
                assert_same_grids(transceiver._distinct_codebook(l1, l2, "sine"), cb)

    def test_one_azimuth_is_kept_whole(self):
        # theta = 0 is the only azimuth, so theta + pi is not an entry
        assert_same_grids(transceiver._distinct_codebook(0, 3, "linear"), build_codebook(0, 3, "linear"))


class TestStreamPowers:
    """The rate kernels that take powers from outside share one check of them."""

    @pytest.mark.parametrize("head, match", [
        pytest.param([math.nan, SNR15], "nonnegative and finite", id="nan"),
        pytest.param([-1.0, SNR15], "nonnegative and finite", id="negative"),
        pytest.param([math.inf, 0.0], "nonnegative and finite", id="infinite"),
        pytest.param([0.0, 0.0], "at least one stream", id="all-zero"),
    ])
    @pytest.mark.parametrize("kernel", ["precoded_rates", "codebook_rates_many"])
    def test_bad_powers_rejected(self, kernel, head, match):
        cfg = design_point(8)
        h = build_channel(cfg, Misalignment()).entries[None]
        powers = np.array(head + [0.0] * 6)
        with pytest.raises(ValueError, match=match):
            if kernel == "precoded_rates":
                precoded_rates(h, dft_matrix(8), powers)
            else:
                codebook_rates_many(cfg, h, build_codebook(1, 1), powers)

    def test_stack_with_a_powerless_row_rejected(self):
        h = np.stack([build_channel(design_point(8), Misalignment()).entries] * 2)
        powers = np.array([np.full(8, SNR15 / 8), np.zeros(8)])
        with pytest.raises(ValueError, match="at least one stream"):
            precoded_rates(h, dft_matrix(8), powers)


class TestApproxPowerAllocation:
    def test_matches_exact_waterfilling_without_rotation(self):
        cfg = design_point()
        powers = approx_power_allocation(cfg, 15.0)
        exact = water_fill(singular_values(8, cfg.beta, 0.0), SNR15)
        np.testing.assert_array_equal(powers, exact)

    def test_small_loss_under_rotation(self):
        cfg = design_point()
        theta_o = math.pi / 16
        sig_true = singular_values(8, cfg.beta, theta_o)
        exact = water_fill(sig_true, SNR15)
        approx = approx_power_allocation(cfg, 15.0)
        approx_on_true = rate_sum(sig_true, approx)
        loss = rate_sum(sig_true, exact) - approx_on_true
        assert 0.0 <= loss <= 0.005 * rate_sum(sig_true, exact)

    def test_tiny_beta_concentrates_power(self):
        cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=1e-4, radius_rx=1e-4, distance=100.0)
        powers = approx_power_allocation(cfg, 15.0)
        assert powers[0] == pytest.approx(SNR15, rel=1e-9)
        np.testing.assert_array_equal(powers[1:], 0.0)


class TestZfReceivers:
    def test_zf_achieves_capacity_at_flat_point(self):
        cfg = design_point(4)
        rng = np.random.default_rng(67)
        mis = random_misalignment(rng, 4)
        h = build_channel(cfg, mis)
        sig = singular_values(4, cfg.beta, mis.theta_o)
        cap = capacity(sig, SNR15, 1.0)
        zf, _ = nulling(h.entries, SNR15)
        assert zf[0] == pytest.approx(cap, abs=0.01)

    def test_scaled_unitary_equalises_streams(self):
        rng = np.random.default_rng(68)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        h = 3.0 * q
        # each of the 6 streams sees SNR p c^2 = 2 * 9, so ZF sums to N log2(1 + p c^2)
        zf, _ = nulling(h, 12.0)
        np.testing.assert_allclose(zf[0], 6 * math.log2(1.0 + 2.0 * 9.0), atol=1e-9)

    def test_zf_below_capacity(self):
        cfg = design_point(8, 200.0)
        rng = np.random.default_rng(69)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            sig = singular_values(8, cfg.beta, mis.theta_o)
            cap = capacity(sig, SNR15, 1.0)
            zf, _ = nulling(h.entries, SNR15)
            assert zf[0] <= cap + 1e-9

    def test_rank_deficient_row_scores_zero(self):
        cfg = design_point(8)
        singular = build_channel(cfg, Misalignment(theta_o=math.pi / 8)).entries
        regular = build_channel(cfg, Misalignment()).entries
        h = np.stack([singular, regular])
        sigma, v = svd_of(h)
        zf, zf_sic = nulling_rates(sigma, v, SNR15)
        assert sigma[0, -1] <= 1e-12 * sigma[0, 0]
        np.testing.assert_array_equal(zf[0], 0.0)
        np.testing.assert_array_equal(zf_sic[0], 0.0)
        assert np.all(zf[1] > 0.0) and np.all(zf_sic[1] > 0.0)

    @pytest.mark.parametrize("sigma_shape, v_shape", [((2, 7), (2, 8, 8)), ((1, 8), (2, 8, 8)),
                                                      ((2, 8, 1), (2, 8, 8)), ((8,), (8, 8)),
                                                      ((2, 8), (2, 8, 7)), ((2, 8), (2, 8))])
    def test_singular_values_must_match_the_stack(self, sigma_shape, v_shape):
        with pytest.raises(ValueError, match="singular values and vectors"):
            nulling_rates(np.ones(sigma_shape), np.ones(v_shape, dtype=complex), SNR15)

    @pytest.mark.parametrize("part, value", [("sigma", math.nan), ("sigma", -1.0), ("sigma", math.inf),
                                             ("v", math.nan), ("v", complex(0.0, math.inf))])
    def test_malformed_decomposition_rejected(self, part, value):
        # unchecked, a NaN or negative value in sigma scores as a rank-deficient 0
        svd = dict(zip(("sigma", "v"), svd_of(build_channel(design_point(8), Misalignment()).entries[None])))
        svd[part][0, -1] = value
        with pytest.raises(ValueError, match="finite"):
            nulling_rates(svd["sigma"], svd["v"], SNR15)

    @pytest.mark.parametrize("p_total", [0.0, -1.0, math.inf, math.nan])
    def test_power_must_be_positive_and_finite(self, p_total):
        sigma, v = svd_of(build_channel(design_point(8), Misalignment()).entries[None])
        with pytest.raises(ValueError, match="p_total must be positive and finite"):
            nulling_rates(sigma, v, p_total)

    def test_spectrum_rates_by_hand(self):
        # a zero gain (beta = 0 gives exact zeros) scores 0 on both receivers without a
        # division warning; gains (1, 2) at p = 3 per stream, with |V_km|^2 = 1/2 as on the
        # separable model's closed form, give ZF 2 log2(1 + 3/(5/8)) and ZF-SIC
        # log2(1 + 3) + log2(1 + 12)
        v = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
        zf, zf_sic = nulling_rates(np.array([[2.0, 0.0], [1.0, 2.0]]), np.stack([v, v]), 6.0)
        np.testing.assert_array_equal(zf[0], 0.0)
        np.testing.assert_array_equal(zf_sic[0], 0.0)
        assert zf[1] == pytest.approx(2.0 * math.log2(1.0 + 3.0 / 0.625), rel=1e-15)
        assert zf_sic[1] == pytest.approx(math.log2(4.0) + math.log2(13.0), rel=1e-15)


class TestZfSic:
    def test_sum_rate_equals_log_det(self):
        rng = np.random.default_rng(70)
        for _ in range(50):
            n = int(rng.choice([2, 4, 8]))
            h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            p_total = float(rng.uniform(0.5, 100.0))
            noise = float(rng.uniform(0.2, 3.0))
            _, zf_sic = nulling(h, p_total / noise)  # the SNR of budget p_total at noise power `noise`
            rate = zf_sic[0]
            scale = p_total / (n * noise)
            ref = math.log2(np.linalg.det(np.eye(n) + scale * h.conj().T @ h).real)
            assert rate == pytest.approx(ref, abs=1e-9)

    def test_orthogonal_columns_match_plain_zf(self):
        rng = np.random.default_rng(71)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        h = 2.5 * q
        zf, zf_sic = nulling(h, 10.0)
        assert zf_sic[0] == pytest.approx(zf[0], abs=1e-9)

    def test_close_to_capacity_at_design_point(self):
        cfg = design_point(8)
        rng = np.random.default_rng(72)
        for _ in range(10):
            mis = random_misalignment(rng, 8)
            h = build_channel(cfg, mis)
            sig = singular_values(8, cfg.beta, mis.theta_o)
            cap = capacity(sig, SNR15, 1.0)
            _, zf_sic = nulling(h.entries, SNR15)
            assert abs(zf_sic[0] - cap) <= 0.1

    def test_sum_rate_independent_of_stream_order(self):
        rng = np.random.default_rng(73)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        base = nulling(h, 5.0)[1][0]
        for _ in range(5):
            perm = rng.permutation(6)
            assert nulling(h[:, perm], 5.0)[1][0] == pytest.approx(base, abs=1e-12)

    def test_rate_sum_matches_log_det_on_exact_geometry(self):
        # ZF-SIC is the rate sum over the singular values; hold it to log det(I + p H^H H) of the
        # built channels.  The cells are the campaign's exact-geometry ones, 15 degree draws
        # clamped onto the rotation bound at N = 16 (cond up to 6e7 at 500 m), each stack with a
        # rank-deficient separable channel at theta_o = pi/N appended, which scores 0
        cfg = sim.TrialConfig(seed=2024, n_trials=20, angle_range_small=math.radians(15.0),
                              n_antennas_list=(8, 16), distances=(100.0, 500.0), wavelength=0.004,
                              exact_geometry=True)
        clamped = 0
        for acfg, mis, h, _, _ in campaign_cells(cfg):
            n = acfg.n_antennas
            clamped += np.count_nonzero(np.abs(mis.theta_o) == math.pi / n)
            singular = build_channel(acfg, Misalignment(theta_o=math.pi / n)).entries
            stack = np.concatenate([h, singular[None]])
            sigma, v = svd_of(stack)
            assert sigma[-1, -1] <= 1e-12 * sigma[-1, 0]
            zf, zf_sic = nulling_rates(sigma, v, SNR15)
            assert zf[-1] == 0.0 and zf_sic[-1] == 0.0
            gram = np.swapaxes(h.conj(), -1, -2) @ h
            log_det = np.linalg.slogdet(np.eye(n) + (SNR15 / n) * gram)[1] / math.log(2.0)
            np.testing.assert_allclose(zf_sic[:-1], log_det, rtol=1e-12, atol=0.0)
        assert clamped > 0
