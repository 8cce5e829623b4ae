"""Property-based checks of the campaign draws, the stacked exact distances and channel build,
the closed-form SVD and receivers, the spectrum, water-filling and the codebook scorer."""

import math

import mpmath
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    bits,
    campaign_cells,
    campaign_svd,
    coordinate_distances,
    previous_trial_angles,
    previous_water_fill_powers,
    stack_of,
    svd_of,
)
from ucamimo import (
    APPROXIMATE,
    EXACT_DISTANCE,
    ArrayConfig,
    Misalignment,
    approx_power_allocation,
    build_channel,
    build_channels,
    build_codebook,
    capacity,
    closed_form_svd,
    nulling_rates,
    numerical_svd,
    precoded_rates,
    precoder_from_angles,
    precoder_matrices,
    singular_values,
    water_fill,
)
from ucamimo import design, sim, transceiver
from ucamimo.design import condition_numbers, power_from_db
from ucamimo.geometry import ANGLE_NAMES, distance_matrix_exact, rx_ring_harmonics
from ucamimo.spectrum import singular_values_many
from ucamimo.transceiver import codebook_best_rates, codebook_rates_many, precoded_rate

WAVELENGTH = 0.004
DISTANCE = 100.0
CODEBOOK = build_codebook(2, 1)
SCORER_CODEBOOK = build_codebook(4, 2)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def array_with_beta(n: int, beta: float) -> ArrayConfig:
    radius = math.sqrt(beta * WAVELENGTH * DISTANCE / (2.0 * math.pi))
    return ArrayConfig(n_antennas=n, wavelength=WAVELENGTH, radius_tx=radius, radius_rx=radius,
                       distance=DISTANCE)


@st.composite
def misalignments(draw, n):
    """A misalignment in the production ranges, the rotation within its bound pi/N."""
    small = math.radians(10.0)
    return Misalignment(
        theta_o=draw(st.floats(-math.pi / n, math.pi / n)),
        theta_cs=draw(st.floats(-math.pi, math.pi)),
        phi_cs=draw(st.floats(0.0, small)),
        phi_x=draw(st.floats(-small, small)),
        phi_y=draw(st.floats(-small, small)),
    )


@st.composite
def links(draw, max_n=16):
    """(array, misalignment): even N <= max_n, beta in (0, 14], misalignment in the production ranges."""
    n = draw(st.sampled_from(range(2, max_n + 1, 2)))
    beta = draw(st.floats(0.05, 14.0))
    return array_with_beta(n, beta), draw(misalignments(n))


@st.composite
def stacks(draw, count=3):
    """(array, misalignments): one array and `count` independent misalignments of it."""
    cfg, mis = draw(links())
    return cfg, (mis, *(draw(misalignments(cfg.n_antennas)) for _ in range(count - 1)))


@st.composite
def edge_misalignments(draw, n):
    """A production misalignment whose rotation may sit exactly on +-pi/N and whose tilts may be zero.

    Zero tilts leave the attitude matrix's z-row without ring amplitude,
    the degenerate-axis branch of `rx_ring_harmonics`.
    """
    mis = draw(misalignments(n))
    theta_o = draw(st.sampled_from([mis.theta_o, math.pi / n, -math.pi / n]))
    phi_x, phi_y = draw(st.sampled_from([(mis.phi_x, mis.phi_y), (0.0, 0.0)]))
    return Misalignment(theta_o, mis.theta_cs, mis.phi_cs, phi_x, phi_y)


@PROPERTY
@given(
    seed=st.integers(0, 2**64 - 1),
    n_trials=st.integers(1, 60),
    small=st.sampled_from(
        [0.0, 1e-9, math.radians(10.0), math.radians(15.0), math.nextafter(math.pi / 2, 0.0)]
    ),
    theta_cs_range=st.sampled_from([0.0, math.pi / 2, math.pi]),
    n=st.sampled_from([2, 4, 16, 64]),
)
def test_campaign_draws_match_scalar_rule_bit_for_bit(seed, n_trials, small, theta_cs_range, n):
    # every column of the campaign draws, and the one-trial draw after its clamp, equal the
    # scalar rule on that trial's substream, the sign of zero included
    cfg = sim.TrialConfig(seed=seed, n_trials=n_trials, angle_range_small=small,
                          theta_cs_range=theta_cs_range)
    draws = sim._campaign_draws(cfg)
    assert draws.shape == (len(ANGLE_NAMES), n_trials)
    bound = math.pi / n
    for t in range(n_trials):
        ref = previous_trial_angles(sim.trial_rng(seed, t), cfg)
        assert bits(draws[:, t]).tolist() == bits(np.array(ref)).tolist(), t
        clamped = (min(max(ref[0], -bound), bound), *ref[1:])
        mis = sim.draw_misalignment(sim.trial_rng(seed, t), cfg, n)
        one = np.array([getattr(mis, name) for name in ANGLE_NAMES])
        assert bits(one).tolist() == bits(np.array(clamped)).tolist(), t


@PROPERTY
@given(link=links(max_n=64), data=st.data())
def test_stacked_exact_distances_match_coordinate_norms(link, data):
    # the trial-axis broadcast that --exact-geometry builds, against the coordinate oracle one trial at a time
    cfg, _ = link
    n = cfg.n_antennas
    trials = data.draw(st.lists(edge_misalignments(n), min_size=1, max_size=6))
    stacked = distance_matrix_exact(cfg, stack_of(trials))
    assert stacked.shape == (len(trials), n, n)
    for row, mis in zip(stacked, trials):
        np.testing.assert_allclose(row, coordinate_distances(cfg, mis), rtol=1e-12, atol=0.0)


@PROPERTY
@given(link=links(max_n=64), model=st.sampled_from([APPROXIMATE, EXACT_DISTANCE]), data=st.data())
def test_stacked_build_matches_one_trial_builds(link, model, data):
    cfg, _ = link
    n = cfg.n_antennas
    trials = data.draw(st.lists(edge_misalignments(n), min_size=1, max_size=6))
    h = build_channels(cfg, stack_of(trials), model)
    assert h.shape == (len(trials), n, n)
    for row, mis in zip(h, trials):
        np.testing.assert_array_equal(bits(row), bits(build_channel(cfg, mis, model).entries))
    # a row does not depend on where in the stack its trial sits
    reordered = build_channels(cfg, stack_of(trials[::-1]), model)
    np.testing.assert_array_equal(bits(reordered), bits(h[::-1]))


@PROPERTY
@given(link=links(max_n=64))
def test_closed_form_svd_matches_numerical_svd(link):
    cfg, mis = link
    h = build_channel(cfg, mis)
    closed = closed_form_svd(cfg, mis)
    numeric = numerical_svd(h.entries).sigma
    np.testing.assert_allclose(np.sort(closed.sigma), np.sort(numeric), rtol=0.0, atol=1e-13 * numeric[0])
    assert np.max(np.abs(closed.reconstruct() - h.entries)) <= 1e-12


@PROPERTY
@given(link=links(max_n=64), data=st.data())
def test_rx_ring_keeps_its_radius(link, data):
    # Rotation and tilt keep the Rx ring's radius: sum_i amp_i**2 = 2 R_r**2, and the harmonic
    # sum_i amp_i**2 cos 2(theta_n - phase_i) is identically zero, which is why the exact squared
    # distance has no ring term.  The cosines' arguments reach 4 pi, so the computed harmonic keeps
    # a few 1e-15 R_r**2 of rounding; the ring term was half of it, and half of 1e-14 R_r**2 is
    # below half an ulp of D**2 once D >= 10 R_r, so the term never moved a bit there.
    cfg, _ = link
    trials = data.draw(st.lists(edge_misalignments(cfg.n_antennas), min_size=1, max_size=6))
    amps, phases = rx_ring_harmonics(cfg, stack_of(trials))
    r2 = cfg.radius_rx**2
    np.testing.assert_allclose(np.sum(amps**2, axis=-1), 2.0 * r2, rtol=1e-15, atol=0.0)
    th = cfg.antenna_angles[:, None]
    harmonic = np.sum(amps[:, None, :] ** 2 * np.cos(2.0 * (th - phases[:, None, :])), axis=-1)
    assert np.max(np.abs(harmonic)) <= 1e-14 * r2


@PROPERTY
@given(stack=stacks(), model=st.sampled_from([APPROXIMATE, EXACT_DISTANCE]), snr_db=st.floats(-10.0, 30.0))
# one active stream, and every stream active
@example(stack=(array_with_beta(4, 0.1), (Misalignment(theta_cs=1.0, phi_cs=0.1), Misalignment(),
                                          Misalignment(theta_o=-0.5, theta_cs=-3.0, phi_cs=0.17))),
         model=APPROXIMATE, snr_db=-10.0)
@example(stack=(array_with_beta(16, 6.0), (Misalignment(theta_o=0.1, theta_cs=-2.0, phi_cs=0.15, phi_x=0.1),
                                           Misalignment(theta_o=-0.19, theta_cs=0.5, phi_cs=0.02, phi_y=-0.1),
                                           Misalignment(theta_cs=3.1, phi_cs=0.17))),
         model=EXACT_DISTANCE, snr_db=30.0)
def test_codebook_rates_match_per_entry_rates(stack, model, snr_db):
    cfg, mises = stack
    channels = [build_channel(cfg, mis, model) for mis in mises]
    alloc = approx_power_allocation(cfg, snr_db)
    thetas, phis = CODEBOOK.angle_pairs()
    expected = [
        [precoded_rate(h, precoder_from_angles(cfg, theta, phi), alloc).rate for theta, phi in zip(thetas, phis)]
        for h in channels
    ]
    many = codebook_rates_many(cfg, np.stack([h.entries for h in channels]), CODEBOOK, alloc)
    np.testing.assert_allclose(many, expected, rtol=1e-10, atol=0.0)
    one = codebook_rates_many(cfg, channels[0].entries[None], CODEBOOK, alloc)[0]
    np.testing.assert_allclose(one, expected[0], rtol=1e-10, atol=0.0)


@PROPERTY
@given(stack=stacks(), model=st.sampled_from([APPROXIMATE, EXACT_DISTANCE]), snr_db=st.floats(-20.0, 30.0),
       spread=st.floats(1.0, transceiver._MAX_POWER_SPREAD), data=st.data())
def test_antenna_and_gram_forms_agree(stack, model, snr_db, spread, data):
    # the scorer's two forms on full-rank powers within the guard's spread.  Both round H^H H,
    # which costs a channel of condition number c up to eps c^2 of each form: c is kept at
    # 1e3 or below.  The antenna form adds an absolute error of about eps times N times the
    # spread (K^-1 holds 1/p_min next to 1/p_max) plus the sum of |log2 p_k| that its log det P
    # cancels.  At low SNR, where the rates are small, that term dominates; over 3,563 random
    # cases the difference past the relative term reached 1.14 times it
    cfg, mises = stack
    n = cfg.n_antennas
    h = build_channels(cfg, stack_of(mises), model)
    assume(np.all(np.linalg.cond(h) <= 1e3))
    exponents = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    weights = spread ** -np.array(exponents)
    powers = power_from_db(snr_db) * weights / weights.sum()
    hh, powers = transceiver._scorer_inputs(cfg, h, powers)
    trials, entries = np.divmod(np.arange(len(hh) * SCORER_CODEBOOK.size), SCORER_CODEBOOK.size)
    hh, t = hh[trials], transceiver._codebook_phasors(cfg, SCORER_CODEBOOK)[entries]
    antenna = transceiver._antenna_scorer(powers)(hh, t)
    gram = transceiver._gram_scorer(powers)(hh, t)
    atol = 4.0 * np.finfo(float).eps * (n * spread + np.sum(np.abs(np.log2(powers))))
    np.testing.assert_allclose(antenna, gram, rtol=1e-13, atol=atol)


def powers_on(n: int, active, snr_db: float, weights) -> np.ndarray:
    """Stream powers at unit noise: the given weights on the `active` streams, summing to the SNR."""
    weights = np.asarray(weights, dtype=float)
    powers = np.zeros(n)
    powers[list(active)] = power_from_db(snr_db) * weights / weights.sum()
    return powers


@st.composite
def partial_powers(draw, n):
    """Powers on r < N streams, chosen at random, at an SNR in [-20, 60] dB; r = 1 when N = 2."""
    r = draw(st.integers(1, n - 1))
    active = draw(st.permutations(range(n)))[:r]
    weights = draw(st.lists(st.floats(1e-3, 1.0), min_size=r, max_size=r))
    return powers_on(n, active, draw(st.floats(-20.0, 60.0)), weights)


@st.composite
def full_powers(draw, n, max_spread=transceiver._MAX_POWER_SPREAD):
    """Powers on every stream with p_max / p_min in [1, max_spread], by default the antenna path's range,
    at an SNR in [-20, 60] dB."""
    spread = draw(st.floats(1.0, max_spread))
    exponents = [0.0, 1.0, *draw(st.lists(st.floats(0.0, 1.0), min_size=n - 2, max_size=n - 2))]
    return powers_on(n, range(n), draw(st.floats(-20.0, 60.0)), spread ** -np.array(exponents))


@st.composite
def bound_stacks(draw):
    """(array, misalignments, powers): a stack of three channels' draws and powers on r < N streams or on all.

    Full-rank powers are drawn twice: with spreads up to the antenna path's 1e3, and with spreads up to 2,
    where the full-rank bound's second-order term is seldom clipped to 0.
    """
    cfg, mises = draw(stacks())
    n = cfg.n_antennas
    return cfg, mises, draw(st.one_of(partial_powers(n), full_powers(n), full_powers(n, 2.0)))


# Bit pairs (L1, L2) of small codebooks: one entry, 8 entries or fewer, and more
SMALL_CODEBOOK_BITS = [(0, 0), (1, 1), (1, 2), (2, 1), (3, 0), (3, 2), (4, 2)]
# Coaxial draws with no polar shift: M is circulant, so the DFT precoder, the one entry of a
# (0, 0) codebook, is aligned with its modes, and designed powers go to the strongest of them
ALIGNED = Misalignment(theta_o=0.0, theta_cs=0.3, phi_cs=0.0, phi_x=0.1)
# Misaligned draws in the production ranges, for the designed cells below
SHIFTED = (Misalignment(theta_o=0.1, theta_cs=0.7, phi_cs=0.1, phi_x=0.05, phi_y=-0.08),
           Misalignment(theta_o=-0.05, theta_cs=-2.0, phi_cs=0.15, phi_x=-0.1),
           Misalignment(theta_o=0.02, theta_cs=2.9, phi_cs=0.05, phi_y=0.1))
# The designed 100 m arrays of N = 8 and 16 (beta_opt at 15 dB): water-filling powers every stream
# nearly equally there (spread 1.04 and 1.17), the campaigns' full-rank cells
DESIGNED_8, DESIGNED_16 = array_with_beta(8, 3.1116), array_with_beta(16, 5.9923)


@PROPERTY
@given(case=bound_stacks(), model=st.sampled_from([APPROXIMATE, EXACT_DISTANCE]),
       bits=st.sampled_from(SMALL_CODEBOOK_BITS), quantization=st.sampled_from(["sine", "linear"]))
# the bound is tight for the aligned precoder, where the exact rate exceeds it by a few ulps,
# and at equal powers on every stream, where every entry's bound is the rate that all share
@example(case=(array_with_beta(8, 2.0), (ALIGNED,) * 3,
               transceiver.approx_power_allocation(array_with_beta(8, 2.0), 0.0)),
         model=APPROXIMATE, bits=(0, 0), quantization="sine")
@example(case=(array_with_beta(16, 3.0), (ALIGNED, Misalignment(theta_cs=-1.0), Misalignment(theta_cs=2.0)),
               transceiver.approx_power_allocation(array_with_beta(16, 3.0), 15.0)),
         model=APPROXIMATE, bits=(0, 0), quantization="sine")
@example(case=(array_with_beta(8, 2.0), (ALIGNED, Misalignment(theta_cs=-1.0), Misalignment(theta_cs=2.0)),
               np.full(8, power_from_db(15.0) / 8)),
         model=EXACT_DISTANCE, bits=(3, 2), quantization="sine")
@example(case=(array_with_beta(16, 6.0), (ALIGNED, Misalignment(theta_cs=-1.0), Misalignment(theta_cs=2.0)),
               np.full(16, power_from_db(-20.0) / 16)),
         model=APPROXIMATE, bits=(4, 2), quantization="linear")
@example(case=(DESIGNED_8, SHIFTED, transceiver.approx_power_allocation(DESIGNED_8, 15.0)),
         model=APPROXIMATE, bits=(4, 2), quantization="sine")
@example(case=(DESIGNED_8, SHIFTED, transceiver.approx_power_allocation(DESIGNED_8, 15.0)),
         model=EXACT_DISTANCE, bits=(4, 2), quantization="sine")
@example(case=(DESIGNED_16, SHIFTED, transceiver.approx_power_allocation(DESIGNED_16, 15.0)),
         model=APPROXIMATE, bits=(4, 2), quantization="sine")
@example(case=(DESIGNED_16, SHIFTED, transceiver.approx_power_allocation(DESIGNED_16, 15.0)),
         model=EXACT_DISTANCE, bits=(4, 2), quantization="sine")
def test_eigenbasis_bound_holds_for_every_entry(case, model, bits, quantization):
    # codebook_best_rates leaves an entry unscored only when its bound is below the best
    # exact rate by more than the margin; so no exact rate may pass its bound by the margin.
    # The designed N = 8 and 16 cells and the draws of spread at most 2 hold the full-rank
    # bound's second-order term: twice the term, or gamma O with its factor
    # max(0, 1/2 - h sqrt(O) / 3) dropped, fails here
    cfg, mises, powers = case
    cb = build_codebook(*bits, quantization=quantization)
    mis = stack_of(mises)
    h = build_channels(cfg, mis, model)
    _, powers = transceiver._scorer_inputs(cfg, h, powers)
    modes = transceiver._modes(*campaign_svd(cfg, mis, h, model), powers)
    bounds = transceiver._entry_bounds(transceiver._codebook_phasors(cfg, cb), modes)
    rates = codebook_rates_many(cfg, h, cb, powers)
    assert np.all(rates <= bounds + modes.margin[:, None])


@st.composite
def zero_diagonal_hermitians(draw):
    """A Hermitian E with a zero diagonal and ||E||_2 in (0, 1), real or complex, of order 2 to 8."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) + 1j * draw(st.sampled_from([0.0, 1.0])) * rng.standard_normal((n, n))
    e = a + a.conj().T
    np.fill_diagonal(e, 0.0)
    return e * draw(st.floats(1e-3, 0.999)) / np.linalg.norm(e, 2)


# a (J - I) of order 3, eigenvalues (2a, -a, -a): its cubic terms do not cancel, so there
# -||E||_F^2 / 2 alone is not a bound
ALL_PAIRS = 0.1 * (np.ones((3, 3)) - np.eye(3))


def log_det_one_plus(e):
    """log det(I + E) of a Hermitian E, from its eigenvalues."""
    return float(np.sum(np.log1p(np.linalg.eigvalsh(e))))


@PROPERTY
@given(e=zero_diagonal_hermitians())
@example(e=ALL_PAIRS)
@example(e=-ALL_PAIRS)
def test_second_order_term_bounds_log_det(e):
    # the full-rank codebook bound's second-order term (`_entry_bounds`) rests on this: with
    # tr E = 0 and log(1 + x) <= x - x^2/2 + x^3/3 for x > -1, log det(I + E) <=
    # -||E||_F^2 (1/2 - ||E||_2 / 3)
    frobenius2, spectral = float(np.sum(np.abs(e) ** 2)), float(np.linalg.norm(e, 2))
    assert log_det_one_plus(e) <= -frobenius2 * (0.5 - spectral / 3.0) + 1e-12 * (1.0 + frobenius2)


def test_plain_second_order_term_is_not_a_bound():
    # at a (J - I), log det(I + E) = -3a^2 + 2a^3 + O(a^4) lies above -||E||_F^2 / 2 = -3a^2, so
    # the cubic correction ||E||_2 / 3 cannot be dropped from the matrix-level bound
    frobenius2 = float(np.sum(ALL_PAIRS**2))
    assert log_det_one_plus(ALL_PAIRS) > -frobenius2 / 2.0 + 1e-4
    assert log_det_one_plus(ALL_PAIRS) <= -frobenius2 * (0.5 - 0.2 / 3.0)


@st.composite
def scorer_powers(draw, n):
    """Powers on r < N streams, on one stream, on every stream equally, water-filled by design, or
    water-filled over random gains with every stream powered."""
    rule = draw(st.sampled_from(["partial", "one", "equal", "designed", "filled"]))
    if rule == "partial":
        return draw(partial_powers(n))
    snr_db = draw(st.floats(-20.0, 60.0))
    if rule == "filled":
        gains = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
        # past the budget at which the weakest stream starts to fill, every stream has power
        floor = np.sum(1.0 / gains.min() ** 2 - 1.0 / gains**2)
        return water_fill(gains, floor + power_from_db(snr_db))
    if rule == "one":
        return powers_on(n, [draw(st.integers(0, n - 1))], snr_db, [1.0])
    if rule == "equal":
        return powers_on(n, range(n), snr_db, np.ones(n))
    return transceiver.approx_power_allocation(array_with_beta(n, 1.0), snr_db)


@PROPERTY
@given(stack=stacks(), model=st.sampled_from([APPROXIMATE, EXACT_DISTANCE]), data=st.data(),
       books=st.lists(st.tuples(st.sampled_from(SMALL_CODEBOOK_BITS), st.sampled_from(["sine", "linear"])),
                      min_size=1, max_size=3))
def test_best_rates_equal_the_row_maximum(stack, model, data, books):
    cfg, mises = stack
    powers = data.draw(scorer_powers(cfg.n_antennas))
    codebooks = [build_codebook(*bits, quantization=quantization) for bits, quantization in books]
    mis = stack_of(mises)
    h = build_channels(cfg, mis, model)
    best = codebook_best_rates(cfg, h, *campaign_svd(cfg, mis, h, model), codebooks, powers)
    for row, cb in zip(best, codebooks):
        np.testing.assert_array_equal(row, codebook_rates_many(cfg, h, cb, powers).max(axis=-1))


@PROPERTY
@given(link=links(), snr_db=st.floats(-10.0, 30.0))
def test_codebook_rates_do_not_depend_on_rx_tilt_under_separable_model(link, snr_db):
    # the tilts enter only the Rx phase diagonal of H = T_r H_a T_t^H,
    # which leaves det(I + H F P F^H H^H) unchanged
    cfg, mis = link
    untilted = Misalignment(theta_o=mis.theta_o, theta_cs=mis.theta_cs, phi_cs=mis.phi_cs)
    alloc = approx_power_allocation(cfg, snr_db)
    tilted_rates = codebook_rates_many(cfg, build_channel(cfg, mis).entries[None], CODEBOOK, alloc)[0]
    untilted_rates = codebook_rates_many(cfg, build_channel(cfg, untilted).entries[None], CODEBOOK, alloc)[0]
    np.testing.assert_allclose(tilted_rates, untilted_rates, rtol=1e-12, atol=0.0)


@PROPERTY
@given(stack=stacks(), snr_db=st.floats(-10.0, 30.0))
def test_closed_form_nulling_rates_match_numerical_receivers(stack, snr_db):
    # the separable campaigns score ZF and ZF-SIC with `nulling_rates` on the closed-form SVD,
    # the spectrum and V = T_t Q; on well-conditioned stacks that equals the numerical receivers
    # on the built channels' SVD.  ZF is held to 1e-12 plus N eps cond^2, the tolerance of the
    # Gram inverse the numerical ZF once took: over 24,000 random separable channels its distance
    # from the closed form stayed below 1.5e-15 cond^2 relative, and reached 5.7e-11 at cond in
    # [100, 1000].  The oracle tests below say which side is right where the two differ.
    # |V_km|^2 = 1/N on the closed form, so every ZF stream sees p / mean sigma^-2 (the paper's
    # ZF identity, written out below): the kernel is within 8 eps relative of it, and of
    # sum log2(1 + p sigma^2); at most 6.4e-16 over these examples, and 1.1e-15 over the 4,000
    # separable ZF and ZF-SIC values of a seed-5, 15 degree default campaign.
    cfg, mises = stack
    mis = stack_of(mises)
    sigma = singular_values_many(cfg.n_antennas, cfg.beta, mis.theta_o)
    ratio = np.min(sigma, axis=-1) / np.max(sigma, axis=-1)
    assume(np.all(ratio > 1e-3))
    p_total = power_from_db(snr_db)
    h = build_channels(cfg, mis)
    numerical_zf, numerical_zf_sic = nulling_rates(*svd_of(h), p_total)
    zf, zf_sic = nulling_rates(sigma, precoder_matrices(cfg, mis.theta_cs, mis.phi_cs), p_total)
    np.testing.assert_allclose(zf_sic, numerical_zf_sic, rtol=1e-12, atol=0.0)
    inversion = cfg.n_antennas * np.finfo(float).eps / ratio**2
    assert np.all(np.abs(zf - numerical_zf) <= (1e-12 + inversion) * zf)
    n, p = cfg.n_antennas, p_total / cfg.n_antennas
    closed_zf = n * np.log1p(p / np.mean(sigma**-2.0, axis=-1)) / math.log(2.0)
    closed_zf_sic = np.sum(np.log1p(p * sigma**2), axis=-1) / math.log(2.0)
    np.testing.assert_allclose(zf, closed_zf, rtol=8 * np.finfo(float).eps, atol=0.0)
    np.testing.assert_allclose(zf_sic, closed_zf_sic, rtol=8 * np.finfo(float).eps, atol=0.0)


@PROPERTY
@given(stack=stacks(), snr_db=st.floats(-10.0, 30.0))
def test_svd_precoder_reaches_capacity(stack, snr_db):
    # the paper's claim, on which the separable campaigns print the capacity as the
    # optimal-precoder row: the phase-corrected DFT precoder, water-filled over the spectrum
    cfg, mises = stack
    mis = stack_of(mises)
    sigma = singular_values_many(cfg.n_antennas, cfg.beta, mis.theta_o)
    p_total = power_from_db(snr_db)
    f = precoder_matrices(cfg, mis.theta_cs, mis.phi_cs)
    rates = precoded_rates(build_channels(cfg, mis), f, water_fill(sigma, p_total))
    np.testing.assert_allclose(np.sum(rates, axis=-1), capacity(sigma, p_total, 1.0), rtol=0.0, atol=1e-9)


def zf_oracle(h: np.ndarray, p: float) -> float:
    """Equal-power ZF sum rate of one float64 channel at 50 digits.

    The diagonal of (H^H H)^-1 is that of H^-1 H^-H, the squared row norms
    of H^-1; the channel's entries enter exactly.
    """
    with mpmath.workdps(50):
        inv = mpmath.matrix(h.tolist()) ** -1
        n = h.shape[0]
        diag = [mpmath.fsum(abs(inv[k, j]) ** 2 for j in range(n)) for k in range(n)]
        return float(mpmath.fsum(mpmath.log(1 + p / d) for d in diag) / mpmath.log(2))


def test_closed_form_zf_matches_extended_precision_oracle():
    # The ill-conditioned cells of the default campaign (seed 2024, 4 mm carrier).  A ZF from the
    # Gram inverse printed other digits than the closed form on 398 of its 2,000 trial rows, and a
    # 50-digit ZF of each built channel was closer to the closed form on every one of them.  This
    # samples the first five trials of four of those cells, the 18 with cond >= 1e4.  The campaign
    # scores them with `nulling_rates` on the cell's closed-form (sigma, V), whose error follows
    # the spectrum's error in sigma_min: the closed-form ZF stayed below 3.1e-16 cond relative on
    # all 398 rows, and this kernel on (sigma, V) is within 3.1e-16 cond of the oracle on these
    # 18.  On the built channels' LAPACK SVD `nulling_rates` squares no condition number either:
    # it is within 1.5e-16 cond of the oracle here, closer than the closed form on 10 of the 18
    cfg = sim.TrialConfig(seed=2024, n_trials=5, wavelength=0.004, n_antennas_list=(12, 16),
                          distances=(400.0, 500.0))
    p_total = power_from_db(cfg.snr_db)
    checked = 0
    for acfg, _, h, sigma, v in campaign_cells(cfg):
        cond = condition_numbers(sigma)
        zf, _ = nulling_rates(sigma, v, p_total)
        numerical, _ = nulling_rates(*svd_of(h), p_total)
        for t in np.flatnonzero(np.isfinite(cond) & (cond >= 1e4)):
            oracle = zf_oracle(h[t], p_total / acfg.n_antennas)
            assert abs(zf[t] - oracle) <= 1e-15 * cond[t] * oracle, (acfg, t)
            assert abs(numerical[t] - oracle) <= 1e-15 * cond[t] * oracle, (acfg, t)
            checked += 1
    assert checked == 18


def test_exact_geometry_zf_matches_extended_precision_oracle():
    # The exact-geometry golden's N = 16, 500 m cell (simulate_exact_seed2024.csv): clamped 15 degree
    # draws of cond 2.2e6 to 6.2e7.  From the Gram inverse, which squares the condition number, its
    # three zf rows were 1.6e-13 to 1.0e-12 off the 50-digit ZF of the same float64 channels, up to
    # 2.4 % relative; from the cell's SVD they are within 5e-17 cond relative and print its digits
    cfg = sim.TrialConfig(seed=2024, n_trials=3, wavelength=0.004, n_antennas_list=(16,), distances=(500.0,),
                          angle_range_small=math.radians(15.0), exact_geometry=True)
    p_total = power_from_db(cfg.snr_db)
    [(acfg, _, h, sigma, v)] = campaign_cells(cfg)
    cond = condition_numbers(sigma)
    zf, _ = nulling_rates(sigma, v, p_total)
    printed = []
    for t in range(cfg.n_trials):
        oracle = zf_oracle(h[t], p_total / acfg.n_antennas)
        assert abs(zf[t] - oracle) <= 1e-15 * cond[t] * oracle, t
        assert f"{zf[t]:.9g}" == f"{oracle:.9g}", t
        printed.append(f"{oracle:.9g}")
    assert printed == ["1.90396673e-08", "2.26254774e-11", "4.21370852e-11"]


@st.composite
def spectrum_points(draw):
    """(N, beta, theta_o): even N <= 64, beta in [0, 14], |theta_o| <= pi/N."""
    n = draw(st.sampled_from(range(2, 65, 2)))
    return n, draw(st.floats(0.0, 14.0)), draw(st.floats(-math.pi / n, math.pi / n))


@PROPERTY
@given(point=spectrum_points())
@example(point=(64, 14.0, math.pi / 64))
def test_spectrum_symmetries_and_energy(point):
    n, beta, theta_o = point
    sig = singular_values(n, beta, theta_o)
    tol = 1e-12 * n
    np.testing.assert_allclose(singular_values(n, beta, -theta_o), sig, rtol=0.0, atol=tol)
    # the spectrum has period one antenna spacing in theta_o
    np.testing.assert_allclose(singular_values(n, beta, theta_o + 2.0 * math.pi / n), sig, rtol=0.0, atol=tol)
    # sigma_k = sigma_{N+2-k}
    np.testing.assert_allclose(sig[1:], sig[1:][::-1], rtol=0.0, atol=tol)
    # Parseval: the element phasors have unit modulus
    assert abs(float(np.sum(sig**2)) - n * n) <= tol


@st.composite
def gain_vectors(draw):
    """Stream gains with at least one positive entry and some zeros, in random order."""
    positive = draw(st.lists(st.floats(1e-3, 100.0), min_size=1, max_size=32))
    zeros = draw(st.integers(0, 8))
    return np.array(draw(st.permutations(positive + [0.0] * zeros)))


@PROPERTY
@given(sigmas=gain_vectors(), p_total=st.floats(0.1, 1000.0))
def test_water_filling_kkt(sigmas, p_total):
    powers = water_fill(sigmas, p_total)
    assert np.all(powers >= 0.0)
    assert abs(float(np.sum(powers)) - p_total) <= 1e-12 * p_total
    active = powers > 0.0
    levels = powers[active] + 1.0 / sigmas[active] ** 2
    level = float(np.max(levels))
    assert np.ptp(levels) <= 1e-12 * level
    with np.errstate(divide="ignore"):
        inactive_inv = 1.0 / sigmas[~active] ** 2
    assert np.all(inactive_inv >= level * (1.0 - 1e-12))


def spectrum_oracle(n: int, beta: float, theta_o: float) -> np.ndarray:
    """sigma_k = |sum_i exp(j*beta*cos(2*pi*i/N + theta_o)) exp(-j*2*pi*i*(k-1)/N)| at 50 digits.

    The float arguments enter exactly; only the sum itself is evaluated in
    extended precision.
    """
    with mpmath.workdps(50):
        phasors = [mpmath.expj(beta * mpmath.cos(2 * mpmath.pi * i / n + theta_o)) for i in range(n)]
        twiddles = [mpmath.expj(-2 * mpmath.pi * m / n) for m in range(n)]
        return np.array([
            float(abs(mpmath.fsum(phasors[i] * twiddles[(i * k) % n] for i in range(n)))) for k in range(n)
        ])


@PROPERTY
@given(point=spectrum_points())
@example(point=(64, 14.0, math.pi / 64))
@example(point=(64, 14.0, 0.0))
@example(point=(2, 0.0, 0.0))
def test_spectrum_matches_extended_precision_oracle(point):
    n, beta, theta_o = point
    np.testing.assert_allclose(singular_values(n, beta, theta_o), spectrum_oracle(n, beta, theta_o),
                               rtol=0.0, atol=1e-13 * n)


@PROPERTY
@given(point=spectrum_points(), betas=st.lists(st.floats(0.0, 14.0), min_size=1, max_size=40),
       snr_db=st.floats(-20.0, 45.0))
def test_stacked_rows_match_one_point_calls(point, betas, snr_db):
    # the beta search evaluates its grid and its golden-section candidates as
    # stacks and must return the floats of one-point evaluation
    n, _, theta_o = point
    p_total = power_from_db(snr_db)
    stack = singular_values_many(n, np.array(betas), theta_o)
    caps = capacity(stack, p_total, 1.0)
    conds = condition_numbers(stack)
    for k, beta in enumerate(betas):
        one = singular_values(n, beta, theta_o)
        np.testing.assert_array_equal(bits(stack[k]), bits(one))
        assert float(caps[k]).hex() == capacity(one, p_total, 1.0).hex()
        assert float(conds[k]).hex() == float(condition_numbers(one)).hex()


@st.composite
def tied_gain_stacks(draw):
    """(rows, N) gains drawn from a small pool, so a row holds exact ties.

    The pool also holds a zero and a gain whose square underflows; each
    row keeps one gain from the pool's positive part.
    """
    n = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 4))
    pool = draw(st.lists(st.floats(1e-4, 1e3), min_size=1, max_size=6, unique=True)) + [0.0, 1e-170]
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=rows * n, max_size=rows * n))
    gains = np.array(pool)[np.array(picks)].reshape(rows, n)
    keep = draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
    gains[np.arange(rows), keep] = pool[0]
    return gains


@st.composite
def design_spectra(draw):
    """(rows, N) spectra at theta_o = 0, where sigma_k and sigma_{N+2-k} often tie exactly, or at pi/N."""
    n = draw(st.sampled_from(range(2, 65, 2)))
    betas = draw(st.lists(st.floats(0.01, 14.0), min_size=1, max_size=8))
    theta_o = draw(st.sampled_from([0.0, math.pi / n]))
    return singular_values_many(n, np.array(betas), theta_o)


@PROPERTY
@given(sigmas=st.one_of(tied_gain_stacks(), design_spectra()), snr_db=st.floats(-30.0, 60.0),
       noise=st.floats(0.1, 10.0))
def test_water_filling_matches_previous_rule_bit_for_bit(sigmas, snr_db, noise):
    # the value sort replaced a stable argsort, a gather and a scatter;
    # the powers keep every bit, and the capacity is the log1p rate sum over them bit for bit
    p_total = 10.0 ** (snr_db / 10.0)
    expected = previous_water_fill_powers(sigmas, p_total, noise)
    np.testing.assert_array_equal(bits(design._water_fill_powers(sigmas, p_total, noise)), bits(expected))
    caps = np.log1p(expected * (sigmas**2 / noise)).sum(axis=-1) / math.log(2.0)
    np.testing.assert_array_equal(bits(capacity(sigmas, p_total, noise)), bits(caps))
