"""Property-based checks of the closed-form SVD, the spectrum, water-filling and the codebook scorer."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucamimo import (
    APPROXIMATE,
    EXACT_DISTANCE,
    ArrayConfig,
    Misalignment,
    approx_power_allocation,
    build_channel,
    build_codebook,
    closed_form_svd,
    numerical_svd,
    precoder_from_angles,
    singular_values,
    water_fill,
)
from ucamimo.transceiver import codebook_rates_many, precoded_rate

WAVELENGTH = 0.004
DISTANCE = 100.0
CODEBOOK = build_codebook(2, 1)

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
    powers = water_fill(sigmas, p_total, 1.0).powers
    assert np.all(powers >= 0.0)
    assert abs(float(np.sum(powers)) - p_total) <= 1e-12 * p_total
    active = powers > 0.0
    levels = powers[active] + 1.0 / sigmas[active] ** 2
    level = float(np.max(levels))
    assert np.ptp(levels) <= 1e-12 * level
    with np.errstate(divide="ignore"):
        inactive_inv = 1.0 / sigmas[~active] ** 2
    assert np.all(inactive_inv >= level * (1.0 - 1e-12))
