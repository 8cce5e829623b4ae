"""Property-based checks of the codebook scorer over random geometries."""

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
    precoder_from_angles,
)
from ucamimo.transceiver import codebook_rates, precoded_rate

WAVELENGTH = 0.004
DISTANCE = 100.0
CODEBOOK = build_codebook(2, 1)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def array_with_beta(n: int, beta: float) -> ArrayConfig:
    radius = math.sqrt(beta * WAVELENGTH * DISTANCE / (2.0 * math.pi))
    return ArrayConfig(n_antennas=n, wavelength=WAVELENGTH, radius_tx=radius, radius_rx=radius,
                       distance=DISTANCE)


@st.composite
def links(draw):
    """(array, misalignment): even N <= 16, beta in (0, 14], misalignment in the production ranges."""
    n = draw(st.sampled_from(range(2, 17, 2)))
    beta = draw(st.floats(0.05, 14.0))
    small = math.radians(10.0)
    mis = Misalignment(
        theta_o=draw(st.floats(-math.pi / n, math.pi / n)),
        theta_cs=draw(st.floats(-math.pi, math.pi)),
        phi_cs=draw(st.floats(0.0, small)),
        phi_x=draw(st.floats(-small, small)),
        phi_y=draw(st.floats(-small, small)),
    )
    return array_with_beta(n, beta), mis


@PROPERTY
@given(link=links(), model=st.sampled_from([APPROXIMATE, EXACT_DISTANCE]), snr_db=st.floats(-10.0, 30.0))
# one active stream, and every stream active
@example(link=(array_with_beta(4, 0.1), Misalignment(theta_cs=1.0, phi_cs=0.1)), model=APPROXIMATE, snr_db=-10.0)
@example(link=(array_with_beta(16, 6.0), Misalignment(theta_o=0.1, theta_cs=-2.0, phi_cs=0.15, phi_x=0.1)),
         model=EXACT_DISTANCE, snr_db=30.0)
def test_codebook_rates_match_per_entry_rates(link, model, snr_db):
    cfg, mis = link
    h = build_channel(cfg, mis, model)
    alloc = approx_power_allocation(cfg, snr_db)
    rates = codebook_rates(h, CODEBOOK, alloc)
    thetas, phis = CODEBOOK.angle_pairs()
    expected = [
        precoded_rate(h, precoder_from_angles(cfg, theta, phi), alloc).rate
        for theta, phi in zip(thetas, phis)
    ]
    np.testing.assert_allclose(rates, expected, rtol=1e-10, atol=0.0)


@PROPERTY
@given(link=links(), snr_db=st.floats(-10.0, 30.0))
def test_codebook_rates_do_not_depend_on_rx_tilt_under_separable_model(link, snr_db):
    # the tilts enter only the Rx phase diagonal of H = T_r H_a T_t^H,
    # which leaves det(I + H F P F^H H^H) unchanged
    cfg, mis = link
    untilted = Misalignment(theta_o=mis.theta_o, theta_cs=mis.theta_cs, phi_cs=mis.phi_cs)
    alloc = approx_power_allocation(cfg, snr_db)
    tilted_rates = codebook_rates(build_channel(cfg, mis), CODEBOOK, alloc)
    untilted_rates = codebook_rates(build_channel(cfg, untilted), CODEBOOK, alloc)
    np.testing.assert_allclose(tilted_rates, untilted_rates, rtol=1e-12, atol=0.0)
