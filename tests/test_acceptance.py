"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figures once its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criteria 1 and 3 check their reference design tables
against an independent oracle as well (see `oracle_spectra` and the
README's "Reference design tables" section).
"""

import math
import time

import numpy as np

from conftest import coordinate_distances, random_config, random_misalignment, separable_distances, svd_of
from ucamimo import (
    ArrayConfig,
    Misalignment,
    build_channel,
    closed_form_svd,
    nulling_rates,
    numerical_svd,
    radii_from_beta,
    search_beta_opt,
    singular_values,
)
from ucamimo.design import TIE_TOLERANCE_BITS, condition_numbers, water_fill
from ucamimo.geometry import distance_matrix_exact
from ucamimo.sim import AGGREGATE_TRIAL, TrialConfig, rows_to_csv, run_codebook_bit_sweep, run_rate_sweep
from ucamimo.spectrum import leading_dominance_bound, singular_values_many

SNRS_DB = (5.0, 10.0, 15.0, 20.0)
ANTENNAS = (4, 8, 12, 16)

# Cells with a "was" comment replace reference values that are not
# water-filling optima; each new value is the oracle's optimum (criterion
# 1) or the oracle's condition number at the 15 dB optimum (criterion 3).
# A shortfall is the oracle capacity at the old value below the optimum.
OPTIMAL_BETA_TABLE = {
    (4, 5.0): 1.57,
    (8, 5.0): 3.75,  # was 3.10: 0.371 bit/s/Hz short of the optimum 3.748
    (12, 5.0): 5.25,  # was 4.53: 0.722 bit/s/Hz short of the optimum 5.250
    (16, 5.0): 7.32,  # was 5.98: 0.833 bit/s/Hz short of the optimum 7.321
    (4, 10.0): 1.57,  # was 1.51: 0.017 bit/s/Hz short of the optimum pi/2
    (8, 10.0): 3.08,
    (12, 10.0): 4.56,
    (16, 10.0): 7.60,  # was 5.97: 1.130 bit/s/Hz short of the optimum 7.597
    (4, 15.0): 1.54,
    (8, 15.0): 3.09,
    (12, 15.0): 4.57,
    (16, 15.0): 5.98,
    (4, 20.0): 1.54,
    (8, 20.0): 3.08,
    (12, 20.0): 4.55,
    (16, 20.0): 5.98,
}
RADIUS_TABLE = {4: 0.31, 8: 0.44, 12: 0.54, 16: 0.62}
CAPACITY_TABLE = {4: 20.11, 8: 38.79, 12: 56.79, 16: 72.88}
CONDITION_TABLE = {
    4: 1.0,
    8: 1.796,  # was 1.84: implies beta_opt 3.044, not the optimum 3.112
    12: 2.42,
    16: 3.333,  # was 3.51: implies beta_opt 5.938 or 6.038, not the optimum 5.992
}
CONDITION_HALF_TABLE = {
    4: 5.828,  # was 6.36: implies beta_opt 1.510, not pi/2; cond(pi/4) is 3 + 2*sqrt(2)
    8: 20.93,  # was 22.63: implies beta_opt 3.041, not the optimum 3.112
    12: 104.53,
    16: 497.2,  # was 469.97: implies beta_opt 6.038, not the optimum 5.992
}

# Independent oracle for criteria 1 and 3: the LAPACK SVD behind
# `numerical_svd`, taken over a stack of aligned separable channels written
# out from the paper's channel model (`oracle_channels`, which shares no
# code with the library's channel build), instead of the closed-form
# spectrum, and water-filling by bisection on the water level instead of
# `water_fill`.  The grid scans (0, 14] at step 1e-3, ten times finer than
# `search_beta_opt`'s scan.
ORACLE_WAVELENGTH = 0.004
ORACLE_DISTANCE = 100.0
ORACLE_GRID = np.arange(1, 14_001) * 1e-3


def oracle_channels(n, betas):
    """Aligned separable-model channels, one (N, N) matrix per beta.

    With the arrays aligned, the far-field distance between Tx element b
    and Rx element a is D - (R_t R_r / D) cos(2 pi (a - b) / N), so the
    channel is exp(-j 2 pi D / lambda) exp(j beta cos(2 pi (a - b) / N)),
    beta = 2 pi R_t R_r / (lambda D).  One broadcast over the beta axis.
    """
    offset = np.subtract.outer(np.arange(n), np.arange(n))
    betas = np.asarray(betas, dtype=float)[:, None, None]
    channels = np.exp(1j * betas * np.cos(2.0 * np.pi * offset / n))
    channels *= np.exp(-2j * np.pi * ORACLE_DISTANCE / ORACLE_WAVELENGTH)
    return channels


def oracle_spectra(n, betas):
    """Descending singular values of the aligned separable channel, one row per beta."""
    return np.linalg.svd(oracle_channels(n, betas), compute_uv=False)


def test_oracle_channels_match_build_channel():
    """The oracle's channel expression equals `build_channel` of the aligned arrays to 1e-12."""
    betas = [0.5, 1.57, 3.09, 5.98, 13.9]
    for n in ANTENNAS:
        for beta, expected in zip(betas, oracle_channels(n, betas)):
            radius = radii_from_beta(beta, ORACLE_WAVELENGTH, ORACLE_DISTANCE)
            cfg = ArrayConfig(n, ORACLE_WAVELENGTH, radius, radius, ORACLE_DISTANCE)
            built = build_channel(cfg, Misalignment()).entries
            assert np.max(np.abs(built - expected)) <= 1e-12, (n, beta)


def oracle_capacity(spectra, snr_db):
    """Water-filled capacity of each spectrum row at unit noise power.

    The water level mu solves sum(max(mu - 1/sigma^2, 0)) = P.  It lies in
    [g, g + P] with g the smallest inverse gain; 64 halvings of that
    bracket reach float resolution.
    """
    p_total = 10.0 ** (snr_db / 10.0)
    gains = np.atleast_2d(spectra) ** 2
    with np.errstate(divide="ignore"):
        inv_gain = 1.0 / gains
    lo = np.min(inv_gain, axis=1)
    hi = lo + p_total
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        over = np.sum(np.maximum(mid[:, None] - inv_gain, 0.0), axis=1) > p_total
        hi = np.where(over, mid, hi)
        lo = np.where(over, lo, mid)
    powers = np.maximum(lo[:, None] - inv_gain, 0.0)
    return np.sum(np.log2(1.0 + powers * gains), axis=1)


def oracle_optimum(grid_spectra, snr_db):
    """Smallest grid beta within TIE_TOLERANCE_BITS of the grid maximum, and that maximum.

    Without the tie rule the four-antenna optimum would land on 5*pi/2,
    which ties pi/2 to about 1e-14 bit/s/Hz.
    """
    caps = oracle_capacity(grid_spectra, snr_db)
    best = float(np.max(caps))
    return float(ORACLE_GRID[np.flatnonzero(caps >= best - TIE_TOLERANCE_BITS)[0]]), best


def test_criterion_01_optimal_beta_table():
    """Optimal beta within +-0.05 of the reference table, 16 cells, < 10 s.

    The oracle backs every cell: its optimum lies within +-0.05 of the
    table, and the capacity at the searched beta is not below the oracle's
    grid maximum by more than TIE_TOLERANCE_BITS.  The refined search may
    beat the 1e-3 grid, so only a shortfall counts.
    """
    start = time.time()
    results = {}
    for n in ANTENNAS:
        for snr in SNRS_DB:
            results[(n, snr)] = search_beta_opt(n, 0.0, snr).beta_opt
    elapsed = time.time() - start
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f} s exceeds 10 s"
    mismatches = [
        f"N={n} SNR={snr:g}: got {results[(n, snr)]:.4f}, expected {ref} +-0.05"
        for (n, snr), ref in OPTIMAL_BETA_TABLE.items()
        if abs(results[(n, snr)] - ref) > 0.05
    ]
    for n in ANTENNAS:
        grid_spectra = oracle_spectra(n, ORACLE_GRID)
        searched_spectra = oracle_spectra(n, [results[(n, snr)] for snr in SNRS_DB])
        for snr, spectrum in zip(SNRS_DB, searched_spectra):
            oracle_beta, oracle_best = oracle_optimum(grid_spectra, snr)
            ref = OPTIMAL_BETA_TABLE[(n, snr)]
            if abs(oracle_beta - ref) > 0.05:
                mismatches.append(f"N={n} SNR={snr:g}: oracle optimum {oracle_beta:.3f}, table {ref} +-0.05")
            got_cap = float(oracle_capacity(spectrum, snr)[0])
            if got_cap < oracle_best - TIE_TOLERANCE_BITS:
                mismatches.append(
                    f"N={n} SNR={snr:g}: capacity {got_cap:.7f} at beta {results[(n, snr)]:.4f} "
                    f"below the oracle grid maximum {oracle_best:.7f} at {oracle_beta:.3f}"
                )
    assert not mismatches, "optimal-beta table mismatches:\n" + "\n".join(mismatches)
    print(f"[criterion 1] PASS: 16/16 optimal-beta cells within +-0.05 and at the oracle optimum ({elapsed:.1f} s)")


def test_criterion_02_radius_and_capacity_table():
    """Equal radii within +-0.01 m and capacity within +-0.15 bit/s/Hz, < 5 s."""
    start = time.time()
    for n in ANTENNAS:
        result = search_beta_opt(n, 0.0, 15.0, wavelength=0.004, distance=100.0)
        assert abs(result.radius_equal - RADIUS_TABLE[n]) <= 0.01, (n, result.radius_equal)
        assert abs(result.capacity - CAPACITY_TABLE[n]) <= 0.15, (n, result.capacity)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 2 runtime {elapsed:.1f} s exceeds 5 s"
    print(f"[criterion 2] PASS: radii within +-0.01 m, capacities within +-0.15 bit/s/Hz ({elapsed:.1f} s)")


def test_criterion_03_condition_number_table():
    """Condition numbers at the optimum and at half of it, +-2 %, < 5 s.

    Each condition number also matches the oracle's, from the SVD of the
    built channel, to 1e-9 relative.
    """
    start = time.time()
    mismatches = []
    for n in ANTENNAS:
        beta_opt = search_beta_opt(n, 0.0, 15.0).beta_opt
        oracle_sigma = oracle_spectra(n, [beta_opt, 0.5 * beta_opt])
        for label, beta, ref, sigma in (
            (f"beta_opt={beta_opt:.4f}", beta_opt, CONDITION_TABLE[n], oracle_sigma[0]),
            ("0.5*beta_opt", 0.5 * beta_opt, CONDITION_HALF_TABLE[n], oracle_sigma[1]),
        ):
            got = float(condition_numbers(singular_values(n, beta, 0.0)))
            if abs(got - ref) > 0.02 * ref:
                mismatches.append(f"N={n} at {label}: cond {got:.4f} vs {ref} +-2%")
            oracle = sigma[0] / sigma[-1]
            if abs(got - oracle) > 1e-9 * oracle:
                mismatches.append(f"N={n} at {label}: cond {got:.10g} vs oracle {oracle:.10g} +-1e-9 relative")
    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 3 runtime {elapsed:.1f} s exceeds 5 s"
    assert not mismatches, "condition-number mismatches:\n" + "\n".join(mismatches)
    print(f"[criterion 3] PASS: 8/8 condition numbers within +-2% and at the oracle to 1e-9 ({elapsed:.1f} s)")


def test_criterion_04_svd_oracle_equivalence():
    """Closed-form vs numerical SVD over 1000 random draws, < 30 s."""
    start = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        cfg = random_config(rng)
        mis = random_misalignment(rng, cfg.n_antennas)
        closed = closed_form_svd(cfg, mis)
        h = build_channel(cfg, mis).entries
        numeric = numerical_svd(h)
        assert np.max(np.abs(np.sort(closed.sigma) - numeric.sigma[::-1])) <= 1e-9
        eye = np.eye(cfg.n_antennas)
        assert np.max(np.abs(closed.u.conj().T @ closed.u - eye)) <= 1e-10
        assert np.max(np.abs(closed.v.conj().T @ closed.v - eye)) <= 1e-10
        assert np.max(np.abs(closed.reconstruct() - h)) <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 30.0, f"criterion 4 runtime {elapsed:.1f} s exceeds 30 s"
    print(f"[criterion 4] PASS: 1000 random SVDs agree to 1e-9 / reconstruct to 1e-10 ({elapsed:.1f} s)")


def test_criterion_05_misalignment_invariance():
    """Spectrum constant to 1e-10 over 100 tilt/shift draws at fixed (beta, rotation)."""
    rng = np.random.default_rng(99)
    cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.4451, radius_rx=0.4451, distance=100.0)
    theta_o = 0.21
    reference = closed_form_svd(cfg, Misalignment(theta_o=theta_o)).sigma
    worst = 0.0
    for _ in range(100):
        mis = Misalignment(
            theta_o=theta_o,
            theta_cs=float(rng.uniform(-np.pi, np.pi)),
            phi_cs=float(rng.uniform(0.0, 0.17)),
            phi_x=float(rng.uniform(-0.17, 0.17)),
            phi_y=float(rng.uniform(-0.17, 0.17)),
        )
        worst = max(worst, float(np.max(np.abs(closed_form_svd(cfg, mis).sigma - reference))))
    assert worst <= 1e-10
    print(f"[criterion 5] PASS: spectrum invariant over 100 tilt/shift draws (max dev {worst:.2e})")


def test_criterion_06_spectrum_structure_suite():
    """Structural checks on >= 1e4 grid points per antenna count, < 20 s."""
    start = time.time()
    for n in (4, 8, 16):
        betas = np.linspace(0.01, 14.0, 100)
        thetas = np.linspace(-math.pi / n, math.pi / n, 101)
        for theta in thetas:
            sig = singular_values_many(n, betas, float(theta))
            # pairing
            assert np.max(np.abs(sig[:, 1:] - sig[:, 1:][:, ::-1])) <= 1e-10
            # rotation-sign symmetry
            mirrored = singular_values_many(n, betas, float(-theta))
            assert np.max(np.abs(sig - mirrored)) <= 1e-10
            # leading-mode dominance wherever the bound hypothesis holds
            bound = leading_dominance_bound(n, float(theta))
            mask = betas <= bound
            if np.any(mask):
                assert np.all(sig[mask, 0] >= np.max(sig[mask, 1:], axis=1) - 1e-10)
        # half-mode null along the full beta sweep at the rotation bound
        for theta in (math.pi / n, -math.pi / n):
            sig = singular_values_many(n, betas, theta)
            assert np.max(sig[:, n // 2]) <= 1e-10
        # small-beta limit
        for beta in (0.0, 1e-8):
            sig = singular_values(n, beta, 0.37 / n)
            assert abs(sig[0] - n) <= 1e-6
            assert np.max(sig[1:]) <= 1e-6
    elapsed = time.time() - start
    assert elapsed < 20.0, f"criterion 6 runtime {elapsed:.1f} s exceeds 20 s"
    print(f"[criterion 6] PASS: structure suite on 3x10100 grid points ({elapsed:.1f} s)")


def test_criterion_07_geometry_oracle():
    """Closed-form distance vs coordinate norm to 1e-12 relative on 1e4 draws, < 5 s.

    The oracle builds element coordinates from the paper's rotations in
    conftest and shares no code with `distance_matrix_exact`.
    """
    start = time.time()
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 10_000:
        cfg = random_config(rng, far_field=False)
        mis = random_misalignment(rng, cfg.n_antennas)
        ref = coordinate_distances(cfg, mis)
        assert (np.abs(distance_matrix_exact(cfg, mis) - ref) <= 1e-12 * ref).all()
        checked += cfg.n_antennas**2

    # approximation error decays monotonically as the distance grows
    mis = Misalignment(theta_o=0.1, theta_cs=0.9, phi_cs=0.12, phi_x=0.1, phi_y=-0.15)
    errors = []
    for dist in (1e2, 1e3, 1e4):
        cfg = ArrayConfig(n_antennas=8, wavelength=0.004, radius_tx=0.31, radius_rx=0.31, distance=dist)
        errors.append(float(np.max(np.abs(distance_matrix_exact(cfg, mis) - separable_distances(cfg, mis)))))
    assert errors[0] > errors[1] > errors[2]
    elapsed = time.time() - start
    assert elapsed < 5.0, f"criterion 7 runtime {elapsed:.1f} s exceeds 5 s"
    print(f"[criterion 7] PASS: {checked} distance pairs at 1e-12; error decay {errors} ({elapsed:.1f} s)")


def test_criterion_08_water_filling_kkt():
    """KKT residuals <= 1e-9 and dominance over equal split, 1000 spectra."""
    rng = np.random.default_rng(88)
    for _ in range(1000):
        size = int(rng.integers(2, 17))
        sigmas = rng.uniform(0.0, 6.0, size=size)
        sigmas[int(rng.integers(size))] = float(rng.uniform(0.5, 6.0))
        p_total = float(rng.uniform(0.5, 200.0))
        noise = float(rng.uniform(0.2, 3.0))
        # budget p_total at noise power `noise` is the SNR p_total/noise at unit noise
        powers = noise * water_fill(sigmas, p_total / noise)
        assert abs(float(np.sum(powers)) - p_total) <= 1e-9 * p_total
        active = powers > 0
        levels = powers[active] + noise / sigmas[active] ** 2
        assert np.ptp(levels) <= 1e-9
        inactive = ~active & (sigmas > 0)
        if np.any(inactive):
            assert np.min(noise / sigmas[inactive] ** 2) >= np.max(levels) - 1e-9
        wf_cap = float(np.sum(np.log2(1.0 + powers * sigmas**2 / noise)))
        eq_cap = float(np.sum(np.log2(1.0 + (p_total / size) * sigmas**2 / noise)))
        assert wf_cap >= eq_cap - 1e-12
    print("[criterion 8] PASS: 1000 spectra satisfy KKT to 1e-9 and dominate equal split")


def test_criterion_09_sic_determinant_identity():
    """SIC sum rate equals the log-det functional to 1e-9, 1000 channels."""
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.choice([2, 4, 8, 16]))
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        p_total = float(rng.uniform(0.5, 100.0))
        noise = float(rng.uniform(0.2, 3.0))
        _, zf_sic = nulling_rates(*svd_of(h[None]), p_total / noise)
        rate = np.sum(zf_sic[0])
        scale = p_total / (n * noise)
        sign, logdet = np.linalg.slogdet(np.eye(n) + scale * h.conj().T @ h)
        assert abs(rate - logdet / math.log(2.0)) <= 1e-9
    print("[criterion 9] PASS: 1000 channels satisfy the SIC determinant identity to 1e-9")


def test_criterion_10_monte_carlo_orderings():
    """Seeded 100-trial campaign reproduces the scheme orderings, < 5 min."""
    start = time.time()
    trial_cfg = TrialConfig(seed=2024, n_trials=100, wavelength=0.004)
    rows = run_rate_sweep(trial_cfg)
    mean = {
        (r.n_antennas, r.distance_m, r.scheme): r.rate_bps_hz
        for r in rows
        if r.trial == AGGREGATE_TRIAL
    }

    # (i) zero-forcing reaches capacity at the design distance for N = 4
    gap_zf = abs(mean[(4, 100.0, "zf")] - mean[(4, 100.0, "capacity")])
    assert gap_zf <= 0.1, f"zf gap {gap_zf:.3f}"

    # (ii) codebook tracks capacity for N in {4, 8} at the design distance
    gaps_cb = {n: abs(mean[(n, 100.0, "codebook")] - mean[(n, 100.0, "capacity")]) for n in (4, 8)}
    assert all(g <= 0.1 for g in gaps_cb.values()), f"codebook gaps {gaps_cb}"

    # (iii) >= 9 % precoding gain over the no-correction baseline at 500 m
    ratios = {n: mean[(n, 500.0, "codebook")] / mean[(n, 500.0, "identity")] for n in ANTENNAS}
    assert all(ratio >= 1.09 for ratio in ratios.values()), f"gain ratios {ratios}"

    # (iv) sine-uniform quantisation beats linear at every tested bit budget
    bit_cfg = TrialConfig(
        seed=2024, n_trials=100, wavelength=0.004, n_antennas_list=(16,), distances=(300.0,)
    )
    bit_grid = ((1, 3), (3, 3), (5, 3), (7, 3), (3, 5), (4, 4))
    bit_rows = run_codebook_bit_sweep(bit_cfg, bit_grid=bit_grid)
    bit_mean = {
        (r.scenario, r.scheme): r.rate_bps_hz for r in bit_rows if r.trial == AGGREGATE_TRIAL
    }
    margins = {}
    for l1, l2 in bit_grid:
        scenario = f"bit_sweep_L1{l1}_L2{l2}"
        margins[(l1, l2)] = bit_mean[(scenario, "codebook-sine")] - bit_mean[(scenario, "codebook-linear")]
    assert all(margin >= 0.0 for margin in margins.values()), f"sine-linear margins {margins}"

    elapsed = time.time() - start
    assert elapsed < 300.0, f"criterion 10 runtime {elapsed:.1f} s exceeds 5 min"
    print(
        "[criterion 10] PASS: zf gap {:.3f}; codebook gaps {:.3f}/{:.3f}; "
        "gain ratios {:.2f}..{:.2f}; sine margins {:+.2f}..{:+.2f} ({:.0f} s)".format(
            gap_zf,
            gaps_cb[4],
            gaps_cb[8],
            min(ratios.values()),
            max(ratios.values()),
            min(margins.values()),
            max(margins.values()),
            elapsed,
        )
    )


def test_criterion_11_simulation_determinism():
    """Identical seeds yield byte-identical CSV output."""
    trial_cfg = TrialConfig(
        seed=5, n_trials=5, wavelength=0.004, n_antennas_list=(4, 8), distances=(100.0, 300.0)
    )
    first = rows_to_csv(run_rate_sweep(trial_cfg, jobs=1))
    second = rows_to_csv(run_rate_sweep(trial_cfg, jobs=4))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    print("[criterion 11] PASS: repeated seeded runs are byte-identical")
