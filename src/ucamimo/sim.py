"""Seeded Monte-Carlo pipelines and CSV emission.

Trials draw random misalignments from counter-based per-trial substreams
keyed by (seed, trial index), so results are byte-reproducible and do not
depend on execution order.  The same trial index yields the same draw in
every scenario cell, which pairs the comparisons across antenna counts,
distances and codebook settings.  All trials of a cell are scored as one
batch: the channels are stacked and each scheme is one stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import APPROXIMATE, EXACT_DISTANCE, ChannelMatrix, build_channel, dft_matrix
from .design import (
    PowerAllocation,
    capacity,
    condition_numbers,
    search_beta_opt,
    water_fill,
)
from .geometry import ArrayConfig, Misalignment, _wrap_pi
from .spectrum import singular_values_many
from .transceiver import (
    Codebook,
    approx_power_allocation,
    build_codebook,
    codebook_rates_many,
    nulling_rates,
    precoded_rates,
    precoder_matrices,
)

CSV_HEADER = "scenario,n_antennas,distance_m,scheme,trial,rate_bps_hz,beta,cond_number"

AGGREGATE_TRIAL = -1

# Speed of light over the 75 GHz carrier; reproduction configs typically
# pin wavelength to 0.004 m instead.
DEFAULT_WAVELENGTH = 299792458.0 / 75e9

RATE_SWEEP_SCHEMES = ("capacity", "optimal-precoder", "codebook", "identity", "zf", "zf-sic")


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one Monte-Carlo campaign."""

    seed: int
    n_trials: int = 100
    angle_range_small: float = math.radians(10.0)
    theta_cs_range: float = math.pi
    snr_db: float = 15.0
    distances: tuple[float, ...] = (100.0, 200.0, 300.0, 400.0, 500.0)
    n_antennas_list: tuple[int, ...] = (4, 8, 12, 16)
    codebook_bits: tuple[int, int] = (5, 3)
    wavelength: float = DEFAULT_WAVELENGTH
    design_distance: float = 100.0
    exact_geometry: bool = False

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        finite = (self.snr_db, self.angle_range_small, self.theta_cs_range, self.wavelength,
                  self.design_distance, *self.distances)
        if not all(map(math.isfinite, finite)):
            raise ValueError("snr_db, angle ranges, wavelength and distances must be finite")
        if self.angle_range_small < 0.0 or self.theta_cs_range < 0.0:
            raise ValueError("angle ranges must be nonnegative")
        if self.wavelength <= 0.0 or self.design_distance <= 0.0:
            raise ValueError("wavelength and design_distance must be positive")
        if not self.distances or any(d <= 0.0 for d in self.distances):
            raise ValueError("distances must be positive")
        if not self.n_antennas_list or any(n < 2 or n % 2 for n in self.n_antennas_list):
            raise ValueError("antenna counts must be even and >= 2")


@dataclass(frozen=True)
class ResultRow:
    """One CSV row; trial = -1 marks a mean over all trials."""

    scenario: str
    n_antennas: int
    distance_m: float
    scheme: str
    trial: int
    rate_bps_hz: float
    beta: float
    cond_number: float

    def to_csv(self) -> str:
        return ",".join(
            (
                self.scenario,
                str(self.n_antennas),
                f"{self.distance_m:.9g}",
                self.scheme,
                str(self.trial),
                f"{self.rate_bps_hz:.9g}",
                f"{self.beta:.9g}",
                f"{self.cond_number:.9g}",
            )
        )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream for one trial, stable across platforms."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, trial & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def draw_misalignment(
    rng: np.random.Generator, trial_cfg: TrialConfig, n_antennas: int
) -> Misalignment:
    """One random misalignment draw.

    The rotation, both tilts and the polar shift are uniform on
    [-angle_range_small, +angle_range_small]; the shift azimuth is uniform
    on [-theta_cs_range, +theta_cs_range].  A negative polar draw is
    reflected to the opposite azimuth, and the rotation is clamped into
    [-pi/N, pi/N] should the range exceed that bound.  The draw order is
    fixed (rotation, azimuth, polar, tilt-x, tilt-y) for reproducibility.
    """
    small = trial_cfg.angle_range_small
    theta_o = float(rng.uniform(-small, small))
    theta_cs = float(rng.uniform(-trial_cfg.theta_cs_range, trial_cfg.theta_cs_range))
    phi_cs = float(rng.uniform(-small, small))
    phi_x = float(rng.uniform(-small, small))
    phi_y = float(rng.uniform(-small, small))

    bound = math.pi / n_antennas
    theta_o = min(max(theta_o, -bound), bound)
    if phi_cs < 0.0:
        phi_cs = -phi_cs
        theta_cs = _wrap_pi(theta_cs + math.pi)
    return Misalignment(
        theta_o=theta_o, theta_cs=theta_cs, phi_cs=phi_cs, phi_x=phi_x, phi_y=phi_y
    )


def _design_radius(trial_cfg: TrialConfig, n_antennas: int) -> float:
    """Equal radius realising the optimal beta at the design distance."""
    result = search_beta_opt(
        n_antennas,
        0.0,
        trial_cfg.snr_db,
        wavelength=trial_cfg.wavelength,
        distance=trial_cfg.design_distance,
    )
    return float(result.radius_equal)


def _cell_channels(
    trial_cfg: TrialConfig, cfg: ArrayConfig
) -> tuple[list[ChannelMatrix], np.ndarray, np.ndarray]:
    """The channels of a scenario cell, their (T, N, N) stack and their closed-form spectra.

    Each trial's channel comes from its own substream.
    """
    model = EXACT_DISTANCE if trial_cfg.exact_geometry else APPROXIMATE
    n = cfg.n_antennas
    channels = [
        build_channel(cfg, draw_misalignment(trial_rng(trial_cfg.seed, t), trial_cfg, n), model)
        for t in range(trial_cfg.n_trials)
    ]
    h = np.stack([c.entries for c in channels])
    spectrum = singular_values_many(n, cfg.beta, _misalignment_angles(channels, "theta_o"))
    return channels, h, spectrum


def _built_sigma(
    trial_cfg: TrialConfig, h: np.ndarray, spectrum: np.ndarray, numerical: np.ndarray | None = None
) -> np.ndarray:
    """Singular values of the channels built, one row per trial.

    The closed-form `spectrum` on the separable model; with exact geometry
    the numerical singular values of `h`, computed here unless given.
    """
    if not trial_cfg.exact_geometry:
        return spectrum
    return np.linalg.svd(h, compute_uv=False) if numerical is None else numerical


def _misalignment_angles(channels: list[ChannelMatrix], name: str) -> np.ndarray:
    return np.array([getattr(h.mis, name) for h in channels])


def _rate_sweep_cell(
    trial_cfg: TrialConfig,
    cfg: ArrayConfig,
    cb: Codebook,
    approx_alloc: PowerAllocation,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Rates of every scheme for all trials of a cell; returns (rates, condition numbers).

    Channels are built per trial; every scheme is then one stacked call
    over the cell's (T, N, N) channels, and the codebook row is the best
    entry's rate, as `select_codebook_index` reports it.  A draw clamped
    exactly onto the rotation bound yields a singular channel; the nulling
    receivers cannot operate there and score zero (the row's condition
    number is infinite, so such trials are visible).  The optimal precoder
    water-fills the closed-form spectrum.  The capacity row and the
    condition number describe the channel built: the closed-form spectrum
    on the separable model, the channel's numerical singular values with
    exact geometry.
    """
    p_total = 10.0 ** (trial_cfg.snr_db / 10.0)
    channels, h, spectrum = _cell_channels(trial_cfg, cfg)
    exact_alloc = water_fill(spectrum, p_total, 1.0)
    nulling = nulling_rates(h, p_total, 1.0)
    sigma = _built_sigma(trial_cfg, h, spectrum, nulling.sigma)
    optimal = precoder_matrices(
        cfg, _misalignment_angles(channels, "theta_cs"), _misalignment_angles(channels, "phi_cs")
    )
    rates = {
        "capacity": capacity(sigma, p_total, 1.0),
        "optimal-precoder": np.sum(precoded_rates(h, optimal, exact_alloc), axis=-1),
        "codebook": np.max(codebook_rates_many(cfg, h, cb, approx_alloc), axis=-1),
        "identity": np.sum(precoded_rates(h, dft_matrix(cfg.n_antennas), approx_alloc), axis=-1),
        "zf": np.sum(nulling.zf, axis=-1),
        "zf-sic": np.sum(nulling.zf_sic, axis=-1),
    }
    return rates, condition_numbers(sigma)


def run_rate_sweep(trial_cfg: TrialConfig, jobs: int = 1) -> list[ResultRow]:
    """Rates of all schemes over the (antenna count, distance) grid.

    Radii are fixed per antenna count to the optimum at the design
    distance; sweeping the actual distance then scales beta inversely.
    Each cell's trials are scored as one batch.  Appends one mean row per
    scheme after each scenario cell's trials.  `jobs` is accepted for
    compatibility; neither the output nor the scheduling depends on it.
    """
    rows: list[ResultRow] = []
    l1, l2 = trial_cfg.codebook_bits
    cb = build_codebook(l1, l2)
    for n in trial_cfg.n_antennas_list:
        radius = _design_radius(trial_cfg, n)
        for dist in trial_cfg.distances:
            cfg = ArrayConfig(
                n_antennas=n,
                wavelength=trial_cfg.wavelength,
                radius_tx=radius,
                radius_rx=radius,
                distance=dist,
            )
            approx_alloc = approx_power_allocation(cfg, trial_cfg.snr_db)
            rates, cond = _rate_sweep_cell(trial_cfg, cfg, cb, approx_alloc)
            for trial in range(trial_cfg.n_trials):
                for scheme in RATE_SWEEP_SCHEMES:
                    rows.append(
                        ResultRow(
                            "rate_sweep", n, dist, scheme, trial,
                            float(rates[scheme][trial]), cfg.beta, float(cond[trial]),
                        )
                    )
            mean_cond = float(np.mean(cond))
            for scheme in RATE_SWEEP_SCHEMES:
                rows.append(
                    ResultRow(
                        "rate_sweep",
                        n,
                        dist,
                        scheme,
                        AGGREGATE_TRIAL,
                        float(np.mean(rates[scheme])),
                        cfg.beta,
                        mean_cond,
                    )
                )
    return rows


DEFAULT_BIT_GRID = (
    (1, 3),
    (2, 3),
    (3, 3),
    (4, 3),
    (5, 3),
    (6, 3),
    (7, 3),
    (3, 1),
    (3, 2),
    (3, 4),
    (3, 5),
)


def run_codebook_bit_sweep(
    trial_cfg: TrialConfig,
    bit_grid: tuple[tuple[int, int], ...] = DEFAULT_BIT_GRID,
    jobs: int = 1,
) -> list[ResultRow]:
    """Codebook rates against the bit budget, sine-uniform vs linear.

    Operates at the first entry of the antenna-count and distance lists
    (defaults target 16 antennas at 300 m with radii designed for the
    design distance).  Every (L1, L2) pair is evaluated with both
    quantisation rules on the same per-trial channels; each codebook is
    built once and scores the stacked channels in one call.  The condition
    number describes the channel built, as in `run_rate_sweep`.  `jobs` is
    accepted for compatibility; neither the output nor the scheduling
    depends on it.
    """
    n = trial_cfg.n_antennas_list[0]
    dist = trial_cfg.distances[0]
    radius = _design_radius(trial_cfg, n)
    cfg = ArrayConfig(
        n_antennas=n,
        wavelength=trial_cfg.wavelength,
        radius_tx=radius,
        radius_rx=radius,
        distance=dist,
    )
    approx_alloc = approx_power_allocation(cfg, trial_cfg.snr_db)
    _, h, spectrum = _cell_channels(trial_cfg, cfg)
    cond = condition_numbers(_built_sigma(trial_cfg, h, spectrum))
    mean_cond = float(np.mean(cond))

    rows: list[ResultRow] = []
    for l1, l2 in bit_grid:
        scenario = f"bit_sweep_L1{l1}_L2{l2}"
        for method in ("sine", "linear"):
            scheme = f"codebook-{method}"
            cb = build_codebook(l1, l2, quantization=method)
            rates = np.max(codebook_rates_many(cfg, h, cb, approx_alloc), axis=-1)
            for trial, rate in enumerate(rates):
                rows.append(
                    ResultRow(scenario, n, dist, scheme, trial, float(rate), cfg.beta, float(cond[trial]))
                )
            rows.append(
                ResultRow(
                    scenario, n, dist, scheme, AGGREGATE_TRIAL, float(np.mean(rates)), cfg.beta, mean_cond
                )
            )
    return rows


def rows_to_csv(rows: list[ResultRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.to_csv() for row in rows)]) + "\n"


def write_csv(rows: list[ResultRow], path) -> None:
    """Write rows as UTF-8 CSV with pinned newlines (byte-reproducible)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
