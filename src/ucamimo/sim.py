"""Seeded Monte-Carlo pipelines and CSV emission.

Trials draw random misalignments from counter-based per-trial substreams
keyed by (seed, trial index), so results are byte-reproducible and do not
depend on execution order or parallelism.  The same trial index yields the
same draw in every scenario cell, which pairs the comparisons across
antenna counts, distances and codebook settings.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import APPROXIMATE, EXACT_DISTANCE, build_channel
from .design import (
    PowerAllocation,
    allocated_capacity,
    condition_number,
    search_beta_opt,
    water_fill,
)
from .geometry import ArrayConfig, Misalignment, _wrap_pi
from .spectrum import singular_values
from .transceiver import (
    Codebook,
    SingularChannelError,
    approx_power_allocation,
    build_codebook,
    dft_precoder,
    precoded_rate,
    precoder_from_angles,
    select_codebook_index,
    zf_rate,
    zf_sic_rate,
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


def _rate_sweep_trial(
    trial_cfg: TrialConfig,
    cfg: ArrayConfig,
    cb: Codebook,
    approx_alloc: PowerAllocation,
    trial: int,
) -> tuple[dict[str, float], float]:
    """Rates of every scheme for one trial; returns (rates, condition number).

    A draw clamped exactly onto the rotation bound yields a singular
    channel; the nulling receivers cannot operate there and score zero
    (the row's condition number is infinite, so such trials are visible).
    """
    rng = trial_rng(trial_cfg.seed, trial)
    mis = draw_misalignment(rng, trial_cfg, cfg.n_antennas)
    model = EXACT_DISTANCE if trial_cfg.exact_geometry else APPROXIMATE
    h = build_channel(cfg, mis, model)

    p_total = 10.0 ** (trial_cfg.snr_db / 10.0)
    sig = singular_values(cfg.n_antennas, cfg.beta, mis.theta_o)
    exact_alloc = water_fill(sig, p_total, 1.0)

    def nulling_rate(receiver) -> float:
        try:
            return receiver(h, p_total, 1.0).rate
        except SingularChannelError:
            return 0.0

    optimal = precoder_from_angles(cfg, mis.theta_cs, mis.phi_cs)
    _, cb_rate = select_codebook_index(h, cb, approx_alloc)
    rates = {
        "capacity": allocated_capacity(sig, exact_alloc),
        "optimal-precoder": precoded_rate(h, optimal, exact_alloc, "optimal-precoder").rate,
        "codebook": cb_rate,
        "identity": precoded_rate(h, dft_precoder(cfg.n_antennas), approx_alloc, "identity").rate,
        "zf": nulling_rate(zf_rate),
        "zf-sic": nulling_rate(zf_sic_rate),
    }
    return rates, condition_number(cfg.n_antennas, cfg.beta, mis.theta_o)


def _run_trials(worker, n_trials: int, jobs: int) -> list:
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, range(n_trials)))
    return [worker(t) for t in range(n_trials)]


def run_rate_sweep(trial_cfg: TrialConfig, jobs: int = 1) -> list[ResultRow]:
    """Rates of all schemes over the (antenna count, distance) grid.

    Radii are fixed per antenna count to the optimum at the design
    distance; sweeping the actual distance then scales beta inversely.
    Appends one mean row per scheme after each scenario cell's trials.
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
            results = _run_trials(
                lambda t: _rate_sweep_trial(trial_cfg, cfg, cb, approx_alloc, t),
                trial_cfg.n_trials,
                jobs,
            )
            for trial, (rates, cond) in enumerate(results):
                for scheme in RATE_SWEEP_SCHEMES:
                    rows.append(
                        ResultRow(
                            "rate_sweep", n, dist, scheme, trial, rates[scheme], cfg.beta, cond
                        )
                    )
            mean_cond = float(np.mean([cond for _, cond in results]))
            for scheme in RATE_SWEEP_SCHEMES:
                mean_rate = float(np.mean([rates[scheme] for rates, _ in results]))
                rows.append(
                    ResultRow(
                        "rate_sweep",
                        n,
                        dist,
                        scheme,
                        AGGREGATE_TRIAL,
                        mean_rate,
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
    quantisation rules on the same per-trial channels.
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
    model = EXACT_DISTANCE if trial_cfg.exact_geometry else APPROXIMATE

    def one_trial(trial: int) -> tuple[dict, float]:
        rng = trial_rng(trial_cfg.seed, trial)
        mis = draw_misalignment(rng, trial_cfg, n)
        h = build_channel(cfg, mis, model)
        per_cb = {}
        for l1, l2 in bit_grid:
            for method in ("sine", "linear"):
                cb = build_codebook(l1, l2, quantization=method)
                _, rate = select_codebook_index(h, cb, approx_alloc)
                per_cb[(l1, l2, method)] = rate
        return per_cb, condition_number(n, cfg.beta, mis.theta_o)

    results = _run_trials(one_trial, trial_cfg.n_trials, jobs)

    rows: list[ResultRow] = []
    for l1, l2 in bit_grid:
        scenario = f"bit_sweep_L1{l1}_L2{l2}"
        for method in ("sine", "linear"):
            scheme = f"codebook-{method}"
            for trial, (per_cb, cond) in enumerate(results):
                rows.append(
                    ResultRow(
                        scenario, n, dist, scheme, trial, per_cb[(l1, l2, method)], cfg.beta, cond
                    )
                )
            mean_rate = float(np.mean([per_cb[(l1, l2, method)] for per_cb, _ in results]))
            mean_cond = float(np.mean([cond for _, cond in results]))
            rows.append(
                ResultRow(
                    scenario, n, dist, scheme, AGGREGATE_TRIAL, mean_rate, cfg.beta, mean_cond
                )
            )
    return rows


def rows_to_csv(rows: list[ResultRow]) -> str:
    return "\n".join([CSV_HEADER, *(row.to_csv() for row in rows)]) + "\n"


def write_csv(rows: list[ResultRow], path) -> None:
    """Write rows as UTF-8 CSV with pinned newlines (byte-reproducible)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rows_to_csv(rows))
