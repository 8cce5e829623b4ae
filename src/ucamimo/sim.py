"""Seeded Monte-Carlo pipelines, and the number rule and writer of every printed output.

Trials draw random misalignments from counter-based per-trial substreams
keyed by (seed, trial index), so results are byte-reproducible and do not
depend on execution order.  Each trial is drawn once per campaign and the
same draw serves every scenario cell, which pairs the comparisons across
antenna counts, distances and codebook settings; only the rotation clamp
to [-pi/N, pi/N] depends on the antenna count.  One generator, `_cells`,
builds the cells of both campaigns one antenna count at a time: the
count's design, its clamped draws and its distance cells, stacked
distance-major, each with its (T, N, N) channels and their one
decomposition (sigma, V), the singular values and right singular vectors
that every scheme reads: the paper's closed form on the separable model,
one stacked SVD of the count's channels with exact geometry.  What does
not depend on the distance is built once per antenna count: V = T_t Q
on the separable model, the codebook phasors and, with exact geometry,
the optimal precoder's closed form.  Each scheme is one stacked call
over all of the count's (D T) rows: capacity, ZF and ZF-SIC, the
condition number, the designed powers (one row per cell) and the
codebook scorer, `codebook_best_rates`, which reads each cell's own
power row.  Nothing is kept from one campaign call to the next.
Every command's output, the campaign CSVs and the CLI's other tables
alike, prints its numbers by `table_texts` and goes out through
`write_text`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .channel import APPROXIMATE, EXACT_DISTANCE, build_channels
from .design import (
    DesignResult,
    capacity,
    condition_numbers,
    power_from_db,
    search_beta_opt,
    water_fill,
)
from .geometry import _INTEGERS, TWO_PI, ArrayConfig, Misalignment, _require_even
from .spectrum import singular_values_many
from .transceiver import (
    SINE_UNIFORM,
    _approx_powers,
    _check_bit_counts,
    _distinct_codebook,
    codebook_best_rates,
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
        if not (isinstance(self.seed, _INTEGERS) and 0 <= self.seed < 1 << 64):
            # trial_rng keys on the seed's low 64 bits, so a wider seed would alias one of these
            raise ValueError(f"seed must lie in [0, 2**64) as an integer, got {self.seed}")
        if not (isinstance(self.n_trials, _INTEGERS) and self.n_trials >= 1):
            raise ValueError(f"n_trials must be an integer >= 1, got {self.n_trials}")
        finite = (self.snr_db, self.angle_range_small, self.theta_cs_range, self.wavelength,
                  self.design_distance, *self.distances)
        if not all(map(math.isfinite, finite)):
            raise ValueError("snr_db, angle ranges, wavelength and distances must be finite")
        power_from_db(self.snr_db)  # raises where the SNR's power ratio is out of range
        if self.angle_range_small < 0.0 or self.theta_cs_range < 0.0:
            raise ValueError("angle ranges must be nonnegative")
        if self.theta_cs_range > math.pi:
            raise ValueError("theta_cs_range must not exceed pi")
        if self.angle_range_small >= math.pi / 2:
            raise ValueError("angle_range_small must be below pi/2")
        if self.wavelength <= 0.0 or self.design_distance <= 0.0:
            raise ValueError("wavelength and design_distance must be positive")
        if not self.distances or any(d <= 0.0 for d in self.distances):
            raise ValueError("distances must be positive")
        if not self.n_antennas_list:
            raise ValueError("n_antennas_list must not be empty")
        for n in self.n_antennas_list:
            _require_even(n, "antenna count")
        if len(self.codebook_bits) != 2:
            raise ValueError(f"codebook_bits must hold exactly two bit counts (L1, L2), got {self.codebook_bits!r}")
        _check_bit_counts(*self.codebook_bits)


@dataclass(frozen=True, slots=True)
class ResultRow:
    """One CSV row, its fields in `CSV_HEADER` order; trial = -1 marks a mean over all trials."""

    scenario: str
    n_antennas: int
    distance_m: float
    scheme: str
    trial: int
    rate_bps_hz: float
    beta: float
    cond_number: float


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Counter-based substream for one trial, stable across platforms."""
    mask = (1 << 64) - 1
    key = np.array([seed & mask, trial & mask], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_angles(rngs: Iterable[np.random.Generator], trial_cfg: TrialConfig) -> np.ndarray:
    """Each generator's trial angles before the rotation clamp, shape (5, T) in `Misalignment` order.

    Each generator gives five uniforms u in [0, 1), mapped onto [-half,
    half) as `Generator.uniform` maps them: half is `theta_cs_range` for
    the azimuth and `angle_range_small` for the other four angles.  A
    negative polar draw is reflected to the opposite azimuth: theta_cs +
    pi, less 2*pi where that passes pi.  That subtraction is exact, so the
    result equals remainder(theta_cs + pi, 2*pi) bit for bit.
    """
    small = trial_cfg.angle_range_small
    half = np.array([small, trial_cfg.theta_cs_range, small, small, small])
    u = np.array([rng.random(5) for rng in rngs])
    theta_o, theta_cs, phi_cs, phi_x, phi_y = (2.0 * half * u - half).T
    theta_cs = np.where(phi_cs < 0.0, theta_cs + math.pi, theta_cs)
    theta_cs = np.where(theta_cs > math.pi, theta_cs - TWO_PI, theta_cs)
    return np.array([theta_o, theta_cs, np.abs(phi_cs), phi_x, phi_y])


def _clamp_rotation(theta_o, n_antennas: int):
    """Clamp rotations into [-pi/N, pi/N]."""
    bound = math.pi / n_antennas
    return np.minimum(np.maximum(theta_o, -bound), bound)


def draw_misalignment(
    rng: np.random.Generator, trial_cfg: TrialConfig, n_antennas: int
) -> Misalignment:
    """One random misalignment draw, the one-generator form of the campaign draws.

    The rotation, both tilts and the polar shift are uniform on
    [-angle_range_small, +angle_range_small]; the shift azimuth is uniform
    on [-theta_cs_range, +theta_cs_range].  A negative polar draw is
    reflected to the opposite azimuth, and the rotation is clamped into
    [-pi/N, pi/N] should the range exceed that bound.  The draw order is
    fixed (rotation, azimuth, polar, tilt-x, tilt-y) for reproducibility.
    """
    theta_o, *rest = _draw_angles([rng], trial_cfg)[:, 0].tolist()
    return Misalignment(float(_clamp_rotation(theta_o, n_antennas)), *rest)


def _campaign_draws(trial_cfg: TrialConfig) -> np.ndarray:
    """Every trial's angles before the rotation clamp, shape (5, T); one substream per trial."""
    return _draw_angles((trial_rng(trial_cfg.seed, t) for t in range(trial_cfg.n_trials)), trial_cfg)


class _Cells(NamedTuple):
    """One antenna count's distance cells, stacked distance-major."""

    cfgs: list[ArrayConfig]  # one per distance, in the campaign's order
    betas: np.ndarray  # (D,): each cell's beta
    h: np.ndarray  # (D, T, N, N): each cell's channels
    sigma: np.ndarray  # (D, T, N): their singular values
    v: np.ndarray  # (D, T, N, N): their right singular vectors; on the separable model one V for every D


def _cells(trial_cfg: TrialConfig) -> Iterator[tuple[DesignResult, Misalignment, _Cells]]:
    """Each antenna count's design, its clamped misalignments and its distance cells.

    Antenna counts come in `n_antennas_list` order.  Both radii are fixed
    per antenna count to the optimum at the design distance, searched once
    per count; sweeping the actual distance then scales beta inversely.
    The trials are drawn once per campaign and clamped once per antenna
    count, so trial t equals `draw_misalignment(trial_rng(seed, t),
    trial_cfg, N)`.  Each cell's channels are one `build_channels` call.
    (sigma, V) is each cell's one decomposition: with exact geometry one
    SVD stacked over all D cells' channels; on the separable model the
    paper's closed form (`_closed_form`), the spectra of all D cells in one
    call and one V, which depends on no distance, shared by reference by
    every cell.
    """
    theta_o, *rest = _campaign_draws(trial_cfg)
    model = EXACT_DISTANCE if trial_cfg.exact_geometry else APPROXIMATE
    for n in trial_cfg.n_antennas_list:
        design = search_beta_opt(
            n, 0.0, trial_cfg.snr_db, wavelength=trial_cfg.wavelength, distance=trial_cfg.design_distance
        )
        radius = float(design.radius_equal)
        mis = Misalignment(_clamp_rotation(theta_o, n), *rest)
        cfgs = [ArrayConfig(n, trial_cfg.wavelength, radius, radius, dist) for dist in trial_cfg.distances]
        betas = np.array([cfg.beta for cfg in cfgs])
        h = np.array([build_channels(cfg, mis, model) for cfg in cfgs])
        if trial_cfg.exact_geometry:
            _, sigma, vh = np.linalg.svd(h)
            # V is a view of conj(V^H), laid out in V^H's memory order as swapaxes(vh).conj() lays
            # it out: NumPy's order of adding a row of V (in `nulling_rates`) follows the layout
            v = np.swapaxes(vh.conj(), -1, -2)
        else:
            sigma, v = _closed_form(cfgs[0], betas, mis)
            v = np.broadcast_to(v, h.shape)
        yield design, mis, _Cells(cfgs, betas, h, sigma, v)


def _closed_form(cfg: ArrayConfig, betas, mis: Misalignment) -> tuple[np.ndarray, np.ndarray]:
    """The paper's SVD of separable channels at each of an array of betas: (..., T, N) spectra and a (T, N, N) V.

    The spectrum, in DFT order, depends on beta and the rotation; V = T_t
    Q, the phase-corrected DFT that `precoder_matrices` builds, on the Tx
    radius and the shift alone, so one V serves every distance of `cfg`'s
    antenna count and radii.  No factorisation is taken.
    """
    sigma = singular_values_many(cfg.n_antennas, np.asarray(betas)[..., None], mis.theta_o)
    return sigma, precoder_matrices(cfg, mis.theta_cs, mis.phi_cs)


def _cell_rows(
    scenario: str, cfg: ArrayConfig, rates: dict[str, np.ndarray], cond: np.ndarray
) -> list[ResultRow]:
    """A cell's rows: each trial's schemes in `rates` order, trial by trial, then one mean row per scheme."""
    n, dist, beta = cfg.n_antennas, cfg.distance, cfg.beta
    columns = [(scheme, rate.tolist()) for scheme, rate in rates.items()]
    rows = [
        ResultRow(scenario, n, dist, scheme, trial, rate[trial], beta, trial_cond)
        for trial, trial_cond in enumerate(cond.tolist())
        for scheme, rate in columns
    ]
    mean_cond = float(np.mean(cond))
    rows += [
        ResultRow(scenario, n, dist, scheme, AGGREGATE_TRIAL, float(np.mean(rate)), beta, mean_cond)
        for scheme, rate in rates.items()
    ]
    return rows


def run_rate_sweep(trial_cfg: TrialConfig, jobs: int = 1) -> list[ResultRow]:
    """Rates of all schemes over the (antenna count, distance) grid.

    Each trial is drawn once, and the trials are scored in batches: the
    capacity, ZF and ZF-SIC rows, the condition number and the codebook
    scorer are each one stacked call over all cells of an antenna count.
    The scorer, `codebook_best_rates` on the count's stacked cells and
    their designed power rows, scores two codebooks: the campaign's,
    whose best entry's rate is the codebook row (the row maximum of
    `codebook_rates_many`, bit for bit), and the one entry with zero
    shift, t = 1, which is the DFT precoder: the identity row.  Each
    codebook is scored as `_distinct_codebook` gives it: with L2 = 0
    every entry is the DFT precoder, and one is scored.
    The capacity row and the condition number come from the singular
    values `_cells` yields, and the codebook's bound from them and V.  ZF
    and ZF-SIC read the cells' (sigma, V) on both models, one
    `nulling_rates` call per antenna count.  The one per-model branch is the
    optimal-precoder row.  On the separable model the optimal precoder,
    the SVD precoder with water-filling, reaches capacity exactly, so its
    row is the capacity row.  On exact geometry it water-fills the
    closed-form spectrum, built once per antenna count, and is scored by
    one `precoded_rates` call per antenna count: its powers are
    water-filled per trial, (T, N), while the codebook scorer builds Q~
    P~^(1/2), the stream count r and the bound's modes from one power row
    per cell, so it cannot score per-trial powers.  A draw clamped
    exactly onto the rotation bound yields a singular separable channel;
    the nulling receivers cannot operate there and score zero (the row's
    condition number is infinite, so such trials are visible).  `jobs` is
    accepted for compatibility; neither the output nor the scheduling
    depends on it.
    """
    p_total = power_from_db(trial_cfg.snr_db)
    codebooks = [_distinct_codebook(*trial_cfg.codebook_bits, SINE_UNIFORM), _distinct_codebook(0, 0, SINE_UNIFORM)]
    rows: list[ResultRow] = []
    for _, mis, cells in _cells(trial_cfg):
        n = cells.h.shape[-1]
        cap = capacity(cells.sigma, p_total, 1.0)
        if trial_cfg.exact_geometry:
            spectrum, optimal = _closed_form(cells.cfgs[0], cells.betas, mis)  # the paper's SVD precoder
            optimal_rate = np.sum(precoded_rates(cells.h, optimal, water_fill(spectrum, p_total)), axis=-1)
        else:
            optimal_rate = cap
        zf, zf_sic = (rate.reshape(cap.shape) for rate in
                      nulling_rates(cells.sigma.reshape(-1, n), cells.v.reshape(-1, n, n), p_total))
        cond = condition_numbers(cells.sigma)
        powers = _approx_powers(n, cells.betas, trial_cfg.snr_db)
        best = codebook_best_rates(cells.cfgs[0], cells.h, cells.sigma, cells.v, codebooks, powers)  # (D, 2, T)
        for d, cfg in enumerate(cells.cfgs):
            rates = (cap[d], optimal_rate[d], *best[d], zf[d], zf_sic[d])
            rows += _cell_rows("rate_sweep", cfg, dict(zip(RATE_SWEEP_SCHEMES, rates, strict=True)), cond[d])
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
    """Codebook rates against the bit budget, sine-uniform vs linear, in every scenario cell.

    The cells come from `_cells`, as in `run_rate_sweep`: antenna count
    outermost, on the campaign's one set of draws; the CLI's `codebook` runs one cell, 16
    antennas at 300 m by default, with radii designed for the design
    distance.  Within a cell every (L1, L2) pair is evaluated with both
    quantisation rules on the same per-trial channels.  Each codebook is
    built once per call and its phasors once per antenna count, in one
    `codebook_best_rates` call per antenna count on its stacked cells,
    which scores all of them on each cell's channels: one bound pass over
    all their entries, whose blocks may straddle codebooks, and two rounds
    of exact scores.
    The linear baseline covers the shift disc twice, so every precoder in
    it has a twin; only its distinct half is scored (`_distinct_codebook`),
    and a row is the best rate over that half, which equals the full
    codebook's best up to rounding.  The condition number describes the
    channel built, as in `run_rate_sweep`.  `jobs` is accepted for
    compatibility; neither the output nor the scheduling depends on it.
    """
    if not bit_grid:
        raise ValueError("bit_grid must not be empty")
    codebooks = [(l1, l2, method, _distinct_codebook(l1, l2, method))
                 for l1, l2 in bit_grid for method in ("sine", "linear")]
    rows: list[ResultRow] = []
    books = [cb for *_, cb in codebooks]
    for _, _, cells in _cells(trial_cfg):
        cond = condition_numbers(cells.sigma)
        powers = _approx_powers(cells.h.shape[-1], cells.betas, trial_cfg.snr_db)
        best = codebook_best_rates(cells.cfgs[0], cells.h, cells.sigma, cells.v, books, powers)
        for d, cfg in enumerate(cells.cfgs):
            for (l1, l2, method, _), rates in zip(codebooks, best[d]):
                rows += _cell_rows(f"bit_sweep_L1{l1}_L2{l2}", cfg, {f"codebook-{method}": rates}, cond[d])
    return rows


# The number types whose equal nonzero values print alike, so that `table_texts` formats each once
# per call; a complex 1+0j equals 1.0 but prints as 1+0j
_SHARED_TEXT = frozenset({float, int})


def table_texts(rows) -> list[list[str]]:
    """The one number rule of every printed output, applied to each value of each row.

    A number, int or float, prints with 9 significant digits (.9g); a
    string prints as it is.  A whole table is one call, not one per row,
    so tracing a CSV of thousands of rows records one span.  Within the
    call each distinct nonzero float or int is formatted once and its
    text reused, since a campaign repeats beta, the distance and each
    trial's condition number over many rows; other values (NumPy scalars,
    bools) are formatted as they come.  Every value prints what `.9g`
    alone prints.
    """
    texts: dict = {}
    table = []
    for row in rows:
        line = []
        for value in row:
            if isinstance(value, str):
                line.append(value)
                continue
            # zeros are formatted each time: 0.0 and -0.0 are one key but print as 0 and -0
            key = value if value and type(value) in _SHARED_TEXT else None
            text = texts.get(key)
            if text is None:
                text = f"{value:.9g}"
                if key is not None:
                    texts[key] = text
            line.append(text)
        table.append(line)
    return table


def csv_text(header: str, rows) -> str:
    """The header, then one comma-separated line of `table_texts` per row; every line ends in a newline."""
    return "\n".join([header, *map(",".join, table_texts(rows))]) + "\n"


def write_text(text: str, path) -> None:
    """The one writer of every output: `text` as UTF-8 with pinned newlines (byte-reproducible).

    It goes to `path`, or to stdout where `path` is None or empty.
    """
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# A ResultRow's values in CSV_HEADER order
_ROW_VALUES = attrgetter(*CSV_HEADER.split(","))


def rows_to_csv(rows: list[ResultRow]) -> str:
    return csv_text(CSV_HEADER, map(_ROW_VALUES, rows))


def write_csv(rows: list[ResultRow], path) -> None:
    """`write_text` of the rows' CSV."""
    write_text(rows_to_csv(rows), path)
