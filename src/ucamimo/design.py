"""Capacity evaluation and optimal sizing of the UCA pair.

Link capacity under water-filling depends on the geometry only through the
size parameter beta and the rotation angle, so the optimal antenna radii
follow from a one-dimensional search over beta: scan a grid, refine the
winning cell by golden section, then convert the optimal beta into radii
for a given wavelength and distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import singular_values, singular_values_many

TWO_PI = 2.0 * math.pi

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

# Capacity differences below this are treated as ties; the smallest beta
# among tied grid points wins, which keeps the arrays as small as possible.
TIE_TOLERANCE_BITS = 1e-6


@dataclass(frozen=True)
class PowerAllocation:
    """Per-stream transmit powers summing to the total budget.

    `powers` is (N,) for one allocation or (..., N) for a stack of them,
    each row summing to `total`.
    """

    powers: np.ndarray
    total: float
    noise: float

    def __post_init__(self):
        powers = np.array(self.powers, dtype=float)
        powers.setflags(write=False)
        object.__setattr__(self, "powers", powers)
        if self.total <= 0.0 or self.noise <= 0.0:
            raise ValueError("total power and noise must be positive")
        if np.any(powers < 0.0):
            raise ValueError("stream powers must be nonnegative")
        if np.any(np.abs(np.sum(powers, axis=-1) - self.total) > 1e-9 * self.total):
            raise ValueError("stream powers must sum to the total budget")


def _water_fill_powers(sigmas: np.ndarray, p_total: float, noise: float) -> np.ndarray:
    """Water-filling powers over the last axis of a (..., N) stack of gains.

    The sorted-threshold rule of Palomar & Fonollosa (IEEE TSP 53(2),
    2005): sort the inverse gains noise/sigma^2 ascending, take their
    cumulative sum, and keep the largest active set whose water level lies
    above its weakest member.  The smallest inverse gain is subtracted
    before the sum, so the level does not cancel against it at low SNR.
    Streams whose squared gain is zero or underflows get no power.
    """
    if not (p_total > 0.0 and noise > 0.0):
        raise ValueError("p_total and noise must be positive")
    if np.any(sigmas < 0.0):
        raise ValueError("sigmas must be nonnegative")
    with np.errstate(divide="ignore", over="ignore"):
        inv_gain = noise / sigmas**2
    order = np.argsort(inv_gain, axis=-1, kind="stable")
    sorted_inv = np.take_along_axis(inv_gain, order, axis=-1)
    if not np.all(np.isfinite(sorted_inv[..., 0])):
        raise ValueError("at least one stream gain must be positive")

    n = sigmas.shape[-1]
    excess = sorted_inv - sorted_inv[..., :1]
    size = np.arange(1, n + 1)
    level = (p_total + np.cumsum(excess, axis=-1)) / size
    # The largest size whose level clears its weakest stream; size 1 always does.
    active = n - np.argmax((level > excess)[..., ::-1], axis=-1)
    water = np.take_along_axis(level, active[..., None] - 1, axis=-1)
    sorted_powers = np.where(size <= active[..., None], water - excess, 0.0)
    powers = np.empty_like(sorted_powers)
    np.put_along_axis(powers, order, sorted_powers, axis=-1)
    return powers


def water_fill(sigmas, p_total: float, noise: float) -> PowerAllocation:
    """Water-filling power allocation over parallel streams.

    Solves max sum log2(1 + p_k sigma_k^2 / noise) subject to sum p_k =
    p_total, p_k >= 0.  Streams with sigma_k = 0 get exactly zero power.

    Parameters
    ----------
    sigmas : array_like
        Nonnegative stream gains (at least one must be positive), (N,) or
        a (..., N) stack that is filled row by row.
    p_total : float
        Total power budget.
    noise : float
        Noise power.
    """
    powers = _water_fill_powers(np.asarray(sigmas, dtype=float), p_total, noise)
    return PowerAllocation(powers=powers, total=p_total, noise=noise)


def allocated_capacity(sigmas, alloc: PowerAllocation) -> float:
    """Rate sum log2(1 + p_k sigma_k^2 / noise) for a given allocation."""
    sigmas = np.asarray(sigmas, dtype=float)
    return float(np.sum(np.log2(1.0 + alloc.powers * sigmas**2 / alloc.noise)))


def capacity(sigmas, p_total: float, noise: float):
    """Water-filled capacity in bit/s/Hz of the given stream gains.

    A vector of N gains gives a float; a (G, N) stack gives an array of
    G capacities, one per row.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    powers = _water_fill_powers(sigmas, p_total, noise)
    caps = np.sum(np.log2(1.0 + powers * sigmas**2 / noise), axis=-1)
    return float(caps) if caps.ndim == 0 else caps


@dataclass(frozen=True)
class DesignResult:
    """Outcome of the one-dimensional beta search."""

    beta_opt: float
    capacity: float
    condition_number: float
    radii_product: float | None = None
    radius_equal: float | None = None


def _golden_max(fun, lo: float, hi: float, xtol: float) -> float:
    """Golden-section maximiser on [lo, hi]; returns the abscissa."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fun(d)
    return 0.5 * (a + b)


def condition_numbers(sigmas) -> np.ndarray:
    """Largest over smallest singular value along the last axis.

    Infinite where the smallest singular value is below 1e-10.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    smallest = np.min(sigmas, axis=-1)
    singular = smallest < 1e-10
    return np.where(singular, math.inf, np.max(sigmas, axis=-1) / np.where(singular, 1.0, smallest))


def condition_number(n_s: int, beta: float, theta_o: float) -> float:
    """Ratio of the largest to smallest singular value (inf if one is ~0)."""
    return float(condition_numbers(singular_values(n_s, beta, theta_o)))


def search_beta_opt(
    n_s: int,
    theta_o: float,
    snr_db: float,
    beta_max: float = 14.0,
    resolution: float = 0.01,
    *,
    wavelength: float | None = None,
    distance: float | None = None,
) -> DesignResult:
    """Find the capacity-maximising beta for the given rotation and SNR.

    Scans capacity over (0, beta_max] at `resolution`, breaks ties toward
    the smallest beta (within TIE_TOLERANCE_BITS), then refines the winning
    cell by golden section to 1e-4.  If `wavelength` and `distance` are
    supplied, the equal-radius solution realising the optimum is filled in.
    """
    if not all(map(math.isfinite, (snr_db, theta_o, beta_max, resolution))):
        raise ValueError("snr_db, theta_o, beta_max and resolution must be finite")
    if beta_max <= 0.0 or resolution <= 0.0:
        raise ValueError("beta_max and resolution must be positive")
    p_total = 10.0 ** (snr_db / 10.0)
    noise = 1.0

    grid = np.arange(resolution, beta_max + resolution / 2.0, resolution)
    caps = capacity(singular_values_many(n_s, grid, theta_o), p_total, noise)

    best = float(np.max(caps))
    winner = int(np.flatnonzero(caps >= best - TIE_TOLERANCE_BITS)[0])

    lo = max(grid[winner] - resolution, resolution * 1e-3)
    hi = min(grid[winner] + resolution, beta_max)
    beta_opt = _golden_max(
        lambda b: capacity(singular_values(n_s, b, theta_o), p_total, noise), lo, hi, 1e-4
    )
    cap_opt = capacity(singular_values(n_s, beta_opt, theta_o), p_total, noise)

    radii_product = None
    radius_equal = None
    if wavelength is not None and distance is not None:
        radius_tx, radius_rx = radii_from_beta(beta_opt, wavelength, distance)
        radii_product = radius_tx * radius_rx
        radius_equal = radius_tx
    return DesignResult(
        beta_opt=float(beta_opt),
        capacity=cap_opt,
        condition_number=condition_number(n_s, beta_opt, theta_o),
        radii_product=radii_product,
        radius_equal=radius_equal,
    )


def radii_from_beta(
    beta: float,
    wavelength: float,
    distance: float,
) -> tuple[float, float]:
    """Equal radii realising a target beta at the given wavelength and distance.

    The product is fixed at R_t * R_r = beta * wavelength * distance /
    (2*pi); both radii are its square root.
    """
    if beta <= 0.0 or wavelength <= 0.0 or distance <= 0.0:
        raise ValueError("beta, wavelength and distance must be positive")
    product = beta * wavelength * distance / TWO_PI
    r = math.sqrt(product)
    return r, r
