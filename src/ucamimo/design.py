"""Capacity evaluation and optimal sizing of the UCA pair.

Link capacity under water-filling depends on the geometry only through the
size parameter beta and the rotation angle, so the optimal antenna radii
follow from a one-dimensional search over beta: scan a grid, refine the
winning cell by golden section, then convert the optimal beta into radii
for a given wavelength and distance.  The grid is evaluated in stacked
blocks of at most _GRID_BLOCK spectrum values, and the candidates of every
4 golden-section steps are one stacked evaluation; a row of a stacked
evaluation equals the one-point call bit for bit, so the search returns
the floats of one evaluation per point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI
from .spectrum import singular_values, singular_values_many

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)

# Golden-section steps whose candidate abscissae (2 + 4 + ... + 2**_LOOKAHEAD
# of them) share one spectrum evaluation; depths 3, 5 and 6 were no faster.
_LOOKAHEAD = 4

# Spectrum values (betas times N) per stacked evaluation of a capacity
# curve.  Each temporary of a block is at most 128 KiB, so it stays in cache
# and the allocator reuses it between queries; megabyte temporaries go back
# to the kernel after each query and page-fault on the next.  8,192 is the
# size measured with the benchmark; re-measure before changing it.
_GRID_BLOCK = 8192

# Capacity differences below this are treated as ties; the smallest beta
# among tied grid points wins, which keeps the arrays as small as possible.
TIE_TOLERANCE_BITS = 1e-6

# Smallest normal float.  A budget below it can underflow the water level
# of tied streams to their inverse gain, so water-filling rejects it.
_SMALLEST_BUDGET = sys.float_info.min

# Largest float.  A strongest stream whose SNR p_total*sigma^2/noise
# exceeds it would make the capacity infinite, so water-filling rejects it.
_LARGEST_FLOAT = sys.float_info.max


def power_from_db(snr_db: float) -> float:
    """Linear power ratio of a level in dB.

    Raises ValueError where the ratio overflows a float or falls below
    the smallest budget that water-filling accepts.
    """
    try:
        ratio = 10.0 ** (float(snr_db) / 10.0)
    except OverflowError:
        ratio = math.inf
    if not _SMALLEST_BUDGET <= ratio < math.inf:
        raise ValueError(f"snr_db {snr_db:g} dB is outside the range of a float power ratio")
    return ratio


def _water_fill_powers(sigmas: np.ndarray, p_total: float, noise: float) -> np.ndarray:
    """Water-filling powers over the last axis of a (..., N) stack of gains.

    The sorted-threshold rule of Palomar & Fonollosa (IEEE TSP 53(2),
    2005): sort the inverse gains noise/sigma^2 ascending, take their
    cumulative sum, and keep the largest active set whose water level lies
    above its weakest member.  The smallest inverse gain is subtracted
    before the sum, so the level does not cancel against it at low SNR.
    Each stream then takes the level less its own inverse gain if that
    does not exceed the weakest active one, so tied gains get the same
    power.  Streams whose squared gain is zero or underflows get no power.
    An infinite gain, or a strongest stream whose SNR overflows, is
    rejected in the same test that rejects an all-zero gain vector.
    """
    if not (_SMALLEST_BUDGET <= p_total < math.inf and 0.0 < noise < math.inf):
        raise ValueError("p_total and noise must be positive and finite, p_total a normal float")
    if sigmas.ndim == 0 or sigmas.shape[-1] == 0:
        raise ValueError("sigmas must hold at least one stream gain")
    if not (sigmas >= 0.0).all():
        raise ValueError("sigmas must be nonnegative and not NaN")
    with np.errstate(divide="ignore", over="ignore"):
        inv_gain = noise / sigmas**2
    sorted_inv = np.sort(inv_gain, axis=-1)
    strongest = sorted_inv[..., :1]
    if not ((strongest > p_total / _LARGEST_FLOAT) & (strongest < math.inf)).all():
        if not (strongest < math.inf).all():
            raise ValueError("at least one stream gain must be positive")
        raise ValueError("stream gains must be finite, with p_total * sigma^2 / noise within float range")

    n = sigmas.shape[-1]
    excess = sorted_inv - strongest
    size = np.arange(1, n + 1)
    level = (p_total + excess.cumsum(axis=-1)) / size
    # The largest size whose level clears its weakest stream; size 1 always does.
    active = n - (level > excess)[..., ::-1].argmax(axis=-1)
    # Flat index of each row's weakest active rank, shaped (..., 1).  np.take_along_axis
    # gives the same bits but costs 2-3 times as much per call as this gather.
    at = (np.arange(0, level.size, n).reshape(active.shape) + active - 1)[..., None]
    water = level.reshape(-1)[at]
    weakest = excess.reshape(-1)[at]
    own = inv_gain - strongest
    return np.where(own <= weakest, water - own, 0.0)


def water_fill(sigmas, p_total: float) -> np.ndarray:
    """Water-filling powers over parallel streams at unit noise power.

    Solves max sum log2(1 + p_k sigma_k^2) subject to sum p_k = p_total,
    p_k >= 0, so p_total is the SNR.  Streams with sigma_k = 0 get
    exactly zero power.

    Parameters
    ----------
    sigmas : array_like
        Nonnegative stream gains (at least one must be positive), (N,) or
        a (..., N) stack that is filled row by row.
    p_total : float
        Total power budget; a budget P at noise power n is P/n here.

    Returns the powers, shaped as `sigmas`.
    """
    return _water_fill_powers(np.asarray(sigmas, dtype=float), p_total, 1.0)


def _rate_sum(snr: np.ndarray) -> np.ndarray:
    """Sum of log2(1 + snr) over the last axis, in log1p form.

    The one rate sum of the package: water-filled capacity, and the ZF
    and ZF-SIC rates of stream SNRs.  `log1p` keeps the digits of an SNR
    far below one, which 1 + snr rounds away.
    """
    return np.log1p(snr).sum(axis=-1) / _LN2


def capacity(sigmas, p_total: float, noise: float):
    """Water-filled capacity in bit/s/Hz of the given stream gains.

    A vector of N gains gives a float; a (G, N) stack gives an array of
    G capacities, one per row.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    powers = _water_fill_powers(sigmas, p_total, noise)
    # The SNR sigma^2/noise comes first: p * sigma^2 alone can overflow where the SNR does not.
    caps = _rate_sum(powers * (sigmas**2 / noise))
    return float(caps) if caps.ndim == 0 else caps


@dataclass(frozen=True)
class DesignResult:
    """Outcome of the one-dimensional beta search.

    `at_edge` is set when the optimum lies within one grid step of the
    top of the searched range, where capacity may still rise beyond it.
    """

    beta_opt: float
    capacity: float
    condition_number: float
    radius_equal: float | None = None
    at_edge: bool = False

    @property
    def radii_product(self) -> float | None:
        """R_t * R_r of the equal-radius solution, or None when no radius was asked for."""
        return None if self.radius_equal is None else self.radius_equal * self.radius_equal


def _grid_capacities(n_s: int, betas: np.ndarray, theta_o: float, p_total: float) -> np.ndarray:
    """Water-filled capacity at each beta of a 1-D grid.

    Evaluated over consecutive blocks of _GRID_BLOCK // n_s betas (at least
    one); each value equals the one-point capacity bit for bit.
    """
    rows = max(1, _GRID_BLOCK // n_s)
    caps = np.empty(len(betas))
    for start in range(0, len(betas), rows):
        block = betas[start : start + rows]
        caps[start : start + rows] = capacity(singular_values_many(n_s, block, theta_o), p_total, 1.0)
    return caps


def capacity_curve(
    n_s: int, theta_o: float, snr_db: float, beta_max: float, resolution: float
) -> tuple[np.ndarray, np.ndarray]:
    """The beta grid over (0, beta_max] at `resolution`, and the water-filled capacity at each point.

    The one home of the grid and its checks: raises ValueError where an
    argument is not finite, where beta_max or resolution is not positive,
    where resolution exceeds beta_max (the grid would be empty), or where
    the SNR's power ratio is out of range.  The curve is evaluated in
    blocks of at most _GRID_BLOCK spectrum values, and each capacity
    equals the one-point capacity bit for bit.  Returns (betas, capacities).
    """
    if not all(map(math.isfinite, (snr_db, theta_o, beta_max, resolution))):
        raise ValueError("snr_db, theta_o, beta_max and resolution must be finite")
    if beta_max <= 0.0 or resolution <= 0.0:
        raise ValueError("beta_max and resolution must be positive")
    if resolution > beta_max:
        raise ValueError(f"resolution {resolution:g} exceeds beta_max {beta_max:g}; the beta grid is empty")
    betas = np.arange(resolution, beta_max + resolution / 2.0, resolution)
    return betas, _grid_capacities(n_s, betas, theta_o, power_from_db(snr_db))


def _golden_max(fun_many, lo: float, hi: float, xtol: float) -> float:
    """Golden-section maximiser on [lo, hi]; returns the abscissa.

    `fun_many` maps an array of abscissae to their values, each equal bit
    for bit to its one-point value.  Each call evaluates every abscissa
    that the next _LOOKAHEAD steps could reach, down both branches of each
    step, and the steps are then replayed on those values.  So the
    iterates, and the returned abscissa, are those of the one-point rule.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fun_many(np.array([c, d]))
    while b - a > xtol:
        # Breadth-first tree of (a, b, c, d): node k's children are 2k + 1
        # (fc > fd, the left branch) and 2k + 2; node k >= 1 adds xs[k - 1].
        nodes = [(a, b, c, d)]
        xs = []
        for parent in range(2**_LOOKAHEAD - 1):
            na, nb, nc, nd = nodes[parent]
            left = nd - _INV_PHI * (nd - na)
            right = nc + _INV_PHI * (nb - nc)
            nodes += [(na, nd, left, nc), (nc, nb, nd, right)]
            xs += [left, right]
        values = fun_many(np.array(xs))
        k = 0
        for _ in range(_LOOKAHEAD):
            if not b - a > xtol:
                break
            if fc > fd:
                k = 2 * k + 1
                fd, fc = fc, values[k - 1]
            else:
                k = 2 * k + 2
                fc, fd = fd, values[k - 1]
            a, b, c, d = nodes[k]
    return 0.5 * (a + b)


def condition_numbers(sigmas) -> np.ndarray:
    """Largest over smallest singular value along the last axis.

    Infinite where the smallest singular value is below 1e-10.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    smallest = np.min(sigmas, axis=-1)
    singular = smallest < 1e-10
    return np.where(singular, math.inf, np.max(sigmas, axis=-1) / np.where(singular, 1.0, smallest))


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

    Scans `capacity_curve` over (0, beta_max] at `resolution`, breaks
    ties toward the smallest beta (within TIE_TOLERANCE_BITS), then
    refines the winning cell by golden section to 1e-4.  If `wavelength`
    and `distance` are supplied, the equal-radius solution realising the
    optimum is filled in; giving only one of them raises ValueError.  The
    result is flagged `at_edge` when the optimum lies within `resolution`
    of `beta_max`.
    """
    lengths = tuple(x for x in (wavelength, distance) if x is not None)
    if len(lengths) == 1:
        raise ValueError("wavelength and distance must be given together or not at all")
    if not all(map(math.isfinite, lengths)):
        raise ValueError("wavelength and distance must be finite")
    grid, caps = capacity_curve(n_s, theta_o, snr_db, beta_max, resolution)
    p_total = power_from_db(snr_db)

    best = float(np.max(caps))
    winner = int(np.flatnonzero(caps >= best - TIE_TOLERANCE_BITS)[0])

    lo = max(grid[winner] - resolution, resolution * 1e-3)
    hi = min(grid[winner] + resolution, beta_max)
    beta_opt = _golden_max(lambda betas: _grid_capacities(n_s, betas, theta_o, p_total), lo, hi, 1e-4)
    sigma_opt = singular_values(n_s, beta_opt, theta_o)

    return DesignResult(
        beta_opt=float(beta_opt),
        capacity=capacity(sigma_opt, p_total, 1.0),
        condition_number=float(condition_numbers(sigma_opt)),
        radius_equal=radii_from_beta(beta_opt, wavelength, distance) if lengths else None,
        at_edge=bool(beta_opt >= beta_max - resolution),
    )


def radii_from_beta(beta: float, wavelength: float, distance: float) -> float:
    """The equal radius R_t = R_r realising a target beta at the given wavelength and distance.

    The product is fixed at R_t * R_r = beta * wavelength * distance /
    (2*pi); the radius is its square root.  Raises ValueError where that
    product is not a normal float: it overflows, underflows, or is
    subnormal, whose few significant bits the radius would inherit.
    """
    if not all(0.0 < x < math.inf for x in (beta, wavelength, distance)):
        raise ValueError("beta, wavelength and distance must be positive and finite")
    product = float(beta) * float(wavelength) * float(distance) / TWO_PI
    if not sys.float_info.min <= product < math.inf:
        raise ValueError(
            f"the radius for beta {beta:g}, wavelength {wavelength:g} m and distance {distance:g} m "
            "is outside the range of a positive finite float or loses digits: its radii product "
            f"{product:g} m^2 is not a normal float"
        )
    return math.sqrt(product)
