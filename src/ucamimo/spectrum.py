"""Direct evaluation of the UCA link's singular values.

For an even number of elements N the (unsorted, DFT-indexed) singular
values of the separable-model channel depend only on the size parameter
beta and the in-plane rotation theta_o:

    sigma_k = | sum_i exp(-j*[2*pi*i*(k-1)/N - beta*cos(2*pi*i/N + theta_o)]) |

This module evaluates that sum as one FFT — independently of the channel
factorisation — and provides executable checks of the spectrum's
structural symmetries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def _check_even(n_s: int) -> None:
    if n_s < 2 or n_s % 2 != 0:
        raise ValueError("n_s must be an even integer >= 2")


def _spectrum(n_s: int, betas, theta_o) -> np.ndarray:
    """The one spectrum kernel: an FFT over the element phasors, shape (..., N)."""
    _check_even(n_s)
    betas = np.asarray(betas, dtype=float)
    if np.any(betas < 0.0):
        raise ValueError("beta must be nonnegative")
    angles = TWO_PI * np.arange(n_s) / n_s + np.asarray(theta_o, dtype=float)[..., None]
    phasors = np.exp(1j * betas[..., None] * np.cos(angles))
    return np.abs(np.fft.fft(phasors, axis=-1))


def singular_values(n_s: int, beta: float, theta_o: float) -> np.ndarray:
    """All N singular values in DFT-index order k = 1..N."""
    return _spectrum(n_s, beta, theta_o)


def singular_values_many(n_s: int, betas, theta_o) -> np.ndarray:
    """Singular values for arrays of beta and theta_o; shape (..., N).

    `betas` and `theta_o` broadcast against each other, so a grid on
    either axis is one call.
    """
    return _spectrum(n_s, betas, theta_o)


def singular_value(n_s: int, beta: float, theta_o: float, k: int) -> float:
    """The k-th singular value (1-based DFT index)."""
    if not 1 <= k <= n_s:
        raise ValueError(f"k must lie in 1..{n_s}, got {k}")
    return float(singular_values(n_s, beta, theta_o)[k - 1])


@dataclass(frozen=True)
class SpectrumPoint:
    """The spectrum at one (beta, theta_o) operating point."""

    beta: float
    theta_o: float
    sigmas: np.ndarray


def spectrum_sweep(n_s: int, theta_o: float, beta_grid) -> list[SpectrumPoint]:
    """Evaluate the spectrum at every beta on the grid, in grid order."""
    beta_grid = np.asarray(beta_grid, dtype=float)
    if beta_grid.size == 0:
        raise ValueError("beta grid must be non-empty")
    sig = singular_values_many(n_s, beta_grid, theta_o)
    return [
        SpectrumPoint(beta=float(b), theta_o=theta_o, sigmas=sig[g])
        for g, b in enumerate(beta_grid)
    ]


def leading_dominance_bound(n_s: int, theta_o: float) -> float:
    """Largest beta up to which the first singular value is guaranteed maximal.

    Equals pi*N / (4 * sum_i |cos(2*pi*i/N + theta_o)|).
    """
    _check_even(n_s)
    i = np.arange(n_s)
    total = np.sum(np.abs(np.cos(TWO_PI * i / n_s + theta_o)))
    return math.pi * n_s / (4.0 * total)


@dataclass(frozen=True)
class SpectrumStructureReport:
    """Outcome of the five structural checks of the spectrum.

    Each flag is True when its check passed; checks whose hypothesis did
    not apply at the given operating point pass vacuously and are listed
    in `vacuous`.
    """

    conjugate_pairing: bool
    leading_dominance: bool
    small_beta_limit: bool
    rotation_sign_symmetry: bool
    half_mode_null: bool
    vacuous: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.conjugate_pairing
            and self.leading_dominance
            and self.small_beta_limit
            and self.rotation_sign_symmetry
            and self.half_mode_null
        )


def check_spectrum_structure(
    n_s: int,
    beta: float,
    theta_o: float,
    *,
    tol: float = 1e-10,
) -> SpectrumStructureReport:
    """Run the five structural checks at one operating point.

    (1) sigma_k = sigma_{N+2-k} for k = 2..N;
    (2) sigma_1 is maximal whenever beta <= the dominance bound;
    (3) as beta -> 0 (checked for beta <= 1e-8) sigma_1 -> N and the rest
        vanish;
    (4) the spectrum is even in theta_o;
    (5) the (N/2+1)-th value vanishes when theta_o = +/- pi/N.
    """
    _check_even(n_s)
    sig = singular_values(n_s, beta, theta_o)
    vacuous = []

    pairing = bool(np.max(np.abs(sig[1:] - sig[1:][::-1])) <= tol) if n_s > 2 else True

    bound = leading_dominance_bound(n_s, theta_o)
    if beta <= bound:
        dominance = bool(sig[0] >= np.max(sig[1:]) - tol)
    else:
        dominance = True
        vacuous.append("leading_dominance")

    if beta <= 1e-8:
        limit = bool(abs(sig[0] - n_s) <= 1e-6 and np.max(sig[1:]) <= 1e-6)
    else:
        limit = True
        vacuous.append("small_beta_limit")

    mirrored = singular_values(n_s, beta, -theta_o)
    sign_symmetry = bool(np.max(np.abs(sig - mirrored)) <= tol)

    if abs(abs(theta_o) - math.pi / n_s) <= 1e-12:
        half_null = bool(sig[n_s // 2] <= tol)
    else:
        half_null = True
        vacuous.append("half_mode_null")

    return SpectrumStructureReport(
        conjugate_pairing=pairing,
        leading_dominance=dominance,
        small_beta_limit=limit,
        rotation_sign_symmetry=sign_symmetry,
        half_mode_null=half_null,
        vacuous=tuple(vacuous),
    )
