"""Direct evaluation of the UCA link's singular values.

For an even number of elements N the (unsorted, DFT-indexed) singular
values of the separable-model channel depend only on the size parameter
beta and the in-plane rotation theta_o:

    sigma_k = | sum_i exp(-j*[2*pi*i*(k-1)/N - beta*cos(2*pi*i/N + theta_o)]) |

This module evaluates that sum as one FFT, independently of the channel
factorisation, and gives the bound on beta below which the first value
is the largest.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI, _require_even


def _spectrum(n_s: int, betas, theta_o) -> np.ndarray:
    """The one spectrum kernel: an FFT over the element phasors, shape (..., N).

    The phasors exp(j*beta*cos(angle)) are written as their cosine and
    sine straight into the real and imaginary parts of one complex array.
    """
    _require_even(n_s, "n_s")
    betas = np.asarray(betas, dtype=float)
    if (betas < 0.0).any():
        raise ValueError("beta must be nonnegative")
    angles = TWO_PI * np.arange(n_s) / n_s + np.asarray(theta_o, dtype=float)[..., None]
    arg = betas[..., None] * np.cos(angles)
    phasors = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=phasors.real)
    np.sin(arg, out=phasors.imag)
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


def leading_dominance_bound(n_s: int, theta_o: float) -> float:
    """Largest beta up to which the first singular value is guaranteed maximal.

    Equals pi*N / (4 * sum_i |cos(2*pi*i/N + theta_o)|).
    """
    _require_even(n_s, "n_s")
    i = np.arange(n_s)
    total = np.sum(np.abs(np.cos(TWO_PI * i / n_s + theta_o)))
    return math.pi * n_s / (4.0 * total)
