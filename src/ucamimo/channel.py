"""Narrowband channel matrices between two UCAs and their factorisations.

Each entry of the channel is a unit-magnitude phasor exp(-j*2*pi*d/lambda)
of the corresponding inter-antenna distance.  Under the separable far-field
distance model the matrix factors as T_r * H_a * T_t^H with diagonal phase
matrices around a circulant core, which yields a closed-form SVD: the DFT
matrix diagonalises the core, and the singular values are the magnitudes of
its eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    TWO_PI,
    ArrayConfig,
    Misalignment,
    _require_far_field,
    distance_matrix_exact,
    rx_displacement,
    tx_displacement,
)

EXACT_DISTANCE = "exact_distance"
APPROXIMATE = "approximate"

# Below this magnitude an eigenvalue's phase is treated as arbitrary when
# splitting it into phase times modulus.
ZERO_SIGMA_THRESHOLD = 1e-12


class SvdConvergenceError(RuntimeError):
    """Raised when the numerical SVD fails to converge."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT matrix with entries exp(-2j*pi*(a-1)*(b-1)/n)/sqrt(n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / math.sqrt(n)


def _phase_factors(cfg: ArrayConfig, mis: Misalignment) -> tuple[np.ndarray, np.ndarray]:
    """Phasors exp(-j*2*pi*tau/lambda) of the Tx and the Rx displacements."""
    k = -1j * TWO_PI / cfg.wavelength
    t_t = np.exp(k * tx_displacement(cfg, mis.theta_cs, mis.phi_cs))
    return t_t, np.exp(k * rx_displacement(cfg, mis))


@dataclass(frozen=True)
class ChannelMatrix:
    """N x N unit-modulus channel with the model, array and misalignment that built it."""

    entries: np.ndarray
    model: str
    cfg: ArrayConfig
    mis: Misalignment

    def __post_init__(self):
        entries = _readonly(np.asarray(self.entries, dtype=complex))
        n = self.cfg.n_antennas
        if entries.shape != (n, n):
            raise ValueError(f"channel must be {n}x{n}")
        if self.model not in (EXACT_DISTANCE, APPROXIMATE):
            raise ValueError(f"unknown channel model {self.model!r}")
        if np.max(np.abs(np.abs(entries) - 1.0)) > 1e-12:
            raise ValueError("channel entries must have unit magnitude")
        object.__setattr__(self, "entries", entries)


def aligned_first_column(cfg: ArrayConfig, theta_o: float) -> np.ndarray:
    """First column of the rotation-only circulant core.

    Entry p (0-based) is exp(-j*2*pi*D/lambda) * exp(+j*beta*cos(2*pi*p/N + theta_o)).
    """
    p = np.arange(cfg.n_antennas)
    global_phase = np.exp(-1j * TWO_PI * cfg.distance / cfg.wavelength)
    return global_phase * np.exp(1j * cfg.beta * np.cos(TWO_PI * p / cfg.n_antennas + theta_o))


def circulant_factor(cfg: ArrayConfig, theta_o: float) -> tuple[np.ndarray, np.ndarray]:
    """Rotation-only circulant core H_a and its eigenvalue diagonal.

    Returns (h_a, delta) with h_a[n, m] = c[(n - m) mod N] built from the
    first column c, and delta the eigenvalues such that
    h_a = Q @ diag(delta) @ Q^H for the unitary DFT matrix Q.  For a
    column-circulant matrix and this sign convention the eigenvalues are
    the unnormalised inverse DFT of the first column.
    """
    n = cfg.n_antennas
    col = aligned_first_column(cfg, theta_o)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    h_a = col[idx]
    delta = n * np.fft.ifft(col)
    return h_a, delta


def build_channel(
    cfg: ArrayConfig,
    mis: Misalignment,
    model: str = APPROXIMATE,
    *,
    allow_close_range: bool = False,
) -> ChannelMatrix:
    """Construct the channel h(n, m) = exp(-j*2*pi*d(n, m)/lambda).

    With ``model="approximate"`` the separable far-field distances are used
    and the matrix is assembled as T_r * H_a * T_t^H; with
    ``model="exact_distance"`` each entry uses the exact distance.
    """
    if model == EXACT_DISTANCE:
        d = distance_matrix_exact(cfg, mis)
        entries = np.exp(-1j * TWO_PI / cfg.wavelength * d)
    elif model == APPROXIMATE:
        _require_far_field(cfg, allow_close_range)
        h_a, _ = circulant_factor(cfg, mis.theta_o)
        t_t, t_r = _phase_factors(cfg, mis)
        entries = t_r[:, None] * h_a * t_t.conj()[None, :]
    else:
        raise ValueError(f"unknown channel model {model!r}")
    return ChannelMatrix(entries=entries, model=model, cfg=cfg, mis=mis)


@dataclass(frozen=True)
class SvdTriple:
    """SVD factors U, sigma, V with H = U @ diag(sigma) @ V^H.

    The ordering of `sigma` is defined by the producing operation: the
    closed form keeps DFT-index order (unsorted), the numerical routine
    sorts descending.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _readonly(np.asarray(self.u, dtype=complex)))
        object.__setattr__(self, "sigma", _readonly(np.asarray(self.sigma, dtype=float)))
        object.__setattr__(self, "v", _readonly(np.asarray(self.v, dtype=complex)))
        if np.any(self.sigma < 0.0):
            raise ValueError("singular values must be nonnegative")

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma[None, :]) @ self.v.conj().T


def closed_form_svd(
    cfg: ArrayConfig,
    mis: Misalignment,
    *,
    allow_close_range: bool = False,
) -> SvdTriple:
    """Closed-form SVD of the separable-model channel.

    U = T_r Q S, sigma = |delta|, V = T_t Q, where delta is the eigenvalue
    diagonal of the circulant core and S carries its phases.  Singular
    values are returned in DFT-index order, not sorted.  Where a singular
    value vanishes the corresponding phase in S is set to 1 so that U stays
    unitary.
    """
    _require_far_field(cfg, allow_close_range)
    _, delta = circulant_factor(cfg, mis.theta_o)
    sigma = np.abs(delta)
    s = np.where(sigma < ZERO_SIGMA_THRESHOLD, 1.0 + 0.0j, delta / np.where(sigma == 0.0, 1.0, sigma))
    q = dft_matrix(cfg.n_antennas)
    t_t, t_r = _phase_factors(cfg, mis)
    u = t_r[:, None] * q * s[None, :]
    v = t_t[:, None] * q
    return SvdTriple(u=u, sigma=sigma, v=v)


def numerical_svd(matrix: np.ndarray) -> SvdTriple:
    """Generic SVD with singular values sorted descending.

    Serves as an independent check of the closed form; backed by LAPACK.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
        raise ValueError("matrix entries must be finite")
    try:
        u, sigma, vh = np.linalg.svd(matrix)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc
    return SvdTriple(u=u, sigma=sigma, v=vh.conj().T)
