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
    _require_exact_phase,
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


def _phasors(cfg: ArrayConfig, tau: np.ndarray) -> np.ndarray:
    """Phasors exp(-j*2*pi*tau/lambda) of path-length offsets tau."""
    return np.exp(-1j * TWO_PI / cfg.wavelength * tau)


def _phase_factors(cfg: ArrayConfig, mis: Misalignment) -> tuple[np.ndarray, np.ndarray]:
    """Phasors of the Tx and the Rx displacements; shape (..., N)."""
    t_t = _phasors(cfg, tx_displacement(cfg, mis.theta_cs, mis.phi_cs))
    return t_t, _phasors(cfg, rx_displacement(cfg, mis))


@dataclass(frozen=True)
class ChannelMatrix:
    """N x N unit-modulus channel with the array and misalignment that built it."""

    entries: np.ndarray
    cfg: ArrayConfig
    mis: Misalignment

    def __post_init__(self):
        entries = _readonly(np.asarray(self.entries, dtype=complex))
        _check_entries(entries, (self.cfg.n_antennas,) * 2)
        object.__setattr__(self, "entries", entries)


def _check_entries(entries: np.ndarray, shape: tuple[int, ...]) -> None:
    """Channels must have the given shape and unit-magnitude entries."""
    if entries.shape != shape:
        raise ValueError(f"channel must be {shape[-2]}x{shape[-1]}")
    if not (np.abs(np.abs(entries) - 1.0) <= 1e-12).all():  # NaN fails this test
        raise ValueError("channel entries must have unit magnitude")


def aligned_first_column(cfg: ArrayConfig, theta_o: float) -> np.ndarray:
    """First column of the rotation-only circulant core.

    Entry p (0-based) is exp(-j*2*pi*D/lambda) * exp(+j*beta*cos(2*pi*p/N + theta_o)).
    An array of rotations gives one column per rotation, shape (..., N).
    """
    p = np.arange(cfg.n_antennas)
    theta_o = np.asarray(theta_o, dtype=float)[..., None]
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
    col = aligned_first_column(cfg, theta_o)
    return _circulant(col), cfg.n_antennas * np.fft.ifft(col)


def _circulant(col: np.ndarray) -> np.ndarray:
    """Column-circulant matrices c[(n - m) mod N] from first columns of shape (..., N)."""
    n = col.shape[-1]
    return col[..., (np.arange(n)[:, None] - np.arange(n)[None, :]) % n]


def build_channels(cfg: ArrayConfig, mis: Misalignment, model: str = APPROXIMATE) -> np.ndarray:
    """Construct the channels h(n, m) = exp(-j*2*pi*d(n, m)/lambda) of a stack of trials.

    `mis` holds one misalignment per trial, as angle arrays of shape (T,);
    the result has shape (T, N, N), and row t is the channel of trial t
    alone.  With ``model="approximate"`` the separable far-field distances
    are used and each matrix is assembled as T_r * H_a * T_t^H; with
    ``model="exact_distance"`` each entry uses the exact distance.  The
    model, its guard and the unit magnitude of the entries are checked
    once per call.  The separable model needs D >= 10 * max(R); at closer
    range use ``model="exact_distance"``.  The exact model needs D's last
    place to be a small phase (`geometry._require_exact_phase`), or the
    rounded distances, not the geometry, would set the channel.
    """
    if model == EXACT_DISTANCE:
        distances = distance_matrix_exact(cfg, mis)
        _require_exact_phase(cfg)
        entries = _phasors(cfg, distances)
    elif model == APPROXIMATE:
        _require_far_field(cfg)
        h_a = _circulant(aligned_first_column(cfg, mis.theta_o))
        t_t, t_r = _phase_factors(cfg, mis)
        entries = t_r[..., :, None] * h_a * t_t.conj()[..., None, :]
    else:
        raise ValueError(f"unknown channel model {model!r}")
    _check_entries(entries, np.shape(mis.theta_o) + (cfg.n_antennas,) * 2)
    return entries


def build_channel(cfg: ArrayConfig, mis: Misalignment, model: str = APPROXIMATE) -> ChannelMatrix:
    """The channel of one trial: `build_channels` on a misalignment of floats."""
    return ChannelMatrix(entries=build_channels(cfg, mis, model), cfg=cfg, mis=mis)


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


def closed_form_svd(cfg: ArrayConfig, mis: Misalignment) -> SvdTriple:
    """Closed-form SVD of the separable-model channel.

    U = T_r Q S, sigma = |delta|, V = T_t Q, where delta is the eigenvalue
    diagonal of the circulant core and S carries its phases.  Singular
    values are returned in DFT-index order, not sorted.  Where a singular
    value vanishes the corresponding phase in S is set to 1 so that U stays
    unitary.
    """
    _require_far_field(cfg)
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

    Serves as an independent check of the closed form; backed by LAPACK,
    whose `LinAlgError` propagates if the SVD does not converge.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if not np.all(np.isfinite(matrix.real)) or not np.all(np.isfinite(matrix.imag)):
        raise ValueError("matrix entries must be finite")
    u, sigma, vh = np.linalg.svd(matrix)
    return SvdTriple(u=u, sigma=sigma, v=vh.conj().T)
