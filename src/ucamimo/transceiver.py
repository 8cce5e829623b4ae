"""Receivers and limited-feedback precoding for the UCA link.

The capacity-achieving precoder is a per-antenna phase correction (set by
the two centre-shift angles) in front of the DFT.  When those angles are
unknown at the transmitter, the receiver picks the best entry from a
codebook of quantised angle pairs and feeds back its index.  Angles are
quantised so their sines are uniformly spaced, since the correction phases
are proportional to the sines.  Zero-forcing receivers, with and without
successive interference cancellation, cover the no-precoding architecture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelMatrix, dft_matrix
from .design import PowerAllocation, water_fill
from .geometry import TWO_PI, ArrayConfig, tx_displacement
from .spectrum import singular_values

_LN2 = math.log(2.0)

SINE_UNIFORM = "sine"
LINEAR = "linear"

# Polar range (radians) the codebook's centre-shift entries cover.
_PHI_RANGE = (-0.175, 0.175)


class SingularChannelError(ValueError):
    """Raised when a zero-forcing receiver meets a rank-deficient channel."""


def _entries(h) -> np.ndarray:
    return h.entries if isinstance(h, ChannelMatrix) else np.asarray(h, dtype=complex)


def _midpoints(lo: float, hi: float, count: int) -> np.ndarray:
    step = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * step


@dataclass(frozen=True)
class Codebook:
    """Indexed set of quantised centre-shift angle pairs.

    Entries are ordered with the azimuth index slow and the polar index
    fast; public indices are 1-based, l = 1..2^(L1+L2).
    """

    l1_bits: int
    l2_bits: int
    theta_angles: np.ndarray
    phi_angles: np.ndarray
    quantization: str

    @property
    def size(self) -> int:
        return 2**self.l1_bits * 2**self.l2_bits

    def angles(self, index: int) -> tuple[float, float]:
        """The (theta_cs, phi_cs) pair of a 1-based codebook index."""
        if not 1 <= index <= self.size:
            raise ValueError(f"codebook index must lie in 1..{self.size}")
        pos = index - 1
        n_phi = 2**self.l2_bits
        return float(self.theta_angles[pos // n_phi]), float(self.phi_angles[pos % n_phi])

    def angle_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All entries as parallel arrays (thetas, phis) in index order."""
        n_phi = 2**self.l2_bits
        thetas = np.repeat(self.theta_angles, n_phi)
        phis = np.tile(self.phi_angles, 2**self.l1_bits)
        return thetas, phis


def build_codebook(
    l1_bits: int,
    l2_bits: int,
    quantization: str = SINE_UNIFORM,
) -> Codebook:
    """Quantise the centre-shift angles into 2^L1 x 2^L2 pairs.

    With sine-uniform quantisation the azimuth entries have sines at the
    midpoints of 2^L1 equal cells over [-1, 1], and the polar entries have
    sines at midpoints of 2^L2 cells over [sin(lo), sin(hi)], with
    (lo, hi) = `_PHI_RANGE`.  Because only sines enter the correction
    phases, the azimuth range can be folded to [-pi/2, pi/2]; the signed
    polar range then stands in for the opposite azimuth, so together the
    entries cover the full shift disc once.
    Linear quantisation is the baseline without that folding: it places
    midpoints uniformly over the raw angular ranges, azimuth across the
    full circle [-pi, pi] and polar across `_PHI_RANGE`.
    """
    if l1_bits < 0 or l2_bits < 0:
        raise ValueError("bit counts must be nonnegative")
    lo, hi = _PHI_RANGE
    if quantization == SINE_UNIFORM:
        theta = np.arcsin(_midpoints(-1.0, 1.0, 2**l1_bits))
        phi = np.arcsin(_midpoints(math.sin(lo), math.sin(hi), 2**l2_bits))
    elif quantization == LINEAR:
        theta = _midpoints(-math.pi, math.pi, 2**l1_bits)
        phi = _midpoints(lo, hi, 2**l2_bits)
    else:
        raise ValueError(f"unknown quantization {quantization!r}")
    return Codebook(
        l1_bits=l1_bits,
        l2_bits=l2_bits,
        theta_angles=theta,
        phi_angles=phi,
        quantization=quantization,
    )


@dataclass(frozen=True)
class PrecoderMatrix:
    """Square unitary precoder."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("precoder must be square")
        if np.max(np.abs(m.conj().T @ m - np.eye(n))) > 1e-10:
            raise ValueError("precoder must be unitary")


def _shift_phasors(cfg: ArrayConfig, theta_cs, phi_cs) -> np.ndarray:
    """Tx phasors exp(-j*2*pi*tau/lambda) of the shift angles' displacements; shape (..., N)."""
    return np.exp(-1j * TWO_PI / cfg.wavelength * tx_displacement(cfg, theta_cs, phi_cs))


def precoder_matrices(cfg: ArrayConfig, theta_cs, phi_cs) -> np.ndarray:
    """Phase correction times the DFT for every angle pair; shape (..., N, N).

    The angles broadcast against each other, as in `tx_displacement`.
    """
    return _shift_phasors(cfg, theta_cs, phi_cs)[..., :, None] * dft_matrix(cfg.n_antennas)


def precoder_from_angles(
    cfg: ArrayConfig,
    theta_cs: float,
    phi_cs: float,
) -> PrecoderMatrix:
    """Phase correction for the given centre-shift angles, times the DFT.

    With the true angles this reproduces the right singular matrix of the
    separable-model channel; with quantised angles it is a codebook entry.
    """
    return PrecoderMatrix(matrix=precoder_matrices(cfg, theta_cs, phi_cs))


@dataclass(frozen=True)
class RateReport:
    """Achievable rate of one scheme with its per-stream split."""

    scheme: str
    per_stream: np.ndarray
    rate: float = field(init=False)

    def __post_init__(self):
        per_stream = np.array(self.per_stream, dtype=float)
        per_stream.setflags(write=False)
        object.__setattr__(self, "per_stream", per_stream)
        object.__setattr__(self, "rate", float(np.sum(per_stream)))


def _chain_per_stream(g: np.ndarray) -> np.ndarray:
    """Per-stream rates whose sum is exactly log2 det(I + G^H G), for a (..., M, N) stack.

    Uses the QR factorisation of G stacked on the identity: the squared
    diagonal of the triangular factor multiplies out to det(I + G^H G), so
    stream k contributes 2*log2|r_kk|.
    """
    n = g.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=complex), (*g.shape[:-2], n, n))
    r = np.linalg.qr(np.concatenate([g, eye], axis=-2), mode="r")
    return 2.0 * np.log2(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))


def precoded_rates(h: np.ndarray, f: np.ndarray, alloc: PowerAllocation) -> np.ndarray:
    """Per-stream rates of precoded channels, shape (..., N).

    `h` is a (..., N, N) stack of channels and `f` its precoders; the
    powers of `alloc` are (N,) or one row per channel.  Row by row this is
    the split of `precoded_rate`.
    """
    g = (h @ f) * np.sqrt(alloc.powers / alloc.noise)[..., None, :]
    return _chain_per_stream(g)


def precoded_rate(h, precoder, alloc: PowerAllocation, scheme: str = "codebook") -> RateReport:
    """Rate log2 det(I + H F P F^H H^H) with P = diag(p_k / noise).

    Stream k of the precoder carries power alloc.powers[k]; the per-stream
    split follows the interference-cancellation chain in natural order.
    """
    f = precoder.matrix if isinstance(precoder, PrecoderMatrix) else np.asarray(precoder)
    return RateReport(scheme=scheme, per_stream=precoded_rates(_entries(h), f, alloc))


def approx_power_allocation(cfg: ArrayConfig, snr_db: float) -> PowerAllocation:
    """Water-filling designed for the rotation-free spectrum.

    Substitutes the aligned spectrum (theta_o = 0) for the true one, so
    only the distance, radii and wavelength are needed — no estimate of
    the rotation angle.  The loss is minor because the spectrum varies
    slowly with rotation.
    """
    sig = singular_values(cfg.n_antennas, cfg.beta, 0.0)
    return water_fill(sig, 10.0 ** (snr_db / 10.0), 1.0)


def codebook_rates_many(
    cfg: ArrayConfig, h: np.ndarray, cb: Codebook, alloc: PowerAllocation
) -> np.ndarray:
    """Achievable rate of every codebook entry for a (T, N, N) stack of channels; shape (T, L).

    Entry l scores log2 det(I + G_l G_l^H) with G_l = H diag(t_l) Q P^(1/2),
    t_l the entry's shift phasors, Q the DFT and P = diag(p_k / noise).
    Columns of streams without power are zero, so with G~_l the r columns
    of the active streams, Sylvester's identity gives det(I_r + G~_l^H
    G~_l).  That r x r matrix is Hermitian with eigenvalues >= 1, so its
    Cholesky factor exists and the log-determinant is 2 sum log L_kk.

    The Gram matrices Q~^H diag(t_l)^H (H^H H) diag(t_l) Q~ of all entries
    come from two matrix products over the whole codebook.  They are
    formed transposed, entry-major, which gives their complex conjugates:
    the same real Cholesky diagonal.  Everything that does not depend on
    the channel (active set, Q~, phasors and the operand of the first
    product) is built once per call; the channels are then scored one at
    a time into the same buffers, so a row does not depend on the stack.
    """
    n = cfg.n_antennas
    active = np.flatnonzero(alloc.powers > 0.0)
    q = dft_matrix(n)[:, active] * np.sqrt(alloc.powers[active] / alloc.noise)
    r = active.size
    t = _shift_phasors(cfg, *cb.angle_pairs())  # (L, N)
    size = t.shape[0]
    x = (t[:, None, :] * q.T).reshape(size * r, n)  # rows of (diag(t_l) Q~)^T
    t_conj = t.conj()[:, None, :]
    q_conj = q.conj()
    y = np.empty((size * r, n), dtype=complex)
    y_entries = y.reshape(size, r, n)
    gram = np.empty((size * r, r), dtype=complex)
    gram_diag = gram.reshape(size, r * r)[:, :: r + 1]
    rates = np.empty((h.shape[0], size))
    for trial, entries in enumerate(h):
        hh = entries.conj().T @ entries
        np.matmul(x, hh.T, out=y)
        y_entries *= t_conj  # rows of (diag(t_l)^H H^H H diag(t_l) Q~)^T
        np.matmul(y, q_conj, out=gram)
        gram_diag += 1.0
        chol = np.linalg.cholesky(gram.reshape(size, r, r))
        logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)
        rates[trial] = logdet / _LN2
    return rates


def select_codebook_index(h: ChannelMatrix, cb: Codebook, alloc: PowerAllocation) -> tuple[int, float]:
    """Best codebook entry for the given channel and power allocation.

    Returns the 1-based index maximising the achievable rate, ties broken
    toward the smallest index, together with the achieved rate.
    """
    if cb.size < 1:
        raise ValueError("codebook must be non-empty")
    rates = codebook_rates_many(h.cfg, h.entries[None], cb, alloc)[0]
    best = int(np.argmax(rates))
    return best + 1, float(rates[best])


# Smallest-to-largest singular value ratio at or below which ZF rejects a channel.
_RANK_TOL = 1e-12


def _full_rank(sigma: np.ndarray) -> np.ndarray:
    """Rank test of the nulling receivers on descending singular values (..., N)."""
    return sigma[..., -1] > _RANK_TOL * sigma[..., 0]


def _require_full_rank(h: np.ndarray) -> None:
    if not _full_rank(np.linalg.svd(h, compute_uv=False)):
        raise SingularChannelError("channel matrix is singular; ZF receivers need full rank")


def _zf_per_stream(h: np.ndarray, p_total: float, noise: float) -> np.ndarray:
    """Equal-power ZF stream rates of a (..., N, N) stack of invertible channels."""
    p = p_total / h.shape[-1]
    gram = np.swapaxes(h.conj(), -1, -2) @ h
    diag_inv = np.real(np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1))
    return np.log2(1.0 + p / (noise * diag_inv))


def _zf_sic_per_stream(h: np.ndarray, p_total: float, noise: float) -> np.ndarray:
    """Equal-power ZF-SIC stream rates of a (..., N, N) stack of channels."""
    p = p_total / h.shape[-1]
    return _chain_per_stream(math.sqrt(p / noise) * h)


def zf_rate(h, p_total: float, noise: float) -> RateReport:
    """Zero-forcing receiver with equal per-stream power.

    Stream k sees SNR p / (noise * [(H^H H)^{-1}]_kk); requires an
    invertible channel.
    """
    h = _entries(h)
    _require_full_rank(h)
    return RateReport(scheme="zf", per_stream=_zf_per_stream(h, p_total, noise))


def zf_sic_rate(h, p_total: float, noise: float) -> RateReport:
    """Zero-forcing with successive interference cancellation.

    Streams are detected and subtracted in natural order with equal power
    p = p_total/N.  Per-stream rates come from the noise-regularised QR
    diagonal, so the sum equals log2 det(I + (p/noise) H^H H) exactly and
    is independent of the detection order.
    """
    h = _entries(h)
    _require_full_rank(h)
    return RateReport(scheme="zf_sic", per_stream=_zf_sic_per_stream(h, p_total, noise))


@dataclass(frozen=True)
class NullingRates:
    """Both nulling receivers on a (T, N, N) stack of channels.

    `sigma` holds each channel's singular values, descending, from the
    rank test; `zf` and `zf_sic` are (T, N) per-stream rates, zero on the
    rows of rank-deficient channels, where `zf_rate` and `zf_sic_rate`
    raise `SingularChannelError`.
    """

    sigma: np.ndarray
    zf: np.ndarray
    zf_sic: np.ndarray


def nulling_rates(h: np.ndarray, p_total: float, noise: float) -> NullingRates:
    """ZF and ZF-SIC rates of a stack of channels, row by row as the scalar receivers."""
    sigma = np.linalg.svd(h, compute_uv=False)
    full = _full_rank(sigma)
    zf = np.zeros(h.shape[:-1])
    zf_sic = np.zeros(h.shape[:-1])
    zf[full] = _zf_per_stream(h[full], p_total, noise)
    zf_sic[full] = _zf_sic_per_stream(h[full], p_total, noise)
    return NullingRates(sigma=sigma, zf=zf, zf_sic=zf_sic)
