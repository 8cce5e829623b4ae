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
    phi_range: tuple[float, float]
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
    phi_range: tuple[float, float] = (-0.175, 0.175),
    quantization: str = SINE_UNIFORM,
) -> Codebook:
    """Quantise the centre-shift angles into 2^L1 x 2^L2 pairs.

    With sine-uniform quantisation the azimuth entries have sines at the
    midpoints of 2^L1 equal cells over [-1, 1], and the polar entries have
    sines at midpoints of 2^L2 cells over [sin(lo), sin(hi)].  Because only
    sines enter the correction phases, the azimuth range can be folded to
    [-pi/2, pi/2]; the signed polar range then stands in for the opposite
    azimuth, so together the entries cover the full shift disc once.
    Linear quantisation is the baseline without that folding: it places
    midpoints uniformly over the raw angular ranges, azimuth across the
    full circle [-pi, pi] and polar across `phi_range`.
    """
    if l1_bits < 0 or l2_bits < 0:
        raise ValueError("bit counts must be nonnegative")
    lo, hi = phi_range
    if not (-math.pi / 2 < lo < hi < math.pi / 2):
        raise ValueError("phi_range must be a nonempty interval inside (-pi/2, pi/2)")
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
        phi_range=(lo, hi),
        quantization=quantization,
    )


@dataclass(frozen=True)
class PrecoderMatrix:
    """Unitary precoder with a record of how it was produced."""

    matrix: np.ndarray
    provenance: str

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("precoder must be square")
        if np.max(np.abs(m.conj().T @ m - np.eye(n))) > 1e-10:
            raise ValueError("precoder must be unitary")


def precoder_from_angles(
    cfg: ArrayConfig,
    theta_cs: float,
    phi_cs: float,
    provenance: str = "optimal_svd",
) -> PrecoderMatrix:
    """Phase correction for the given centre-shift angles, times the DFT.

    With the true angles this reproduces the right singular matrix of the
    separable-model channel; with quantised angles it is a codebook entry.
    """
    t_bar = np.exp(-1j * TWO_PI / cfg.wavelength * tx_displacement(cfg, theta_cs, phi_cs))
    return PrecoderMatrix(
        matrix=t_bar[:, None] * dft_matrix(cfg.n_antennas), provenance=provenance
    )


def dft_precoder(n: int) -> PrecoderMatrix:
    """DFT-only precoder: no phase correction applied (the zero-feedback baseline)."""
    return PrecoderMatrix(matrix=dft_matrix(n), provenance="dft_only")


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
    """Per-stream rates whose sum is exactly log2 det(I + G^H G).

    Uses the QR factorisation of G stacked on the identity: the squared
    diagonal of the triangular factor multiplies out to det(I + G^H G), so
    stream k contributes 2*log2|r_kk|.
    """
    n = g.shape[1]
    stacked = np.vstack([g, np.eye(n, dtype=complex)])
    r = np.linalg.qr(stacked, mode="r")
    return 2.0 * np.log2(np.abs(np.diag(r)))


def precoded_rate(h, precoder, alloc: PowerAllocation, scheme: str = "codebook") -> RateReport:
    """Rate log2 det(I + H F P F^H H^H) with P = diag(p_k / noise).

    Stream k of the precoder carries power alloc.powers[k]; the per-stream
    split follows the interference-cancellation chain in natural order.
    """
    h = _entries(h)
    f = precoder.matrix if isinstance(precoder, PrecoderMatrix) else np.asarray(precoder)
    g = (h @ f) * np.sqrt(alloc.powers / alloc.noise)[None, :]
    return RateReport(scheme=scheme, per_stream=_chain_per_stream(g))


def approx_power_allocation(cfg: ArrayConfig, snr_db: float) -> PowerAllocation:
    """Water-filling designed for the rotation-free spectrum.

    Substitutes the aligned spectrum (theta_o = 0) for the true one, so
    only the distance, radii and wavelength are needed — no estimate of
    the rotation angle.  The loss is minor because the spectrum varies
    slowly with rotation.
    """
    sig = singular_values(cfg.n_antennas, cfg.beta, 0.0)
    return water_fill(sig, 10.0 ** (snr_db / 10.0), 1.0)


def codebook_rates(h: ChannelMatrix, cb: Codebook, alloc: PowerAllocation) -> np.ndarray:
    """Achievable rate of every codebook entry, in index order.

    Entry l scores log2 det(I + H F_l P F_l^H H^H) with P = diag(p_k /
    noise); all entries are evaluated in one batched pass.
    """
    cfg = h.cfg
    hm = h.entries
    thetas, phis = cb.angle_pairs()
    t_bar = np.exp(-1j * TWO_PI / cfg.wavelength * tx_displacement(cfg, thetas, phis))
    q = dft_matrix(cfg.n_antennas)
    g = (hm[None, :, :] * t_bar[:, None, :]) @ q
    g = g * np.sqrt(alloc.powers / alloc.noise)[None, None, :]
    m = np.eye(cfg.n_antennas)[None, :, :] + g @ np.conj(np.transpose(g, (0, 2, 1)))
    _, logdet = np.linalg.slogdet(m)
    return logdet / _LN2


def select_codebook_index(h: ChannelMatrix, cb: Codebook, alloc: PowerAllocation) -> tuple[int, float]:
    """Best codebook entry for the given channel and power allocation.

    Returns the 1-based index maximising the achievable rate, ties broken
    toward the smallest index, together with the achieved rate.
    """
    if cb.size < 1:
        raise ValueError("codebook must be non-empty")
    rates = codebook_rates(h, cb, alloc)
    best = int(np.argmax(rates))
    return best + 1, float(rates[best])


def zf_rate(h, p_total: float, noise: float) -> RateReport:
    """Zero-forcing receiver with equal per-stream power.

    Stream k sees SNR p / (noise * [(H^H H)^{-1}]_kk); requires an
    invertible channel.
    """
    h = _entries(h)
    n = h.shape[0]
    _require_full_rank(h)
    p = p_total / n
    gram = h.conj().T @ h
    diag_inv = np.real(np.diag(np.linalg.inv(gram)))
    per_stream = np.log2(1.0 + p / (noise * diag_inv))
    return RateReport(scheme="zf", per_stream=per_stream)


def zf_sic_rate(h, p_total: float, noise: float) -> RateReport:
    """Zero-forcing with successive interference cancellation.

    Streams are detected and subtracted in natural order with equal power
    p = p_total/N.  Per-stream rates come from the noise-regularised QR
    diagonal, so the sum equals log2 det(I + (p/noise) H^H H) exactly and
    is independent of the detection order.
    """
    h = _entries(h)
    n = h.shape[0]
    _require_full_rank(h)
    p = p_total / n
    per_stream = _chain_per_stream(math.sqrt(p / noise) * h)
    return RateReport(scheme="zf_sic", per_stream=per_stream)


def _require_full_rank(h: np.ndarray) -> None:
    sig = np.linalg.svd(h, compute_uv=False)
    if sig[-1] <= 1e-12 * sig[0]:
        raise SingularChannelError("channel matrix is singular; ZF receivers need full rank")
