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
from typing import NamedTuple

import numpy as np

from .channel import ChannelMatrix, _phasors, dft_matrix
from .design import _LN2, _rate_sum, power_from_db, water_fill
from .geometry import _INTEGERS, ArrayConfig, tx_displacement
from .spectrum import singular_values

SINE_UNIFORM = "sine"
LINEAR = "linear"

# Polar range (radians) the codebook's centre-shift entries cover.
_PHI_RANGE = (-0.175, 0.175)

# Complex values per entry block of the codebook scorers (256 KiB): r x N
# per entry on the Gram path (its first-product operand), N x N on the
# antenna path (its phase products) and r x T r in the eigenbasis bound of
# `codebook_best_rates` (its product with T channels' modes); N x N per
# (entry, channel) pair that the bound leaves to the Gram path (the pair's
# own H^H H).  With the path's other buffers the block stays in cache and
# no buffer is handed back to the kernel between channels.  No rate
# depends on it, on either path, by construction.
_SCORE_BLOCK = 16384

# Largest p_max / p_min of a full-rank allocation that the codebook scorer
# takes in the antenna basis, whose absolute error grows with the spread
# (`codebook_rates_many` gives the oracle's numbers).  At the bound it is
# below 5e-14 bit/s/Hz from -20 to 30 dB.
_MAX_POWER_SPREAD = 1e3

# Entries per channel that `codebook_best_rates` scores exactly before its bound prunes the rest.
_FIRST_SCORED = 8

_EPS = float(np.finfo(float).eps)


def _entries(h) -> np.ndarray:
    return h.entries if isinstance(h, ChannelMatrix) else np.asarray(h, dtype=complex)


def _midpoints(lo: float, hi: float, count: int) -> np.ndarray:
    step = (hi - lo) / count
    return lo + (np.arange(count) + 0.5) * step


@dataclass(frozen=True)
class Codebook:
    """The grid of quantised centre-shift angle pairs.

    Entries are every (azimuth, polar) pair of the two angle grids, with
    the azimuth index slow and the polar index fast.
    """

    theta_angles: np.ndarray
    phi_angles: np.ndarray

    @property
    def size(self) -> int:
        return len(self.theta_angles) * len(self.phi_angles)

    def angle_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All entries as parallel arrays (thetas, phis) in entry order."""
        thetas = np.repeat(self.theta_angles, len(self.phi_angles))
        phis = np.tile(self.phi_angles, len(self.theta_angles))
        return thetas, phis


# Most bits per angle.  A grid of 2^L cells puts its midpoints at k + 0.5 cells, and
# k + 0.5 is exact in float64 only for k < 2^52.
_MAX_BITS = 52


def _check_bit_counts(l1_bits: int, l2_bits: int) -> None:
    """Bit counts are integers in [0, _MAX_BITS]; 1.5 bits would make an off-centre grid of 3 cells."""
    for bits in (l1_bits, l2_bits):
        if not isinstance(bits, _INTEGERS) or not 0 <= bits <= _MAX_BITS:
            raise ValueError(f"bit counts must be nonnegative integers of at most {_MAX_BITS}, got {bits!r}")


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
    _check_bit_counts(l1_bits, l2_bits)
    lo, hi = _PHI_RANGE
    if quantization == SINE_UNIFORM:
        theta = np.arcsin(_midpoints(-1.0, 1.0, 2**l1_bits))
        phi = np.arcsin(_midpoints(math.sin(lo), math.sin(hi), 2**l2_bits))
    elif quantization == LINEAR:
        theta = _midpoints(-math.pi, math.pi, 2**l1_bits)
        phi = _midpoints(lo, hi, 2**l2_bits)
    else:
        raise ValueError(f"unknown quantization {quantization!r}")
    return Codebook(theta_angles=theta, phi_angles=phi)


def _distinct_codebook(l1_bits: int, l2_bits: int, quantization: str) -> Codebook:
    """`build_codebook`'s entries with each distinct precoder once.

    The Tx phase R_t sin(theta_m + theta) sin(phi) is the same at (theta
    + pi, -phi) as at (theta, phi).  A linear codebook with K = 2^L1 >= 2
    azimuths and J = 2^L2 polars has theta_{k+K/2} = theta_k + pi and
    phi_{J-1-j} = -phi_j, so entries (k, j) and (k + K/2, J-1-j) are
    twins: the same precoder up to rounding.  Its first K/2 azimuths with
    every polar hold each precoder once, and the best entry's rate over
    them is the full codebook's best up to rounding.  A sine-uniform
    codebook covers the shift disc once and has no twins; it, like a
    linear one with a single azimuth, is returned whole.  With a single
    polar, L2 = 0, phi is exactly 0.0 in either rule, so every entry is
    the DFT precoder and the first azimuth alone is kept.
    """
    cb = build_codebook(l1_bits, l2_bits, quantization=quantization)
    if l2_bits == 0:
        return Codebook(theta_angles=cb.theta_angles[:1], phi_angles=cb.phi_angles)
    if quantization != LINEAR or l1_bits == 0:
        return cb
    return Codebook(theta_angles=cb.theta_angles[: len(cb.theta_angles) // 2], phi_angles=cb.phi_angles)


def precoder_matrices(cfg: ArrayConfig, theta_cs, phi_cs) -> np.ndarray:
    """Phase correction times the DFT for every angle pair; shape (..., N, N).

    The angles broadcast against each other, as in `tx_displacement`.
    """
    t = _phasors(cfg, tx_displacement(cfg, theta_cs, phi_cs))
    return t[..., :, None] * dft_matrix(cfg.n_antennas)


def precoder_from_angles(
    cfg: ArrayConfig,
    theta_cs: float,
    phi_cs: float,
) -> np.ndarray:
    """Phase correction for the given centre-shift angles, times the DFT; shape (N, N).

    The one-pair form of `precoder_matrices`, unitary by construction.
    With the true angles this reproduces the right singular matrix of the
    separable-model channel; with quantised angles it is a codebook entry.
    """
    return precoder_matrices(cfg, theta_cs, phi_cs)


@dataclass(frozen=True)
class RateReport:
    """Achievable rate with its per-stream split."""

    per_stream: np.ndarray
    rate: float = field(init=False)

    def __post_init__(self):
        per_stream = np.array(self.per_stream, dtype=float)
        per_stream.setflags(write=False)
        object.__setattr__(self, "per_stream", per_stream)
        object.__setattr__(self, "rate", float(np.sum(per_stream)))


def _stream_powers(powers) -> np.ndarray:
    """Stream powers at unit noise as a float array, each (..., N) row with some power.

    Raises ValueError for NaN, negative or infinite powers, and for a row
    that gives no stream any power.
    """
    powers = np.asarray(powers, dtype=float)
    if not ((powers >= 0.0) & (powers < math.inf)).all():
        raise ValueError("stream powers must be nonnegative and finite")
    if powers.ndim == 0 or not (powers > 0.0).any(axis=-1).all():
        raise ValueError("stream powers must give at least one stream positive power")
    return powers


def precoded_rates(h: np.ndarray, f: np.ndarray, powers) -> np.ndarray:
    """Per-stream rates of precoded channels, shape (..., N).

    `h` is a (..., N, N) stack of channels and `f` its precoders; the
    stream powers at unit noise are (N,) or one row per channel.  Row by
    row this is the split of `precoded_rate`.  With G = H F P^(1/2), the
    QR factorisation of G stacked on the identity has a triangular factor
    whose squared diagonal multiplies out to det(I + G^H G), so stream k
    contributes 2*log2|r_kk| and the rates sum to log2 det(I + G^H G).
    """
    g = (h @ f) * np.sqrt(_stream_powers(powers))[..., None, :]
    n = g.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=complex), (*g.shape[:-2], n, n))
    r = np.linalg.qr(np.concatenate([g, eye], axis=-2), mode="r")
    return 2.0 * np.log2(np.abs(np.diagonal(r, axis1=-2, axis2=-1)))


def precoded_rate(h, precoder: np.ndarray, powers) -> RateReport:
    """Rate log2 det(I + H F P F^H H^H) with P = diag(p_k) at unit noise.

    Stream k of the precoder carries power powers[k]; the per-stream
    split follows the interference-cancellation chain in natural order.
    """
    return RateReport(per_stream=precoded_rates(_entries(h), np.asarray(precoder), powers))


def approx_power_allocation(cfg: ArrayConfig, snr_db: float) -> np.ndarray:
    """Water-filling powers designed for the rotation-free spectrum, at unit noise.

    Substitutes the aligned spectrum (theta_o = 0) for the true one, so
    only the distance, radii and wavelength are needed — no estimate of
    the rotation angle.  The loss is minor because the spectrum varies
    slowly with rotation.
    """
    sig = singular_values(cfg.n_antennas, cfg.beta, 0.0)
    return water_fill(sig, power_from_db(snr_db))


def codebook_rates_many(
    cfg: ArrayConfig, h: np.ndarray, cb: Codebook, powers
) -> np.ndarray:
    """Achievable rate of every codebook entry for a (T, N, N) stack of channels; shape (T, L).

    Entry l scores log2 det(I + G_l G_l^H) with G_l = H diag(t_l) Q P^(1/2),
    t_l the entry's shift phasors, Q the DFT and P = diag(p_k), the
    stream powers at unit noise.  With M = H^H H, D_l = diag(t_l) and
    G~_l the r columns of the active streams (the others are zero),
    Sylvester's identity gives det(I_r + G~_l^H G~_l), and, when every
    stream has power, det(P) det(K^-1 + D_l^H M D_l) with K = Q P Q^H.
    Both matrices are Hermitian positive definite, so each log-determinant
    is 2 sum log L_kk of its Cholesky factor.  The entries are scored in
    consecutive blocks of about _SCORE_BLOCK complex values, whose phasors
    are built once and scored against every channel.  On both paths a
    rate depends neither on the stack nor on the block, under any BLAS
    kernel, by construction: every matrix gets the same elementwise
    arithmetic, its own BLAS products and its own LAPACK factorisation,
    whatever else shares the call.  `codebook_best_rates` gives each
    row's maximum at a fraction of the cost.

    Antenna path, taken when every stream has power and p_max / p_min is
    at most _MAX_POWER_SPREAD: K^-1 = Q P^-1 Q^H and sum log p_k are built
    once per call, and each block's phase products conj(t_l) t_l^T, N^2
    values per entry, once per block.  Each channel then takes one
    elementwise product with M, one added K^-1 and one stacked Cholesky,
    with no matrix product.  The form's error is absolute and grows with
    the power spread, since K^-1 holds 1/p_min next to 1/p_max.  Against
    a 40-digit oracle on two N = 8 channels (4 entries each, the exact and
    the separable model) it was at most 1.4e-14 bit/s/Hz up to a spread
    of 1e4 at 30 dB, as the Gram form's, and 4.7e-12 at 1e9.  At -20 dB,
    where the rates are near 0.1, it was 2.2e-15 at a spread of 1, 9.3e-15
    at 1e2, 4.6e-14 at 1e3, 2.6e-13 at 1e4 and 3e-8 at 1e9, against at
    most 2e-15 for the Gram form; hence the guard.

    Gram path, every other allocation: the r x r Gram matrices
    Q~^H D_l^H M D_l Q~ come from two stacked matrix products per entry
    block and channel, each one r-row product per entry (`_entry_rates`).
    They are formed transposed, entry-major, which gives their complex
    conjugates: the same real Cholesky diagonal.  A block's first-product
    operand (the rows of (D_l Q~)^T) holds r x N values per entry.
    """
    hh, powers = _scorer_inputs(cfg, h, powers)
    if _antenna_path(powers):
        return _antenna_rates(cfg, hh, cb, powers)
    return _gram_rates(cfg, hh, cb, powers)


def codebook_best_rates(cfg: ArrayConfig, h: np.ndarray, codebooks, powers) -> np.ndarray:
    """Rate of each codebook's best entry on each of a (T, N, N) stack of channels; shape (K, T).

    Row k equals `codebook_rates_many(cfg, h, codebooks[k], powers)
    .max(axis=-1)` bit for bit, under any BLAS kernel, and H^H H is built
    once for all K codebooks.  With every stream powered (the antenna
    path) this is that row maximum: at equal powers every unitary
    precoder has the same rate, so no bound could prune there.

    Otherwise, with r streams powered, an upper bound on every entry's
    rate prunes the entries that cannot win.  Let M = V diag(w) V^H and
    Z_l = V^H D_l Q~ P~^(1/2) (N x r).  Sylvester's identity gives
    det(I_r + G~_l^H G~_l) = det(I_N + diag(w)^(1/2) Z_l Z_l^H
    diag(w)^(1/2)), and Hadamard's inequality bounds it by the product of
    the diagonal: rate_l <= sum_m log2(1 + w_m e_m), e_m the squared norm
    of row m of Z_l.  V and D_l are unitary, so sum_m e_m = sum_k p_k,
    and the N - r weakest modes are bounded together by concavity:
    (N - r) log2(1 + w_(r+1) (sum p - sum_top e) / (N - r)), w_(r+1) the
    largest of them.  Only the r strongest modes are computed, one
    matrix product per entry block against all T channels' top-r
    eigenvectors (`_entry_bounds`).  The bound is exact for the aligned
    precoder and sees a stream's power leak into weak modes.  Each
    channel's _FIRST_SCORED entries of largest bound are scored exactly,
    in one batched call, and then every further entry whose bound reaches
    their best, less a margin.  The best is the largest exact score, and
    an exact score does not depend on which entries share its call
    (`_entry_rates`), so it is the row maximum's own bits.

    The margin bounds, to first order, the float error of the bound and
    of the exact score together.  Both see M^ = fl(H^H H).  With A =
    D_l Q~ P~^(1/2), a rate moves by at most ||dM|| sum p nats when M
    does (its derivative is tr((I + A^H M A)^-1 A^H dM A)), and a Gram
    matrix, being at least I, moves its log det by at most r times the
    norm of its own error.  So:
    - `eigh` reproduces M^ within about N eps ||M^||, with V^ unitary to
      about N eps.  Sylvester's identity and Hadamard's inequality hold
      for V^ as it is, and sum p stands for the true sum of e within
      N eps sum p: 2 N eps w_max sum p in all.
    - The bound's product takes N-term dot products, each within
      (N + 2) eps of |x||u|: at most 4 r (N + 2) eps w_max sum p over the
      top modes and the tail.
    - The exact score's two products leave its Gram matrix within
      2 N (N + 2) eps w_max sum p (|M_ij| <= w_max), so its log det within
      r times that; its Cholesky and logs add about
      r^2 (r + 1) eps (1 + w_max sum p).
    All of it is below 4 r (N + 2)^2 eps (1 + w_max sum p) nats, the
    margin per channel, in bits.  In the campaign workloads at seeds 1,
    2024 and 5 it is at most 1.3e-8 bit/s/Hz; no exact rate came within
    1,700 margins of its bound, and no unscored entry's bound within
    6e-5 bit/s/Hz of the best.
    """
    hh, powers = _scorer_inputs(cfg, h, powers)
    best = np.empty((len(codebooks), len(hh)))
    if _antenna_path(powers):
        for row, cb in zip(best, codebooks):
            row[:] = np.max(_antenna_rates(cfg, hh, cb, powers), axis=-1)
        return best
    if len(hh) == 0:
        return best
    q = _stream_columns(cfg.n_antennas, powers)
    modes = _modes(hh, powers)
    for row, cb in zip(best, codebooks):
        row[:] = _best_gram_rates(cfg, hh, cb, q, _entry_bounds(cfg, cb, q, modes), modes.margin)
    return best


def _scorer_inputs(cfg: ArrayConfig, h, powers) -> tuple[np.ndarray, np.ndarray]:
    """The scorers' checked inputs: each channel's H^H H, shape (T, N, N), and the (N,) powers."""
    n = cfg.n_antennas
    if np.ndim(h) != 3 or np.shape(h)[1:] != (n, n):
        raise ValueError(f"channels must have shape (T, {n}, {n}), got {np.shape(h)}")
    powers = _stream_powers(powers)
    if powers.shape != (n,):
        raise ValueError(f"stream powers must have shape ({n},), got {powers.shape}")
    hh = np.empty((len(h), n, n), dtype=complex)
    for trial, entries in enumerate(h):
        hh[trial] = entries.conj().T @ entries
    return hh, powers


def _antenna_path(powers: np.ndarray) -> bool:
    """Whether the scorers take the antenna basis: every stream powered, within _MAX_POWER_SPREAD."""
    # with some power positive, this also requires every power to be positive
    return bool(powers.max() <= _MAX_POWER_SPREAD * powers.min())


def _stream_columns(n: int, powers: np.ndarray) -> np.ndarray:
    """Q~ P~^(1/2): the DFT columns of the streams with power, times their amplitudes; shape (N, r)."""
    active = np.flatnonzero(powers > 0.0)
    return dft_matrix(n)[:, active] * np.sqrt(powers[active])


def _log_det(a: np.ndarray) -> np.ndarray:
    """Natural log-determinants of a (..., k, k) stack of Hermitian positive definite matrices, by Cholesky."""
    chol = np.linalg.cholesky(a)
    return 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1).real), axis=-1)


def _antenna_rates(cfg: ArrayConfig, hh: np.ndarray, cb: Codebook, powers: np.ndarray) -> np.ndarray:
    """`codebook_rates_many` by log det(P) + log det(K^-1 + D_l^H M D_l), for powers all positive."""
    n = cfg.n_antennas
    q = dft_matrix(n)
    k_inv = (q / powers) @ q.conj().T
    log_p = np.sum(np.log(powers))
    thetas, phis = cb.angle_pairs()
    per = max(1, _SCORE_BLOCK // (n * n))
    outer = np.empty((min(per, cb.size), n, n), dtype=complex)
    a = np.empty_like(outer)
    rates = np.empty((len(hh), cb.size))
    for start in range(0, cb.size, per):
        stop = min(start + per, cb.size)
        b = stop - start
        t = _phasors(cfg, tx_displacement(cfg, thetas[start:stop], phis[start:stop]))  # (b, N)
        outer_block, a_block = outer[:b], a[:b]
        np.multiply(t.conj()[:, :, None], t[:, None, :], out=outer_block)
        for trial, hh_trial in enumerate(hh):
            np.multiply(outer_block, hh_trial, out=a_block)
            a_block += k_inv
            rates[trial, start:stop] = (_log_det(a_block) + log_p) / _LN2
    return rates


def _entry_rates(x: np.ndarray, t_conj: np.ndarray, hh: np.ndarray, q_conj: np.ndarray,
                 y: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Gram-path rates of a (b, r, N) stack of first-product operands, the rows of (D_l Q~)^T; shape (b,).

    `t_conj` holds the entries' conjugate phasors as (b, 1, N), and `hh`
    one channel's H^H H or one per entry, (b, N, N).  `y` (b, r, N) and
    `gram` (b, r, r) are scratch.  Both products are stacked matmuls,
    which take one r-row product per entry, so a rate does not depend on
    which entries share the call: each entry's products have the same
    shape and operands whatever the block.
    """
    np.matmul(x, np.swapaxes(hh, -1, -2), out=y)
    y *= t_conj  # rows of (D_l^H H^H H D_l Q~)^T
    np.matmul(y, q_conj, out=gram)
    b, r = gram.shape[:2]
    gram.reshape(b, r * r)[:, :: r + 1] += 1.0
    return _log_det(gram) / _LN2


def _gram_rates(cfg: ArrayConfig, hh: np.ndarray, cb: Codebook, powers: np.ndarray) -> np.ndarray:
    """`codebook_rates_many` by log det(I_r + G~_l^H G~_l) over the r active streams."""
    n = cfg.n_antennas
    q = _stream_columns(n, powers)
    q_conj = q.conj()
    r = q.shape[1]
    thetas, phis = cb.angle_pairs()
    per = max(1, _SCORE_BLOCK // (r * n))
    x = np.empty((min(per, cb.size), r, n), dtype=complex)
    y = np.empty_like(x)
    gram = np.empty((len(x), r, r), dtype=complex)
    rates = np.empty((len(hh), cb.size))
    for start in range(0, cb.size, per):
        stop = min(start + per, cb.size)
        b = stop - start
        t = _phasors(cfg, tx_displacement(cfg, thetas[start:stop], phis[start:stop]))  # (b, N)
        np.multiply(t[:, None, :], q.T, out=x[:b])
        t_conj = t.conj()[:, None, :]
        for trial, hh_trial in enumerate(hh):
            rates[trial, start:stop] = _entry_rates(x[:b], t_conj, hh_trial, q_conj, y[:b], gram[:b])
    return rates


class _Modes(NamedTuple):
    """What the eigenbasis bound needs of T channels' M = V diag(w) V^H, w ascending, for r streams."""

    u: np.ndarray  # (N, T r): conj(V) of each channel's r strongest modes, channel-major
    top: np.ndarray  # (T, r): those modes' eigenvalues
    tail: np.ndarray  # (T,): w_(r+1) / (N - r), the largest weak mode's gain per unit of leaked power
    total: float  # sum p, the power of all streams
    margin: np.ndarray  # (T,): the float error the bound and the exact score may have together, in bits


def _modes(hh: np.ndarray, powers: np.ndarray) -> _Modes:
    """The bound's view of a (T, N, N) stack of M = H^H H, from one stacked `eigh`."""
    n = hh.shape[-1]
    r = np.count_nonzero(powers)
    w, v = np.linalg.eigh(hh)
    w = np.maximum(w, 0.0)  # a rank-deficient M may give -eps; a larger w only raises the bound
    total = float(np.sum(powers))
    return _Modes(
        u=v[:, :, n - r:].conj().transpose(1, 0, 2).reshape(n, len(hh) * r),
        top=w[:, n - r:],
        tail=w[:, n - r - 1] / (n - r) if r < n else np.zeros(len(hh)),
        total=total,
        margin=4.0 * r * (n + 2) ** 2 * _EPS * (1.0 + w[:, -1] * total) / _LN2,
    )


def _entry_bounds(cfg: ArrayConfig, cb: Codebook, q: np.ndarray, modes: _Modes) -> np.ndarray:
    """Every entry's eigenbasis Hadamard bound on every channel, in bits; shape (T, L).

    One matrix product per entry block gives e_m for the r strongest
    modes of all T channels at once, and one rate sum the bound of
    `codebook_best_rates`: the N - r weakest modes enter it as N - r
    modes of gain w_(r+1) that share the leaked power equally.  A block's
    product holds r x T r values per entry, about _SCORE_BLOCK in all.
    """
    n, r = q.shape
    trials = len(modes.top)
    thetas, phis = cb.angle_pairs()
    per = max(1, _SCORE_BLOCK // (r * modes.u.shape[1]))
    snr = np.empty((min(per, cb.size), trials, n))
    bounds = np.empty((trials, cb.size))
    for start in range(0, cb.size, per):
        stop = min(start + per, cb.size)
        b = stop - start
        t = _phasors(cfg, tx_displacement(cfg, thetas[start:stop], phis[start:stop]))
        z = (t[:, None, :] * q.T).reshape(b * r, n) @ modes.u  # z[(l, k), (t, m)] = (V_t^H D_l Q~ P~^(1/2))_mk
        parts = z.view(float).reshape(b, r, -1)
        parts = np.einsum("lkc,lkc->lc", parts, parts)  # squared real and imaginary parts, summed over streams
        e = (parts[:, 0::2] + parts[:, 1::2]).reshape(b, trials, r)
        block = snr[:b]
        np.multiply(e, modes.top, out=block[..., :r])
        if r < n:
            leaked = np.maximum(modes.total - e.sum(axis=-1), 0.0)
            block[..., r:] = (leaked * modes.tail)[..., None]
        bounds[:, start:stop] = _rate_sum(block).T
    return bounds


def _pair_rates(cfg: ArrayConfig, hh: np.ndarray, cb: Codebook, q: np.ndarray,
                trials: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Gram-path rate of entry entries[i] on channel trials[i], as `codebook_rates_many` scores it; shape (P,).

    The pairs are scored in blocks of _SCORE_BLOCK / N^2, each pair with its own gathered H^H H.
    """
    n, r = q.shape
    thetas, phis = cb.angle_pairs()
    q_conj = q.conj()
    per = max(1, _SCORE_BLOCK // (n * n))
    rates = np.empty(len(trials))
    for start in range(0, len(trials), per):
        pairs = slice(start, start + per)
        chosen = entries[pairs]
        t = _phasors(cfg, tx_displacement(cfg, thetas[chosen], phis[chosen]))
        x = t[:, None, :] * q.T
        gram = np.empty((len(x), r, r), dtype=complex)
        rates[pairs] = _entry_rates(x, t.conj()[:, None, :], hh[trials[pairs]], q_conj, np.empty_like(x), gram)
    return rates


def _best_gram_rates(cfg: ArrayConfig, hh: np.ndarray, cb: Codebook, q: np.ndarray,
                     bounds: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Each channel's best Gram-path rate, scoring only the entries whose bound can reach it; shape (T,)."""
    trials, size = bounds.shape
    first = min(_FIRST_SCORED, size)
    picked = np.argpartition(bounds, size - first, axis=1)[:, size - first:]  # (T, first)
    rows = np.repeat(np.arange(trials), first)
    best = _pair_rates(cfg, hh, cb, q, rows, picked.ravel()).reshape(trials, first).max(axis=1)
    rest = bounds >= (best - margin)[:, None]
    rest[rows, picked.ravel()] = False
    rows, entries = np.nonzero(rest)
    np.maximum.at(best, rows, _pair_rates(cfg, hh, cb, q, rows, entries))
    return best


# Smallest-to-largest singular value ratio at or below which a channel is rank-deficient.
_RANK_TOL = 1e-12


def _full_rank(sigma: np.ndarray) -> np.ndarray:
    """Which rows of (..., N) singular values have a smallest one above `_RANK_TOL` times the largest."""
    return np.min(sigma, axis=-1) > _RANK_TOL * np.max(sigma, axis=-1)


def nulling_rates(h: np.ndarray, sigma, p_total: float) -> tuple[np.ndarray, np.ndarray]:
    """Equal-power ZF and ZF-SIC sum rates of a (T, N, N) stack of channels; two (T,) arrays.

    `sigma` holds each channel's singular values, shape (T, N), as
    `np.linalg.svd(h, compute_uv=False)` gives them.  At unit noise each
    stream gets p = p_total/N, and ZF stream k sees SNR
    p / [(H^H H)^{-1}]_kk.  ZF-SIC detects and subtracts the streams in
    turn; its sum rate log2 det(I + p H^H H) does not depend on the
    detection order, and it equals sum_k log2(1 + p sigma_k^2), so it
    comes from `sigma` with no factorisation.  A channel whose smallest
    singular value is at most `_RANK_TOL` times its largest is
    rank-deficient and scores zero on both receivers, where neither can
    operate.  The campaigns run this on exact-geometry channels only;
    separable channels take `spectrum_nulling_rates`.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != h.shape[:-1]:
        raise ValueError(f"singular values must have shape {h.shape[:-1]}, got {sigma.shape}")
    full = _full_rank(sigma)
    p = p_total / h.shape[-1]
    invertible = h[full]
    gram = np.swapaxes(invertible.conj(), -1, -2) @ invertible
    diag_inv = np.real(np.diagonal(np.linalg.inv(gram), axis1=-2, axis2=-1))
    zf = np.zeros(h.shape[:-2])
    zf[full] = np.sum(np.log2(1.0 + p / diag_inv), axis=-1)
    return zf, np.where(full, _rate_sum(sigma**2 * p), 0.0)


def spectrum_nulling_rates(sigma, p_total: float) -> tuple[np.ndarray, np.ndarray]:
    """ZF and ZF-SIC sum rates of separable channels from their singular values; two (...,) arrays.

    A separable channel is T_r C T_t^H with unit-modulus phase diagonals
    T_r, T_t and a circulant core C = Q diag(delta) Q^H, |delta_k| =
    sigma_k.  So H^H H = T_t Q diag(sigma^2) Q^H T_t^H, and every diagonal
    entry of its inverse is mean_k sigma_k^-2: at unit noise all N ZF
    streams see SNR p / mean_k sigma_k^-2, p = p_total/N.  The ZF-SIC sum
    is log2 det(I + p H^H H) = sum_k log2(1 + p sigma_k^2).
    These are the sums of `nulling_rates` on the built channel, without
    an SVD, inverse or QR.  Rows rank-deficient by its rule score zero on
    both.
    """
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[-1]
    p = p_total / n
    full = _full_rank(sigma)
    kept = np.where(full[..., None], sigma, 1.0)  # no division by a zero gain on a row scored 0
    zf = n * _rate_sum((p / np.mean(kept**-2.0, axis=-1))[..., None])
    zf_sic = _rate_sum(kept**2 * p)
    return np.where(full, zf, 0.0), np.where(full, zf_sic, 0.0)
