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
from .spectrum import singular_values_many

SINE_UNIFORM = "sine"
LINEAR = "linear"

# Polar range (radians) the codebook's centre-shift entries cover.
_PHI_RANGE = (-0.175, 0.175)

# Values per block of the codebook scorers (256 KiB of complex values).
# The pair scorer holds about (N + r)^2 complex values per (channel,
# entry) pair, its H^H H, two r-row products and its r x r Gram matrix,
# and takes about 2 x _SCORE_BLOCK of them per block; the eigenbasis bound
# of `codebook_best_rates` holds 2 x _SCORE_BLOCK reals in the larger of
# an entry block's phase features (N^2 per entry) and their product with
# the channels' coefficients (T r per entry).  With the other buffers the
# block stays in cache.  No rate depends on it, by construction.
_SCORE_BLOCK = 16384

# Entries per (codebook, channel) that `codebook_best_rates` scores exactly before its bound prunes
# the rest.  On the benchmark's pass-0 campaigns at seeds 1, 2024 and 5, 2 left the fewest pairs to
# score on `bit_sweep` (4.00/4.86/3.90 %, against 4.37/5.85/4.39 % for 1 and 4.11/4.88/4.05 % for 4).
# 1 left slightly fewer on `rate_sweep` (2.42/2.39/3.71 % against 2.48/2.52/3.82 %) and on
# `rate_sweep_exact` (2.11/1.82/2.00 % against 2.13/1.92/2.06 %), and 4 more on both.
_FIRST_SCORED = 2

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
    Cholesky factor L of I + G^H G has a squared diagonal that multiplies
    out to det(I + G^H G), so stream k contributes 2*log2 L_kk and the
    rates sum to log2 det(I + G^H G).  L_kk is |r_kk| of the QR of G
    stacked on the identity, the interference-cancellation chain in
    natural order.
    """
    g = (h @ f) * np.sqrt(_stream_powers(powers))[..., None, :]
    a = np.swapaxes(g, -1, -2).conj() @ g
    a += np.eye(g.shape[-1])
    return 2.0 * np.log2(_cholesky_diagonal(a))


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
    slowly with rotation.  The one-row form of `_approx_powers`.
    """
    return _approx_powers(cfg.n_antennas, cfg.beta, snr_db)


def _approx_powers(n: int, betas, snr_db: float) -> np.ndarray:
    """`approx_power_allocation` of N antennas at each of an array of betas; shape (..., N), one row per beta."""
    return water_fill(singular_values_many(n, betas, 0.0), power_from_db(snr_db))


def codebook_rates_many(
    cfg: ArrayConfig, h: np.ndarray, cb: Codebook, powers
) -> np.ndarray:
    """Achievable rate of every codebook entry for a (T, N, N) stack of channels; shape (T, L).

    Entry l scores log2 det(I + G_l G_l^H) with G_l = H diag(t_l) Q P^(1/2),
    t_l the entry's shift phasors, Q the DFT and P = diag(p_k), the
    stream powers at unit noise.  With Q~ and P~ the DFT columns and powers
    of the r streams with power, G~_l = H D_l Q~ P~^(1/2) holds G_l's
    nonzero columns (D_l = diag(t_l)), and Sylvester's identity gives
    det(I_r + G~_l^H G~_l).  Its r x r Gram matrix P~^(1/2) Q~^H D_l^H M
    D_l Q~ P~^(1/2), M = H^H H, comes from two r-row matrix products
    (`_entry_rates`); it is formed transposed, which gives its complex
    conjugate: the same real Cholesky diagonal L_kk, and the rate is
    2 sum log2 L_kk.  The pairs are scored in blocks of about
    2 _SCORE_BLOCK / (N + r)^2 that gather their channels' H^H H and
    their entries' phasors; those and Q~ P~^(1/2) are built once per call.
    A rate depends neither on the stack nor on the block nor on which
    pairs share it, under any BLAS kernel, by construction: every matrix
    gets the same elementwise arithmetic, its own BLAS products and its
    own LAPACK factorisation, whatever else shares the call.
    `codebook_best_rates` gives each row's maximum at a fraction of the
    cost.
    """
    hh, powers = _scorer_inputs(cfg, h, powers)
    trials, entries = np.divmod(np.arange(len(hh) * cb.size), cb.size)
    rates = _pair_rates(hh, _codebook_phasors(cfg, cb), _stream_columns(cfg.n_antennas, powers), trials, entries)
    return rates.reshape(len(hh), cb.size)


def codebook_best_rates(cfg: ArrayConfig, h: np.ndarray, sigma, v, codebooks, powers) -> np.ndarray:
    """Rate of each codebook's best entry on each of a (..., T, N, N) stack of channels; shape (..., K, T).

    `sigma` and `v` are the channels' singular values, (..., T, N), and
    right singular vectors as columns, (..., T, N, N), as the campaigns'
    cells give them: one SVD of H on exact geometry, the paper's closed
    form on the separable model.  `powers` holds one row of stream powers
    per cell, (..., N).  The axes before T are cells of one antenna count,
    Tx radius and wavelength, which may differ in distance and powers; a
    (T, N, N) stack is one cell.  Row k of a cell equals
    `codebook_rates_many(cfg, h, codebooks[k], powers).max(axis=-1)` of
    that cell bit for bit, under any BLAS kernel.  The K codebooks'
    phasors, one after another, depend on N, R_t and lambda alone and are
    built once per call; each cell is then scored as a call on that cell
    alone would score it: H^H H and the bound's view of (sigma, V) are
    built once per cell, and one bound pass and two rounds of exact scores
    serve all K codebooks.  A `v` broadcast along the cell axes, as the
    separable model's one V = T_t Q for every distance, is read as it is.
    The campaigns make one call per antenna count on its distance cells.

    An upper bound on every entry's rate prunes the entries that cannot
    win.  Let r streams have power, M = V diag(w) V^H with w = sigma^2,
    K~ = Q~ P~ Q~^H and Z_l = V^H D_l Q~ P~^(1/2) (N x r).  Sylvester's
    identity gives det(I_r + G~_l^H G~_l) = det(I_N + diag(w)^(1/2)
    Z_l Z_l^H diag(w)^(1/2)), and Hadamard's inequality bounds it by the
    product of the diagonal: rate_l <= sum_m log2(1 + w_m e_m), e_m the squared norm
    of row m of Z_l.  V and D_l are unitary, so sum_m e_m = sum_k p_k, and
    with r < N the N - r weakest modes are bounded together by concavity:
    (N - r) log2(1 + w_(r+1) (sum p - sum_top e) / (N - r)), w_(r+1) the
    largest of them.  Only the r strongest modes' e_m are computed.  With
    C_m,nn' = conj(V_nm) K~_nn' V_n'm,

        e_m = sum_n C_m,nn |t_n|^2 + 2 sum_{n<n'} Re(C_m,nn' t_n conj(t_n')),

    a real dot product of the entry's N^2 phase features
    [Re(t_n conj(t_n')), Im(t_n conj(t_n')), |t_n|^2] with the (channel,
    mode) coefficients [2 Re C_nn', -2 Im C_nn', C_nn] (`_modes`).  Scaled
    by w_m they give the mode's SNR w_m e_m, and with r < N one more row
    per channel, sum_m C_m, gives sum_top e and with it the leaked power:
    one real matrix product per entry block for all T channels and every
    codebook's entries (`_entry_bounds`).
    The bound is exact for the aligned precoder and sees a stream's power
    leak into weak modes.

    With every stream powered, r = N, Hadamard's bound is exact only to
    first order in the power spread, and a second-order term is taken off.
    Write X = I + W^(1/2) Z_l Z_l^H W^(1/2) as Delta^(1/2) (I + E)
    Delta^(1/2), Delta = diag(1 + w_m e_m), so E is Hermitian with a zero
    diagonal and |E_mm'|^2 = g_m g_m' |(Z_l Z_l^H)_mm'|^2 with g_m = w_m /
    (1 + w_m e_m).  As log(1 + x) <= x - x^2/2 + x^3/3 for x > -1 and
    tr E = 0, log det(I + E) <= -||E||_F^2 (1/2 - ||E||_2 / 3).  Z_l Z_l^H
    is unitarily similar to K~, so its off-diagonal energy is O = sum p^2
    - sum_m e_m^2 and every e_m lies in [p_min, p_max].  Hence ||E||_F^2
    >= gamma O and ||E||_2 <= ||E||_F <= h sqrt(O), with gamma the product
    of w / (1 + w p_max) over the two weakest modes and h = w_max / (1 +
    w_max p_min), and

        rate_l <= sum_m log2(1 + w_m e_m) - gamma O max(0, 1/2 - h sqrt(O) / 3) / ln 2,

    exact at equal powers, where O = 0.  Each e_m is w_m e_m times 1 / w_m,
    so the term needs no coefficient row of its own; where a w_m is 0 or
    subnormal its inverse is taken as 0 and gamma as 0, which leaves
    Hadamard's bound.  At equal powers K~ = p I, every e_m = p and every
    bound is the rate that all unitary precoders share, so no entry can
    be pruned and all are scored.  Each (codebook, channel)'s
    _FIRST_SCORED entries of largest bound are scored exactly, all in one
    call, and then, in a second, every further entry whose bound reaches
    its codebook's best on that channel, less a margin.
    The best is the largest exact score, and an exact score does not
    depend on which pairs share its call (`_pair_rates`), so it is the row
    maximum's own bits.

    The margin bounds, to first order, the float error of the bound and
    of the exact score together.  The bound sees M~ = V diag(sigma^2) V^H,
    the exact score M^ = fl(H^H H) of the built channel.  With A =
    D_l Q~ P~^(1/2), a rate moves by at most ||dM|| sum p nats when M
    does (its derivative is tr((I + A^H M A)^-1 A^H dM A)), and a positive
    definite X moves its log det by at most tr(X^-1) ||dX||.  Since
    |K~_nn'| <= sum p / N and sum_n |V_nm| <= sqrt N, sum_nn' |C_m,nn'| <=
    sum p.  So:
    - The SVD is backward stable: M~ is the Gram matrix of H + E with
      ||E|| a small multiple of N eps ||H||, so within a few N eps w_max
      of H^H H, and M^ is within N eps w_max of it.  The closed form and
      the built separable channel round the same unit phasors, so its M~
      is as close.  Over the campaign workloads at seeds 1, 2024 and 5,
      ||M~ - M^|| was at most 6.0 N eps w_max from the SVD and 1.5 N eps
      w_max from the closed form, and V^H V within 1.25 N eps of I.
      Sylvester's identity and Hadamard's inequality hold for M~ as it
      is, and sum p stands for the true sum of e within N eps sum p:
      8 N eps w_max sum p in all.
    - K~ comes from r-term products and each coefficient from two more
      complex products, and each feature from one: (r + 12) eps sum p in
      each e_m.  The real product sums N^2 terms, within N^2 eps
      sum_i |f_i c_i| <= N^2 eps sum p.  Scaling a top mode's coefficients
      by w_m adds one rounding, so w_m e_m is within (N^2 + r + 13) eps
      w_m sum p.  The tail row sum_m C_m adds r - 1 roundings to each
      coefficient and sums r modes' terms, so the leaked power, after its
      subtraction, is within (r (N^2 + 2 r + 11) + 1) eps sum p, which the
      single tail term carries with a gain w_(r+1) <= w_max.  Over the top
      modes and the tail that is below r (2 N^2 + 3 r + 25) eps w_max
      sum p, and with M~'s term and the r + 4 roundings of the two rate
      sums and the factor N - r below 2 r (N + 4)^2 eps w_max sum p.
    - At r = N, e_m = (w_m e_m) (1 / w_m) adds two roundings: it is within
      (N^2 + N + 15) eps sum p.  So sum_m e_m^2 is within 2 (N^2 + N + 15)
      eps (sum p)^2 + N eps sum p^2, and O, after its cancellation against
      sum p^2, within 2 (N^2 + N + 15) eps (sum p)^2 + (2 N + 1) eps sum p^2.
      Where its factor is positive the term moves by at most gamma / 2
      per unit of O, and it is continuous where the factor reaches 0.
      V^H V within 2 N eps of I moves the off-diagonal energy of Z_l Z_l^H
      and the range of the e_m, and with them the term, by 5 N eps gamma
      sum p^2, and the term's own arithmetic by 9 eps gamma sum p^2.  In
      all, gamma (N^2 + 7 N + 25) eps (sum p)^2 nats: at most N^2 (N^2 +
      7 N + 25) eps, as gamma <= 1 / p_max^2 and sum p <= N p_max, and 0
      where gamma is.
    - The exact score's two products leave its Gram matrix within
      2 N (N + 2) eps w_max sum p (|M_ij| <= w_max), so its log det within
      r times that; its Cholesky and logs add about
      r^2 (r + 1) eps (1 + w_max sum p): below 3 r (N + 4)^2 eps
      (1 + w_max sum p).
    All of it is below 5 r (N + 4)^2 eps (1 + w_max sum p) nats, plus the
    r = N term's gamma (N^2 + 7 N + 25) eps (sum p)^2: the margin per
    channel, in bits.  In the campaign workloads at seeds 1, 2024 and 5
    it is at most 1.9e-8 bit/s/Hz, and no exact rate passed its computed
    bound by more than 2.0e-4 margins.
    """
    h, powers = np.asarray(h), np.asarray(powers, dtype=float)
    cells = h.shape[:-3]
    sigma, v = _checked_svd(sigma, v, (*h.shape[:-2], cfg.n_antennas))
    if powers.shape[:-1] != cells:
        raise ValueError(f"stream powers must have shape {(*cells, cfg.n_antennas)}, one row per cell, "
                         f"got {powers.shape}")
    t = [_codebook_phasors(cfg, cb) for cb in codebooks] or [np.empty((0, cfg.n_antennas), dtype=complex)]
    t, sizes = np.concatenate(t), [cb.size for cb in codebooks]
    best = []
    for cell in np.ndindex(cells):
        hh, p = _scorer_inputs(cfg, h[cell], powers[cell])
        if len(hh) == 0 or not sizes:
            best.append(np.empty((len(sizes), len(hh))))
            continue
        q = _stream_columns(len(p), p)
        modes = _modes(sigma[cell], v[cell], p, q)
        best.append(_best_rates(hh, t, q, _entry_bounds(t, modes), modes.margin, sizes))
    return np.reshape(best, (*cells, len(sizes), h.shape[-3]))


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


def _checked_svd(sigma, v, shape=None) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and vectors as (T, N) and (T, N, N) arrays, or (..., T, N) = `shape` and (..., T, N, N).

    The values must be finite and nonnegative and the vectors finite: a
    NaN would prune the codebook bound's entries, or pass the nulling
    receivers' rank rule as a rank-deficient 0.
    """
    sigma, v = np.asarray(sigma, dtype=float), np.asarray(v)
    if sigma.ndim < 2 or sigma.shape != (shape or sigma.shape[:2]) or v.shape != (*sigma.shape, sigma.shape[-1]):
        raise ValueError(f"singular values and vectors of T channels of N antennas must have shapes (T, N) and "
                         f"(T, N, N), with the channels' leading cell axes, got {sigma.shape} and {v.shape}")
    if not ((sigma >= 0.0) & (sigma < math.inf)).all() or not np.isfinite(v).all():
        raise ValueError("singular values must be finite and nonnegative, and singular vectors finite")
    return sigma, v


def _codebook_phasors(cfg: ArrayConfig, cb: Codebook) -> np.ndarray:
    """Every entry's Tx shift phasors t_l, shape (L, N), in entry order, from the angle grids.

    One sine per azimuth and per polar, and elementwise, so a row has the bits of its entry's own call.
    """
    tau = tx_displacement(cfg, cb.theta_angles[:, None], cb.phi_angles[None, :])
    return _phasors(cfg, tau).reshape(cb.size, cfg.n_antennas)


def _stream_columns(n: int, powers: np.ndarray) -> np.ndarray:
    """Q~ P~^(1/2): the DFT columns of the streams with power, times their amplitudes; shape (N, r)."""
    active = np.flatnonzero(powers > 0.0)
    return dft_matrix(n)[:, active] * np.sqrt(powers[active])


def _cholesky_diagonal(a: np.ndarray) -> np.ndarray:
    """The real diagonal of the Cholesky factors of a (..., k, k) Hermitian positive definite stack; (..., k)."""
    return np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1).real


def _log_det(a: np.ndarray) -> np.ndarray:
    """Natural log-determinants of a (..., k, k) stack of Hermitian positive definite matrices, by Cholesky."""
    return 2.0 * np.sum(np.log(_cholesky_diagonal(a)), axis=-1)


def _entry_rates(x: np.ndarray, t_conj: np.ndarray, hh: np.ndarray, q_conj: np.ndarray) -> np.ndarray:
    """Rates of a (P, r, N) stack of first-product operands, the rows of (D_l Q~)^T; shape (P,).

    `t_conj` holds the pairs' conjugate phasors as (P, 1, N), and `hh`
    their channels' H^H H, (P, N, N).  Both products are stacked matmuls,
    which take one r-row product per pair, so a rate does not depend on
    which pairs share the call: each pair's products have the same shape
    and operands whatever the block.
    """
    y = np.matmul(x, np.swapaxes(hh, -1, -2))
    y *= t_conj  # rows of (D_l^H H^H H D_l Q~)^T
    gram = np.matmul(y, q_conj)
    p, r = gram.shape[:2]
    gram.reshape(p, r * r)[:, :: r + 1] += 1.0
    return _log_det(gram) / _LN2


def _pair_rates(hh: np.ndarray, t: np.ndarray, q: np.ndarray, trials: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Rate of entry entries[i] (phasors t[entries[i]]) on channel trials[i], with Q~ P~^(1/2) = `q`; shape (P,).

    The pairs are scored in blocks of 2 _SCORE_BLOCK / (N + r)^2, each pair with its own gathered H^H H.
    """
    n, r = q.shape
    per = max(1, 2 * _SCORE_BLOCK // (n + r) ** 2)
    q_conj = q.conj()
    rates = np.empty(len(trials))
    for start in range(0, len(trials), per):
        pairs = slice(start, start + per)
        tb = t[entries[pairs]]
        rates[pairs] = _entry_rates(tb[:, None, :] * q.T, tb.conj()[:, None, :], hh[trials[pairs]], q_conj)
    return rates


class _Modes(NamedTuple):
    """What the eigenbasis bound needs of T channels' M = V diag(w) V^H, w ascending, for r streams."""

    coef: np.ndarray  # (T rows, N^2), channel-major: w_m C_m of the r strongest modes, then sum_m C_m if r < N
    rank: int  # r, the streams with power
    tail: np.ndarray  # (T,): w_(r+1) / (N - r), the largest weak mode's gain per unit of leaked power
    total: float  # sum p, the power of all streams
    margin: np.ndarray  # (T,): the float error the bound and the exact score may have together, in bits
    # The second-order term's inputs, read at r = N only (inv_w, gamma and reach are 0 at r < N):
    inv_w: np.ndarray  # (T, N): 1 / w_m, which turns w_m e_m back into e_m; 0 for a zero or subnormal w_m
    square: float  # sum p^2, the squared Frobenius norm of Z_l Z_l^H
    gamma: np.ndarray  # (T,): gamma / ln 2, gamma <= every g_m g_m'; 0 where some 1 / w_m is 0
    reach: np.ndarray  # (T,): h / 3, h >= every g_m, so that ||E||_2 / 3 <= reach sqrt(O)


def _pair_products(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[..., j] = a[..., n] conj(a[..., n']) for the j-th pair n < n' in row-major order; out is (..., N(N-1)/2)."""
    n = a.shape[-1]
    a_conj = a.conj()
    start = 0
    for k in range(n - 1):
        stop = start + n - 1 - k
        np.multiply(a[..., k, None], a_conj[..., k + 1:], out=out[..., start:stop])
        start = stop
    return out


def _modes(sigma, v, powers: np.ndarray, q: np.ndarray) -> _Modes:
    """The bound's view of T channels' M = V diag(sigma^2) V^H, from their (T, N) sigma and (T, N, N) V.

    `q` is the powers' Q~ P~^(1/2) (`_stream_columns`), which gives K~.
    The modes go in a stable sort of sigma, weakest first.  The weights
    of an entry's phase features in e_m (`_entry_bounds`) are 2 conj(C_m,nn')
    for each pair n < n' as its real and imaginary parts, [2 Re C, -2 Im C],
    and then C_m,nn for each n.  Row (t, m) holds them times w_m, so that
    the product gives the mode's SNR w_m e_m; with r < N a last row per
    channel holds their sum over the r modes, unscaled, whose product is
    sum_top e.  The pairs are built one n at a time, so no temporary holds
    more than T r N values.  At r = N each channel also gets 1 / w_m and
    the constants gamma and h / 3 of the second-order term, from the
    powers' p_max and p_min.
    """
    trials, n = sigma.shape
    r = q.shape[1]
    k = q @ q.conj().T  # K~ = Q~ P~ Q~^H
    order = np.argsort(sigma, axis=-1, kind="stable")
    w = np.take_along_axis(sigma, order, axis=-1) ** 2
    v = np.swapaxes(np.take_along_axis(v, order[:, None, n - r:], axis=-1), 1, 2)  # (T, r, N): the r strongest
    pairs = n * (n - 1) // 2
    coef = np.empty((trials, r + (r < n), n * n))
    top = coef[:, :r]
    c = _pair_products(v, top[..., :2 * pairs].view(complex))  # V_nm conj(V_n'm)
    c *= 2.0 * k[np.triu_indices(n, 1)].conj()
    np.multiply(v.real**2 + v.imag**2, k.diagonal().real, out=top[..., 2 * pairs:])
    if r < n:
        top.sum(axis=1, out=coef[:, r])
    top *= w[:, n - r:, None]
    total = float(np.sum(powers))
    if r < n:
        inv_w, gamma, reach = np.zeros((trials, n)), np.zeros(trials), np.zeros(trials)
    else:  # g_m = w_m / (1 + w_m e_m) with e_m in [p_min, p_max]
        normal = w >= np.finfo(float).tiny  # a zero or subnormal w_m has no finite inverse
        inv_w = np.divide(1.0, w, out=np.zeros_like(w), where=normal)
        gamma = np.prod(w[:, :2] / (1.0 + w[:, :2] * powers.max()), axis=-1) * normal[:, 0]
        reach = w[:, -1] / (1.0 + w[:, -1] * powers.min()) / 3.0
    margin = 5.0 * r * (n + 4) ** 2 * (1.0 + w[:, -1] * total) + (n * n + 7 * n + 25) * gamma * total**2
    return _Modes(
        coef=coef.reshape(-1, n * n),
        rank=r,
        tail=w[:, n - r - 1] / (n - r) if r < n else np.zeros(trials),
        total=total,
        margin=margin * _EPS / _LN2,
        inv_w=inv_w,
        square=float(np.sum(powers**2)),
        gamma=gamma / _LN2,
        reach=reach,
    )


def _entry_bounds(t: np.ndarray, modes: _Modes) -> np.ndarray:
    """Every entry's eigenbasis Hadamard bound on every channel, in bits; shape (T, L).

    `t` holds the entries' phasors, (L, N).  An entry's N^2 phase
    features are t_n conj(t_n') for each pair n < n' as its real and
    imaginary parts, then |t_n|^2 for each n.  One real matrix product per
    entry block, the (b, N^2) features times the coefficients of `_modes`,
    gives w_m e_m for the r strongest modes of all T channels at once, and
    with r < N each channel's sum_top e.  The bound of
    `codebook_best_rates` sums log2(1 + w_m e_m) over the r modes and adds
    (N - r) log2(1 + w_(r+1) leaked / (N - r)) for the weakest, leaked =
    sum p - sum_top e; at r = N it takes off gamma O max(0, 1/2 - h
    sqrt(O) / 3) / ln 2, with e_m = w_m e_m / w_m and O = sum p^2 - sum_m
    e_m^2 from one multiply and one `einsum` per block.  A bound does not
    depend on its block, so the entries of several codebooks may share
    one.  A block holds about 2 _SCORE_BLOCK reals in the larger of its
    features and its product.
    """
    size, n = t.shape
    trials, r = len(modes.margin), modes.rank
    pairs = n * (n - 1) // 2
    per = max(1, 2 * _SCORE_BLOCK // max(n * n, len(modes.coef)))
    features = np.empty((min(per, size), n * n))
    bounds = np.empty((trials, size))
    for start in range(0, size, per):
        tb = t[start:start + per]
        b = len(tb)
        feat = features[:b]
        _pair_products(tb, feat[:, :2 * pairs].view(complex))
        np.add(tb.real**2, tb.imag**2, out=feat[:, 2 * pairs:])
        e = (feat @ modes.coef.T).reshape(b, trials, -1)
        bound = _rate_sum(e[..., :r])
        if r < n:
            leaked = np.maximum(modes.total - e[..., r], 0.0)
            bound += (n - r) * _rate_sum((leaked * modes.tail)[..., None])
        else:
            u = e * modes.inv_w
            off = np.maximum(modes.square - np.einsum("btm,btm->bt", u, u), 0.0)
            bound -= modes.gamma * off * np.maximum(0.5 - modes.reach * np.sqrt(off), 0.0)
        bounds[:, start:start + b] = bound.T
    return bounds


def _best_rates(hh: np.ndarray, t: np.ndarray, q: np.ndarray, bounds: np.ndarray, margin: np.ndarray,
                sizes) -> np.ndarray:
    """Each codebook's best rate on each channel, scoring only entries whose bound can reach it; (K, T).

    The K codebooks' entries lie one after another in `t` and in the
    columns of `bounds`, `sizes` of them each.  Two `_pair_rates` calls
    score every pair: first each (codebook, channel)'s _FIRST_SCORED
    entries of largest bound, then every other entry whose bound reaches
    its own codebook's best less the channel's margin.
    """
    trials = len(bounds)
    owner = np.repeat(np.arange(len(sizes)), sizes)  # each entry's codebook
    picked = []
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        first = min(_FIRST_SCORED, size)
        picked.append(start + np.argpartition(bounds[:, start:start + size], size - first, axis=1)[:, size - first:])
    entries = np.concatenate(picked, axis=1).ravel()
    rows = np.repeat(np.arange(trials), len(entries) // trials)
    best = np.full((len(sizes), trials), -np.inf)
    np.maximum.at(best, (owner[entries], rows), _pair_rates(hh, t, q, rows, entries))
    rest = bounds >= (best - margin)[owner].T
    rest[rows, entries] = False
    rows, entries = np.nonzero(rest)
    np.maximum.at(best, (owner[entries], rows), _pair_rates(hh, t, q, rows, entries))
    return best


# Smallest-to-largest singular value ratio at or below which a channel is rank-deficient.
_RANK_TOL = 1e-12


def nulling_rates(sigma, v, p_total: float) -> tuple[np.ndarray, np.ndarray]:
    """Equal-power ZF and ZF-SIC sum rates of T channels from their SVDs U diag(sigma) V^H; two (T,) arrays.

    `sigma` holds each channel's singular values, shape (T, N), and `v`
    its right singular vectors as columns, shape (T, N, N); `p_total`
    must be positive and finite.  At unit noise each stream gets
    p = p_total/N, and ZF stream k sees SNR p / [(H^H H)^-1]_kk with
    [(H^H H)^-1]_kk = sum_m |V_km|^2 / sigma_m^2, so no Gram matrix is
    formed and the condition number is not squared.  ZF-SIC detects and
    subtracts the streams in turn; its sum rate log2 det(I + p H^H H)
    does not depend on the detection order, and it equals
    sum_k log2(1 + p sigma_k^2).  A channel whose smallest singular value
    is at most `_RANK_TOL` times its largest is rank-deficient and scores
    zero on both receivers, where neither can operate.  The campaigns run
    this one kernel on both channel models: on the separable model they
    pass the closed form V = T_t Q, whose |V_km|^2 = 1/N give every ZF
    stream the SNR p / mean_k sigma_k^-2.
    """
    sigma, v = _checked_svd(sigma, v)
    if not 0.0 < p_total < math.inf:
        raise ValueError(f"p_total must be positive and finite, got {p_total}")
    full = np.min(sigma, axis=-1) > _RANK_TOL * np.max(sigma, axis=-1)
    kept = np.where(full[:, None], sigma, 1.0)  # no gain of a row scored 0 is divided by
    p = p_total / sigma.shape[-1]
    diag_inv = np.sum((v.real**2 + v.imag**2) / kept[:, None, :] ** 2, axis=-1)
    return np.where(full, _rate_sum(p / diag_inv), 0.0), np.where(full, _rate_sum(kept**2 * p), 0.0)
