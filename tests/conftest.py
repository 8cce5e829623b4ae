import math

import numpy as np

from ucamimo import EXACT_DISTANCE, ArrayConfig, Misalignment, rotation_matrix, sim
from ucamimo.geometry import ANGLE_NAMES, _require_far_field, rx_displacement, tx_displacement


def svd_of(h):
    """(sigma, V) of a (T, N, N) stack from one `np.linalg.svd`: singular values and right singular vectors as columns."""
    _, sigma, vh = np.linalg.svd(h)
    return sigma, np.swapaxes(vh, -1, -2).conj()


def stack_of(mis_list) -> Misalignment:
    """One stacked misalignment, (T,) arrays, from T one-trial misalignments."""
    return Misalignment(*(np.array([getattr(m, name) for m in mis_list]) for name in ANGLE_NAMES))


def campaign_svd(cfg, mis, h, model):
    """(sigma, V) of a stack as the campaigns' cells take it: one SVD with exact geometry, the closed form otherwise."""
    return svd_of(h) if model == EXACT_DISTANCE else sim._closed_form(cfg, cfg.beta, mis)


def campaign_cells(trial_cfg):
    """Each cell of a campaign as (array, misalignments, channels, sigma, V), flattened from `sim._cells`."""
    for _, mis, cells in sim._cells(trial_cfg):
        for d, cfg in enumerate(cells.cfgs):
            yield cfg, mis, cells.h[d], cells.sigma[d], cells.v[d]


def channels_svd(cfg, channels, model):
    """`campaign_svd` of a list of one-trial `ChannelMatrix` channels, stacked."""
    return campaign_svd(cfg, stack_of([c.mis for c in channels]), np.stack([c.entries for c in channels]), model)


def random_config(rng, n_antennas=None, far_field=True):
    """Random array geometry; far_field keeps D >= 10x the radii."""
    n = int(n_antennas or rng.choice([4, 6, 8, 12, 16]))
    wavelength = float(rng.uniform(0.002, 0.01))
    distance = float(rng.uniform(50.0, 500.0))
    cap = distance / 12.0 if far_field else distance / 4.0
    return ArrayConfig(
        n_antennas=n,
        wavelength=wavelength,
        radius_tx=float(rng.uniform(0.05, cap)),
        radius_rx=float(rng.uniform(0.05, cap)),
        distance=distance,
    )


def random_misalignment(rng, n_antennas, small=np.radians(10.0)):
    """Random draw over the production angle ranges."""
    bound = min(small, np.pi / n_antennas)
    return Misalignment(
        theta_o=float(rng.uniform(-bound, bound)),
        theta_cs=float(rng.uniform(-np.pi, np.pi)),
        phi_cs=float(rng.uniform(0.0, small)),
        phi_x=float(rng.uniform(-small, small)),
        phi_y=float(rng.uniform(-small, small)),
    )


def previous_trial_angles(rng, trial_cfg):
    """One trial's angles before the rotation clamp by the scalar rule the vectorised draws replaced.

    The reference for `sim._campaign_draws` and `sim.draw_misalignment`:
    five scalar `uniform` calls in `Misalignment` field order, then a
    negative polar draw reflected to the opposite azimuth, wrapped into
    [-pi, pi] by `math.remainder`.
    """
    small, cs = trial_cfg.angle_range_small, trial_cfg.theta_cs_range
    theta_o = float(rng.uniform(-small, small))
    theta_cs = float(rng.uniform(-cs, cs))
    phi_cs = float(rng.uniform(-small, small))
    phi_x = float(rng.uniform(-small, small))
    phi_y = float(rng.uniform(-small, small))
    if phi_cs < 0.0:
        phi_cs = -phi_cs
        theta_cs = math.remainder(theta_cs + math.pi, 2.0 * math.pi)
    return theta_o, theta_cs, phi_cs, phi_x, phi_y


def element_coordinates(cfg, mis):
    """Tx and Rx element coordinates from the paper's geometry; shapes (N, 3) and (..., N, 3).

    Element k sits at angle 2*pi*k/N of its ring.  The Tx ring lies on the
    xy-plane.  The Rx ring is rotated in-plane by theta_o, tilted by the yz-
    then the xz-plane rotation and moved to the shifted centre
    D*(sin phi_cs sin theta_cs, sin phi_cs cos theta_cs, cos phi_cs).
    """
    th = 2.0 * np.pi * np.arange(1, cfg.n_antennas + 1) / cfg.n_antennas

    def ring(radius, angles):
        return radius * np.stack([np.cos(angles), np.sin(angles), np.zeros_like(angles)], axis=-1)

    theta_o, theta_cs, phi_cs = (np.asarray(a, dtype=float) for a in (mis.theta_o, mis.theta_cs, mis.phi_cs))
    tilt = rotation_matrix("xz", mis.phi_x) @ rotation_matrix("yz", mis.phi_y)
    centre = cfg.distance * np.stack(
        [np.sin(phi_cs) * np.sin(theta_cs), np.sin(phi_cs) * np.cos(theta_cs), np.cos(phi_cs)], axis=-1
    )
    rx = centre[..., None, :] + ring(cfg.radius_rx, th + theta_o[..., None]) @ np.swapaxes(tilt, -1, -2)
    return ring(cfg.radius_tx, th), rx


def coordinate_distances(cfg, mis):
    """Exact distances as norms of coordinate differences, shape (..., N, N); entry (n, m) is Rx n to Tx m.

    The independent oracle for `distance_matrix_exact`: it shares no code
    with the closed form it checks.
    """
    tx, rx = element_coordinates(cfg, mis)
    return np.linalg.norm(rx[..., :, None, :] - tx, axis=-1)


def separable_distances(cfg, mis):
    """Separable far-field distances d_a - tau_t + tau_r, shape (..., N, N), from the production displacements.

    d_a = D - (R_t R_r / D) cos(theta_n - theta_m + theta_o) is the distance
    of the rotated but otherwise aligned pair; the channel's phase
    diagonals carry the Tx offsets tau_t and the Rx offsets tau_r.
    """
    _require_far_field(cfg)
    th = cfg.antenna_angles
    theta_o = np.asarray(mis.theta_o, dtype=float)[..., None, None]
    d_a = cfg.distance - (cfg.radius_tx * cfg.radius_rx / cfg.distance) * np.cos(th[:, None] - th + theta_o)
    tau_t = tx_displacement(cfg, mis.theta_cs, mis.phi_cs)[..., None, :]
    return d_a - tau_t + rx_displacement(cfg, mis)[..., :, None]


def previous_water_fill_powers(sigmas, p_total, noise):
    """The sorted-threshold rule as it was written before the value sort, kept as the reference.

    A stable argsort orders the inverse gains, the powers are computed in
    sorted order and scattered back, so the rank decides which streams
    are active.  `_water_fill_powers` must equal it bit for bit wherever
    no group of exactly tied gains straddles the edge of the active set.
    """
    with np.errstate(divide="ignore", over="ignore"):
        inv_gain = noise / sigmas**2
    order = np.argsort(inv_gain, axis=-1, kind="stable")
    sorted_inv = np.take_along_axis(inv_gain, order, axis=-1)
    n = sigmas.shape[-1]
    excess = sorted_inv - sorted_inv[..., :1]
    size = np.arange(1, n + 1)
    level = (p_total + np.cumsum(excess, axis=-1)) / size
    active = n - np.argmax((level > excess)[..., ::-1], axis=-1)
    water = np.take_along_axis(level, active[..., None] - 1, axis=-1)
    sorted_powers = np.where(size <= active[..., None], water - excess, 0.0)
    powers = np.empty_like(sorted_powers)
    np.put_along_axis(powers, order, sorted_powers, axis=-1)
    return powers


def bits(a) -> np.ndarray:
    """The raw 64-bit words of a float or complex array, for bit-for-bit comparisons."""
    return np.ascontiguousarray(a).view(np.uint64)
