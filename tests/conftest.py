import numpy as np

from ucamimo import ArrayConfig, Misalignment


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
