"""Antenna geometry for a pair of uniform circular arrays (UCAs).

The transmit array sits on the xy-plane, centred at the origin, with its
first element on the x-axis.  The receive array is nominally parallel to it
at boresight distance D, but may be displaced by five misalignment angles:
an in-plane rotation, two tilts, and a two-angle centre shift.  This module
generates antenna coordinates under those displacements and computes
inter-antenna distances both exactly and with the separable far-field
approximation used by the channel model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# D must exceed the radii by this factor before the separable distance
# approximation is trusted (keeps the residual phase error well below the
# carrier wavelength at millimetre-wave scales).
APPROX_DISTANCE_RATIO = 10.0


class ModelValidityError(ValueError):
    """Raised when the far-field approximation is requested out of range."""


def rotation_matrix(plane: str, angle: float) -> np.ndarray:
    """Return the 3x3 rotation by `angle` in the given coordinate plane.

    `plane` selects which pair of axes rotates: "xy" (about z), "xz"
    (about y) or "yz" (about x).  All are proper rotations (det +1).
    """
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    c = math.cos(angle)
    s = math.sin(angle)
    if plane == "xy":
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    if plane == "xz":
        return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
    if plane == "yz":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    raise ValueError(f"unknown rotation plane {plane!r} (use xy, xz or yz)")


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry of one Tx/Rx UCA pair.

    Attributes
    ----------
    n_antennas : int
        Elements per array; must be even and at least 2.
    wavelength : float
        Carrier wavelength in metres.
    radius_tx, radius_rx : float
        Array radii in metres.
    distance : float
        Boresight distance between the array centres in metres.
    """

    n_antennas: int
    wavelength: float
    radius_tx: float
    radius_rx: float
    distance: float

    def __post_init__(self):
        if self.n_antennas < 2 or self.n_antennas % 2 != 0:
            raise ValueError("n_antennas must be an even integer >= 2")
        for name in ("wavelength", "radius_tx", "radius_rx", "distance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")

    @property
    def beta(self) -> float:
        """Dimensionless size parameter 2*pi*R_t*R_r / (wavelength*D).

        Together with the in-plane rotation angle it fully determines the
        singular-value spectrum of the link.
        """
        return TWO_PI * self.radius_tx * self.radius_rx / (self.wavelength * self.distance)

    @property
    def antenna_angles(self) -> np.ndarray:
        """Angular positions 2*pi*k/N for elements k = 1..N."""
        n = self.n_antennas
        return np.arange(1, n + 1) * (TWO_PI / n)

    @property
    def supports_far_field(self) -> bool:
        """Whether D is large enough for the separable distance model."""
        return self.distance >= APPROX_DISTANCE_RATIO * max(self.radius_tx, self.radius_rx)


def _wrap_pi(angle: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(angle, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class Misalignment:
    """The five displacement angles of the receive array (radians).

    theta_o   in-plane rotation about boresight
    theta_cs  azimuth of the centre shift, measured from the y-axis
    phi_cs    polar angle of the centre shift, measured from boresight
    phi_x     tilt toward the xz-plane
    phi_y     tilt toward the yz-plane

    The constructor checks only the angle ranges that do not depend on
    the array (`theta_cs` in [-pi, pi], `phi_cs` in [0, pi/2)); the
    rotation bound |theta_o| <= pi/N is left to the caller, as
    `sim.draw_misalignment` clamps it.
    """

    theta_o: float = 0.0
    theta_cs: float = 0.0
    phi_cs: float = 0.0
    phi_x: float = 0.0
    phi_y: float = 0.0

    _TOL = 1e-12

    def __post_init__(self):
        for name in ("theta_o", "theta_cs", "phi_cs", "phi_x", "phi_y"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not -math.pi - self._TOL <= self.theta_cs <= math.pi + self._TOL:
            raise ValueError("theta_cs must lie in [-pi, pi]")
        if not 0.0 <= self.phi_cs < math.pi / 2:
            raise ValueError("phi_cs must lie in [0, pi/2)")


@dataclass(frozen=True)
class Coordinate3:
    """A point in 3-space, metres."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError("coordinates must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @classmethod
    def from_array(cls, a) -> "Coordinate3":
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass(frozen=True)
class DistanceDecomposition:
    """Separable split of an inter-antenna distance.

    `d_a` is the distance an in-plane-rotated but otherwise aligned pair
    would see, `tau_t` is the Tx-indexed displacement caused by the centre
    shift, and `tau_r` is the Rx-indexed displacement collecting all three
    misalignment effects.  `total` is d_a - tau_t + tau_r by construction.
    """

    d_a: float
    tau_t: float
    tau_r: float

    @property
    def total(self) -> float:
        return self.d_a - self.tau_t + self.tau_r


def _check_index(cfg: ArrayConfig, idx: int, name: str) -> None:
    if not 1 <= idx <= cfg.n_antennas:
        raise ValueError(f"{name} must lie in 1..{cfg.n_antennas}, got {idx}")


def tx_antenna_position(cfg: ArrayConfig, m: int) -> Coordinate3:
    """Coordinates of Tx element m (1-based), on the xy-plane."""
    _check_index(cfg, m, "m")
    theta = TWO_PI * m / cfg.n_antennas
    return Coordinate3(cfg.radius_tx * math.cos(theta), cfg.radius_tx * math.sin(theta), 0.0)


def center_vector(cfg: ArrayConfig, mis: Misalignment) -> np.ndarray:
    """Vector from the Tx centre to the (possibly shifted) Rx centre.

    The direction is set by the polar angle `phi_cs` from boresight and the
    azimuth `theta_cs` measured from the y-axis, so the components are
    D*(sin(phi)sin(theta), sin(phi)cos(theta), cos(phi)).
    """
    d = cfg.distance
    sp = math.sin(mis.phi_cs)
    return np.array(
        [
            d * sp * math.sin(mis.theta_cs),
            d * sp * math.cos(mis.theta_cs),
            d * math.cos(mis.phi_cs),
        ]
    )


def rx_antenna_position(cfg: ArrayConfig, mis: Misalignment, n: int) -> Coordinate3:
    """Coordinates of Rx element n after rotation, tilting and centre shift.

    The element ring is rotated in-plane by theta_o, tilted by the cascade
    of the yz- then xz-plane rotations, and finally translated to the
    shifted centre.
    """
    _check_index(cfg, n, "n")
    theta = TWO_PI * n / cfg.n_antennas + mis.theta_o
    ring = np.array([cfg.radius_rx * math.cos(theta), cfg.radius_rx * math.sin(theta), 0.0])
    tilt = rotation_matrix("xz", mis.phi_x) @ rotation_matrix("yz", mis.phi_y)
    return Coordinate3.from_array(center_vector(cfg, mis) + tilt @ ring)


def attitude_matrix(mis: Misalignment) -> np.ndarray:
    """Tilt cascade pre-rotated by the shift azimuth.

    Product of the xy-plane rotation by theta_cs with the two tilt
    rotations; its rows determine how each coordinate of the Rx ring
    oscillates with the element angle.
    """
    return (
        rotation_matrix("xy", mis.theta_cs)
        @ rotation_matrix("xz", mis.phi_x)
        @ rotation_matrix("yz", mis.phi_y)
    )


def rx_ring_harmonics(cfg: ArrayConfig, mis: Misalignment) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude and phase of the Rx ring coordinates in the shift-aligned frame.

    In the frame rotated so the centre shift lies in the yz-plane, each
    coordinate of Rx element n is a sinusoid amp_i * cos(theta_n - phase_i)
    plus the centre offset.  Returns (amplitudes, phases), one per axis.
    A degenerate axis (zero amplitude) gets phase 0; its term vanishes.
    """
    b = attitude_matrix(mis)
    amps = cfg.radius_rx * np.hypot(b[:, 0], b[:, 1])
    phases = np.where(
        amps > 0.0,
        np.arctan2(b[:, 1], b[:, 0]) - mis.theta_o,
        0.0,
    )
    return amps, phases


def _squared_distance(cfg: ArrayConfig, mis: Misalignment, theta_n, theta_m):
    """Squared Tx-Rx distance in closed form; broadcasts over the angles."""
    rt, rr, d = cfg.radius_tx, cfg.radius_rx, cfg.distance
    amps, phases = rx_ring_harmonics(cfg, mis)
    sin_pcs = math.sin(mis.phi_cs)
    cos_pcs = math.cos(mis.phi_cs)
    shx = math.sin(mis.phi_x / 2.0) ** 2
    shy = math.sin(mis.phi_y / 2.0) ** 2
    sxsy = math.sin(mis.phi_x) * math.sin(mis.phi_y)

    rot = -2.0 * rt * rr * np.cos(theta_n - theta_m + mis.theta_o)
    ring = 0.5 * sum(
        amps[i] ** 2 * np.cos(2.0 * (theta_n - phases[i])) for i in range(3)
    )
    tilt = (
        4.0
        * rt
        * rr
        * (
            shx * np.cos(theta_m) * np.cos(theta_n + mis.theta_o)
            + shy * np.sin(theta_m) * np.sin(theta_n + mis.theta_o)
            + 0.5 * sxsy * np.cos(theta_m) * np.sin(theta_n + mis.theta_o)
        )
    )
    shift = (
        2.0
        * d
        * (
            amps[1] * np.cos(theta_n - phases[1]) * sin_pcs
            + amps[2] * np.cos(theta_n - phases[2]) * cos_pcs
            - rt * np.sin(theta_m + mis.theta_cs) * sin_pcs
        )
    )
    return d * d + rt * rt + rr * rr + rot + ring + tilt + shift


def distance_exact(cfg: ArrayConfig, mis: Misalignment, n: int, m: int) -> float:
    """Exact distance between Tx element m and Rx element n.

    Evaluates the closed form D*sqrt(1 + f); it agrees with the Euclidean
    norm of the coordinate difference to machine precision.
    """
    _check_index(cfg, n, "n")
    _check_index(cfg, m, "m")
    theta_n = TWO_PI * n / cfg.n_antennas
    theta_m = TWO_PI * m / cfg.n_antennas
    d = cfg.distance
    f = (_squared_distance(cfg, mis, theta_n, theta_m) - d * d) / (d * d)
    return d * math.sqrt(1.0 + f)


def distance_matrix_exact(cfg: ArrayConfig, mis: Misalignment) -> np.ndarray:
    """All N x N exact distances; entry (n, m) is Rx n to Tx m."""
    th = cfg.antenna_angles
    d = cfg.distance
    sq = _squared_distance(cfg, mis, th[:, None], th[None, :])
    return d * np.sqrt(1.0 + (sq - d * d) / (d * d))


def _require_far_field(cfg: ArrayConfig, allow_close_range: bool) -> None:
    if not (allow_close_range or cfg.supports_far_field):
        raise ModelValidityError(
            "separable distance model needs distance >= "
            f"{APPROX_DISTANCE_RATIO:g} * max radius "
            f"(D={cfg.distance:g} m, radii {cfg.radius_tx:g}/{cfg.radius_rx:g} m); "
            "pass allow_close_range=True to override"
        )


def tx_displacement(cfg: ArrayConfig, theta_cs, phi_cs) -> np.ndarray:
    """Per-Tx-element path-length offset R_t sin(theta_m + theta_cs) sin(phi_cs).

    This is the offset a centre shift by (theta_cs, phi_cs) causes.  The
    angles broadcast against each other; the result has shape (..., N).
    """
    theta_cs = np.asarray(theta_cs, dtype=float)[..., None]
    phi_cs = np.asarray(phi_cs, dtype=float)[..., None]
    return cfg.radius_tx * np.sin(cfg.antenna_angles + theta_cs) * np.sin(phi_cs)


def rx_displacement(cfg: ArrayConfig, mis: Misalignment) -> np.ndarray:
    """Per-Rx-element path-length offset from all three misalignments.

    Combines the second-order ring curvature term with the first-order
    projections of the tilted ring onto the shift direction.
    """
    th = cfg.antenna_angles
    amps, phases = rx_ring_harmonics(cfg, mis)
    curvature = sum(
        amps[i] ** 2 * np.cos(2.0 * (th - phases[i])) for i in range(3)
    ) / (4.0 * cfg.distance)
    return (
        curvature
        + amps[1] * np.cos(th - phases[1]) * math.sin(mis.phi_cs)
        + amps[2] * np.cos(th - phases[2]) * math.cos(mis.phi_cs)
    )


def distance_approx(
    cfg: ArrayConfig,
    mis: Misalignment,
    n: int,
    m: int,
    *,
    allow_close_range: bool = False,
) -> DistanceDecomposition:
    """Separable far-field approximation of the distance.

    The result splits into an aligned-with-rotation term depending on
    (n - m), a Tx-indexed displacement and an Rx-indexed displacement, so
    the corresponding channel factorises into phase diagonals around a
    circulant core.
    """
    _check_index(cfg, n, "n")
    _check_index(cfg, m, "m")
    _require_far_field(cfg, allow_close_range)
    theta_n = TWO_PI * n / cfg.n_antennas
    theta_m = TWO_PI * m / cfg.n_antennas
    d_a = cfg.distance - (cfg.radius_tx * cfg.radius_rx / cfg.distance) * math.cos(
        theta_n - theta_m + mis.theta_o
    )
    tau_t = float(tx_displacement(cfg, mis.theta_cs, mis.phi_cs)[m - 1])
    tau_r = float(rx_displacement(cfg, mis)[n - 1])
    return DistanceDecomposition(d_a=d_a, tau_t=tau_t, tau_r=tau_r)
