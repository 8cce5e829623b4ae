"""Antenna geometry for a pair of uniform circular arrays (UCAs).

The transmit array sits on the xy-plane, centred at the origin, with its
first element on the x-axis.  The receive array is nominally parallel to it
at boresight distance D, but may be displaced by five misalignment angles:
an in-plane rotation, two tilts, and a two-angle centre shift.  This module
computes the inter-antenna distances under those displacements in one
stacked form each: `distance_matrix_exact` gives all N x N exact distances,
and `tx_displacement` and `rx_displacement` give the per-element offsets of
the separable far-field model that the channel assembles; the centre-shift
term of the exact distances is built from the same offsets.  Each broadcasts
over a leading trial axis; the tests check the exact distances against the
norms of element coordinates built from the paper's rotations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# D must exceed the radii by this factor before the separable distance
# approximation is trusted (keeps the residual phase error well below the
# carrier wavelength at millimetre-wave scales).
APPROX_DISTANCE_RATIO = 10.0


class ModelValidityError(ValueError):
    """Raised when the far-field approximation is requested out of range."""


# What counts as an integer for counts and seeds: Python or NumPy integers;
# a float such as 4.0 is not one.
_INTEGERS = (int, np.integer)


def _require_even(n: int, name: str) -> None:
    """The one rule on antenna counts: an even integer, at least 2."""
    if not isinstance(n, _INTEGERS) or n < 2 or n % 2 != 0:
        raise ValueError(f"{name} must be an even integer >= 2, got {n}")


def rotation_matrix(plane: str, angle) -> np.ndarray:
    """Return the 3x3 rotation by `angle` in the given coordinate plane.

    `plane` selects which pair of axes rotates: "xy" (about z), "xz"
    (about y) or "yz" (about x).  All are proper rotations (det +1).  An
    array of angles gives a stack of rotations, shape (..., 3, 3).
    """
    angle = np.asarray(angle, dtype=float)
    if not np.isfinite(angle).all():
        raise ValueError("rotation angle must be finite")
    # the rotating pair of axes (a, b) and the fixed axis f
    axes = {"xy": (0, 1, 2), "xz": (0, 2, 1), "yz": (1, 2, 0)}.get(plane)
    if axes is None:
        raise ValueError(f"unknown rotation plane {plane!r} (use xy, xz or yz)")
    a, b, f = axes
    c = np.cos(angle)
    s = np.sin(angle)
    m = np.zeros(angle.shape + (3, 3))
    m[..., a, a] = m[..., b, b] = c
    m[..., a, b] = -s
    m[..., b, a] = s
    m[..., f, f] = 1.0
    return m


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
        _require_even(self.n_antennas, "n_antennas")
        for name in ("wavelength", "radius_tx", "radius_rx", "distance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        # No path is longer than D + R_t + R_r, so this bounds every channel phase; Python
        # floats overflow to inf without a warning
        span = float(self.distance) + float(self.radius_tx) + float(self.radius_rx)
        if not TWO_PI * span / float(self.wavelength) < math.inf:
            raise ValueError(
                f"the phases at wavelength {self.wavelength:g} m and distance {self.distance:g} m are "
                "outside the range of a float: 2*pi*(D + R_t + R_r)/wavelength must be finite"
            )

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


ANGLE_NAMES = ("theta_o", "theta_cs", "phi_cs", "phi_x", "phi_y")


@dataclass(frozen=True)
class Misalignment:
    """The five displacement angles of the receive array (radians).

    theta_o   in-plane rotation about boresight
    theta_cs  azimuth of the centre shift, measured from the y-axis
    phi_cs    polar angle of the centre shift, measured from boresight
    phi_x     tilt toward the xz-plane
    phi_y     tilt toward the yz-plane

    Each angle is a float for one trial, or all five are arrays of one
    shape, (T,) for a stack of T trials; the geometry and channel
    functions then broadcast over that leading trial axis.

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
        values = [getattr(self, name) for name in ANGLE_NAMES]
        if len({getattr(v, "shape", ()) for v in values}) > 1:
            raise ValueError("misalignment angles must all have one shape")
        angles = np.array(values, dtype=float)
        if angles.ndim > 1:
            angles.setflags(write=False)
            for name, row in zip(ANGLE_NAMES, angles):
                object.__setattr__(self, name, row)
        finite = np.isfinite(angles.reshape(len(ANGLE_NAMES), -1)).all(axis=1)
        if not finite.all():
            raise ValueError(f"{ANGLE_NAMES[int(np.argmin(finite))]} must be finite")
        _, theta_cs, phi_cs, _, _ = angles
        if not ((-math.pi - self._TOL <= theta_cs) & (theta_cs <= math.pi + self._TOL)).all():
            raise ValueError("theta_cs must lie in [-pi, pi]")
        if not ((0.0 <= phi_cs) & (phi_cs < math.pi / 2)).all():
            raise ValueError("phi_cs must lie in [0, pi/2)")


def _angle(mis: Misalignment, name: str, tail: int = 0) -> np.ndarray:
    """One misalignment angle as an array with `tail` unit axes appended.

    The unit axes let a stack of trials broadcast against element angles.
    """
    a = np.asarray(getattr(mis, name), dtype=float)
    return a.reshape(a.shape + (1,) * tail)


def attitude_matrix(mis: Misalignment) -> np.ndarray:
    """Tilt cascade pre-rotated by the shift azimuth; shape (..., 3, 3).

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
    plus the centre offset.  Returns (amplitudes, phases), one per axis in
    the last dimension, shape (..., 3).  A degenerate axis (zero
    amplitude) gets phase 0; its term vanishes.
    """
    b = attitude_matrix(mis)
    amps = cfg.radius_rx * np.hypot(b[..., 0], b[..., 1])
    phases = np.where(
        amps > 0.0,
        np.arctan2(b[..., 1], b[..., 0]) - _angle(mis, "theta_o", 1),
        0.0,
    )
    return amps, phases


# Every term of the closed form's squared distance is below 24 times the
# squared largest length, and its quotient by D^2 below 24 times the larger
# of 1 and the squared radius-to-D ratio; a margin of 64 keeps them finite.
_SQUARE_MARGIN = 64.0


def _require_exact_range(distance: float, radius: float) -> None:
    """D^2 is a normal float, and 64 times the square of D, the radius and radius/D is finite."""
    distance, radius = float(distance), float(radius)  # Python floats overflow to inf without a warning
    largest = max(distance, radius, radius / distance)
    if not (sys.float_info.min <= distance * distance and _SQUARE_MARGIN * largest * largest < math.inf):
        raise ValueError(
            f"the exact distances at distance {distance:g} m with largest radius {radius:g} m are outside "
            "the range of a float: D^2 must be a normal float, and 64 times the squares of D, the "
            "radius and radius/D finite"
        )


def distance_matrix_exact(cfg: ArrayConfig, mis: Misalignment) -> np.ndarray:
    """All N x N exact distances, shape (..., N, N); entry (n, m) is Rx n to Tx m.

    Evaluates the closed form D*sqrt(1 + f) of the squared distance; a
    stack of misalignments adds its leading axes in front of (N, N).  The
    centre shift enters as 2D (tau_r(n) - tau_t(m)), with the offsets of
    `rx_displacement` and `tx_displacement`.  The squared tilted ring
    contributes no term: rotation and tilt keep the Rx ring's radius, so
    sum_i amp_i**2 cos 2(theta_n - phase_i) is identically zero.

    Raises ValueError, before any arithmetic, where D^2 is not a normal
    float or a length's square could overflow in the closed form.
    """
    rt, rr, d = cfg.radius_tx, cfg.radius_rx, cfg.distance
    _require_exact_range(d, max(rt, rr))
    th = cfg.antenna_angles
    theta_n, theta_m = th[:, None], th[None, :]
    theta_o, phi_x, phi_y = (_angle(mis, name, 2) for name in ("theta_o", "phi_x", "phi_y"))
    shx = np.sin(phi_x / 2.0) ** 2
    shy = np.sin(phi_y / 2.0) ** 2
    sxsy = np.sin(phi_x) * np.sin(phi_y)

    rot = -2.0 * rt * rr * np.cos(theta_n - theta_m + theta_o)
    tilt = (
        4.0
        * rt
        * rr
        * (
            shx * np.cos(theta_m) * np.cos(theta_n + theta_o)
            + shy * np.sin(theta_m) * np.sin(theta_n + theta_o)
            + 0.5 * sxsy * np.cos(theta_m) * np.sin(theta_n + theta_o)
        )
    )
    shift = 2.0 * d * (
        rx_displacement(cfg, mis)[..., :, None] - tx_displacement(cfg, mis.theta_cs, mis.phi_cs)[..., None, :]
    )
    sq = d * d + rt * rt + rr * rr + rot + tilt + shift
    return d * np.sqrt(1.0 + (sq - d * d) / (d * d))


# Largest phase, in radians, of one unit in the last place of D.  Each exact
# distance D*sqrt(1 + f) is rounded to about that unit, so past this bound the
# exact channel's phases 2*pi*d/wavelength are set by rounding, not by the
# geometry: at wavelength 1e-300 m and D = 100 m every distance rounds to D.
# The default campaign cells (wavelength 4 mm, D <= 500 m) are at most 9e-11 rad.
_EXACT_PHASE_STEP_MAX = 1e-6


def _require_exact_phase(cfg: ArrayConfig) -> None:
    """The exact channel's phases resolve the geometry: D's last place is at most `_EXACT_PHASE_STEP_MAX` rad."""
    step = TWO_PI * math.ulp(float(cfg.distance)) / float(cfg.wavelength)
    if step > _EXACT_PHASE_STEP_MAX:
        raise ValueError(
            f"the exact distances at distance {cfg.distance:g} m cannot resolve the phases at wavelength "
            f"{cfg.wavelength:g} m: one unit in the last place of D is {step:.3g} rad of phase, above "
            f"{_EXACT_PHASE_STEP_MAX:g} rad, so rounding would set the channel"
        )


def _require_far_field(cfg: ArrayConfig) -> None:
    """D must be large enough for the separable distance model."""
    if cfg.distance < APPROX_DISTANCE_RATIO * max(cfg.radius_tx, cfg.radius_rx):
        raise ModelValidityError(
            "separable distance model needs distance >= "
            f"{APPROX_DISTANCE_RATIO:g} * max radius "
            f"(D={cfg.distance:g} m, radii {cfg.radius_tx:g}/{cfg.radius_rx:g} m); "
            "use model='exact_distance' at close range"
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
    """Per-Rx-element path-length offset from all three misalignments; shape (..., N).

    The first-order projections of the tilted ring onto the shift
    direction.  The second-order ring curvature term,
    sum_i amp_i**2 cos 2(theta_n - phase_i) / (4 D), is identically zero,
    since rotation and tilt keep the ring's radius
    (`test_rx_ring_keeps_its_radius` checks the identity), so it has no
    term here.
    """
    th = cfg.antenna_angles
    amps, phases = rx_ring_harmonics(cfg, mis)
    amps, phases = ([a[..., i, None] for i in range(3)] for a in (amps, phases))
    phi_cs = _angle(mis, "phi_cs", 1)
    return (
        amps[1] * np.cos(th - phases[1]) * np.sin(phi_cs)
        + amps[2] * np.cos(th - phases[2]) * np.cos(phi_cs)
    )
