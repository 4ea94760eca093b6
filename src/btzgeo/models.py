"""Model singular spacetime: the extreme BTZ white hole.

Coordinates are (tau, r, theta) with metric -2 dtau dr + dr^2 + r^2 dtheta^2,
on the infinite branched cover (theta in R).  The maps here take coordinate
arrays of any matching shape, and Minkowski points as arrays (..., 3).

The developing map dev0 (``dev0_array``) identifies the regular part of the BTZ cover with
the open half-space {t > x} of Minkowski space; the deck transformation is a
parabolic fixing the lightlike line spanned by (1,1,0).
"""

from __future__ import annotations

import math

import numpy as np

from .minkowski import GeometryError, LinearIsometry

TWO_PI = 2.0 * math.pi


class NotInImage(GeometryError):
    """Point is outside the image of the developing map."""


def metric_btz(r: float) -> np.ndarray:
    """Metric matrix of -2 dtau dr + dr^2 + r^2 dtheta^2 in the (tau, r, theta) basis."""
    return np.array([[0.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, r * r]])


def dev0_array(tau, r, theta) -> np.ndarray:
    """Developing map of the BTZ branched cover into Minkowski space.

    (tau, r, theta) -> (tau + r theta^2/2, tau + r theta^2/2 - r, -r theta),
    on coordinate arrays; returns shape (..., 3).
    """
    tau, r, theta = np.asarray(tau, float), np.asarray(r, float), np.asarray(theta, float)
    lead = tau + 0.5 * r * theta * theta  # broadcast over all three
    out = np.empty(np.shape(lead) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = lead, lead - r, -r * theta
    return out


def _axis_band(q: np.ndarray, tol: float) -> np.ndarray:
    # fmax ignores NaN, as the builtin max(1.0, nan) does
    return tol * np.fmax(1.0, np.abs(q).max(axis=-1))


def in_image_dev0(q, tol: float = 1e-12) -> np.ndarray:
    """Which points q (..., 3) lie in the image {t > x} united with the axis {t = x, y = 0}."""
    q = np.asarray(q, dtype=float)
    gap = q[..., 0] - q[..., 1]
    band = _axis_band(q, tol)
    return (gap > band) | ((np.abs(gap) <= band) & (np.abs(q[..., 2]) <= band))


def dev0_inverse(q, tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of dev0 on its image: r = t - x, theta = -y/r, tau = t - r theta^2/2.

    Takes points (..., 3) and returns the arrays (tau, r, theta); axis points
    get r = theta = 0.  Raises NotInImage if any point is outside the image.
    """
    q = np.asarray(q, dtype=float)
    inside = in_image_dev0(q, tol=tol)
    if not np.all(inside):
        raise NotInImage(f"{q[~inside][0]} is not in the developing image")
    t, x, y = np.moveaxis(q, -1, 0)
    gap = t - x
    axis = gap <= _axis_band(q, tol)
    r = np.where(axis, 0.0, gap)
    theta = np.where(axis, 0.0, -y / np.where(axis, 1.0, r))
    return t - 0.5 * r * theta * theta, r, theta


def h_ell_coords(ell: float, tau, r, theta):
    """Hyperbolic model isometry of the BTZ cover, on coordinate arrays.

    (tau, r, theta) -> (ell tau - ((ell^2-1)/(2 ell)) r, r/ell, ell theta), ell > 0.
    It does not descend to the 2pi-reduced quotient unless ell = 1.
    """
    if not ell > 0:
        raise ValueError("ell must be positive")
    tau = np.asarray(tau, float)
    r = np.asarray(r, float)
    theta = np.asarray(theta, float)
    return ell * tau - ((ell * ell - 1.0) / (2.0 * ell)) * r, r / ell, ell * theta


def holonomy_around_axis() -> LinearIsometry:
    """Holonomy of the BTZ developing map around the singular axis.

    The parabolic g with g . dev0(tau, r, theta) = dev0(tau, r, theta + 2pi),
    obtained by solving the exact linear system on three independent image points.
    """
    tau, r, theta = np.array([(0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 1.0)]).T
    before = dev0_array(tau, r, theta).T
    after = dev0_array(tau, r, theta + TWO_PI).T
    return LinearIsometry(after @ np.linalg.inv(before))


def _log_unipotent(m: np.ndarray) -> np.ndarray:
    """Exact log of m when m - I is nilpotent of order 3."""
    a = m - np.eye(3)
    return a - 0.5 * (a @ a)


_AXIS_DECK_GEN = _log_unipotent(holonomy_around_axis().matrix) / TWO_PI
_AXIS_DECK_GEN.setflags(write=False)


def axis_deck_generator() -> np.ndarray:
    """log(holonomy_around_axis()) / 2pi, computed once at import (read-only)."""
    return _AXIS_DECK_GEN


def parabolic_parameter(m: LinearIsometry, tol: float = 1e-9) -> float:
    """Parameter s with m = exp(s N), N = axis_deck_generator() scaled to s = 2pi.

    Raises GeometryError if m is not on that one-parameter group.
    """
    n0 = _AXIS_DECK_GEN
    s = float(np.sum(n0 * _log_unipotent(m.matrix))) / float(np.sum(n0 * n0))
    # Certify: exp(s N) must reproduce m.
    sn = s * n0
    recon = np.eye(3) + sn + 0.5 * (sn @ sn)
    if float(np.abs(recon - m.matrix).max()) > tol * max(1.0, float(np.abs(m.matrix).max())):
        raise GeometryError("matrix is not on the axis deck one-parameter group")
    return s
